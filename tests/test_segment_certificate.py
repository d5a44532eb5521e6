"""The local planner's segment certificate is sound and changes nothing.

Before the batched twins (``batch_pairs_counted`` / ``batch_pairs_exact``)
interpolate a segment they ask the space to certify its padded endpoint
box free (``repro.cspace.local_planner._certified`` ->
``Environment.boxes_free`` -> ``KernelBackend.boxes_free``).  Two
properties, over adversarial worlds (zero-volume boxes, ±0.0 faces,
infinite slabs, coordinates around 1e6) and segments (endpoints on faces,
edges, corners and the workspace bounds, one ulp off them, axis-parallel,
grazing, NaN and ±inf):

* **Sound.**  Every point either ``t`` expression puts on a certified
  segment is free under ``reference.points_free`` — for ``t`` up to 1,
  where ``s + (e - s)`` need not round to ``e`` (the pad covers that).
* **Invisible.**  Both twins return the same ``(valid, steps, lengths)``
  and charge the same counters as a run whose certificate certifies
  nothing.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cspace import EuclideanCSpace, StraightLinePlanner
from repro.cspace.local_planner import _certified
from repro.cspace.space import ConfigurationSpace
from repro.geometry import AABB, Environment
from repro.kernels import BACKENDS, get_backend

#: Step counts whose check points are probed; past 2**53 both ``t``
#: expressions round ``n / (n + 1)`` to 1.
STEP_COUNTS = (1, 2, 3, 7, 64, 2**53, 2**62)


def _t_values(n: int) -> np.ndarray:
    """Both twins' check parameters for ``n`` steps (every ``j`` for small
    ``n``; for large ``n`` the extremes, which bound the rest: each
    coordinate of ``s + t*(e - s)`` is monotone in ``t``)."""
    j = np.arange(1, n + 1) if n <= 64 else np.array([1, 2, n - 1, n])
    n1 = np.full(j.shape, n + 1)
    return np.concatenate((j / n1, j * (1.0 / n1)))


def _face_coords(rng, lo, hi, shape, fallback):
    """Coordinates on a random box's faces (``fallback`` for an infinite
    face), each nudged one ulp either way with probability 1/3."""
    owner = rng.integers(0, lo.shape[0], shape[0])
    face = np.where(rng.random(shape) < 0.5, lo[owner], hi[owner])
    face = np.where(np.isfinite(face), face, fallback)
    nudge = rng.integers(-1, 2, shape)
    face = np.where(nudge > 0, np.nextafter(face, np.inf), face)
    return np.where(nudge < 0, np.nextafter(face, -np.inf), face)


def _world(seed: int, dim: int, m: int, n: int, center: float, special: bool):
    """``(env bounds, obstacle lo/hi, segment starts/ends)``; ``special``
    mixes NaN, ±inf and ±0.0 endpoint coordinates in."""
    rng = np.random.default_rng(seed)
    b_lo, b_hi = np.full(dim, center - 10.0), np.full(dim, center + 10.0)
    lo = center + rng.uniform(-11.0, 9.0, (m, dim))
    hi = lo + rng.uniform(0.0, 5.0, (m, dim))
    flat = rng.random((m, dim)) < 0.15
    hi[flat] = lo[flat]
    if center == 0.0:
        zero = rng.random((m, dim)) < 0.05
        lo[zero], hi[zero] = -0.0, 0.0
    slab = rng.integers(0, 40, (m, dim))
    lo[(slab == 0) | (slab == 2)] = -np.inf
    hi[(slab == 1) | (slab == 2)] = np.inf

    def endpoints():
        shape = (n, dim)
        kind = rng.integers(0, 4, shape)
        bound = np.where(rng.random(shape) < 0.5, b_lo, b_hi)
        bound = np.where(rng.random(shape) < 0.5, bound, np.nextafter(bound, center))
        faces = _face_coords(rng, lo, hi, shape, bound) if m else bound
        out = np.select(
            [kind == 0, kind == 1, kind == 2],
            [faces, bound, center + rng.uniform(-10.0, 10.0, shape)],
            center + rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-9, 1, shape),
        )
        if special:
            odd = rng.random(shape) < 0.05
            out[odd] = rng.choice(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0]), odd.sum())
        return out

    s, e = endpoints(), endpoints()
    parallel = rng.random((n, dim)) < 0.3
    e[parallel] = s[parallel]
    # Grazing: a box on one side of each finite segment, on one axis, whose
    # face is where the point at t = 1 lands when that overshoots the
    # segment's range, and one ulp past the range otherwise.
    finite = np.isfinite(s).all(1) & np.isfinite(e).all(1)
    g_lo, g_hi = [], []
    for i in np.flatnonzero(finite)[:4]:
        smin, smax = np.minimum(s[i], e[i]), np.maximum(s[i], e[i])
        land = s[i] + 1.0 * (e[i] - s[i])
        k = rng.integers(dim)
        glo, ghi = smin - 1.0, smax + 1.0
        if rng.random() < 0.5:
            glo[k] = land[k] if land[k] > smax[k] else np.nextafter(smax[k], np.inf)
            ghi[k] = glo[k] + rng.choice([0.0, 1.0])
        else:
            ghi[k] = land[k] if land[k] < smin[k] else np.nextafter(smin[k], -np.inf)
            glo[k] = ghi[k] - rng.choice([0.0, 1.0])
        g_lo.append(glo)
        g_hi.append(ghi)
    if g_lo:
        lo, hi = np.vstack([lo, g_lo]), np.vstack([hi, g_hi])
    return (b_lo, b_hi), lo, hi, s, e


def _env(bounds, lo, hi, backend):
    return Environment.from_arrays(AABB(*bounds), lo, hi, kernel_backend=backend)


def _run(twin, cs, s, e):
    """``twin``'s result and the counter delta it charged."""
    before = cs.env.counters.snapshot()
    out = twin(cs, s, e)
    delta = cs.env.counters.delta(before)
    return out, (delta.point_checks, delta.segment_checks)


world_args = dict(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 2, 3]),
    m=st.integers(0, 12),
    n=st.integers(1, 40),
    center=st.sampled_from([0.0, 3.0, 1e6, -1e6]),
)


@settings(max_examples=150, deadline=None)
@given(**world_args)
def test_certified_segments_have_every_point_free(seed, dim, m, n, center):
    bounds, lo, hi, s, e = _world(seed, dim, m, n, center, special=True)
    ref = get_backend("reference")
    for backend in BACKENDS:
        env = _env(bounds, lo, hi, backend)
        env_cs = EuclideanCSpace(env)
        # inf - inf in the pad arithmetic is NaN, which certifies nothing.
        with np.errstate(invalid="ignore"):
            cert = _certified(env_cs, s, e, np.zeros(n, dtype=np.int64))
        assert cert.dtype == bool and cert.shape == (n,)
        assert not cert[~(np.isfinite(s).all(1) & np.isfinite(e).all(1))].any()
        t = np.concatenate([_t_values(steps) for steps in STEP_COUNTS])
        rows = np.repeat(np.flatnonzero(cert), t.size)
        pts = env_cs.interpolate_pairs(s[rows], e[rows], np.tile(t, cert.sum()))
        assert ref.points_free(env.kernel_data(), pts).all()
        if backend == "bvh":
            assert not cert.any()


@settings(max_examples=100, deadline=None)
@given(**world_args, resolution=st.sampled_from([0.3, 1.0, 4.0]))
def test_twins_equal_a_run_without_the_certificate(seed, dim, m, n, center, resolution):
    bounds, lo, hi, s, e = _world(seed, dim, m, n, center, special=False)
    lp = StraightLinePlanner(resolution=resolution)
    for backend in BACKENDS:
        cs = EuclideanCSpace(_env(bounds, lo, hi, backend))
        for twin in (lp.batch_pairs_counted, lp.batch_pairs_exact):
            got, got_checks = _run(twin, cs, s, e)
            with mock.patch.object(
                EuclideanCSpace, "boxes_valid", ConfigurationSpace.boxes_valid
            ):
                want, want_checks = _run(twin, cs, s, e)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
                assert a.dtype == b.dtype
            assert got_checks == want_checks


def test_the_pad_covers_the_point_at_t_1():
    """``s + (e - s)`` lands one ulp past ``e``; a box face there is not
    strictly apart from the padded box, so nothing is certified."""
    s, e = np.array([[-4e7, 0.0]]), np.array([[0.7, 0.0]])
    land = s + 1.0 * (e - s)
    assert land[0, 0] > e[0, 0]
    env = Environment(AABB([-1e8, -1.0], [1e8, 1.0]),
                      [AABB([land[0, 0], -0.5], [land[0, 0] + 1.0, 0.5])])
    assert env.points_in_collision(land)[0]
    assert not _certified(EuclideanCSpace(env), s, e, np.ones(1))[0]
    assert _certified(EuclideanCSpace(env), s, e - [[1.0, 0.0]], np.ones(1))[0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_certified_points_are_charged(box_env, backend):
    """A segment far from both boxes: ``reference`` certifies it and still
    charges its points times the box count; ``bvh`` certifies nothing."""
    box_env.set_kernel_backend(backend)
    cs = EuclideanCSpace(box_env)
    s, e = np.array([[-4.0, -4.0], [-3.0, 0.0]]), np.array([[4.0, -4.0], [3.0, 0.0]])
    cert = _certified(cs, s, e, np.array([5, 7]))
    assert list(cert) == [backend == "reference", False]
    assert box_env.counters.point_checks == (5 * 2 if backend == "reference" else 0)
