"""Golden-seed tests for the procedural large-obstacle scenario.

The generator must be deterministic for a fixed seed — bench rows built
on these worlds are only comparable across machines if the obstacle
arrays are byte-identical.  The goldens pin exact obstacle counts plus a
sha256 of the packed arrays (``repro.geometry.scenarios.fingerprint``),
so any drift in the generation code (RNG call order, layout math,
dtype) fails loudly.
"""

import numpy as np
import pytest

from repro.geometry import AABB, Environment
from repro.geometry.scenarios import HALF_EXTENT, fingerprint, shelf_warehouse
from repro.kernels import EnvKernelData
from repro.spec import WorkloadSpec

#: The generators under test, by the name their test ids carry.
SCENARIOS = {"warehouse": shelf_warehouse}

# sha256 of the packed obstacle arrays for pinned (n, seed) pairs.
# Regenerate with:
#   PYTHONPATH=src python -c "from repro.geometry.scenarios import *; \
#       print(fingerprint(shelf_warehouse(1000, seed=42)))"
GOLDEN = {
    ("warehouse", 1000, 42): "acf53e585e5d0ac99050468d7e5eddc46c50b270264a01f34af44efa962e6b5f",
    ("warehouse", 100, 7): "bebbb895cc86c78464e30f88975940b415862b7faa9fb183edbb1d314f7e1c9c",
}


def reference_warehouse(n_obstacles: int, seed: int, half: float = HALF_EXTENT) -> Environment:
    """The per-bay loop :func:`shelf_warehouse` replaced: one ``rng.uniform``
    call and one :class:`AABB` per bay, stacked by the list constructor."""
    rng = np.random.default_rng(seed)
    levels = 4
    racks = -(-n_obstacles // levels)
    cols = max(1, int(np.ceil(np.sqrt(racks))))
    rows = -(-racks // cols)
    pitch_x = 2.0 * half / cols
    pitch_y = 2.0 * half / rows
    foot_x = 0.45 * pitch_x
    foot_y = 0.60 * pitch_y
    level_h = 2.0 * half / (levels + 1)
    lo = np.empty((n_obstacles, 3))
    hi = np.empty((n_obstacles, 3))
    i = 0
    for r in range(rows):
        for c in range(cols):
            if i >= n_obstacles:
                break
            cx = -half + (c + 0.5) * pitch_x
            cy = -half + (r + 0.5) * pitch_y
            for z in range(levels):
                if i >= n_obstacles:
                    break
                shrink = rng.uniform(0.7, 1.0, size=3)
                ex = 0.5 * foot_x * shrink[0]
                ey = 0.5 * foot_y * shrink[1]
                z_lo = -half + (z + 0.5) * level_h
                ez = 0.5 * level_h * 0.8 * shrink[2]
                z_c = z_lo + 0.5 * level_h * 0.8
                lo[i] = (cx - ex, cy - ey, z_c - ez)
                hi[i] = (cx + ex, cy + ey, z_c + ez)
                i += 1
    bounds = AABB(-half * np.ones(3), half * np.ones(3))
    return Environment(bounds, [AABB(a, b) for a, b in zip(lo, hi)], name=f"warehouse-{n_obstacles}")


class TestGoldenSeeds:
    @pytest.mark.parametrize("name,n,seed", sorted(GOLDEN))
    def test_fingerprint_matches_golden(self, name, n, seed):
        obj = SCENARIOS[name](n_obstacles=n, seed=seed)
        assert obj.num_obstacles == n
        assert fingerprint(obj) == GOLDEN[(name, n, seed)]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_seed_same_world(self, name):
        a = SCENARIOS[name](n_obstacles=250, seed=3)
        b = SCENARIOS[name](n_obstacles=250, seed=3)
        assert fingerprint(a) == fingerprint(b)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_different_seed_different_world(self, name):
        a = SCENARIOS[name](n_obstacles=250, seed=3)
        b = SCENARIOS[name](n_obstacles=250, seed=4)
        assert fingerprint(a) != fingerprint(b)


class TestExactCounts:
    """Generators must produce *exactly* n obstacles, including counts
    that don't divide evenly into racks/blocks."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 101, 1000, 1001])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_exact_count(self, name, n):
        assert SCENARIOS[name](n_obstacles=n, seed=0).num_obstacles == n

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_zero_rejected(self, name):
        with pytest.raises(ValueError):
            SCENARIOS[name](n_obstacles=0, seed=0)


class TestGeometry:
    def test_warehouse_is_environment(self):
        env = shelf_warehouse(200, seed=0)
        assert isinstance(env, Environment)
        assert env.dim == 3
        assert env.name == "warehouse-200"

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_boxes_inside_workspace(self, name):
        env = SCENARIOS[name](n_obstacles=300, seed=5)
        data = env.kernel_data()
        assert np.all(data.box_lo <= data.box_hi)
        assert np.all(data.box_lo >= data.bounds_lo - 1e-12)
        assert np.all(data.box_hi <= data.bounds_hi + 1e-12)

    def test_warehouse_has_free_space(self):
        # Aisles exist: sampling must find free points easily.
        env = shelf_warehouse(400, seed=0)
        pts = env.bounds.sample(np.random.default_rng(0), 200)
        assert (~env.points_in_collision(pts)).sum() >= 50


class TestFingerprint:
    def test_accepts_environment_and_snapshot(self):
        env = shelf_warehouse(50, seed=0)
        fp_env = fingerprint(env)
        fp_data = fingerprint(env.kernel_data())
        assert fp_env == fp_data

    def test_sensitive_to_single_element(self):
        data = shelf_warehouse(50, seed=0).kernel_data()
        before = fingerprint(data)
        box_lo = data.box_lo.copy()
        box_lo[0, 0] += 1e-12
        perturbed = EnvKernelData(
            bounds_lo=data.bounds_lo,
            bounds_hi=data.bounds_hi,
            box_lo=box_lo,
            box_hi=data.box_hi,
        )
        assert fingerprint(perturbed) != before


class TestArraysEqualTheBayLoop:
    """The one-pass generator against the per-bay loop it replaced: same
    bytes for counts that fill, and that leave part of, the last rack
    and the last grid row."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 50, 101, 1000, 1001, 20000])
    def test_fingerprint_equals_the_loop(self, n, seed):
        assert fingerprint(shelf_warehouse(n, seed)) == fingerprint(reference_warehouse(n, seed))

    def test_name_and_bounds_equal_the_loop(self):
        env, ref = shelf_warehouse(33, 2), reference_warehouse(33, 2)
        assert env.name == ref.name
        assert np.array_equal(env.bounds.lo, ref.bounds.lo)
        assert np.array_equal(env.bounds.hi, ref.bounds.hi)


class TestNoPerBoxObjects:
    def test_build_snapshot_and_key_make_no_box_objects(self, monkeypatch):
        made = []
        post_init = AABB.__post_init__

        def counting(self):
            made.append(1)
            post_init(self)

        monkeypatch.setattr(AABB, "__post_init__", counting)
        env = shelf_warehouse(20000)
        env.kernel_data()
        WorkloadSpec(env, "prm", num_regions=64).cache_key()
        assert len(made) <= 1  # the workspace bounds
        monkeypatch.undo()

        obs = env.obstacles
        data = env.kernel_data()
        assert len(obs) == env.num_obstacles == 20000
        assert np.array_equal(np.stack([o.lo for o in obs]), data.box_lo)
        assert np.array_equal(np.stack([o.hi for o in obs]), data.box_hi)
