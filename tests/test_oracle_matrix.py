"""The oracle matrix: every fast path against the loop it replaces.

A row is one {planner} x {path} x {domain} fast path; a column is the
collision cull, ``reference`` or ``bvh``.  Each cell runs the row's fast
path (``True``) under its cull and the row's oracle (``False``) on the
reference scan, from identical fresh state, and compares
:func:`tests.oracle.digest` field by field.  The rows that go
through ``plan()`` also run in every execution cell — {thread, process} x
{inline, shm} x {None, "bvh"} x {1, 2} workers — in
``tests/test_shm_runtime.py::TestLocalParityMatrix``.

A new fast path adds a row here and a mutant to ``tools/mutants.py``.
"""

import contextlib
from dataclasses import asdict

import numpy as np
import pytest

from repro.api import _region_planner, _RegionTask
from repro.core import build_prm_workload, build_rrt_workload
from repro.cspace import EuclideanCSpace
from repro.geometry import AABB, Environment
from repro.geometry.environments import by_name
from repro.planners import PRM, RRT, Roadmap
from repro.spec import WorkloadSpec
from repro.subdivision.radial import ConeRegion

from .oracle import SequentialPRM, SequentialRRT, assert_same, digest, region_loop, rrt_loop


def _space(env, cull):
    """A fresh configuration space over ``env`` (a catalog name, or None
    for the two-box plane) on the ``cull`` collision backend."""
    if env is None:
        env = Environment(AABB([-5.0, -5.0], [5.0, 5.0]),
                          [AABB([-1.0, -1.0], [1.0, 1.0]), AABB([2.0, 2.0], [4.0, 4.0])])
    else:
        env = by_name(env)
    env.set_kernel_backend(cull)
    return EuclideanCSpace(env)


def _prefixed(**digests):
    """Several digests as one, each field named after its run."""
    return {f"{run}.{field}": value for run, d in digests.items() for field, value in d.items()}


class _LastPlace(tuple):
    """Edge weights that compare to the last place.

    The batched ``PRM`` weighs an edge with ``batch_pairs_counted``'s
    vectorised norm, :class:`tests.oracle.SequentialPRM` with the scalar
    ``cspace.distance``; the two may differ by one ulp
    (``StraightLinePlanner.batch_pairs_exact`` says so).  The adjacency itself compares exactly."""

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return len(self) == len(other) and np.allclose(
            self, other, rtol=np.finfo(float).eps, atol=0.0)


def _prm_digest(run, env, rng):
    out = digest(run, env, rng)
    out["weights"] = _LastPlace(out["weights"])
    return out


def _prm_batched_space(cull, fast):
    """``PRM.build`` as the block of one against the one-vertex-at-a-time
    loop: a fresh build, then an extension build of that roadmap under
    another id base."""
    cs, rng = _space(None, cull), np.random.default_rng(7)
    planner = (PRM if fast else SequentialPRM)(cs, k=5)
    first = planner.build(120, rng)
    fresh = _prm_digest(first, cs.env, rng)
    extended = planner.build(60, rng, roadmap=first.roadmap, id_base=1 << 20)
    return _prefixed(fresh=fresh, extended=_prm_digest(extended, cs.env, rng))


def _prm_batched_box(cull, fast):
    """Two regional roadmaps sampled in boxes, merged, then
    ``connect_roadmaps`` between them: the inter-region connection phase."""
    cs, rng = _space("med-cube", cull), np.random.default_rng(3)
    planner = (PRM if fast else SequentialPRM)(cs, k=5)
    left = planner.build(40, rng, within=AABB([-10, -10, -10], [-2, 10, 10])).roadmap
    right = planner.build(40, rng, within=AABB([2, -10, -10], [10, 10, 10]), id_base=1 << 20)
    left.merge(right.roadmap)
    ids = left.vertices()
    stats = planner.connect_roadmaps(left, ids[ids < 1 << 20], ids[ids >= 1 << 20], k=3)
    return {**_prm_digest(left, cs.env, rng), "connect": asdict(stats)}


def _prm_block_box(cull, fast):
    """A workload's regions and adjacencies as segmented block passes, or
    one at a time (:func:`tests.oracle.region_loop`)."""
    with contextlib.nullcontext() if fast else region_loop():
        return digest(build_prm_workload(_space("mixed-30", cull), 27, samples_per_region=6,
                                         seed=2))


def _regions(planner, cull):
    """Local mode's region planner and the per-region task the pool runs."""
    wl = WorkloadSpec("mixed-30", planner, num_regions=27 if planner == "prm" else 8,
                      samples_per_region=6, nodes_per_region=20, seed=5)
    task = _RegionTask(_region_planner(_space("mixed-30", cull), wl))
    return task, task.regions.region_ids


def _per_region(values, dim):
    """A chunk's per-region results: the roadmap they merge into, and
    each region's ``PlannerStats`` and collision counts."""
    merged = Roadmap(dim)
    for part, _stats, _checks in values:
        if isinstance(part, Roadmap):
            merged.merge(part)
        elif part.index == 0:
            merged.merge(part.block)
    return {**digest(merged), "stats": [asdict(st) for _p, st, _c in values],
            "counters": [checks for _p, _s, checks in values]}


def _prm_chunk_box(cull, fast):
    """A pool chunk planned as one block (``run_block``) or region by region."""
    task, rids = _regions("prm", cull)
    values = task.run_block(rids)[0] if fast else [task(rid) for rid in rids]
    assert {type(v[0]).__name__ for v in values} == {"PRMSegment" if fast else "Roadmap"}
    return _per_region(values, task.regions.cspace.dim)


def _grow_twice(within, cull, fast, guard=None):
    """Two ``grow`` calls on one generator, the second under another id
    base, with the bias gate in play and ``guard`` as the region predicate."""
    cs, rng = _space(None, cull), np.random.default_rng(4)
    rrt = (RRT if fast else SequentialRRT)(cs, step_size=0.5, goal_bias=0.2)
    gate = {"bias_target": np.array([4.0, 4.0]), "within": within, "region_predicate": guard}
    first = rrt.grow(np.array([-4.0, -4.0]), 60, rng, **gate)
    second = rrt.grow(np.array([-4.0, -4.0]), 60, rng, id_base=1 << 20, **gate)
    return _prefixed(first=digest(first), second=digest(second, cs.env, rng))


def _rrt_batched_cone(cull, fast):
    """Draws from a cone, guarded by a narrower one: the guard rejects
    valid extensions, which a convex cone's own guard hardly ever does."""
    def cone(half_angle):
        return ConeRegion(id=0, root=np.full(2, -4.0), target=np.full(2, 4.0),
                          half_angle=half_angle, overlap=0.1, radius=8.0 * np.sqrt(2.0))
    return _grow_twice(cone(0.8), cull, fast, guard=cone(0.4).contains_many)


def _rrt_block_cone(cull, fast):
    """A radial workload's branches grown batched or by the oracle loop."""
    with contextlib.nullcontext() if fast else rrt_loop():
        return digest(build_rrt_workload(_space("mixed-30", cull), np.full(3, -9.0), 8,
                                         nodes_per_region=12, seed=7))


def _rrt_chunk_cone(cull, fast):
    """A pool chunk of branches grown as one lockstep block (``run_block``)
    or branch by branch; either way each region comes back as its own tree."""
    task, rids = _regions("rrt", cull)
    values = task.run_block(rids)[0] if fast else [task(rid) for rid in rids]
    assert {type(v[0]).__name__ for v in values} == {"Roadmap"}
    return _per_region(values, task.regions.cspace.dim)


ROWS = {
    "prm-batched-space": _prm_batched_space,
    "prm-batched-box": _prm_batched_box,
    "prm-block-box": _prm_block_box,
    "prm-chunk-box": _prm_chunk_box,
    "rrt-batched-space": lambda cull, fast: _grow_twice(None, cull, fast),
    "rrt-batched-cone": _rrt_batched_cone,
    "rrt-block-cone": _rrt_block_cone,
    "rrt-chunk-cone": _rrt_chunk_cone,
}


@pytest.mark.parametrize("cull", ["reference", "bvh"])
@pytest.mark.parametrize("row", list(ROWS))
def test_fast_path_equals_its_oracle(row, cull):
    """The row's fast path, culled by ``cull``, leaves what its oracle
    leaves on the reference scan."""
    assert_same(ROWS[row](cull, True), ROWS[row]("reference", False))
