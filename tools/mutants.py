#!/usr/bin/env python
"""Mutation evidence for the oracle harness: the bugs each parity test
exists to catch, and proof that it still catches them.

Every entry of :data:`MUTANTS` is ``(name, file, old, new, tests)``: a
source edit under ``src/`` and the tests that must fail on it.  For each
one this script copies ``src/``, checks that ``old`` occurs exactly once
in ``file``, replaces it with ``new`` and runs ``tests`` against the copy
(the repository's own ``tests/``, with the copy first on ``PYTHONPATH``)
under the derandomized hypothesis profile of ``tests/conftest.py``, so a
property draws the same examples on every run and a verdict cannot
depend on the draw.

* **killed** — pytest exited 1: tests ran and failed.
* **killed (timeout)** — the run outlived :data:`RUN_TIMEOUT` (a mutant
  that makes a loop never end); its process group is killed.
* **survived** — the tests passed on the mutant.
* **broken** — the mutant does not compile, import or collect (any other
  exit status); it proves nothing.

Before any mutant, every listed test must pass on the unmutated copy,
within :data:`RUN_TIMEOUT`.
``old`` / ``new`` may be tuples of strings for an edit in several places.

    python tools/mutants.py

Exits 0 when the baseline passes and every entry is killed.
"""
from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
MATRIX = "tests/test_oracle_matrix.py::test_fast_path_equals_its_oracle"
CELL = "tests/test_shm_runtime.py::TestLocalParityMatrix::test_every_cell_equals_the_serial_loop"
PINNED = "tests/test_api.py::TestLocalExecution::test_frozen_adjacency_is_pinned"
GOLDEN = "tests/test_simulator_golden.py"
TIES = "tests/test_frozen.py::TestTieCertificate"
CERT = "tests/test_segment_certificate.py"
LAZY = "tests/test_roadmap.py::TestLazyForest"
PARTS = "tests/test_roadmap.py::TestMergeParts"
RECOUNT = "tests/test_api_faults.py::test_trace_recounts_the_reports_failures"
SERVED = ("tests/test_service.py::TestObservabilityIntegration"
          "::test_trace_recounts_cache_and_service_stats")
SHIPPED = "tests/test_shm_runtime.py::TestShippedTree"
BUNDLED = f"{GOLDEN}::test_bundled_replies_equal_one_event_per_reply"
POLICIES = "tests/test_work_stealing_policies.py"
PREPARED = "tests/test_frozen.py::test_prepared_batch_equals_one_query_at_a_time"
BATCH = "tests/test_query_engine.py::TestBatchPasses"
TIMEOUTS = "tests/test_faults.py::TestTimeouts"
#: the hypothesis profile ``tests/conftest.py`` registers: every property
#: draws the same examples, so a verdict never depends on the draw.
PROFILE = "derandomized"
#: seconds one pytest run may take.  A mutant whose tests outrun it (a
#: search or a simulation that no longer ends) is killed by the clock; the
#: baseline outrunning it is an error.
RUN_TIMEOUT = 300


class Mutant(NamedTuple):
    name: str
    file: str
    old: "str | tuple[str, ...]"
    new: "str | tuple[str, ...]"
    tests: "tuple[str, ...]"


MUTANTS = [
    Mutant(
        "the sample domain is RRT state, read at every draw",
        "repro/planners/rrt.py",
        ("        cspace = self.cspace\n        dim = cspace.dim\n\n        bias_cfg",
         "cspace.sample(rng, within=within, unit=raw[rows])"),
        ("        self._within = within\n        cspace = self.cspace\n        dim = cspace.dim\n\n"
         "        bias_cfg",
         "cspace.sample(rng, within=self._within, unit=raw[rows])"),
        ("tests/test_api.py::TestLocalExecution::test_pool_threads_do_not_share_a_sample_domain",),
    ),
    Mutant(
        "a round keeps the first `need` valid rows of the whole round, not of each segment",
        "repro/cspace/sampling.py",
        "rank = before - np.repeat(before[np.cumsum(sizes) - sizes], sizes)",
        "rank = before",
        ("tests/test_sampling.py::test_a_block_equals_one_call_per_segment",),
    ),
    Mutant(
        "adjacencies are inserted axis-major",
        "repro/subdivision/uniform.py",
        "zip(ahead[0][ok].tolist(), ahead[1][ok].tolist())",
        "zip(ahead[0].T[ok.T].tolist(), ahead[1].T[ok.T].tolist())",
        ("tests/test_subdivision_uniform.py::TestArraysEqualTheCellLoop", GOLDEN),
    ),
    Mutant(
        "the warehouse's shrink block is drawn transposed",
        "repro/geometry/scenarios.py",
        "shrink = rng.uniform(0.7, 1.0, size=(n_obstacles, 3))",
        "shrink = rng.uniform(0.7, 1.0, size=(3, n_obstacles)).T",
        ("tests/test_scenarios.py::TestGoldenSeeds::test_fingerprint_matches_golden",),
    ),
    Mutant(
        "an environment's cache key hashes every lo row before every hi row",
        "repro/spec.py",
        "np.concatenate([data.box_lo, data.box_hi], axis=1)",
        "np.concatenate([data.box_lo, data.box_hi], axis=0)",
        ("tests/test_spec.py::TestArrayFingerprintEqualsTheLoop",),
    ),
    Mutant(
        "an environment accepts an obstacle with lo > hi",
        "repro/geometry/environment.py",
        "        if bad.any():\n",
        "        if False:\n",
        ("tests/test_environment.py::TestObstacleValidation",),
    ),
    Mutant(
        "a box inside an obstacle counts as boundary",
        "repro/geometry/environment.py",
        "return touches & ~inside",
        "return touches",
        ("tests/test_parallel_prm.py::TestBoostMask",),
    ),
    Mutant(
        "boxes_on_boundary calls a box inside an obstacle, on its faces, boundary",
        "repro/geometry/environment.py",
        "inside |= np.all((obs_lo <= lo) & (hi <= obs_hi), axis=2)",
        "inside |= np.all((obs_lo < lo) & (hi < obs_hi), axis=2)",
        ("tests/test_parallel_prm.py::TestBoostMask::test_mask_equals_the_relation",),
    ),
    Mutant(
        "the plane scan's lower face is exclusive",
        "repro/kernels/reference.py",
        "np.greater_equal(col, box_lo[:, j], out=plane if j else inside)",
        "np.greater(col, box_lo[:, j], out=plane if j else inside)",
        ("tests/test_kernels.py::test_plane_scan_equals_historical_broadcast",),
    ),
    Mutant(
        "the box maps the unit cube from its upper corner",
        "repro/geometry/primitives.py",
        "return self.lo + (self.hi - self.lo) * np.asarray(u, dtype=float)",
        "return self.hi - (self.hi - self.lo) * (1.0 - np.asarray(u, dtype=float))",
        ("tests/test_unit_cube.py::TestAABB",),
    ),
    Mutant(
        "a block's draw is not rewound to where the oracle stops",
        "repro/planners/rrt.py",
        "                rng.bit_generator.state = rng_state\n                rng.random(used)\n",
        "                pass\n",
        ("tests/test_rrt_batched.py::TestBlockDraw", f"{MATRIX}[rrt-batched-cone-reference]"),
    ),
    Mutant(
        "a block's uniform rows are mapped one call per row",
        "repro/planners/rrt.py",
        "                drawn[uniform] = cspace.sample(rng, within=within, unit=raw[rows])\n",
        "                for b, row in zip(uniform, rows):\n"
        "                    drawn[b] = cspace.sample(rng, within=within, unit=raw[row])\n",
        ("tests/test_rrt_batched.py::TestOneProposalCallPerBlock",),
    ),
    Mutant(
        "merge replays edges by the row of their higher-id endpoint",
        "repro/planners/roadmap.py",
        "        order = lo << 32\n",
        "        order = v << 32\n",
        ("tests/test_roadmap.py::TestMergeBlock", f"{PINNED}[prm-local-blocks]"),
    ),
    Mutant(
        "merge(Roadmap) appends in log order, not in edges() order",
        "repro/planners/roadmap.py",
        "        order.sort()\n",
        "",
        ("tests/test_roadmap.py::TestMergeRoadmap", f"{PINNED}[prm-simulate]"),
    ),
    Mutant(
        "the CSR orders a row's neighbours by row, not by insertion",
        "repro/planners/roadmap.py",
        'order = np.argsort(uv.ravel(), kind="stable")',
        "order = np.lexsort((uv[:, ::-1].ravel(), uv.ravel()))",
        ("tests/test_roadmap.py::TestArrayBackedStorage::test_adjacency_keeps_insertion_order",
         f"{PINNED}[prm-simulate]"),
    ),
    Mutant(
        "a dead edge stays visible to neighbors and freeze",
        "repro/planners/roadmap.py",
        "live = self._live[: self._m]",
        "live = np.ones(self._m, dtype=bool)",
        ("tests/test_roadmap.py::TestArrayBackedStorage::test_adjacency_keeps_insertion_order",
         "tests/test_roadmap.py::TestDuplicateIndex::test_lookups_agree_with_a_set_of_edges"),
    ),
    Mutant(
        "a bulk insert tests membership against a stale index",
        "repro/planners/roadmap.py",
        "            self._fold()\n            probe = keys[asks]\n",
        "            probe = keys[asks]\n",
        ("tests/test_roadmap.py::TestBulkInsertion::test_bulk_equals_loops",
         "tests/test_roadmap.py::TestMergeRoadmap"),
    ),
    Mutant(
        "an edge between two already-present vertices skips the duplicate test",
        "repro/planners/roadmap.py",
        "asks = np.flatnonzero(fresh & (deg[uv[:, 0]] > 0) & (deg[uv[:, 1]] > 0))",
        "asks = np.flatnonzero(fresh & (deg[uv[:, 0]] < 0))",
        (f"{PARTS}::test_one_pass_equals_one_by_one",
         "tests/test_roadmap.py::TestBulkInsertion::test_bulk_equals_loops"),
    ),
    Mutant(
        "a batch that repeats an edge keeps both copies",
        "repro/planners/roadmap.py",
        "    if not (ordered[1:] == ordered[:-1]).any():\n",
        "    if True:\n",
        ("tests/test_roadmap.py::TestBulkInsertion::test_bulk_equals_loops",
         f"{PARTS}::test_one_pass_equals_one_by_one"),
    ),
    Mutant(
        "a later part's edges enter the log before an earlier part's",
        "repro/planners/roadmap.py",
        "        order = lo << 32\n",
        "        order = rows[lo] << 32\n",
        (f"{PARTS}::test_one_pass_equals_one_by_one",),
    ),
    Mutant(
        "a clash in the last part is raised after the earlier parts were inserted",
        "repro/planners/roadmap.py",
        ("        if clash.any():\n            vid = ",
         "        self._append(ids[appended], cfgs[appended])\n"),
        ("        if False:\n            vid = ",
         "        self._append(ids[appended], cfgs[appended])\n"
         "        if clash.any():\n            raise ValueError('vertex id clash')\n"),
        (f"{PARTS}::test_a_clash_in_the_last_part_inserts_nothing",
         f"{PARTS}::test_one_pass_equals_one_by_one"),
    ),
    Mutant(
        "the ledger sum drops a field",
        "repro/planners/stats.py",
        "_counts = attrgetter(*_NAMES)",
        "_counts = attrgetter(*_NAMES[:-1])",
        ("tests/test_planner_stats.py::TestPlannerStats::test_every_sum_covers_every_field",),
    ),
    Mutant(
        "the k-rays slab test lets a ray hit a box beside an axis it does not move along",
        "repro/geometry/environment.py",
        "hit = inside & (t0 <= t1) & (t1 >= 0.0)",
        "hit = (t0 <= t1) & (t1 >= 0.0)",
        ("tests/test_parallel_rrt.py::TestKRaysProbe::test_axis_parallel_rays_and_faces",),
    ),
    Mutant(
        "a repeat plan on one snapshot hashes its obstacles again",
        "repro/api.py",
        "        setattr(data, _KEY_ATTR, key)\n",
        "",
        (f"{SHIPPED}::test_a_repeat_plan_does_not_hash_the_obstacles_again",),
    ),
    Mutant(
        "_find asks a duplicate index that has not caught up",
        "repro/planners/roadmap.py",
        "            return -1\n        self._fold()\n        key",
        "            return -1\n        key",
        (f"{LAZY}::test_a_duplicate_is_found_in_a_forest_that_lags",
         "tests/test_roadmap.py::TestDuplicateIndex::test_lookups_agree_with_a_set_of_edges"),
    ),
    Mutant(
        "a single-generator build appends edges older endpoint first",
        "repro/planners/prm.py",
        "        rmap.add_edges(block.ids[uv[:, 0]], block.ids[uv[:, 1]], w)\n",
        "        rmap.add_edges(block.ids[uv[:, 1]], block.ids[uv[:, 0]], w)\n",
        (f"{MATRIX}[prm-batched-space-reference]", f"{MATRIX}[prm-batched-space-bvh]"),
    ),
    Mutant(
        "an extension build does not see the roadmap's earlier vertices",
        "repro/planners/prm.py",
        ("[rng], within, seed, id_base)",
         "rmap.add_vertices(block.ids[ids.size:], block.configs[ids.size:])"),
        ("[rng], within, None, id_base + ids.size)",
         "rmap.add_vertices(block.ids, block.configs)"),
        (f"{MATRIX}[prm-chunk-box-reference]", "tests/test_parallel_prm.py::TestBlocksEqualLoop"),
    ),
    Mutant(
        "a block's measured time is shared equally, ignoring work",
        "repro/runtime/local_pool.py",
        "    upto = np.cumsum(work, dtype=float)\n",
        "    upto = np.arange(1.0, len(tids) + 1.0)\n",
        ("tests/test_local_pool.py::TestBlockChunks",),
    ),
    Mutant(
        "a segment's stored rows start one row late",
        "repro/knn/brute.py",
        "gather = np.minimum(so[:-1, None] + cols, self._n - 1)",
        "gather = np.minimum(so[:-1, None] + cols + 1, self._n - 1)",
        ("tests/test_parallel_prm.py::TestSegmentedNeighbours",
         f"{MATRIX}[prm-block-box-reference]"),
    ),
    Mutant(
        "_connect_in_blocks skips the last adjacency of a pass",
        "repro/core/parallel_prm.py",
        "        live = (nb > 0) & (na > 0)\n",
        "        live = (nb > 0) & (na > 0)\n        live[-1] = False\n",
        (f"{MATRIX}[prm-block-box-reference]",),
    ),
    Mutant(
        "the block accepts a q_new outside the cone",
        "repro/planners/rrt.py",
        "region_ok[passed] = np.atleast_1d(guard(q_news[passed]))",
        "region_ok[passed] = True",
        (f"{MATRIX}[rrt-batched-cone-reference]",),
    ),
    Mutant(
        "a branch reads its neighbour's verdict slice",
        "repro/planners/rrt.py",
        "            for j, lo, hi in zip(order, bounds, bounds[1:]):\n"
        "                advance(j,",
        "            for j, lo, hi in zip(order[1:] + order[:1], bounds, bounds[1:]):\n"
        "                advance(j,",
        (f"{MATRIX}[rrt-block-cone-reference]", f"{MATRIX}[rrt-chunk-cone-reference]",
         "tests/test_rrt_batched.py::TestBlockEqualsCalls"),
    ),
    Mutant(
        "the block rescales counters with one branch's ratio",
        "repro/planners/rrt.py",
        "                seq_points += seq\n                spec_points += spec\n",
        "                seq_points, spec_points = seq, spec\n",
        (f"{MATRIX}[rrt-chunk-cone-reference]", "tests/test_rrt_batched.py::TestBlockEqualsCalls"),
    ),
    Mutant(
        "a one-worker guided run is cut into several chunks",
        "repro/runtime/chunking.py",
        "    if workers == 1:\n",
        "    if False:\n",
        ("tests/test_shm_runtime.py::TestChunking::test_guided_on_one_worker_is_one_chunk",
         f"{CELL}[inline-inline-None-1]"),
    ),
    Mutant(
        "a block node tied with a frozen node wins",
        "repro/planners/rrt.py",
        "                if bmin < fmin:\n",
        "                if bmin <= fmin:\n",
        ("tests/test_rrt_batched.py::TestEdgeCases::test_tied_nearest_nodes",),
    ),
    Mutant(
        "a later equal block node replaces the earlier",
        "repro/planners/rrt.py",
        "                        if near < blk_min[k]:\n",
        "                        if near <= blk_min[k]:\n",
        ("tests/test_rrt_batched.py::TestEdgeCases::test_tied_nearest_nodes",),
    ),
    Mutant(
        "a bias draw does not consume its double",
        "repro/planners/rrt.py",
        '                    keys[b] = "bias"\n',
        '                    keys[b] = "bias"\n                    pos -= 1\n',
        (f"{MATRIX}[rrt-batched-space-reference]", f"{MATRIX}[rrt-batched-cone-reference]"),
    ),
    Mutant(
        "every task of a chunk runs the chunk's first task",
        "repro/runtime/local_pool.py",
        "            value = fn(tid)\n",
        "            value = fn(entries[0][0])\n",
        ("tests/test_local_pool.py::TestBackendsAndChunking::test_chunksize_preserves_results",
         "tests/test_api_faults.py::TestChunksPlannedAsBlocks"
         "::test_an_injector_plan_keeps_the_per_task_loop"),
    ),
    Mutant(
        "pool threads share one collision-counter cell",
        "repro/geometry/environment.py",
        "        ident = threading.get_ident()\n        cell = self._cells.get(ident)\n",
        "        ident = 0\n        cell = self._cells.get(ident)\n",
        ("tests/test_api.py::TestLocalExecution::test_pool_threads_do_not_share_a_sample_domain",),
    ),
    Mutant(
        "the BVH walk descends only left children",
        "repro/geometry/bvh.py",
        "ni = np.concatenate((left, left + 1))",
        "ni = np.concatenate((left, left))",
        ("tests/test_bvh.py::test_random_worlds_bit_exact", f"{MATRIX}[prm-block-box-bvh]",
         f"{CELL}[inline-inline-bvh-1]"),
    ),
    Mutant(
        "a box is binned one cell short on its upper corner",
        "repro/geometry/bvh.py",
        "c_hi = _cell_coords(hi, ext_lo, ext_hi, scale, shape)",
        "c_hi = _cell_coords(hi, ext_lo, ext_hi, scale, shape) - 1",
        ("tests/test_bvh.py::test_cells_box_faces_on_cell_boundaries",
         "tests/test_bvh.py::test_cells_points_on_cell_boundaries"),
    ),
    Mutant(
        "a point query tests only the first entry of its cell",
        "repro/geometry/bvh.py",
        "count = self.cell_start[cell + 1] - start",
        "count = np.minimum(self.cell_start[cell + 1] - start, 1)",
        ("tests/test_bvh.py::TestDifferentialParity",
         "tests/test_bvh.py::test_random_worlds_bit_exact"),
    ),
    Mutant(
        "shm workers ignore the shipped tree and build their own",
        "repro/api.py",
        "                setattr(env.kernel_data(), _CACHE_ATTR, BVH.from_packed(tree))\n",
        "                pass\n",
        (f"{SHIPPED}::test_no_worker_builds_a_tree",),
    ),
    Mutant(
        "shm workers rebuild the region planner from another seed",
        "repro/api.py",
        "workload=replace(wl, environment=env.name),",
        "workload=replace(wl, environment=env.name, seed=wl.seed + 1),",
        (f"{CELL}[process-shm-None-1]", f"{CELL}[inline-shm-None-1]"),
    ),
    Mutant(
        "a steal round travels as one bundle at its first victim's arrival time",
        "repro/runtime/simulator.py",
        "near = [v for v in victims if node[v] == here]",
        "near = victims if node[victims[0]] == here else []",
        (f"{GOLDEN}::test_simulate_prm_golden[48-rand-8]",
         f"{GOLDEN}::test_multi_node_rounds_golden[96-hybrid]"),
    ),
    Mutant(
        "a bundle's victims are served in reverse order",
        "repro/runtime/simulator.py",
        "                for victim in payload:\n",
        "                for victim in payload[::-1]:\n",
        (f"{GOLDEN}::test_traced_run_golden", f"{GOLDEN}::test_multi_node_traced_run_golden"),
    ),
    Mutant(
        "a busy victim fails a request at arrival instead of queueing it",
        "repro/runtime/simulator.py",
        "                    if busy[victim]:\n"
        "                        queues[victim].append(pe)  # non-preemptive service\n"
        "                        continue\n",
        "",
        (f"{GOLDEN}::test_simulate_prm_golden[16-rand-8]", BUNDLED),
    ),
    Mutant(
        "the reply handler decrements pending by one, not by the count",
        "repro/runtime/simulator.py",
        "pending[pe] -= count",
        "pending[pe] -= 1",
        (f"{GOLDEN}::test_simulate_prm_golden[16-rand-8]",
         f"{GOLDEN}::test_multi_node_rounds_golden[96-hybrid]"),
    ),
    Mutant(
        "an aggregated remote access pays no bandwidth for its payload",
        "repro/runtime/topology.py",
        "np.where(src == dst, 0.0, base + self.bandwidth_cost * np.asarray(payload))",
        "np.where(src == dst, 0.0, base)",
        ("tests/test_pgraph.py::TestLatencies::test_equal_the_scalar_latency",
         "tests/test_pgraph.py::TestConnectionPhase::test_matches_the_scalar_walk",
         f"{GOLDEN}::test_simulate_prm_golden[48-none]"),
    ),
    Mutant(
        "an adjacency with zero reads is charged a message",
        "repro/core/machine.py",
        "remote = (owner_a != owner_b) & (reads > 0)",
        "remote = owner_a != owner_b",
        ("tests/test_pgraph.py::TestAccessAccounting::test_bulk_zero_count_free",
         f"{GOLDEN}::test_simulate_prm_golden[16-repartition]"),
    ),
    Mutant(
        "PlanRequest accepts a non-spec value",
        "repro/spec.py",
        "            elif not isinstance(value, spec_type):\n",
        "            elif False:\n",
        ("tests/test_spec.py::TestPlanRequestAggregate::test_wrong_spec_type_raises",
         "tests/test_spec.py::TestFlatShim::test_flat_kwargs_and_execution_string_raise_type_error"),
    ),
    Mutant(
        "simulate mode accepts a fault policy",
        "repro/spec.py",
        '        if self.execution.mode == "simulate" and self.faults != FaultPolicy():\n',
        "        if False:\n",
        ("tests/test_api_faults.py::TestSimulateModeRefusesFaults"
         "::test_simulate_mode_refuses_a_fault_policy",),
    ),
    Mutant(
        "the tie certificate ignores a tie still in the heap (check a)",
        "repro/planners/frozen.py",
        "        if heap and heap[0][0] <= cost + slack:\n            return False\n",
        "",
        (f"{TIES}::test_a_tie_still_in_the_heap_fails_check_a",),
    ),
    Mutant(
        "the tie certificate ignores a settled tie (check b)",
        "repro/planners/frozen.py",
        "if u != p and done[u] and g[u] + w <= reach:",
        "if False:",
        (f"{TIES}::test_a_settled_tie_fails_check_b",
         f"{TIES}::test_equal_weight_lattice_falls_back"),
    ),
    Mutant(
        "a landmark sees the goal through its nearest link only (inadmissible)",
        "repro/planners/frozen.py",
        "d_goal = np.fmin.reduce(at_goal + g_w, axis=2)",
        "d_goal = at_goal[:, :, 0] + g_w[:, 0]",
        (f"{TIES}::test_equal_weight_lattice_falls_back",
         f"{TIES}::test_medcube_pool_needs_no_fallback"),
    ),
    Mutant(
        "the batch's landmark bounds drop the 1 - tol scale",
        "repro/planners/frozen.py",
        "    alt *= 1.0 - _TOL\n",
        "",
        (PREPARED, f"{BATCH}::test_prepared_rows_equal_one_query_at_a_time"),
    ),
    Mutant(
        "ragged link lists are padded with zero weights, not NaN",
        "repro/planners/frozen.py",
        "w = np.full(rows.shape, np.nan)",
        "w = np.zeros(rows.shape)",
        (PREPARED,),
    ),
    Mutant(
        "each query searches with the previous query's goal distances",
        "repro/planners/engine.py",
        "self.frozen.prepare(v_starts, v_goals, links, dist[nv:])",
        "self.frozen.prepare(v_starts, v_goals, links, np.roll(dist[nv:], 1, axis=0))",
        (f"{BATCH}::test_prepared_rows_equal_one_query_at_a_time",),
    ),
    Mutant(
        "batch_pairs_exact takes its lengths from the reduction norm",
        "repro/cspace/local_planner.py",
        "        lengths = cspace.distance(starts, ends)\n",
        "        lengths = np.linalg.norm(ends - starts, axis=1)\n",
        ("tests/test_local_planner.py::test_exact_twin_equals_the_scalar_loop",),
    ),
    Mutant(
        "the segment certificate has no pad",
        "repro/cspace/local_planner.py",
        "return cspace.boxes_valid(lo - pad, hi + pad, points)",
        "return cspace.boxes_valid(lo, hi, points)",
        (f"{CERT}::test_certified_segments_have_every_point_free",),
    ),
    Mutant(
        "the points of a certified segment are not charged",
        "repro/geometry/environment.py",
        "        self.counters.charge(points=skipped * max(1, self._obs_lo.shape[0]))\n",
        "",
        (f"{MATRIX}[prm-batched-space-reference]", f"{MATRIX}[rrt-batched-space-reference]",
         f"{CERT}::test_twins_equal_a_run_without_the_certificate"),
    ),
    Mutant(
        "every termination level pays remote latency",
        "repro/runtime/termination.py",
        "local_levels = min(levels, int(np.ceil(np.log2(topology.cores_per_node))))",
        "local_levels = 0",
        ("tests/test_termination.py",),
    ),
    Mutant(
        "an expired submission keeps its executor",
        "repro/runtime/local_pool.py",
        "                if expired:\n                    pool.shutdown(wait=False)\n",
        "                if False:\n                    pool.shutdown(wait=False)\n",
        (f"{TIMEOUTS}::test_a_queued_submission_is_not_charged_for_waiting",
         f"{TIMEOUTS}::test_timeout_shorter_than_task_duration"),
    ),
    Mutant(
        "a timeout keeps two submissions per worker in flight",
        "repro/runtime/local_pool.py",
        "    window = 2 * workers if process and task_timeout is None else workers\n",
        "    window = 2 * workers if process else workers\n",
        (f"{TIMEOUTS}::test_a_queued_submission_is_not_charged_for_waiting",),
    ),
    Mutant(
        "the serial path submits a second chunk before the first's outcome is read",
        "repro/runtime/local_pool.py",
        "    window = 2 * workers if process and task_timeout is None else workers\n",
        "    window = 2 * workers if task_timeout is None else workers\n",
        ("tests/test_faults.py::TestRetryPolicy::test_serial_fail_fast_runs_no_later_task",),
    ),
    Mutant(
        "the inline backend takes a task_timeout it cannot enforce",
        "repro/runtime/local_pool.py",
        '    if task_timeout is not None and backend != "process":\n',
        "    if False:\n",
        (f"{TIMEOUTS}::test_timeout_validation",
         "tests/test_query_engine.py::TestSolveMany::test_a_timeout_needs_the_process_backend"),
    ),
    Mutant(
        "a submission to a pool a crash has broken escapes the dispatcher",
        "repro/runtime/local_pool.py",
        "        except BrokenExecutor:  # a crash broke the pool before its future was read\n",
        "        except ZeroDivisionError:  # a crash broke the pool before its future was read\n",
        ("tests/test_faults.py::TestWorkerDeath"
         "::test_a_pool_broken_before_a_submission_is_one_death",),
    ),
    Mutant(
        "a worker death in the pool emits no worker_death event",
        "repro/runtime/local_pool.py",
        "        if tracer is not None:\n            tracer.point(\n                EV_WORKER_DEATH,",
        "        if False:\n            tracer.point(\n                EV_WORKER_DEATH,",
        (RECOUNT,),
    ),
    Mutant(
        "a pool task's trace cost is not its measured time",
        "repro/runtime/local_pool.py",
        "tr.point(EV_TASK_END, ts=start_ts + dt, task=task_id, cost=dt)",
        "tr.point(EV_TASK_END, ts=start_ts + dt, task=task_id, cost=0.0)",
        ("tests/test_local_pool.py::TestRunTasksParallel::test_tracer_sees_every_task",),
    ),
    Mutant(
        "a cache eviction emits no cache_evict event",
        "repro/service/cache.py",
        "                self._tracer.point(EV_CACHE_EVICT, key=ekey, bytes=ebytes)\n",
        "                pass\n",
        (SERVED,),
    ),
    Mutant(
        "a rejected request emits no request_rejected event",
        "repro/service/service.py",
        "            self._tracer.point(EV_REQUEST_REJECTED, queued=self._queue.queued)\n",
        "            pass\n",
        (SERVED,),
    ),
    Mutant(
        "RRT is charged a generate phase",
        "repro/core/parallel_rrt.py",
        "        RNG_SEED,\n        weights=",
        "        RNG_SEED,\n        gen_costs=[0.0] * len(work),\n        weights=",
        (f"{GOLDEN}::test_simulate_rrt_golden[16-none]",),
    ),
    Mutant(
        "PRM is charged the k-rays probe cost",
        "repro/core/parallel_prm.py",
        "        RNG_SEED,\n        gen_costs=",
        "        RNG_SEED,\n        probe_cost=workload.work_model.cost_lp_check * 8,\n"
        "        gen_costs=",
        (f"{GOLDEN}::test_simulate_prm_golden[16-repartition]",),
    ),
    Mutant(
        "the construct span's events start where repartition starts (lb_overhead omitted)",
        "repro/core/machine.py",
        "t_construct = phases.start(PHASE_CONSTRUCT)",
        "t_construct = phases.start(PHASE_REPARTITION)",
        (f"{GOLDEN}::test_events_land_on_their_phase[prm-repartition]",),
    ),
    Mutant(
        "PRM's remote-access point drops the region-graph tally",
        "repro/core/parallel_prm.py",
        "count=region_remote + run.remote_reads,",
        "count=run.remote_reads,",
        (f"{GOLDEN}::test_traced_run_golden",),
    ),
    Mutant(
        "the replay runs a strategy outside the vocabulary",
        "repro/core/machine.py",
        "    if strategy not in STRATEGIES:\n",
        "    if False:\n",
        ("tests/test_parallel_prm.py::TestSimulation::test_unknown_strategy_rejected",),
    ),
    Mutant(
        "a RAND-K block skips Floyd's collision fix-up",
        "repro/core/work_stealing.py",
        "        col[(picks[:, :i] == col[:, None]).any(axis=1)] = n - k + i\n",
        "        pass\n",
        (f"{POLICIES}::TestBlockStream",
         f"{POLICIES}::TestRandK::test_same_generator_stream_as_explicit_candidate_array"),
    ),
    Mutant(
        "a RAND-K block skips the swap pass",
        "repro/core/work_stealing.py",
        "        picks[rows, j] = picks[:, i]\n        picks[:, i] = swapped\n",
        "",
        (f"{POLICIES}::TestBlockStream", f"{GOLDEN}::test_simulate_prm_golden[16-rand-8]"),
    ),
    Mutant(
        "the generator is not rewound at the end of a run",
        "repro/core/work_stealing.py",
        "            self._rng.bit_generator.state = self._start\n"
        "            draw_rounds(self._rng, self._n, self._k, self._used)\n",
        "            pass\n",
        (f"{POLICIES}::TestBlockStream", f"{GOLDEN}::test_a_run_leaves_the_generator_where"
         "_per_round_draws_do[96-hybrid]"),
    ),
    Mutant(
        "LPT breaks weight ties by descending id",
        "repro/partition/greedy.py",
        "order = sorted(weights, key=lambda r: (-weights[r], r))",
        "order = sorted(weights, key=lambda r: (-weights[r], -r))",
        (GOLDEN,),
    ),
    Mutant(
        "refine ignores the balance cap",
        "repro/partition/refine.py",
        "if loads[best_pe] + w > cap or w > loads[here]:",
        "if w > loads[here]:",
        (GOLDEN,),
    ),
    Mutant(
        "repartition installs a map below the min-gain threshold",
        "repro/core/repartition.py",
        "if old_max > 0 and new_max >= (1.0 - MIN_GAIN) * old_max:",
        "if False:",
        ("tests/test_repartition.py::TestRepartition::test_skips_when_balanced", GOLDEN),
    ),
    Mutant(
        "repartition keeps its weights on the region graph",
        "repro/core/repartition.py",
        "    weights = checked_weights(graph, weights)\n",
        "    weights = graph.weights = checked_weights(graph, weights)\n",
        (f"{GOLDEN}::test_a_replay_leaves_its_workload_untouched",),
    ),
    Mutant(
        "a partitioner reads a missing weight as zero",
        "repro/partition/edge_cut.py",
        "    if missing:\n        raise ValueError(f\"weights miss regions {missing[:5]}\")\n",
        "    if False:\n        raise ValueError(f\"weights miss regions {missing[:5]}\")\n"
        "    weights = {**dict.fromkeys(missing, 0.0), **weights}\n",
        ("tests/test_partition.py::TestWeightsAreArguments",),
    ),
    Mutant(
        "the k-rays weights are probed again on every replay",
        "repro/core/parallel_rrt.py",
        "        if self._k_rays is None:\n",
        "        if True:\n",
        ("tests/test_parallel_rrt.py::TestSimulation::test_k_rays_probed_once_per_workload",),
    ),
]


def _pytest(src: Path, tests) -> "tuple[int | None, str]":
    """pytest's exit status and output; ``None`` when the run outlived
    :data:`RUN_TIMEOUT` and its whole process group was killed."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         f"--hypothesis-profile={PROFILE}", *tests],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        # Pool workers the tests started die with the run.
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out + f"\ntimed out after {RUN_TIMEOUT} s"
    return proc.returncode, out


def _copy_src(root: Path) -> Path:
    shutil.rmtree(root / "src", ignore_errors=True)
    shutil.copytree(REPO / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return root / "src"


def _apply(src: Path, mutant: Mutant) -> "str | None":
    """Edit the copy; the reason it cannot be applied, or None."""
    path = src / mutant.file
    text = path.read_text()
    olds, news = ((x,) if isinstance(x, str) else x for x in (mutant.old, mutant.new))
    for old, new in zip(olds, news, strict=True):
        if text.count(old) != 1:
            return f"old text occurs {text.count(old)} times in {mutant.file}"
        text = text.replace(old, new)
    try:
        compile(text, str(path), "exec")
    except SyntaxError as exc:
        return f"does not compile: {exc}"
    path.write_text(text)
    return None


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        listed = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, out = _pytest(_copy_src(root), listed)
        if code != 0:
            print(out[-3000:])
            why = "time out" if code is None else f"fail (pytest exit {code})"
            print(f"mutants: the listed tests {why} on unmutated src/")
            return 1
        print(f"baseline: {len(listed)} listed tests pass on unmutated src/", flush=True)
        verdicts = []
        for mutant in MUTANTS:
            src = _copy_src(root)
            reason = _apply(src, mutant)
            if reason is None:
                code, out = _pytest(src, mutant.tests)
                verdict = {0: "survived", 1: "killed", None: "killed (timeout)"}.get(
                    code, "broken")
                reason = "" if code in (0, 1, None) else f"pytest exit {code}: {out[-500:]}"
            else:
                verdict = "broken"
            verdicts.append(verdict)
            print(f"{verdict:8}  {mutant.name}  [{mutant.file}]")
            for test in mutant.tests:
                print(f"          {test}")
            if reason:
                print(f"          {reason}")
            sys.stdout.flush()
    killed = sum(v.startswith("killed") for v in verdicts)
    print(f"mutants: {killed}/{len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
