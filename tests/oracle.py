"""The oracle harness: one digest of what a planning run leaves behind.

Every fast path the planners take — the batched ``RRT.grow``, the batched
and block ``PRM`` builds, pool chunks planned as blocks, the shm plane,
the ``bvh`` cull — is trusted because it leaves exactly what its
sequential loop leaves.  :func:`digest` names every field of that, and
:func:`assert_same` names the first field two runs differ in.

Each loop a fast path replays lives here, over the production object:
:class:`SequentialPRM`, :class:`SequentialRRT`, :func:`region_loop`
(with :func:`rrt_loop`, the drivers' per-region loops; :func:`region_values`
hands a driver's region planner other parameter values),
:func:`merge_one_by_one` (the one-pass union of regional results),
:func:`prepared_one` (a query's search heuristics, which a served
batch prepares in array passes),
:func:`box_obstacle_relation` and :func:`ray_free_distance_per_box` (the
k-rays probe box by box).  :func:`assert_trace_matches_pool` is the
completeness invariant on a local pool run: its trace alone recounts the
``PoolResult``.  :class:`PerMessageSimulator` is the virtual machine with
one heap event per failed steal reply, which the bundled replies of
``WorkStealingSimulator`` replay.

This is the only test module that knows how a ``Roadmap`` stores its
graph (the edge log ``_uv`` / ``_w`` / ``_live`` / ``_m``, ``_index``,
``_next_id``); ``tests/test_hygiene.py`` keeps it that way, so a change
of representation edits :func:`digest` and nothing else.
"""

import contextlib
import functools
import hashlib
import heapq
import itertools
from collections import deque
from dataclasses import asdict, astuple
from unittest import mock

import numpy as np

from repro.api import _RegionTask
from repro.core import parallel_prm, parallel_rrt
from repro.geometry import environment
from repro.knn import BruteForceNN
from repro.obs import EV_TASK_END, summarize_events
from repro.obs.events import EV_STEAL_FAIL, EV_STEAL_REPLY, EV_STEAL_REQUEST, EV_STEAL_TRANSFER
from repro.planners import PRM, RRT, PlannerStats, Roadmap
from repro.planners.frozen import _TOL, ACTIVE_LANDMARKS
from repro.planners.prm import PRMResult
from repro.runtime import PEStats, SimResult, WorkStealingSimulator
from repro.runtime.simulator import (
    _REDISPATCH, _RETRY, _STEAL_REPLY, _STEAL_REQUEST, BACKOFF_BASE, MAX_IDLE_ROUNDS, MIN_KEEP,
    TRANSFER_COST,
)


def digest(run, env=None, rng=None) -> dict:
    """Every observable of ``run``, field by field.

    ``run`` is a ``Roadmap``, a planner result (``PRMResult`` /
    ``RRTResult``), a workload, or a ``PlanReport``.  The roadmap's
    vertex ids in row order, configuration bytes, CSR adjacency in
    insertion order (frozen A* breaks ties on it; a tree's first
    neighbour is the parent) and its weights, the edge log's row pairs
    and live mask, id -> row
    index, next id and exact components; then whatever ``run`` carries of parents, the root, ``PlannerStats``,
    per-region ledgers and ``CollisionCounters``.  ``env`` names the
    environment whose counters a bare result charged, ``rng`` the
    generator whose end state counts.  Every value is a copy — immutable
    but for the fresh ``stats`` dict — so a digest does not follow later
    mutations.  The duplicate index lags the log by design and stays out.
    """
    rm = run if isinstance(run, Roadmap) else run.roadmap
    ids, cfgs = rm.configs_array()
    m = rm._m
    indptr, indices, weights = rm.csr()
    out = {
        "ids": tuple(ids.tolist()),
        "configs": cfgs.tobytes(),
        "adjacency": (indptr.tobytes(), indices.tobytes()),
        "weights": tuple(weights.tolist()),
        "edge_log": (rm._uv[:m].tobytes(), rm._live[:m].tobytes()),
        "index": tuple(rm._index.items()),
        "next_id": rm._next_id,
        "num_edges": rm.num_edges,
        "components": tuple(tuple(sorted(c)) for c in
                            sorted(rm.connected_components(), key=min)),
    }
    # A simulate-mode report carries its measured workload.
    source = getattr(run, "workload", None) or run
    if hasattr(source, "parents"):
        out["parents"] = frozenset(source.parents.items())
    if hasattr(source, "root_id"):
        out["root_id"] = source.root_id
    if hasattr(source, "stats"):
        out["stats"] = asdict(source.stats)
    if getattr(run, "local_stats", None) is not None:
        out["stats"] = asdict(run.local_stats)
        out["counters"] = run.local_counters
    for ledger in ("region_work", "branch_work"):
        if hasattr(source, ledger):
            out[ledger] = tuple(astuple(w) for w in getattr(source, ledger).values())
            out["adjacency_work"] = tuple(astuple(a) for a in source.adjacency_work)
    if hasattr(source, "sample_positions"):
        out["sample_positions"] = (source.sample_positions.shape,
                                   source.sample_positions.tobytes())
    if hasattr(source, "cspace"):
        env = source.cspace.env
    if env is not None:
        out["counters"] = (env.counters.point_checks, env.counters.segment_checks)
    if rng is not None:
        out["rng"] = repr(rng.bit_generator.state)
    return out


def assert_same(got: dict, want: dict, ignore=()) -> None:
    """``got`` equals the oracle's ``want`` in every field but ``ignore``;
    a failure names the first field that differs."""
    fields = [f for f in want if f not in ignore]
    assert [f for f in got if f not in ignore] == fields, "the digests hold different fields"
    for field in fields:
        assert got[field] == want[field], f"diverged from the oracle in {field}"


def assert_agree(run) -> dict:
    """``run(fast) -> digest`` from identical fresh state on the oracle
    path (``False``) and the fast path (``True``): equal.  Returns the
    oracle's."""
    want = run(False)
    assert_same(run(True), want)
    return want


class SequentialPRM(PRM):
    """``PRM`` with the one-vertex build and one-pair connect loops, the
    oracle of the block of one (scalar edge weights: one ulp apart)."""

    def build(self, n_samples, rng, within=None, roadmap=None, id_base=0):
        rmap = roadmap if roadmap is not None else Roadmap(self.cspace.dim)
        batch = self.sampler(self.cspace, rng, n_samples, within=within)
        stats = PlannerStats(sample_attempts=batch.attempts, samples_accepted=len(batch))
        nn = BruteForceNN(self.cspace.dim)
        nn.add_batch(*rmap.configs_array())
        for vid, cfg in enumerate(batch.configs, start=id_base + rmap.num_vertices):
            rmap.add_vertex(cfg, vid)
            self._link(rmap, vid, nn.knn(cfg, self.k), stats)
            nn.add(vid, cfg)
        stats.nn_distance_evals += nn.stats.distance_evals
        return PRMResult(rmap, stats)

    def connect_roadmaps(self, rmap, ids_a, ids_b, k=None):
        stats, nn = PlannerStats(), BruteForceNN(self.cspace.dim)
        k = k if k is not None else self.k
        if len(ids_a) and len(ids_b):
            nn.add_batch(np.asarray(ids_b, dtype=np.int64), rmap.configs_of(map(int, ids_b)))
            for u in map(int, ids_a):
                self._link(rmap, u, nn.knn(rmap.config(u), k), stats)
        stats.nn_distance_evals += nn.stats.distance_evals
        return stats

    def _link(self, rmap, u, candidates, stats):
        stats.nn_queries += 1
        for v, _dist in candidates:
            result = self.local_planner(self.cspace, rmap.config(u), rmap.config(v))
            stats.lp_calls += 1
            stats.lp_checks += result.checks
            if result.valid:
                stats.lp_successes += 1
                stats.edges_added += rmap.add_edge(u, v, result.length)


class SequentialRRT(RRT):
    """``RRT`` growing by the one-extension-at-a-time loop over a
    ``BruteForceNN``: the oracle ``RRT._grow_batched`` replays."""

    def _grow_batched(self, tree, parents, n_nodes, rng, bias_target, region_predicate,
                      max_iterations, id_base, stats, within):
        nn = BruteForceNN(self.cspace.dim)
        nn.add(id_base, tree.config(id_base))
        added = 0
        for _ in range(max_iterations):
            if added >= n_nodes:
                break
            if bias_target is not None and rng.random() < self.goal_bias:
                q_rand = np.asarray(bias_target, dtype=float)
            else:
                q_rand = self.cspace.sample(rng, within=within)
            stats.nn_queries += 1
            near_id, dist = nn.knn(q_rand, 1)[0]
            q_near = tree.config(near_id)
            if dist == 0.0:
                continue
            q_new = self.cspace.interpolate(q_near, q_rand, min(self.step_size / dist, 1.0))
            stats.sample_attempts += 1
            if not self.cspace.valid_single(q_new) or (
                    region_predicate is not None and not region_predicate(q_new[None])[0]):
                continue
            result = self.local_planner(self.cspace, q_near, q_new)
            stats.lp_calls += 1
            stats.lp_checks += result.checks
            if result.valid:
                stats.lp_successes += 1
                stats.edges_added += 1
                added += 1
                tree.add_vertex(q_new, id_base + added)
                tree.add_edge(near_id, id_base + added, result.length)
                parents[id_base + added] = near_id
                nn.add(id_base + added, q_new)
        stats.nn_distance_evals += nn.stats.distance_evals
        stats.samples_accepted += added


def merge_one_by_one(roadmap, *parts) -> None:
    """``Roadmap.merge``'s oracle: the parts one after the other, each as
    the loop a one-part merge replaces — its missing vertices by
    ``add_vertex`` in row order (a held id must hold the same bits), then
    ``add_edge`` (lower id first) over its live edges, ordered by the row
    of that lower-id endpoint, log order within."""
    for part in parts:
        ids, cfgs = part.configs_array()
        for vid, cfg in zip(ids.tolist(), np.asarray(cfgs, dtype=float)):
            if not roadmap.has_vertex(vid):
                roadmap.add_vertex(cfg, vid)
            elif roadmap.config(vid).tobytes() != cfg.tobytes():
                raise ValueError(f"vertex id clash with different configs: {vid}")
        uv, w = part.edge_rows()
        ends = [(a, b) if ids[a] < ids[b] else (b, a) for a, b in uv.tolist()]
        for e in sorted(range(len(ends)), key=lambda e: ends[e][0]):
            a, b = ends[e]
            roadmap.add_edge(int(ids[a]), int(ids[b]), float(w[e]))


def plan_one_by_one(regions, rids, roadmap):
    """``_plan_in_blocks``'s oracle: each region's own call, merged in turn."""
    region_stats = {}
    for rid in rids:
        result = regions(rid)
        region_stats[rid] = result.stats
        roadmap.merge(result.roadmap)
    return region_stats


def connect_one_by_one(regions, roadmap, rows, adjacencies, k_inter, reach, cap, _step):
    """``_connect_in_blocks``'s oracle: per adjacency, boundary sets from
    the regions' ``AABB`` s and one ``connect_roadmaps`` call."""
    index_of = {rid: i for i, rid in enumerate(rows.rids)}
    out = []
    for a, b in adjacencies:
        near = []
        for own, other in ((a, b), (b, a)):
            i = index_of[own]
            mine = slice(rows.start[i], rows.start[i] + rows.count[i])
            dist = regions.decomposition.region_of(other).bounds.distance(rows.positions[mine])
            ids = rows.ids[mine][dist <= reach]
            if ids.size > cap:
                ids = ids[np.argsort(dist[dist <= reach], kind="stable")[:cap]]
            near.append(ids)
        if near[0].size == 0 or near[1].size == 0:
            out.append((None, 0))
        else:
            st = regions.planner.connect_roadmaps(roadmap, *near, k=k_inter)
            out.append((st, int(near[1].size)))
    return out


@contextlib.contextmanager
def region_loop():
    """Inside ``with region_loop():`` ``build_prm_workload`` plans one
    region and connects one adjacency at a time, and ``_RegionTask.run_block``
    declines, so local-mode chunks take the per-task loop.  Each region
    still runs the production one-region build."""
    with mock.patch.multiple(parallel_prm, _plan_in_blocks=plan_one_by_one,
                             _connect_in_blocks=connect_one_by_one), \
            mock.patch.object(_RegionTask, "run_block", lambda _self, _rids: None):
        yield


def rrt_loop():
    """Every ``RRTRegionPlanner`` built inside grows with :class:`SequentialRRT`."""
    return mock.patch.object(parallel_rrt, "RRT", SequentialRRT)


def region_values(planner_cls, **values):
    """Inside ``with region_values(PRMRegionPlanner, k=6):`` the workload
    builder of ``planner_cls`` (``PRMRegionPlanner`` or
    ``RRTRegionPlanner``) constructs its region planner with ``values``
    in place of the module constants its keyword parameters default to:
    how a test builds a workload with local mode's values
    (``repro.api.LOCAL_PRM`` / ``LOCAL_RRT``) or any other."""
    module = parallel_prm if planner_cls is parallel_prm.PRMRegionPlanner else parallel_rrt
    return mock.patch.object(
        module, planner_cls.__name__, functools.partial(planner_cls, **values)
    )


def box_obstacle_relation(env, box) -> str:
    """``"free"``, ``"blocked"`` (inside an obstacle) or ``"boundary"``:
    one box, the oracle of ``Environment.boxes_on_boundary``."""
    touching = [obs for obs in env.obstacles if obs.intersects(box)]
    if any(np.all(o.lo <= box.lo) and np.all(box.hi <= o.hi) for o in touching):
        return "blocked"
    return "boundary" if touching else "free"


def ray_box_enter(origin, u, lo, hi):
    """Parameter t >= 0 where ray origin+t*u first enters [lo,hi]; None if it misses."""
    t0, t1 = -np.inf, np.inf
    for i in range(origin.shape[0]):
        if u[i] == 0.0:
            if origin[i] < lo[i] or origin[i] > hi[i]:
                return None
        else:
            ta = (lo[i] - origin[i]) / u[i]
            tb = (hi[i] - origin[i]) / u[i]
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 > t1:
                return None
    if t1 < 0.0:
        return None
    return max(t0, 0.0)


def ray_free_distance_per_box(env, origin, direction, max_dist):
    """``Environment.ray_free_distance``'s oracle: the slab test box by
    box (:func:`ray_box_enter`), charging the counters as it does."""
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise ValueError("ray direction must be non-zero")
    u = direction / norm
    env.counters.charge(segments=max(1, env.num_obstacles))
    best = min(max_dist, environment._ray_box_exit(origin, u, env.bounds.lo, env.bounds.hi))
    lo, hi = env.kernel_data().box_lo, env.kernel_data().box_hi
    for box_lo, box_hi in zip(lo, hi):
        t_enter = ray_box_enter(origin, u, box_lo, box_hi)
        if t_enter is not None and 0.0 <= t_enter < best:
            best = t_enter
    return max(best, 0.0)


def roadmap_fingerprint(rmap) -> str:
    """sha256 over vertex ids + configurations (id order) and the sorted
    ``(u, v, weight)`` edge list: equal iff the roadmaps are bit-identical."""
    ids, cfgs = rmap.configs_array()
    order = np.argsort(ids, kind="stable")
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ids[order]).tobytes())
    h.update(np.ascontiguousarray(cfgs[order]).tobytes())
    edges = sorted((min(u, v), max(u, v), w) for u, v, w in rmap.edges())
    h.update(np.array([(u, v) for u, v, _w in edges], dtype=np.int64).tobytes())
    h.update(np.array([w for _u, _v, w in edges], dtype=np.float64).tobytes())
    return h.hexdigest()


def adjacency_fingerprint(rmap) -> str:
    """sha256 over the frozen ``ids`` / ``indptr`` / ``indices`` /
    ``weights``: unlike :func:`roadmap_fingerprint` it sees the order of
    every row's neighbours, which frozen A* breaks ties on."""
    frozen = rmap.freeze()
    h = hashlib.sha256()
    for arr in (frozen.ids, frozen.indptr, frozen.indices, frozen.weights):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def same_answer(a, b) -> bool:
    """Two query answers (or two ``None``) are bit-identical paths."""
    if a is None or b is None:
        return a is b
    return (
        a.path_vertices == b.path_vertices
        and a.length == b.length
        and np.array_equal(a.path_configs, b.path_configs)
    )


def assert_trace_matches_pool(events, pool) -> None:
    """The trace of one ``run_tasks_parallel`` call recounts its
    ``PoolResult``: every finished task and its measured time, each retry,
    worker death and abandoned task."""
    s = summarize_events(events)
    costs = sorted(e.attrs["cost"] for e in events if e.name == EV_TASK_END)
    assert costs == sorted(pool.per_task_time.values())
    assert s.dispatch_tasks == s.tasks_executed == len(pool.results)
    assert s.task_retries == pool.retries
    assert s.worker_deaths == pool.worker_deaths
    assert sorted(s.abandoned_tasks) == pool.abandoned


def prepared_one(frozen, start, goal, start_links, goal_links):
    """One query's heap heuristics computed alone, the way the search did
    before a batch prepared them: ``(h, alt, d_sg)`` as
    ``FrozenRoadmap.prepare`` returns them in its array passes."""
    n = frozen.num_vertices
    h = np.linalg.norm(frozen.configs - goal[None, :], axis=1)
    d_sg = float(np.linalg.norm((start - goal)[None, :], axis=1)[0])
    g_back = {r: w for r, w in goal_links if r != n}
    table = frozen.landmark_table
    if table is None or not g_back or not start_links:
        return h, None, d_sg
    rows = list(g_back)
    w = np.fromiter(g_back.values(), dtype=float, count=len(rows))
    at_goal = table[:, rows]
    d_goal = np.fmin.reduce(at_goal + w, axis=1)[:, None]
    d_far = np.fmax.reduce(at_goal - w, axis=1)[:, None]
    s_rows = [r for r, _w in start_links]
    s_w = np.fromiter((w for _r, w in start_links), dtype=float, count=len(s_rows))
    at_start = table[:, s_rows]
    score = np.fmin.reduce(np.fmax(d_goal - at_start, at_start - d_far) + s_w, axis=1)
    pick = np.argsort(-score, kind="stable")[:ACTIVE_LANDMARKS]
    pick = pick[~np.isnan(d_goal[pick, 0])]
    if not pick.size:
        return h, None, d_sg
    dist = table[pick]
    alt = np.fmax.reduce(np.fmax(d_goal[pick] - dist, dist - d_far[pick]), axis=0)
    alt *= 1.0 - _TOL
    return h, np.fmax(h, alt), d_sg


def grid_loop(bounds, num_regions, overlap=0.1):
    """``UniformSubdivision``'s regions and region graph built one cell at
    a time — the oracle its array pass replays: per cell its core and
    sampling ``AABB`` and grid index, then face adjacencies in (region,
    axis) order.  Returns the ``RegionGraph`` of ``BoxRegion`` s."""
    from repro.geometry import AABB
    from repro.subdivision import RegionGraph, grid_shape_for
    from repro.subdivision.uniform import BoxRegion

    shape = grid_shape_for(num_regions, bounds.dim, bounds.extents)
    cell = bounds.extents / np.asarray(shape, dtype=float)

    def id_to_index(rid):
        idx = []
        for n in reversed(shape):
            idx.append(rid % n)
            rid //= n
        return tuple(reversed(idx))

    def index_to_id(idx):
        rid = 0
        for i, n in zip(idx, shape):
            rid = rid * n + i
        return rid

    graph = RegionGraph()
    margin = 0.5 * overlap * cell
    for flat in range(int(np.prod(shape))):
        idx = id_to_index(flat)
        lo = bounds.lo + np.asarray(idx) * cell
        hi = lo + cell
        sample = AABB(np.maximum(lo - margin, bounds.lo), np.minimum(hi + margin, bounds.hi))
        graph.add_region(BoxRegion(id=flat, bounds=AABB(lo, hi), sample_bounds=sample,
                                   grid_index=idx))
    for flat in range(int(np.prod(shape))):
        idx = id_to_index(flat)
        for d in range(bounds.dim):
            if idx[d] + 1 < shape[d]:
                nbr = list(idx)
                nbr[d] += 1
                graph.add_adjacency(flat, index_to_id(tuple(nbr)))
    return graph


class PerMessageSimulator(WorkStealingSimulator):
    """The simulator with one heap event per failed steal reply: the loop
    that bundled failed replies replay bit for bit.

    ``run``, ``_start_steal_round`` and ``_schedule_retry`` are the
    per-message versions (a failed reply is a ``_STEAL_REPLY`` with an
    empty payload, a round's bundles are grouped through a dict keyed by
    arrival time, the retry wait is computed each time); every other
    method is the simulator's own.
    """

    def run(self, assignment: "dict[int, int]") -> SimResult:
        P = self.topology.num_pes
        self._deques: "list[deque[int]]" = [deque() for _ in range(P)]
        # Stable initial order: sorted task ids per PE.
        for task in sorted(assignment):
            pe = assignment[task]
            if not 0 <= pe < P:
                raise ValueError(f"task {task} assigned to invalid PE {pe}")
            self._deques[pe].append(task)

        self._stats = [PEStats(pe=p) for p in range(P)]
        self._busy = [False] * P
        self._dead = [False] * P
        self._stolen_marks: "set[int]" = set()
        self._executed_by: "dict[int, int]" = {}
        self._task_costs: "dict[int, float]" = {}
        self._remaining = len(assignment)
        self._queued_requests: "list[list[int]]" = [[] for _ in range(P)]
        self._pending_replies = [0] * P
        self._round_found = [False] * P
        self._idle_rounds = [0] * P
        #: the heap of ``(time, seq, kind, pe, payload)`` events; ``_push``
        #: takes one such tuple, ``_seq()`` hands out the next tie-breaker.
        self._events: "list[tuple[float, int, int, int, object]]" = []
        self._push = functools.partial(heapq.heappush, self._events)
        self._seq = itertools.count(1).__next__
        self._makespan = 0.0
        #: redispatch messages; steal traffic is tallied from the per-PE
        #: request / transfer / failure counters once the run is over.
        self._messages = 0
        self._deaths = 0
        self._attempts: "dict[int, int]" = {}
        self._abandoned: "list[int]" = []

        for p in range(P):
            self._activate(p, 0.0)

        events, pop, push, seq = self._events, heapq.heappop, self._push, self._seq
        stats, deques, busy, dead = self._stats, self._deques, self._busy, self._dead
        queues, pending, found = self._queued_requests, self._pending_replies, self._round_found
        idle_rounds = self._idle_rounds
        topo, tr, activate = self.topology, self._tr, self._activate
        node, local, remote = topo.pe_node, topo.latency_local, topo.latency_remote
        chunk = self.steal_chunk
        ends = (self._on_task_done, self._on_task_failed)  # indexed by kind
        end_time = 0.0
        while events:
            now, _seq, kind, pe, payload = pop(events)
            if now > end_time:
                end_time = now
            if kind == _STEAL_REPLY:
                pending[pe] -= 1
                if tr is not None:
                    tr.point(EV_STEAL_REPLY, ts=now, pe=pe, tasks=len(payload))
                if dead[pe]:
                    # The thief died while its request was in flight; the
                    # runtime reclaims the transfer instead of stranding it.
                    if payload:
                        self._redispatch_tasks(payload, pe, now)
                elif payload:
                    found[pe] = True
                    idle_rounds[pe] = 0
                    self._stolen_marks.update(payload)
                    deques[pe].extend(payload)
                    activate(pe, now)
                elif pending[pe] == 0 and not found[pe]:
                    # Whole round failed: back off and retry while work remains.
                    idle_rounds[pe] += 1
                    self._schedule_retry(pe, now)
                continue
            if kind == _RETRY:
                if busy[pe] or deques[pe]:
                    activate(pe, now)
                elif self._remaining > 0 and pending[pe] == 0 and not dead[pe]:
                    # A PE that died during its backoff steals no more.
                    self._start_steal_round(pe, now)
                continue
            if kind == _REDISPATCH:
                self._on_redispatch(pe, now, payload)
                continue
            arriving = kind == _STEAL_REQUEST
            if arriving:
                # Thief ``pe``'s requests to every victim in ``payload``.
                victims, thieves = payload, itertools.repeat(pe)
            else:
                # A task ended: ``pe`` is free, and answers the thieves that
                # knocked while it worked, in arrival order.
                ends[kind](pe, now, payload)
                busy[pe] = False
                victims, thieves = itertools.repeat(pe), queues[pe]
                if thieves:
                    queues[pe] = []
            for victim, thief in zip(victims, thieves):
                if arriving:
                    stats[victim].steal_requests_received += 1
                    if busy[victim]:
                        queues[victim].append(thief)  # non-preemptive service
                        continue
                dq = deques[victim]
                assert not (arriving and dq), f"PE {victim} is not busy but holds work"
                stealable = len(dq) - MIN_KEEP
                if arriving or stealable <= 0:  # a victim that is not busy fails at once
                    stats[victim].steals_failed += 1
                    if tr is not None:
                        tr.point(EV_STEAL_FAIL, ts=now, pe=victim, thief=thief)
                    delay = local if node[victim] == node[thief] else remote
                    push((now + delay, seq(), _STEAL_REPLY, thief, ()))
                    continue
                n = max(stealable // 2, 1) if chunk == "half" else min(int(chunk), stealable)
                tasks = [dq.pop() for _ in range(n)]  # steal from the back
                vst = stats[victim]
                vst.steals_serviced += 1
                vst.tasks_lost += n
                if tr is not None:
                    tr.point(EV_STEAL_TRANSFER, ts=now, pe=victim, thief=thief, tasks=n)
                delay = topo.latency(victim, thief, payload=n) + TRANSFER_COST * n
                push((now + delay, seq(), _STEAL_REPLY, thief, tasks))
            if not arriving:
                activate(pe, now)

        for st in stats:
            sent = st.steal_requests_sent + st.steals_serviced + st.steals_failed
            st.messages_sent += sent
            self._messages += sent
        return SimResult(
            pe_stats=stats,
            executed_by=self._executed_by,
            task_costs=self._task_costs,
            makespan=self._makespan,
            end_time=end_time,
            total_messages=self._messages,
            task_attempts=self._attempts,
            abandoned=sorted(self._abandoned),
            worker_deaths=self._deaths,
        )

    def _start_steal_round(self, pe: int, now: float) -> None:
        victims = self.steal_policy.select_victims(
            pe, self._idle_rounds[pe], self.topology, self.rng
        )
        victims = [v for v in victims if v != pe]
        if not victims:
            self._schedule_retry(pe, now)
            return
        # The node table below refuses a PE past the machine; a negative
        # one would wrap, so it is refused here.
        if min(victims) < 0:
            raise IndexError(f"PE {min(victims)} out of range [0, {self.topology.num_pes})")
        self._round_found[pe] = False
        self._pending_replies[pe] = len(victims)
        self._stats[pe].steal_requests_sent += len(victims)
        if self._tr is not None:
            for v in victims:
                self._tr.point(EV_STEAL_REQUEST, ts=now, pe=pe, victim=v)
        # One event per arrival time, members in policy order (simulator docstring).
        topo = self.topology
        node, here = topo.pe_node, topo.pe_node[pe]
        near, far = now + topo.latency_local, now + topo.latency_remote
        bundles: "dict[float, list[int]]" = {}
        for v in victims:
            bundles.setdefault(near if node[v] == here else far, []).append(v)
        for t, bundle in bundles.items():
            self._push((t, self._seq(), _STEAL_REQUEST, pe, bundle))

    def _schedule_retry(self, pe: int, now: float) -> None:
        if self._remaining <= 0:
            return
        wait = BACKOFF_BASE * (2.0 ** min(self._idle_rounds[pe], MAX_IDLE_ROUNDS))
        self._push((now + wait, self._seq(), _RETRY, pe, None))
