"""Amortised query-serving engine over a frozen roadmap.

:class:`~repro.planners.query.RoadmapQuery` pays the full setup cost on
every query: it rebuilds a brute-force NN index from scratch, adds
temporary start/goal vertices to the roadmap, and re-derives its CSR to
search it.  :class:`QueryEngine` amortises all of it across the lifetime
of a built roadmap:

* the roadmap is compiled once into a
  :class:`~repro.planners.frozen.FrozenRoadmap` CSR snapshot;
* one reusable :class:`~repro.knn.brute.BruteForceNN` index is built
  once over the snapshot's configurations (every served roadmap is small
  enough that its one-matrix batch scan is the fastest finder);
* searches run over the CSR arrays with *virtual* start/goal endpoints,
  so the roadmap is never mutated and queries are trivially independent;
* :meth:`QueryEngine.solve_many` batches start/goal validity checks,
  k-NN attachment, local-planner validation and the searches' heuristics
  (the attachment pass's distance block, one landmark pass) across a
  whole request batch, then dispatches the per-query searches inline or
  in one chunk per worker across the :mod:`repro.runtime.local_pool`
  backends (inheriting its retry / degrade fault policies), emitting
  per-query ``EV_QUERY_*`` events;
* once the searches have settled as many vertices as it costs, the
  snapshot's landmark table is built on a background thread (ski
  rental), and later searches run in ALT order under a tie certificate
  (:mod:`repro.planners.frozen`).

Every query returns **exactly** what ``RoadmapQuery.solve`` returns on
the same roadmap — same ``path_vertices`` (including the temporary
``max_id+1`` / ``max_id+2`` endpoint ids), same configurations, same
length, bit for bit.  The parity levers: canonical (distance, insertion
order) k-NN tie-breaking shared by all backends, the bit-exact
``batch_pairs_exact`` local-planner twin, and the path-exact virtual A*
of the frozen snapshot.

The engine snapshots the roadmap at construction time: mutate the
roadmap afterwards and the engine keeps answering from the frozen copy —
build a new engine after changing the roadmap.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..cspace.local_planner import StraightLinePlanner
from ..cspace.space import ConfigurationSpace
from ..knn.brute import BruteForceNN
from ..obs.events import EV_QUERY_END, EV_QUERY_START, PHASE_SERVE
from ..obs.metrics import nearest_rank
from ..runtime.local_pool import DispatchStats, check_timeout, resolve_workers, run_tasks_parallel
from .frozen import LANDMARKS, FrozenRoadmap
from .query import QueryResult
from .roadmap import Roadmap

__all__ = ["QueryRequest", "BatchQueryResult", "QueryEngine"]

#: Attachment degree of a query's start and goal, matching
#: ``RoadmapQuery``'s default.
ATTACH_K = 8


@dataclass
class QueryRequest:
    """One planning request: find a path from ``start`` to ``goal``."""

    start: np.ndarray
    goal: np.ndarray

    def __post_init__(self):
        self.start = np.asarray(self.start, dtype=float)
        self.goal = np.asarray(self.goal, dtype=float)


@dataclass
class BatchQueryResult:
    """Results plus timing/failure accounting of one ``solve_many`` batch."""

    #: per-request :class:`~repro.planners.query.QueryResult` or None
    #: (invalid endpoints, no attachment, disconnected, or abandoned).
    results: "list[QueryResult | None]"
    wall_time: float
    #: batched setup (validity + k-NN + local planning) for the whole batch.
    setup_time: float
    #: per-query latency: search time plus an equal share of the setup.
    latencies: "list[float]"
    solved: int
    #: query indices given up on under the pool's ``"degrade"`` policy.
    abandoned: "list[int]" = field(default_factory=list)
    retries: int = 0
    worker_deaths: int = 0
    #: query index -> attempts consumed (1 = first try succeeded), the
    #: same accounting ``plan()`` surfaces via ``PoolResult.attempts`` —
    #: abandoned queries appear here with their full failed-attempt count
    #: instead of silently vanishing.
    attempts: "dict[int, int]" = field(default_factory=dict)
    #: pool dispatch accounting (chunk policy, bytes shipped) for
    #: pool-dispatched batches; ``None`` for inline runs.
    dispatch: "DispatchStats | None" = None

    @property
    def num_queries(self) -> int:
        return len(self.results)

    @property
    def queries_per_sec(self) -> float:
        """Batch throughput over wall time."""
        return self.num_queries / self.wall_time if self.wall_time > 0 else 0.0

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank per-query latency percentile (``q`` in [0, 100]).

        Abandoned queries never produced an answer, so their entries
        (setup share only) are excluded — a degraded run must not report
        artificially low tail latencies for work it gave up on.
        """
        lost = set(self.abandoned)
        return nearest_rank(
            (lat for i, lat in enumerate(self.latencies) if i not in lost), q
        )


def _solve_prepared(frozen: FrozenRoadmap, jobs, sid: int, gid: int, i: int):
    """Run the search for prepared query ``i`` (module-level so the
    process-pool backend can ship it via a partial)."""
    job = jobs[i]
    if job is None:
        return None
    start, goal, s_links, g_links, prepared = job
    found = frozen.astar_virtual(start, goal, s_links, g_links, sid, gid, prepared=prepared)
    if found is None:
        return None
    path, length = found
    configs = np.vstack([start[None, :], frozen.configs_of(path[1:-1]), goal[None, :]])
    return QueryResult(path, configs, length)


class QueryEngine:
    """Serves many planning queries against one frozen roadmap.

    Parameters
    ----------
    cspace:
        The configuration space queries live in.
    roadmap:
        A built :class:`~repro.planners.roadmap.Roadmap` (frozen here) or
        an existing :class:`~repro.planners.frozen.FrozenRoadmap`.

    Start and goal attach to their :data:`ATTACH_K` nearest vertices;
    attachment edges are validated by the same straight-line planner
    ``RoadmapQuery`` uses.  Collision checks run on whichever
    :mod:`repro.kernels` backend ``cspace``'s environment is configured
    with; the NN index always computes float64 distances.
    """

    def __init__(self, cspace: ConfigurationSpace, roadmap: "Roadmap | FrozenRoadmap"):
        self.cspace = cspace
        if isinstance(roadmap, FrozenRoadmap):
            self.frozen = roadmap
        else:
            self.frozen = FrozenRoadmap.from_roadmap(roadmap)
        self.local_planner = StraightLinePlanner(resolution=0.25)
        n = self.frozen.num_vertices
        self._nn = BruteForceNN(cspace.dim)
        if n:
            # Point ids are dense rows: insertion order matches the frozen
            # row order, so canonical tie-breaking equals what a fresh
            # per-query BruteForceNN over configs_array() would produce.
            self._nn.add_batch(np.arange(n, dtype=np.int64), self.frozen.configs)
        self._sid = self.frozen.max_id + 1
        self._gid = self.frozen.max_id + 2
        self._landmark_lock = threading.Lock()
        self._landmark_build: "threading.Thread | None" = None

    # -- batched preparation -------------------------------------------------
    def _prepare(self, starts: np.ndarray, goals: np.ndarray):
        """Vectorised per-batch setup: endpoint validity, k-NN attachment
        candidates, one local-planner batch over every candidate edge, and
        the searches' heap heuristics.

        Returns per-query jobs ``(start, goal, start_links, goal_links,
        prepared)`` (links as ``(row, weight)`` in candidate order,
        ``prepared`` the query's :class:`~repro.planners.frozen.Prepared`)
        or None for queries that already failed (invalid endpoints).  The
        attachment pass's distance block holds every goal's distance to
        every row: those rows are the A* heuristics, so
        :meth:`FrozenRoadmap.prepare` scans nothing again.
        """
        q = starts.shape[0]
        jobs: "list[tuple | None]" = [None] * q
        if q == 0:
            return jobs
        vmask = np.asarray(self.cspace.valid(np.vstack([starts, goals])), dtype=bool)
        ok = vmask[:q] & vmask[q:]
        valid_idx = np.nonzero(ok)[0].tolist()
        if not valid_idx:
            return jobs
        n = self.frozen.num_vertices
        nv = len(valid_idx)
        v_starts, v_goals = starts[valid_idx], goals[valid_idx]
        dist = np.empty((2 * nv, n))
        cand_ids, cand_d = self._nn.knn_batch_arrays(
            np.vstack([v_starts, v_goals]), ATTACH_K, out=dist
        )
        d_sg = np.linalg.norm(v_starts - v_goals, axis=1).tolist()
        # Collect every candidate edge of every query into one validation
        # batch; slices[p] records valid query p's candidate lists.
        pair_starts: "list[np.ndarray]" = []
        pair_ends: "list[np.ndarray]" = []
        slices: "list[tuple[list[tuple[float, int]], list[tuple[float, int]]]]" = []
        configs = self.frozen.configs
        for p, qi in enumerate(valid_idx):
            start, goal = starts[qi], goals[qi]
            # Padded rows (fewer than k stored) carry +inf distances.
            scand = [
                (float(d), int(r))
                for r, d in zip(cand_ids[p], cand_d[p])
                if np.isfinite(d)
            ]
            gcand = [
                (float(d), int(r))
                for r, d in zip(cand_ids[nv + p], cand_d[nv + p])
                if np.isfinite(d)
            ]
            # The per-query path attaches the goal *after* the start was
            # inserted, so the start is a goal candidate too — merge it in
            # at its canonical (distance, insertion order = n) position.
            key = (d_sg[p], n)
            lo, hi = 0, len(gcand)
            while lo < hi:
                mid = (lo + hi) // 2
                if gcand[mid] < key:
                    lo = mid + 1
                else:
                    hi = mid
            gcand.insert(lo, key)
            gcand = gcand[:ATTACH_K]
            for _d, r in scand:
                pair_starts.append(start)
                pair_ends.append(configs[r])
            for _d, r in gcand:
                pair_starts.append(goal)
                pair_ends.append(start if r == n else configs[r])
            slices.append((scand, gcand))
        # batch_pairs_exact: bit-identical to scalar local-planner calls.
        valid, _checks, lengths = self.local_planner.batch_pairs_exact(
            self.cspace, np.array(pair_starts), np.array(pair_ends)
        )
        links = []
        pos = 0
        for scand, gcand in slices:
            s_links = []
            for _d, r in scand:
                if valid[pos]:
                    s_links.append((r, float(lengths[pos])))
                pos += 1
            g_links = []
            for _d, r in gcand:
                if valid[pos]:
                    g_links.append((r, float(lengths[pos])))
                pos += 1
            links.append((s_links, g_links))
        prepared = self.frozen.prepare(v_starts, v_goals, links, dist[nv:])
        for p, qi in enumerate(valid_idx):
            jobs[qi] = (starts[qi], goals[qi], *links[p], prepared[p])
        return jobs

    # -- solving -------------------------------------------------------------
    def solve(self, start: np.ndarray, goal: np.ndarray) -> "QueryResult | None":
        """Solve one query; bit-identical to ``RoadmapQuery.solve`` on the
        source roadmap, without mutating anything."""
        start = np.asarray(start, dtype=float)
        goal = np.asarray(goal, dtype=float)
        jobs = self._prepare(start[None, :], goal[None, :])
        result = _solve_prepared(self.frozen, jobs, self._sid, self._gid, 0)
        self._amortise_landmarks()
        return result

    def _amortise_landmarks(self) -> None:
        """Start the snapshot's landmark table once it has paid for itself.

        Ski rental: the table costs ``K`` full sweeps of ``n`` vertices, so
        it is built once this snapshot's searches have settled ``K * n``
        vertices; a tenant that answers a handful of queries never pays
        for one.  The build runs on its own thread, started at most once,
        so no batch waits for it, and publishes the table with one
        assignment, so concurrent batches search either order safely.
        Searches run on the process backend settle vertices in the
        workers' copies, which this count never sees.
        """
        fz = self.frozen
        n = fz.num_vertices
        if self._landmark_build is not None or fz.settled < min(LANDMARKS, n) * n:
            return
        with self._landmark_lock:
            if self._landmark_build is None:
                self._landmark_build = threading.Thread(
                    target=fz.build_landmarks, name="repro-landmarks", daemon=True
                )
                self._landmark_build.start()

    def solve_many(
        self,
        requests,
        *,
        tracer=None,
        retry_seed: int = 0,
        execution=None,
        faults=None,
    ) -> BatchQueryResult:
        """Solve a batch of queries with amortised setup.

        ``requests`` is a sequence of :class:`QueryRequest` or
        ``(start, goal)`` pairs.  The batch is prepared in array passes
        (:meth:`_prepare`): validity, k-NN attachment, one local-planner
        batch, and the searches' heuristics — the attachment pass's goal
        rows and one landmark-bound pass for the whole batch.  Without an
        ``execution`` the searches run inline.  Given an
        :class:`~repro.spec.ExecutionPolicy` with ``workers > 1`` the
        independent per-query searches are dispatched across a
        :func:`~repro.runtime.local_pool.run_tasks_parallel` pool (its
        ``workers`` / ``backend``; ``chunksize`` is not read: ``q``
        searches go out ``ceil(q / workers)`` to a chunk, one chunk per
        worker), under the :class:`~repro.spec.FaultPolicy` ``faults``
        (default fail-fast), so retry/degrade semantics match regional
        planning; abandoned queries surface as ``None`` results listed in
        ``abandoned``, with their consumed attempts in ``attempts`` — the
        same accounting ``plan()`` surfaces.  A ``task_timeout`` needs
        ``backend="process"``: inline searches run in the caller.

        With a tracer, the batch runs inside a ``serve`` span and each
        query emits ``EV_QUERY_START`` / ``EV_QUERY_END`` (attrs:
        ``query``, ``latency``, ``solved``); pool-dispatched runs emit
        the per-query events after the pool drains, so their timestamps
        are post-hoc while latencies stay measured.
        """
        workers = resolve_workers(execution.workers) if execution is not None else 1
        # No FaultPolicy means the pool's own defaults, which are FaultPolicy()'s.
        fault_kwargs = {"retry_seed": retry_seed}
        if faults is not None:
            check_timeout(execution.backend if execution else "inline", faults.task_timeout)
            fault_kwargs = faults.pool_kwargs(retry_seed)
        t0 = time.perf_counter()
        starts_l: "list[np.ndarray]" = []
        goals_l: "list[np.ndarray]" = []
        for r in requests:
            if isinstance(r, QueryRequest):
                s, g = r.start, r.goal
            else:
                s, g = r
            starts_l.append(np.asarray(s, dtype=float))
            goals_l.append(np.asarray(g, dtype=float))
        q = len(starts_l)
        if q == 0:
            return BatchQueryResult(
                results=[], wall_time=time.perf_counter() - t0, setup_time=0.0,
                latencies=[], solved=0,
            )
        starts = np.vstack(starts_l)
        goals = np.vstack(goals_l)
        results: "list[QueryResult | None]" = [None] * q
        latencies = [0.0] * q
        abandoned: "list[int]" = []
        attempts: "dict[int, int]" = {}
        retries = 0
        deaths = 0
        dispatch: "DispatchStats | None" = None
        if tracer is not None:
            tracer.begin(PHASE_SERVE, queries=q)
        try:
            jobs = self._prepare(starts, goals)
            setup_time = time.perf_counter() - t0
            share = setup_time / q
            if workers > 1 and q > 1:
                # On the process backend the frozen snapshot ships with
                # the callable, once per worker (the pool initializer).
                # One chunk per worker: a search is too small a unit to pay
                # one submission each (``execution.chunksize`` sizes
                # ``plan()``'s regional tasks, not these).
                pool = run_tasks_parallel(
                    partial(_solve_prepared, self.frozen, jobs, self._sid, self._gid),
                    list(range(q)),
                    workers=workers,
                    backend=execution.backend,
                    chunksize=-(-q // workers),
                    tracer=tracer,
                    **fault_kwargs,
                )
                dispatch = pool.dispatch
                for i in range(q):
                    results[i] = pool.results.get(i)
                    latencies[i] = share + pool.per_task_time.get(i, 0.0)
                abandoned = list(pool.abandoned)
                attempts = dict(pool.attempts)
                retries = pool.retries
                deaths = pool.worker_deaths
                if tracer is not None:
                    lost = set(abandoned)
                    for i in range(q):
                        tracer.point(EV_QUERY_START, query=i)
                        tracer.point(
                            EV_QUERY_END,
                            query=i,
                            latency=latencies[i],
                            solved=results[i] is not None,
                            abandoned=i in lost,
                        )
            else:
                for i in range(q):
                    if tracer is not None:
                        tracer.point(EV_QUERY_START, query=i)
                    ts = time.perf_counter()
                    results[i] = _solve_prepared(self.frozen, jobs, self._sid, self._gid, i)
                    latencies[i] = share + (time.perf_counter() - ts)
                    attempts[i] = 1
                    if tracer is not None:
                        tracer.point(
                            EV_QUERY_END,
                            query=i,
                            latency=latencies[i],
                            solved=results[i] is not None,
                        )
        finally:
            if tracer is not None:
                tracer.end(PHASE_SERVE)
        self._amortise_landmarks()
        return BatchQueryResult(
            results=results,
            wall_time=time.perf_counter() - t0,
            setup_time=setup_time,
            latencies=latencies,
            solved=sum(r is not None for r in results),
            abandoned=abandoned,
            retries=retries,
            worker_deaths=deaths,
            attempts=attempts,
            dispatch=dispatch,
        )
