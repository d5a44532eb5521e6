"""The five workloads: input generation, the timed operation, the oracle.

Everything the program under test sees is generated here from
``(seed, seconds)`` — specs, scenes, query pools, arrival schedules,
cold-key seeds — so equal arguments give equal inputs.  Each workload is
driven through a public entry point only (``repro.api.plan``,
``PlanService.submit`` / ``solve_many``, ``simulate_prm``) and its outputs
are checked against an independently built oracle *after* timing ends,
so ``setup_s`` stays the program's own set-up and can be repeated.

Why these five, and what each one must leave untouched, is in the README.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro.api as api
from repro.core import parallel_prm
from repro.geometry import scenarios
from repro.planners.query import RoadmapQuery
from repro.planners.stats import PlannerStats
from repro.service import PlanService, ServiceConfig
from repro.spec import ExecutionPolicy, WorkloadSpec

from layers import TARGETS, TIME_METRICS, Ledger, coverage_errors, pool_metrics, sim_metrics
from stats import (at_nominal_speed, calibrate, coefficient_of_variation, nearest_rank,
                   run_open_loop, steal_clock, supported)

NPROC = os.cpu_count() or 1
#: pool size for the two local-execution workloads.
WORKERS = min(NPROC, 4)
#: untraced reference operations run before the traced ones (trace mode).
REFERENCE_OPS = 2
#: steady-phase answers later than this miss the service-level objective.
SLO_MS = 100.0


@dataclass
class Measured:
    """What one measured run produced."""

    #: wall seconds of each untraced timed operation, as the clock read them.
    walls: "list[float]" = field(default_factory=list)
    #: seconds the host kept a vCPU off the processor during each of them.
    stolen: "list[float]" = field(default_factory=list)
    #: the same operations, stolen seconds out, at the nominal machine speed.
    nominal_walls: "list[float]" = field(default_factory=list)
    #: per-operation output digests, compared against the oracle.
    outputs: list = field(default_factory=list)
    attempted: int = 0
    #: messages of operations that raised or were refused.
    failures: "list[str]" = field(default_factory=list)
    #: extra end-to-end numbers printed beside the contract's metrics.
    extra: "dict[str, float]" = field(default_factory=dict)
    #: traced-mode only: operation labels, their walls, count metrics.
    traced_ops: "list[str]" = field(default_factory=list)
    traced_walls: "list[float]" = field(default_factory=list)
    counts: "dict[str, float]" = field(default_factory=dict)
    #: last raw result, kept for the count metrics and the oracle.
    last: object = None


def roadmap_fingerprint(rmap) -> str:
    """sha256 over vertex ids + configurations (id order) and the sorted
    ``(u, v, weight)`` edge list — equal iff the roadmaps are bit-identical."""
    ids, cfgs = rmap.configs_array()
    order = np.argsort(ids, kind="stable")
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ids[order]).tobytes())
    h.update(np.ascontiguousarray(cfgs[order]).tobytes())
    edges = sorted(rmap.edges())
    h.update(np.array([(u, v) for u, v, _w in edges], dtype=np.int64).tobytes())
    h.update(np.array([w for _u, _v, w in edges], dtype=np.float64).tobytes())
    return h.hexdigest()


def _planner_counts(stats, checks) -> "dict[str, float]":
    """Planner / kernel / NN count metrics from the public work ledgers."""
    return {
        "planners.samples_attempted": stats.sample_attempts,
        "planners.nodes_added": stats.samples_accepted,
        "planners.useful_sample_ratio": (
            stats.samples_accepted / stats.sample_attempts if stats.sample_attempts else 0.0
        ),
        "planners.lp_attempts": stats.lp_calls,
        "planners.lp_success_ratio": stats.lp_successes / stats.lp_calls if stats.lp_calls else 0.0,
        "kernels.point_checks": checks[0],
        "kernels.segment_checks": checks[1],
        "knn.queries": stats.nn_queries,
        "knn.distance_evals": stats.nn_distance_evals,
        "knn.rebuilds": stats.nn_rebuilds,
    }


def timed_ops(op, digest, seconds: float, min_ops: int, rec, label: str, into: Measured,
              traced: bool, steal_share: float = 1.0) -> None:
    """Run ``op`` back to back for ``seconds`` (at least ``min_ops`` times).

    Only the call itself is timed; ``digest`` (fingerprinting) and the
    calibration reading between two untraced operations run outside the
    stopwatch.  ``steal_share`` of the seconds the host stole during an
    untraced operation is taken out of its nominal wall.  A raising
    operation is one failure and ends the loop — repeating it would only
    repeat the failure.
    """
    walls = into.traced_walls if traced else into.walls
    deadline = time.perf_counter() + seconds
    before = None if traced else calibrate()
    done = 0
    while done < min_ops or time.perf_counter() + 0.5 * statistics.median(walls) < deadline:
        name = f"{label}{done}"
        with rec.operation(name) if traced else nullcontext():
            s0 = steal_clock()
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # the benchmark boundary: count, report, stop
                into.attempted += 1
                into.failures.append(f"{name}: {exc!r}")
                return
            walls.append(time.perf_counter() - t0)
            stolen = steal_clock() - s0
        if not traced:
            after = calibrate()
            into.stolen.append(stolen)
            into.nominal_walls.append(
                at_nominal_speed(walls[-1], before, after, steal_share * stolen))
            before = after
        into.attempted += 1
        into.outputs.append(digest(out))
        into.last = out
        if traced:
            into.traced_ops.append(name)
        done += 1


class Workload:
    """One benchmark workload.  Subclasses fill in the five steps."""

    name = ""
    why = ""
    #: printed with every run: what a reader of the numbers must know.
    note = ""
    #: share of the seconds the host steals from the vCPUs during an
    #: operation (summed over the vCPUs) that delays it.  All of it for one
    #: runnable thread or a chain of synchronous hand-offs; see the README
    #: for the two workloads that keep both vCPUs busy.
    steal_share = 1.0

    def generate(self, seed: int, seconds: float):
        """Inputs as a pure function of ``(seed, seconds)``."""
        raise NotImplementedError

    def setup(self, inputs):
        """The program's own set-up plus a warm-up; returns the run state."""
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Release what ``setup`` started (threads, segments)."""

    def operation(self, state):
        """One timed operation through a public entry point."""
        raise NotImplementedError

    def digest(self, out):
        """What of an operation's output the oracle compares (untimed)."""
        raise NotImplementedError

    def measure(self, state, seconds: float, rec) -> Measured:
        """Time operations for ``seconds``; with a recorder, a few untraced
        reference operations first, then traced ones."""
        m = Measured()
        op = lambda: self.operation(state)  # noqa: E731
        if rec is None:
            timed_ops(op, self.digest, seconds, 3, None, "op", m, False, self.steal_share)
            return m
        timed_ops(op, self.digest, 0.0, REFERENCE_OPS, None, "ref", m, False, self.steal_share)
        if not m.failures:
            rec.install(TARGETS)
            try:
                timed_ops(op, self.digest, 0.6 * seconds, 2, rec, "op", m, traced=True)
                self.traced_extras(state, rec, m)
            finally:
                rec.uninstall()
        return m

    def traced_extras(self, state, rec, m: Measured) -> None:
        """Extra traced or reference operations a workload needs."""

    def verify(self, state, m: Measured, corrupt: bool) -> "list[str]":
        """Oracle mismatches, one message per failed operation."""
        raise NotImplementedError

    def count_metrics(self, state, m: Measured, ledger: Ledger) -> "dict[str, float]":
        """Count metrics for the traced run, from public results."""
        return {}

    def coverage(self, ledger: Ledger) -> "list[str]":
        """Wrapper-coverage guard over the traced operations."""
        return coverage_errors(self.name, ledger.calls)

    def ledger_ops(self, m: Measured) -> "tuple[set[str], int]":
        """Operation labels the ledger sums over, and what to divide by."""
        return set(m.traced_ops), max(len(m.traced_ops), 1)


def _mismatches(outputs: list, oracle, corrupt: bool) -> "list[str]":
    if corrupt:
        oracle = ("corrupted", oracle)
    return [
        f"op{i}: output differs from the oracle" for i, out in enumerate(outputs)
        if out != oracle
    ]


# -- A ------------------------------------------------------------------------

class PrmMedcubeSim(Workload):
    name = "prm_medcube_sim"
    why = ("README flagship call: regional PRM.build, region connect, static kNN and the "
           "reference kernels do all the work; pool, BVH and service do none")

    def __init__(self, num_regions: int = 1024, samples_per_region: int = 8, num_pes: int = 96):
        self.num_regions, self.samples_per_region, self.num_pes = (
            num_regions, samples_per_region, num_pes)

    def generate(self, seed, seconds):
        return (
            WorkloadSpec("med-cube", "prm", num_regions=self.num_regions,
                         samples_per_region=self.samples_per_region, seed=seed),
            ExecutionPolicy(strategy="hybrid", num_pes=self.num_pes),
        )

    def setup(self, inputs):
        spec, policy = inputs
        # Warm-up on a small sibling: fills import-time and lazy state
        # without paying a full operation per set-up repetition.
        api.plan(dataclasses.replace(spec, num_regions=64), policy)
        return inputs

    def operation(self, state):
        return api.plan(*state)

    def digest(self, report):
        c = report.workload.cspace.env.counters
        return (roadmap_fingerprint(report.roadmap), report.total_time,
                dataclasses.astuple(report.planner_stats), (c.point_checks, c.segment_checks))

    def verify(self, state, m, corrupt):
        spec, policy = state
        cspace = spec.resolve_cspace()
        wl = parallel_prm.build_prm_workload(
            cspace, num_regions=spec.num_regions,
            samples_per_region=spec.samples_per_region, seed=spec.seed)
        sim = parallel_prm.simulate_prm(wl, policy.num_pes, policy.strategy)
        stats = PlannerStats()
        for work in wl.region_work.values():
            stats += work.stats
        c = cspace.env.counters
        oracle = (roadmap_fingerprint(wl.roadmap), sim.total_time,
                  dataclasses.astuple(stats), (c.point_checks, c.segment_checks))
        return _mismatches(m.outputs, oracle, corrupt)

    def count_metrics(self, state, m, ledger):
        report = m.last
        c = report.workload.cspace.env.counters
        out = _planner_counts(report.planner_stats, (c.point_checks, c.segment_checks))
        out["core.sim_makespan_sum"] = report.sim.makespan
        out["core.sim_cov_hybrid"] = coefficient_of_variation(report.result.loads)
        out.update(sim_metrics(ledger.attrs["runtime.sim_run"], len(m.traced_ops)))
        return out


# -- B, C: local pools ----------------------------------------------------------

class _LocalPlan(Workload):
    """``plan(..., mode="local")`` workloads: shared digest, oracle, counts."""

    #: whether ``local_counters`` take part in the oracle comparison.
    counters_repeat = True

    def operation(self, state):
        return api.plan(state["spec"], state["policy"])

    def digest(self, report):
        counters = tuple(report.local_counters) if self.counters_repeat else None
        return (roadmap_fingerprint(report.roadmap),
                dataclasses.astuple(report.local_stats), counters)

    def oracle_policy(self, state) -> ExecutionPolicy:
        """The serial, in-process twin of the measured policy."""
        return dataclasses.replace(
            state["policy"], workers=1, backend="thread", chunksize=1, data_plane="auto")

    def verify(self, state, m, corrupt):
        if "oracle" not in state:
            state["oracle"] = self.digest(api.plan(state["spec"], self.oracle_policy(state)))
        return _mismatches(m.outputs, state["oracle"], corrupt)

    def traced_extras(self, state, rec, m):
        # Parallel speedup: the same backend at one worker, tracing off.
        rec.uninstall()
        one = dataclasses.replace(state["policy"], workers=1)
        t0 = time.perf_counter()
        api.plan(state["spec"], one)
        m.counts["runtime.pool_speedup"] = (
            (time.perf_counter() - t0) / statistics.median(m.walls))

    def count_metrics(self, state, m, ledger):
        report = m.last
        out = _planner_counts(report.local_stats, report.local_counters)
        out.update(pool_metrics(ledger.attrs["runtime.pool_run"], len(m.traced_ops)))
        out["runtime.shm_bytes"] = sum(
            a["bytes"] for a in ledger.attrs["runtime.shm_publish"]) / len(m.traced_ops)
        return out


class RrtMixed30Local(_LocalPlan):
    name = "rrt_mixed30_local"
    why = ("mixed-30 radial RRT on the thread pool: RRT.grow, growing-tree NN, cone membership "
           "and rejection sampling dominate under the GIL; region connect and static kNN do none")

    # Thread workers share one CollisionCounters object and update it
    # without a lock (and RRT's batched replay rescales it in place), so
    # at workers > 1 the totals differ run to run and from the serial
    # oracle.  Roadmap and PlannerStats are exact; the counters are
    # reported (kernels.point_checks) but cannot be part of the oracle.
    counters_repeat = False
    #: mixed-30's centre is blocked, so ``plan()`` draws the tree root from
    #: the spec seed, and root placement alone moves the work by 2x between
    #: seeds (23k-44k extension attempts over ten seeds; every region of a
    #: seed moves together, so more regions do not average it out).  A
    #: benchmark has to read the same from run to run, so the planning
    #: problem is pinned and ``--seed`` does not alter this workload.
    PROBLEM_SEED = 20140519
    note = f"planning problem pinned to seed {PROBLEM_SEED}; --seed does not alter this workload"
    # Two threads trade the GIL on a 5 ms timer.  What the host steals here
    # is the wake-up of the vCPU whose thread is about to ask for the GIL,
    # while the other thread still computes: stolen ticks lower the
    # process's CPU seconds one for one and leave the wall where it was
    # (3.09 s with 1.49 s stolen, 3.19 s with 0.03 s).
    steal_share = 0.0

    def __init__(self, num_regions: int = 8, nodes_per_region: int = 400):
        self.num_regions, self.nodes_per_region = num_regions, nodes_per_region

    def generate(self, seed, seconds):
        return {
            "spec": WorkloadSpec("mixed-30", "rrt", num_regions=self.num_regions,
                                 nodes_per_region=self.nodes_per_region,
                                 seed=self.PROBLEM_SEED),
            "policy": ExecutionPolicy(mode="local", workers=WORKERS),
        }

    def setup(self, inputs):
        api.plan(dataclasses.replace(inputs["spec"], nodes_per_region=40), inputs["policy"])
        return inputs


class PrmWarehouseProcess(_LocalPlan):
    name = "prm_warehouse_process"
    why = ("20k-obstacle warehouse PRM on the process pool: BVH traversal, pool dispatch, shm "
           "publish/attach and result ser-de carry the time; the one real parallel speedup")
    # Every worker computes the whole time on a vCPU of its own and the
    # guided chunks even their loads out, so a second stolen from one vCPU
    # costs the operation 1 / WORKERS seconds.
    steal_share = 1.0 / WORKERS

    def __init__(self, n_obstacles: int = 20000, num_regions: int = 600,
                 samples_per_region: int = 16, n_points: int = 400, n_segments: int = 40):
        self.n_obstacles, self.num_regions, self.samples_per_region = (
            n_obstacles, num_regions, samples_per_region)
        self.n_points, self.n_segments = n_points, n_segments

    def generate(self, seed, seconds):
        env = scenarios.shelf_warehouse(self.n_obstacles, seed=seed)
        rng = np.random.default_rng(seed)
        lo, hi = env.bounds.lo, env.bounds.hi
        return {
            "spec": WorkloadSpec(env, "prm", self.num_regions, self.samples_per_region,
                                 seed=seed),
            "policy": ExecutionPolicy(mode="local", workers=WORKERS, backend="process",
                                      kernel_backend="bvh", chunksize="guided"),
            "points": rng.uniform(lo, hi, size=(self.n_points, lo.shape[0])),
            "segments": (rng.uniform(lo, hi, size=(self.n_segments, lo.shape[0])),
                         rng.uniform(lo, hi, size=(self.n_segments, lo.shape[0]))),
        }

    def setup(self, inputs):
        small = dataclasses.replace(inputs["spec"], num_regions=max(self.num_regions // 16, 2))
        api.plan(small, inputs["policy"])
        return inputs

    def traced_extras(self, state, rec, m):
        # The parent cannot see inside forked workers: replay the same
        # plan serially in-process so the in-task layers leave spans.
        with rec.operation("replay"):
            replay = api.plan(state["spec"], self.oracle_policy(state))
        state["oracle"] = self.digest(replay)
        super().traced_extras(state, rec, m)

    def count_metrics(self, state, m, ledger):
        out = super().count_metrics(state, m, ledger)
        # In-task layers: the replay's shares of in-task self time, scaled
        # to the task time the real process workers reported.
        shares = ledger.over({"replay"}).in_task_shares()
        for metric, span in TIME_METRICS.items():
            if span in shares:
                out[metric] = shares[span] * out["runtime.task_busy_s"]
        return out

    def coverage(self, ledger):
        replay = ledger.over({"replay"})
        return super().coverage(ledger) + coverage_errors(self.name + "/replay", replay.calls)

    def verify(self, state, m, corrupt):
        errors = super().verify(state, m, corrupt)
        env = state["spec"].environment
        p, q = state["segments"]
        same = (
            np.array_equal(env.points_in_collision(state["points"], kernels="bvh"),
                           env.points_in_collision(state["points"], kernels="reference"))
            and np.array_equal(env.segments_in_collision(p, q, kernels="bvh"),
                               env.segments_in_collision(p, q, kernels="reference"))
        )
        if not same:
            errors.append("bvh verdicts differ from the reference kernels")
        return errors


# -- D ----------------------------------------------------------------------------

def same_answer(a, b) -> bool:
    """Bit-identical ``QueryResult`` (or both unsolved)."""
    if a is None or b is None:
        return a is None and b is None
    return (a.path_vertices == b.path_vertices and a.length == b.length
            and np.array_equal(a.path_configs, b.path_configs))


@dataclass
class _Phase:
    """One open-loop phase: who was asked what, when it was due, when it
    was answered."""

    keys: "list[tuple[int, int]]"
    late: "list[float]"
    latency: "list[float]"
    answers: list


class ServeMixed(Workload):
    name = "serve_mixed"
    why = ("one PlanService, reads (hit -> coalesce -> solve_many -> A*) beside writes (miss -> "
           "build -> freeze -> insert): open-loop steady and cold-mix phases, closed-loop bursts")

    #: a cold tenant's index in ``keys`` (hot tenants are 0..n-1).
    COLD = -1

    #: share of the run each open-loop phase lasts; bursts take the rest.
    PHASE_SHARE = 0.25

    def __init__(self, tenants: int = 3, hot_regions: int = 256, cold_regions: int = 64,
                 pool_size: int = 60, steady_rate: float = 100.0, mixed_rate: float = 60.0,
                 cold_keys: int = 4, burst_per_tenant: int = 84, min_bursts: int = 3):
        self.tenants, self.hot_regions, self.cold_regions = tenants, hot_regions, cold_regions
        self.pool_size, self.steady_rate, self.mixed_rate = pool_size, steady_rate, mixed_rate
        self.cold_keys, self.min_bursts = cold_keys, min_bursts
        #: one burst asks every hot tenant in turn, so that each timed
        #: operation is the same work whichever tenant's roadmap is dearer.
        self.burst_per_tenant = burst_per_tenant
        self.burst_size = burst_per_tenant * tenants

    def generate(self, seed, seconds):
        rng = np.random.default_rng(seed)
        specs = [WorkloadSpec("med-cube", "prm", self.hot_regions, 8, seed=seed + t)
                 for t in range(self.tenants)]
        cspace = specs[0].resolve_cspace()
        pools = [self._query_pool(cspace, rng) for _ in specs]
        phase_s = self.PHASE_SHARE * seconds

        def arrivals(rate):
            n = max(int(rate * phase_s), 20)
            return [(i / rate, int(rng.integers(self.tenants)), int(rng.integers(self.pool_size)))
                    for i in range(n)]

        steady = arrivals(self.steady_rate)
        # Cold-mix: hot traffic kept slow enough that no backlog grows,
        # with one never-seen key injected at even intervals.
        mixed = arrivals(self.mixed_rate)
        gap = phase_s / self.cold_keys
        mixed += [((k + 0.5) * gap, self.COLD, k) for k in range(self.cold_keys)]
        mixed.sort()
        cold = [WorkloadSpec("med-cube", "prm", self.cold_regions, 8, seed=seed + 1000 + k)
                for k in range(self.cold_keys)]
        return {"specs": specs, "pools": pools, "cold": cold, "steady": steady, "mixed": mixed,
                "burst_s": seconds - 2 * phase_s}

    def _query_pool(self, cspace, rng):
        pool = []
        while len(pool) < self.pool_size:
            pair = cspace.sample(rng, 2)
            if bool(np.all(cspace.valid(pair))):
                pool.append((pair[0], pair[1]))
        return pool

    def setup(self, inputs):
        svc = PlanService(ServiceConfig())
        # Pre-warm the hot tenants the way a deployment does: the first
        # request of each pays the miss -> build -> freeze -> insert.
        for spec, pool in zip(inputs["specs"], inputs["pools"]):
            svc.solve(spec, *pool[0])
        return {**inputs, "svc": svc}

    def teardown(self, state):
        state["svc"].close()

    def _request(self, state, tenant, idx):
        if tenant == self.COLD:
            return state["cold"][idx], state["pools"][0][idx]
        return state["specs"][tenant], state["pools"][tenant][idx]

    def _open_phase(self, state, arrivals) -> _Phase:
        svc = state["svc"]
        n = len(arrivals)
        due = [0.0] * n
        done = [0.0] * n
        futures = [None] * n

        def send(i, due_at):
            spec, query = self._request(state, arrivals[i][1], arrivals[i][2])
            due[i] = due_at
            fut = svc.submit(spec, query)
            # Runs on the serving thread the moment the answer is set.
            fut.add_done_callback(lambda _f, i=i: done.__setitem__(i, time.perf_counter()))
            futures[i] = fut

        late = run_open_loop([a[0] for a in arrivals], send)
        answers = []
        for fut in futures:
            try:
                answers.append(fut.result(timeout=120))
            except Exception as exc:  # refused, abandoned or failed request
                answers.append(exc)
        return _Phase([(a[1], a[2]) for a in arrivals], late,
                      [done[i] - due[i] for i in range(n)], answers)

    def _bursts(self, state, seconds, count, rec, label, m, traced):
        """Closed loop, one caller: one ``solve_many`` per hot tenant."""
        svc = state["svc"]
        rounds = [
            (spec, [pool[j % self.pool_size] for j in range(self.burst_per_tenant)])
            for spec, pool in zip(state["specs"], state["pools"])
        ]

        def burst():
            return [svc.solve_many(spec, queries) for spec, queries in rounds]

        timed_ops(burst, lambda out: out, seconds, count, rec, label, m, traced, self.steal_share)

    def measure(self, state, seconds, rec):
        m = Measured()
        if rec is not None:
            self._bursts(state, 0.0, REFERENCE_OPS, None, "ref", m, traced=False)
            m.outputs.clear()
            m.attempted = 0
            rec.install(TARGETS)
        try:
            phases = {}
            for label in ("steady", "mixed"):
                with rec.operation(label) if rec else nullcontext():
                    phases[label] = self._open_phase(state, state[label])
            self._bursts(state, state["burst_s"], self.min_bursts, rec, "op", m,
                         traced=rec is not None)
        finally:
            if rec is not None:
                rec.uninstall()
        m.last = phases
        # every request counts, not every burst: timed_ops counted bursts.
        m.attempted += sum(len(p.keys) for p in phases.values())
        m.attempted += (self.burst_size - 1) * len(m.outputs)
        self._serve_metrics(phases, m, traced=rec is not None)
        return m

    def _serve_metrics(self, phases, m, traced):
        steady, mixed = phases["steady"], phases["mixed"]
        ms = lambda xs: [1e3 * x for x in xs]  # noqa: E731
        hot = ms(lat for lat, k in zip(mixed.latency, mixed.keys) if k[0] != self.COLD)
        cold = ms(lat for lat, k in zip(mixed.latency, mixed.keys) if k[0] == self.COLD)
        lat = ms(steady.latency)
        walls = m.traced_walls if traced else m.nominal_walls
        m.extra = {
            "serve_p50_ms": statistics.median(lat),
            "serve_p90_ms": nearest_rank(lat, 90.0),
            "serve_mixed_p50_ms": statistics.median(hot),
            "serve_cold_ms": statistics.median(cold),
            "serve_burst_qps": self.burst_size / statistics.median(walls) if walls else 0.0,
            "serve_steady_samples": len(lat),
        }
        m.counts["service.latency_p99_ms"] = (
            nearest_rank(lat, 99.0) if supported(len(lat), 99.0) else 0.0)
        m.counts["service.slo_miss_frac"] = sum(
            x > SLO_MS or isinstance(a, Exception) for x, a in zip(lat, steady.answers)
        ) / len(lat)
        m.counts["bench.generator_late_ms_max"] = 1e3 * max(steady.late + mixed.late)

    def verify(self, state, m, corrupt):
        errors = []
        rq = RoadmapQuery(state["specs"][0].resolve_cspace())
        roadmaps = {}
        truth = {}

        def expected(tenant, idx):
            key = (tenant, idx)
            if key not in truth:
                spec, (start, goal) = self._request(state, tenant, idx)
                rkey = (tenant, idx if tenant == self.COLD else 0)
                if rkey not in roadmaps:
                    roadmaps[rkey] = api.plan(spec).roadmap
                truth[key] = rq.solve(roadmaps[rkey], start, goal)
            return truth[key]

        def check(label, tenant, idx, answer):
            want = "corrupted" if corrupt else expected(tenant, idx)
            if isinstance(answer, Exception):
                errors.append(f"{label}: request failed: {answer!r}")
            elif want == "corrupted" or not same_answer(answer, want):
                errors.append(f"{label}: answer differs from RoadmapQuery.solve")

        for label, phase in m.last.items():
            for (tenant, idx), answer in zip(phase.keys, phase.answers):
                check(label, tenant, idx, answer)
        for b, burst in enumerate(m.outputs):
            for tenant, answers in enumerate(burst):
                for j, answer in enumerate(answers):
                    check(f"burst{b}", tenant, j % self.pool_size, answer)
        stats = state["svc"].stats()
        if stats.rejected or stats.abandoned:
            errors.append(f"service refused work: {stats.rejected} rejected, "
                          f"{stats.abandoned} abandoned")
        return errors

    def ledger_ops(self, m):
        # One "operation" is the whole three-phase run.
        return {"steady", "mixed", *m.traced_ops}, 1

    def count_metrics(self, state, m, ledger):
        stats = state["svc"].stats()
        flushes = ledger.attrs["service.coalesce"]
        waited = [1e3 * w for a in flushes for w in a["waited"]]
        out = pool_metrics(ledger.attrs["runtime.pool_run"], 1)
        out.update({
            "service.queue_wait_ms_p50": statistics.median(waited) if waited else 0.0,
            "service.batch_size_mean": stats.mean_batch_size,
            "service.batches": stats.batches,
            "service.cache_hit_rate": stats.cache.hit_rate,
            "service.cache_builds": stats.cache.builds,
            "service.cache_evictions": stats.cache.evictions,
            "service.rejected": stats.rejected,
            "service.abandoned": stats.abandoned,
        })
        return out


# -- E ----------------------------------------------------------------------------

class SimStrategySweep(Workload):
    name = "sim_strategy_sweep"
    why = ("one pre-built med-cube workload replayed through simulate_prm for 3 machine sizes x 5 "
           "strategies: simulator, work stealing, repartition and partition do all the work")

    PES = (96, 192, 384)
    STRATEGIES = ("none", "repartition", "rand-8", "diffusive", "hybrid")
    #: hybrid must not lose to no load balancing where regions outnumber
    #: PEs at least four to one (the paper's over-decomposed regime).
    MIN_REGIONS_PER_PE = 4

    def __init__(self, num_regions: int = 1024, samples_per_region: int = 8):
        self.num_regions, self.samples_per_region = num_regions, samples_per_region

    def generate(self, seed, seconds):
        return WorkloadSpec("med-cube", "prm", self.num_regions, self.samples_per_region,
                            seed=seed)

    def setup(self, spec):
        wl = parallel_prm.build_prm_workload(
            spec.resolve_cspace(), num_regions=spec.num_regions,
            samples_per_region=spec.samples_per_region, seed=spec.seed)
        parallel_prm.simulate_prm(wl, self.PES[0], "hybrid")
        return wl

    def operation(self, wl):
        return {(p, s): parallel_prm.simulate_prm(wl, p, s)
                for p in self.PES for s in self.STRATEGIES}

    def digest(self, results):
        return tuple(
            (p, s, r.total_time, r.sim.makespan, tuple(sorted(r.sim.executed_by)))
            for (p, s), r in results.items())

    def measure(self, state, seconds, rec):
        m = super().measure(state, seconds, rec)
        m.attempted *= len(self.PES) * len(self.STRATEGIES)
        return m

    def verify(self, wl, m, corrupt):
        # Virtual time is deterministic: every repeat must equal the first.
        errors = _mismatches(m.outputs, m.outputs[0], corrupt)
        regions = tuple(sorted(wl.subdivision.graph.region_ids()))
        total = {}
        for p, s, total_time, _makespan, executed in m.outputs[0]:
            total[p, s] = total_time
            if executed != regions:
                errors.append(f"P={p} {s}: a region was dropped or run twice")
        for p in self.PES:
            if len(regions) >= self.MIN_REGIONS_PER_PE * p and total[p, "hybrid"] > total[p, "none"]:
                errors.append(f"P={p}: hybrid slower than no load balancing")
        return errors

    def count_metrics(self, wl, m, ledger):
        results = m.last
        cov = lambda s: statistics.fmean(  # noqa: E731
            coefficient_of_variation(results[p, s].loads) for p in self.PES)
        n = len(m.traced_ops)
        out = {
            "core.sim_makespan_sum": sum(r.sim.makespan for r in results.values()),
            "core.sim_cov_none": cov("none"),
            "core.sim_cov_hybrid": cov("hybrid"),
        }
        out.update(sim_metrics(
            ledger.attrs["runtime.sim_run"] + ledger.attrs["runtime.sim_static"], n))
        return out


WORKLOADS = {w.name: w for w in (
    PrmMedcubeSim(), RrtMixed30Local(), PrmWarehouseProcess(), ServeMixed(), SimStrategySweep())}
