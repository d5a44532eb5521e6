"""Reconstruct run statistics from a trace.

This is the proof that the trace is complete: everything the paper's
figures need — the Fig. 7a per-phase breakdown, the Fig. 9 stolen vs.
local task distribution, steal/migration tallies, per-PE busy time — is
recomputed here from events alone, with no access to the run objects.
The test suite asserts the reconstruction matches ``SimResult`` /
``PhaseTimes`` field-for-field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import (
    EV_BATCH_FLUSH,
    EV_CACHE_EVICT,
    EV_CACHE_HIT,
    EV_CACHE_MISS,
    EV_POOL_DISPATCH,
    EV_QUERY_END,
    EV_QUERY_START,
    EV_REMOTE_ACCESS,
    EV_REQUEST_REJECTED,
    EV_REPARTITION_DECISION,
    EV_SHM_ATTACH,
    EV_SHM_PUBLISH,
    EV_STEAL_FAIL,
    EV_STEAL_REPLY,
    EV_STEAL_REQUEST,
    EV_STEAL_TRANSFER,
    EV_TASK_ABANDONED,
    EV_TASK_END,
    EV_TASK_RETRY,
    EV_TASK_START,
    EV_WORKER_DEATH,
    PHASE_NAMES,
    PHASE_SERVE,
    SPAN_BEGIN,
    SPAN_END,
    Event,
)
from .metrics import nearest_rank

__all__ = ["TraceSummary", "summarize_events", "format_summary"]


@dataclass
class TraceSummary:
    """Aggregates recomputed purely from a trace."""

    #: span name -> total duration (sum over begin/end pairs).
    phases: "dict[str, float]" = field(default_factory=dict)
    num_events: int = 0
    #: highest timestamp seen.
    end_time: float = 0.0
    # -- task execution ----------------------------------------------------
    tasks_executed: int = 0
    per_pe_tasks: "dict[int, int]" = field(default_factory=dict)
    per_pe_stolen_tasks: "dict[int, int]" = field(default_factory=dict)
    #: per-PE sum of executed task costs (busy time).
    per_pe_busy: "dict[int, float]" = field(default_factory=dict)
    # -- work stealing -----------------------------------------------------
    steal_requests: int = 0
    steal_transfers: int = 0
    steal_fails: int = 0
    tasks_migrated: int = 0
    per_pe_steal_requests: "dict[int, int]" = field(default_factory=dict)
    # -- fault tolerance ---------------------------------------------------
    task_retries: int = 0
    tasks_abandoned: int = 0
    worker_deaths: int = 0
    #: retry reason -> count (e.g. "fault", "timeout", "worker_death").
    retry_reasons: "dict[str, int]" = field(default_factory=dict)
    abandoned_tasks: "list[int]" = field(default_factory=list)
    # -- query serving -----------------------------------------------------
    queries_executed: int = 0
    queries_solved: int = 0
    #: queries given up on under the ``"degrade"`` policy.
    queries_abandoned: int = 0
    #: per-query latencies in seconds, in completion order (abandoned
    #: queries excluded — they never produced an answer).
    query_latencies: "list[float]" = field(default_factory=list)
    # -- service (cache + coalescer) ---------------------------------------
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    batches_flushed: int = 0
    #: coalesced batch sizes, in flush order.
    batch_sizes: "list[int]" = field(default_factory=list)
    #: flush reason ("full", "linger", "drain") -> count.
    flush_reasons: "dict[str, int]" = field(default_factory=dict)
    requests_rejected: int = 0
    # -- dispatch / data plane ---------------------------------------------
    pool_dispatches: int = 0
    chunks_issued: int = 0
    dispatch_tasks: int = 0
    #: parent→worker serialisation traffic (pickled context + chunk args).
    context_bytes: int = 0
    task_bytes: int = 0
    #: chunk policy label -> number of pool runs that used it.
    chunk_policies: "dict[str, int]" = field(default_factory=dict)
    shm_publishes: int = 0
    shm_publish_reused: int = 0
    shm_publish_bytes: int = 0
    shm_attaches: int = 0
    shm_attach_bytes: int = 0
    shm_attach_s: float = 0.0
    # -- other point events ------------------------------------------------
    remote_accesses: int = 0
    repartition_decisions: "list[dict]" = field(default_factory=list)

    @property
    def total_phase_time(self) -> float:
        """Sum of all phase durations."""
        return sum(self.phases.values())

    def queries_per_sec(self) -> float:
        """Serving throughput: executed queries over the ``serve`` span
        (falling back to the whole trace window when no span was emitted)."""
        window = self.phases.get(PHASE_SERVE) or self.end_time
        return self.queries_executed / window if window > 0 else 0.0

    def query_latency_percentile(self, q: float) -> float:
        """Nearest-rank latency percentile (``q`` in [0, 100])."""
        return nearest_rank(self.query_latencies, q)

    def cache_hit_rate(self) -> float:
        """Snapshot-cache hits over all lookups (0.0 with no traffic)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def mean_batch_size(self) -> float:
        """Average coalesced batch size (0.0 with no flushes)."""
        return (
            sum(self.batch_sizes) / len(self.batch_sizes) if self.batch_sizes else 0.0
        )

    def stolen_fraction(self) -> float:
        """Fraction of executed tasks that were stolen (Fig. 9 headline)."""
        stolen = sum(self.per_pe_stolen_tasks.values())
        return stolen / self.tasks_executed if self.tasks_executed else 0.0


def summarize_events(events: "list[Event]") -> TraceSummary:
    """Aggregate a trace; events may arrive in any order (sorted by ts)."""
    s = TraceSummary()
    s.num_events = len(events)
    # Stable sort by timestamp: emission order breaks ties, which is what
    # makes span pairing under the simulator's deterministic clock exact.
    open_spans: "dict[str, list[float]]" = {}
    for ev in sorted(events, key=lambda e: e.ts):
        s.end_time = max(s.end_time, ev.ts)
        if ev.kind == SPAN_BEGIN:
            open_spans.setdefault(ev.name, []).append(ev.ts)
        elif ev.kind == SPAN_END:
            stack = open_spans.get(ev.name)
            if not stack:
                raise ValueError(f"span_end without begin for {ev.name!r}")
            begin = stack.pop()
            s.phases[ev.name] = s.phases.get(ev.name, 0.0) + (ev.ts - begin)
        elif ev.name == EV_TASK_START:
            pass  # counted at task_end so half-open traces stay consistent
        elif ev.name == EV_TASK_END:
            s.tasks_executed += 1
            pe = ev.pe if ev.pe is not None else -1
            s.per_pe_tasks[pe] = s.per_pe_tasks.get(pe, 0) + 1
            s.per_pe_busy[pe] = s.per_pe_busy.get(pe, 0.0) + float(
                ev.attrs.get("cost", 0.0)
            )
            if ev.attrs.get("stolen"):
                s.per_pe_stolen_tasks[pe] = s.per_pe_stolen_tasks.get(pe, 0) + 1
        elif ev.name == EV_STEAL_REQUEST:
            s.steal_requests += 1
            pe = ev.pe if ev.pe is not None else -1
            s.per_pe_steal_requests[pe] = s.per_pe_steal_requests.get(pe, 0) + 1
        elif ev.name == EV_STEAL_TRANSFER:
            s.steal_transfers += 1
            s.tasks_migrated += int(ev.attrs.get("tasks", 0))
        elif ev.name == EV_STEAL_FAIL:
            s.steal_fails += 1
        elif ev.name == EV_STEAL_REPLY:
            pass  # request/transfer/fail already carry the tallies
        elif ev.name == EV_TASK_RETRY:
            s.task_retries += 1
            reason = str(ev.attrs.get("reason", "unknown"))
            s.retry_reasons[reason] = s.retry_reasons.get(reason, 0) + 1
        elif ev.name == EV_TASK_ABANDONED:
            s.tasks_abandoned += 1
            task = ev.attrs.get("task")
            if task is not None:
                s.abandoned_tasks.append(int(task))
        elif ev.name == EV_WORKER_DEATH:
            s.worker_deaths += 1
        elif ev.name == EV_QUERY_START:
            pass  # counted at query_end so half-open traces stay consistent
        elif ev.name == EV_QUERY_END:
            s.queries_executed += 1
            if ev.attrs.get("solved"):
                s.queries_solved += 1
            if ev.attrs.get("abandoned"):
                s.queries_abandoned += 1
            else:
                s.query_latencies.append(float(ev.attrs.get("latency", 0.0)))
        elif ev.name == EV_CACHE_HIT:
            s.cache_hits += 1
        elif ev.name == EV_CACHE_MISS:
            s.cache_misses += 1
        elif ev.name == EV_CACHE_EVICT:
            s.cache_evictions += 1
        elif ev.name == EV_BATCH_FLUSH:
            s.batches_flushed += 1
            s.batch_sizes.append(int(ev.attrs.get("size", 0)))
            reason = str(ev.attrs.get("reason", "unknown"))
            s.flush_reasons[reason] = s.flush_reasons.get(reason, 0) + 1
        elif ev.name == EV_REQUEST_REJECTED:
            s.requests_rejected += 1
        elif ev.name == EV_POOL_DISPATCH:
            s.pool_dispatches += 1
            s.chunks_issued += int(ev.attrs.get("chunks", 0))
            s.dispatch_tasks += int(ev.attrs.get("tasks", 0))
            s.context_bytes += int(ev.attrs.get("context_bytes", 0))
            s.task_bytes += int(ev.attrs.get("task_bytes", 0))
            policy = str(ev.attrs.get("policy", "unknown"))
            s.chunk_policies[policy] = s.chunk_policies.get(policy, 0) + 1
        elif ev.name == EV_SHM_PUBLISH:
            s.shm_publishes += 1
            s.shm_publish_bytes += int(ev.attrs.get("bytes", 0))
            if ev.attrs.get("reused"):
                s.shm_publish_reused += 1
        elif ev.name == EV_SHM_ATTACH:
            s.shm_attaches += 1
            s.shm_attach_bytes += int(ev.attrs.get("bytes", 0))
            s.shm_attach_s += float(ev.attrs.get("seconds", 0.0))
        elif ev.name == EV_REMOTE_ACCESS:
            s.remote_accesses += int(ev.attrs.get("count", 1))
        elif ev.name == EV_REPARTITION_DECISION:
            s.repartition_decisions.append(dict(ev.attrs))
    dangling = [name for name, stack in open_spans.items() if stack]
    if dangling:
        raise ValueError(f"unclosed span(s) in trace: {sorted(dangling)}")
    return s


def _percentile_rows(by_pe: "dict[int, int]", totals: "dict[int, int]") -> "list[list[str]]":
    """Fig. 9-style rows: stolen vs non-stolen at percentiles of stolen count."""
    pes = sorted(totals)
    if not pes:
        return []
    order = sorted(pes, key=lambda p: -by_pe.get(p, 0))
    rows = []
    for q in (0, 25, 50, 75, 100):
        i = min(int(q / 100 * (len(order) - 1)), len(order) - 1)
        pe = order[i]
        stolen = by_pe.get(pe, 0)
        rows.append([f"p{q}", str(stolen), str(totals[pe] - stolen)])
    return rows


def format_summary(s: TraceSummary, planner_stats=None) -> str:
    """Human-readable report: Fig. 7a phase table + Fig. 9 steal profile.

    ``planner_stats``: optional merged :class:`~repro.planners.stats.
    PlannerStats` across regions (the trace does not carry operation
    counts — the caller supplies them, as ``PlanReport.summary`` does).
    When given, a "Planner work" table is appended, with an evals-saved
    line whenever an incremental NN backend did maintenance work.
    """
    from ..bench.harness import format_table

    lines = [
        f"trace: {s.num_events} events, end time {s.end_time:.2f}",
        "",
        "Phase breakdown (Fig. 7a)",
    ]
    known = [p for p in PHASE_NAMES if p in s.phases]
    extra = sorted(set(s.phases) - set(known))
    rows = [[p, f"{s.phases[p]:.2f}"] for p in known + extra]
    rows.append(["total", f"{s.total_phase_time:.2f}"])
    lines.append(format_table(["phase", "time"], rows))

    if planner_stats is not None:
        lines += [
            "",
            "Planner work",
            format_table(
                ["samples", "nn queries", "nn evals", "lp checks", "edges"],
                [[
                    planner_stats.sample_attempts,
                    planner_stats.nn_queries,
                    planner_stats.nn_distance_evals,
                    planner_stats.lp_checks,
                    planner_stats.edges_added,
                ]],
            ),
        ]
        if planner_stats.nn_evals_saved:
            lines.append(
                f"nn evals saved by the incremental index: "
                f"{planner_stats.nn_evals_saved} "
                f"({planner_stats.nn_rebuilds} rebuilds, "
                f"{planner_stats.nn_buffer_hits} buffer hits)"
            )

    lines += [
        "",
        "Work stealing",
        format_table(
            ["requests", "transfers", "fails", "tasks migrated"],
            [[s.steal_requests, s.steal_transfers, s.steal_fails, s.tasks_migrated]],
        ),
    ]
    if s.tasks_executed:
        lines += [
            "",
            f"Tasks: {s.tasks_executed} executed on {len(s.per_pe_tasks)} PEs; "
            f"{s.stolen_fraction():.0%} stolen",
        ]
        steal_rows = _percentile_rows(s.per_pe_stolen_tasks, s.per_pe_tasks)
        if steal_rows:
            lines += [
                "",
                "Steal distribution (Fig. 9, percentiles by stolen count)",
                format_table(["percentile", "stolen", "non-stolen"], steal_rows),
            ]
    if s.pool_dispatches or s.shm_publishes or s.shm_attaches:
        policies = ", ".join(
            f"{p}×{n}" if n > 1 else p for p, n in sorted(s.chunk_policies.items())
        ) or "-"
        lines += [
            "",
            "Dispatch (data plane + chunking)",
            format_table(
                ["pool runs", "policy", "chunks", "tasks", "ctx bytes",
                 "task bytes", "shm pub", "shm attach", "attach ms"],
                [[
                    s.pool_dispatches,
                    policies,
                    s.chunks_issued,
                    s.dispatch_tasks,
                    s.context_bytes,
                    s.task_bytes,
                    f"{s.shm_publishes} ({s.shm_publish_bytes} B)",
                    f"{s.shm_attaches} ({s.shm_attach_bytes} B)",
                    f"{s.shm_attach_s * 1e3:.2f}",
                ]],
            ),
        ]
    if s.queries_executed:
        lines += [
            "",
            "Query serving",
            format_table(
                ["queries", "solved", "queries/sec", "p50 latency", "p99 latency"],
                [[
                    s.queries_executed,
                    s.queries_solved,
                    f"{s.queries_per_sec():.1f}",
                    f"{s.query_latency_percentile(50) * 1e3:.2f} ms",
                    f"{s.query_latency_percentile(99) * 1e3:.2f} ms",
                ]],
            ),
        ]
    if s.cache_hits or s.cache_misses or s.batches_flushed or s.requests_rejected:
        lines += [
            "",
            "Service (snapshot cache + coalescer)",
            format_table(
                ["hits", "misses", "hit rate", "evictions", "batches",
                 "mean batch", "rejected"],
                [[
                    s.cache_hits,
                    s.cache_misses,
                    f"{s.cache_hit_rate():.0%}",
                    s.cache_evictions,
                    s.batches_flushed,
                    f"{s.mean_batch_size():.1f}",
                    s.requests_rejected,
                ]],
            ),
        ]
        if s.flush_reasons:
            reasons = ", ".join(
                f"{r}: {n}" for r, n in sorted(s.flush_reasons.items())
            )
            lines.append(f"flush reasons — {reasons}")
        if s.queries_abandoned:
            lines.append(f"abandoned queries: {s.queries_abandoned}")
    if s.task_retries or s.tasks_abandoned or s.worker_deaths:
        lines += [
            "",
            "Failures",
            format_table(
                ["retries", "abandoned", "worker deaths"],
                [[s.task_retries, s.tasks_abandoned, s.worker_deaths]],
            ),
        ]
        if s.retry_reasons:
            reasons = ", ".join(
                f"{r}: {n}" for r, n in sorted(s.retry_reasons.items())
            )
            lines.append(f"retry reasons — {reasons}")
        if s.abandoned_tasks:
            lines.append(f"abandoned tasks: {sorted(s.abandoned_tasks)}")
    if s.remote_accesses:
        lines.append(f"\nRemote accesses: {s.remote_accesses}")
    for d in s.repartition_decisions:
        moved = d.get("moved", 0)
        lines.append(
            f"\nRepartition: moved {moved} regions, "
            f"overhead {d.get('overhead', 0.0):.2f} "
            f"({'accepted' if d.get('accepted') else 'declined'})"
        )
    return "\n".join(lines)
