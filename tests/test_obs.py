"""Tests for the structured observability layer (repro.obs)."""

import io
import json

import numpy as np
import pytest

from repro.obs import (
    EV_STEAL_REQUEST,
    EV_STEAL_TRANSFER,
    EV_TASK_END,
    EV_TASK_START,
    Event,
    JsonlSink,
    MemorySink,
    Tracer,
    TraceSummary,
    parse_jsonl,
    read_jsonl,
    summarize_events,
)
from repro.obs.summary import format_summary
from repro.planners import BatchQueryResult
from repro.service import ServiceStats
from repro.runtime import ClusterTopology, WorkStealingSimulator
from repro.core.work_stealing import policy_by_name


class TestEvent:
    def test_json_round_trip(self):
        ev = Event(ts=1.5, kind="point", name="task_start", pe=3, attrs={"task": 7})
        assert Event.from_json(ev.to_json()) == ev

    def test_json_omits_empty_fields(self):
        ev = Event(ts=0.0, kind="point", name="x")
        d = ev.to_json()
        assert "pe" not in d and "attrs" not in d
        assert Event.from_json(d) == ev


class TestPercentileRange:
    """Every public percentile reader shares ``nearest_rank``'s range
    check: a ``q`` outside [0, 100] is an error, never the max or min."""

    @pytest.mark.parametrize("read", [
        lambda q: ServiceStats(latencies=[0.1, 0.2, 0.9]).latency_percentile(q),
        lambda q: BatchQueryResult(results=[None] * 3, wall_time=1.0, setup_time=0.0,
                                   latencies=[0.1, 0.2, 0.9],
                                   solved=0).latency_percentile(q),
        lambda q: TraceSummary(
            query_latencies=[0.1, 0.2, 0.9]).query_latency_percentile(q),
    ], ids=["service", "batch", "trace"])
    def test_q_outside_0_100_raises(self, read):
        assert read(0) == 0.1 and read(50) == 0.2 and read(100) == 0.9
        for q in (-100, -0.5, 100.5, 200, float("nan")):
            with pytest.raises(ValueError, match="q must be in"):
                read(q)


class TestSinks:
    def test_memory_sink_keeps_every_event(self):
        sink = MemorySink()
        for i in range(5):
            sink.emit(Event(ts=float(i), kind="point", name="x"))
        assert len(sink) == 5
        assert [e.ts for e in sink.events] == [0.0, 1.0, 2.0, 3.0, 4.0]
        sink.clear()
        assert len(sink) == 0 and sink.events == []

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [
            Event(ts=0.0, kind="span_begin", name="construct"),
            Event(ts=1.0, kind="point", name="task_start", pe=2, attrs={"cost": 4.5}),
            Event(ts=9.0, kind="span_end", name="construct"),
        ]
        with JsonlSink(path) as sink:
            for ev in events:
                sink.emit(ev)
        assert read_jsonl(path) == events

    def test_jsonl_accepts_open_handle(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit(Event(ts=1.0, kind="point", name="x"))
        sink.close()  # must not close a caller-owned handle
        assert json.loads(buf.getvalue()) == {"ts": 1.0, "kind": "point", "name": "x"}

    def test_jsonl_concurrent_emit_keeps_lines_intact(self, tmp_path):
        # The service layer traces from its dispatcher thread and pool
        # workers at once; interleaved writes must never corrupt a line.
        import threading

        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        n_threads, per_thread = 8, 200
        barrier = threading.Barrier(n_threads)

        def hammer(tid):
            barrier.wait()
            for i in range(per_thread):
                sink.emit(
                    Event(ts=float(i), kind="point", name="x",
                          attrs={"tid": tid, "pad": "y" * 64})
                )

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()
        events = read_jsonl(path)  # raises on any corrupted line
        assert len(events) == n_threads * per_thread

    def test_close_is_idempotent(self, tmp_path):
        # ``with tracer:`` closes the sinks on exit; an explicit close
        # after it must be a no-op, not "I/O operation on closed file".
        path = tmp_path / "trace.jsonl"
        with Tracer(sinks=[JsonlSink(path)]) as tracer:
            tracer.point("x", ts=1.0)
        tracer.close()
        assert read_jsonl(path) == [Event(ts=1.0, kind="point", name="x")]

    def test_parse_jsonl_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_jsonl(['{"ts": 0, "kind": "point", "name": "x"}', "not json"])

    def test_parse_jsonl_skips_blank_lines(self):
        assert parse_jsonl(["", '{"ts": 0, "kind": "point", "name": "x"}', "  "]) == [
            Event(ts=0.0, kind="point", name="x")
        ]


class TestTracer:
    def test_default_memory_sink(self):
        tr = Tracer()
        tr.point("task_start", ts=1.0, pe=0, task=3)
        assert len(tr.memory.events) == 1
        ev = tr.memory.events[0]
        assert ev.name == "task_start" and ev.attrs == {"task": 3}

    def test_span_context_manager_orders_events(self):
        tr = Tracer()
        with tr.span("construct"):
            tr.point("task_start", pe=0)
        kinds = [e.kind for e in tr.memory.events]
        assert kinds == ["span_begin", "point", "span_end"]
        begin, _, end = tr.memory.events
        assert begin.ts <= end.ts

    def test_span_at_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Tracer().span_at("x", 2.0, 1.0)

    def test_offset_shifts_timestamps(self):
        tr = Tracer()
        off = tr.offset(10.0)
        off.point("x", ts=1.5)
        assert tr.memory.events[0].ts == 11.5

    def test_offset_composes(self):
        tr = Tracer()
        off = tr.offset(10.0).offset(5.0)
        off.point("x", ts=0.0)
        assert tr.memory.events[0].ts == 15.0

    def test_zero_offset_is_identity(self):
        tr = Tracer()
        assert tr.offset(0.0) is tr


def _run_simulated(tracer=None, num_pes=8, seed=7):
    """A small deterministic work-stealing run with imbalanced costs."""
    rng = np.random.default_rng(seed)
    costs = {t: float(c) for t, c in enumerate(rng.uniform(1.0, 20.0, 60))}
    topology = ClusterTopology(num_pes)
    sim = WorkStealingSimulator(
        topology,
        lambda task, pe: costs[task],
        steal_policy=policy_by_name("rand-8"),
        rng=np.random.default_rng(seed),
        tracer=tracer,
    )
    # Pile all tasks on PE 0 so stealing definitely happens.
    return sim.run({t: 0 for t in costs})


class TestSimulatorTracing:
    def test_event_stream_is_time_ordered_and_deterministic(self):
        tr1, tr2 = Tracer(), Tracer()
        _run_simulated(tr1)
        _run_simulated(tr2)
        events = tr1.memory.events
        assert events, "instrumented run must emit events"
        ts = [e.ts for e in events]
        assert ts == sorted(ts), "virtual clock must be monotone over emissions"
        assert events == tr2.memory.events, "same seed must give identical traces"

    def test_trace_matches_sim_result_exactly(self):
        tr = Tracer()
        result = _run_simulated(tr)
        s = summarize_events(tr.memory.events)
        assert s.tasks_executed == sum(p.tasks_executed for p in result.pe_stats)
        assert s.steal_requests == sum(p.steal_requests_sent for p in result.pe_stats)
        assert s.steal_transfers == sum(p.steals_serviced for p in result.pe_stats)
        assert s.steal_fails == sum(p.steals_failed for p in result.pe_stats)
        assert s.tasks_migrated == sum(p.tasks_lost for p in result.pe_stats)
        for pe, st in enumerate(result.pe_stats):
            assert s.per_pe_tasks.get(pe, 0) == st.tasks_executed
            assert s.per_pe_stolen_tasks.get(pe, 0) == st.tasks_stolen_executed
            assert s.per_pe_busy.get(pe, 0.0) == pytest.approx(st.work_time)

    def test_untraced_run_identical_to_traced(self):
        plain = _run_simulated(None)
        traced = _run_simulated(Tracer())
        assert plain.makespan == traced.makespan
        assert plain.executed_by == traced.executed_by


class TestSummarize:
    def _golden_events(self):
        return [
            Event(ts=0.0, kind="span_begin", name="construct"),
            Event(ts=0.0, kind="point", name=EV_TASK_START, pe=0,
                  attrs={"task": 1, "cost": 5.0, "stolen": False}),
            Event(ts=1.0, kind="point", name=EV_STEAL_REQUEST, pe=1,
                  attrs={"victim": 0}),
            Event(ts=2.0, kind="point", name=EV_STEAL_TRANSFER, pe=0,
                  attrs={"thief": 1, "tasks": 2}),
            Event(ts=5.0, kind="point", name=EV_TASK_END, pe=0,
                  attrs={"task": 1, "cost": 5.0, "stolen": False}),
            Event(ts=7.0, kind="point", name=EV_TASK_END, pe=1,
                  attrs={"task": 2, "cost": 3.0, "stolen": True}),
            Event(ts=8.0, kind="span_end", name="construct"),
        ]

    def test_golden_trace(self):
        s = summarize_events(self._golden_events())
        assert s.phases == {"construct": 8.0}
        assert s.tasks_executed == 2
        assert s.steal_requests == 1
        assert s.steal_transfers == 1
        assert s.tasks_migrated == 2
        assert s.per_pe_busy == {0: 5.0, 1: 3.0}
        assert s.per_pe_stolen_tasks == {1: 1}
        assert s.stolen_fraction() == 0.5
        assert s.end_time == 8.0

    def test_order_independent(self):
        events = self._golden_events()
        shuffled = list(reversed(events))
        assert summarize_events(shuffled) == summarize_events(events)

    def test_unclosed_span_rejected(self):
        with pytest.raises(ValueError, match="unclosed"):
            summarize_events([Event(ts=0.0, kind="span_begin", name="construct")])

    def test_end_without_begin_rejected(self):
        with pytest.raises(ValueError, match="without begin"):
            summarize_events([Event(ts=1.0, kind="span_end", name="construct")])

    def test_format_summary_mentions_figures(self):
        text = format_summary(summarize_events(self._golden_events()))
        assert "construct" in text
        assert "Fig. 7a" in text and "Fig. 9" in text

    def test_format_summary_planner_stats_table(self):
        from repro.planners.stats import PlannerStats

        s = summarize_events(self._golden_events())
        assert "Planner work" not in format_summary(s)

        stats = PlannerStats(sample_attempts=100, nn_queries=90,
                             nn_distance_evals=4_000, lp_checks=80,
                             edges_added=70)
        text = format_summary(s, planner_stats=stats)
        assert "Planner work" in text
        assert "4000" in text
        # No incremental index in play -> no evals-saved line.
        assert "evals saved" not in text

    def test_format_summary_evals_saved_line(self):
        from repro.planners.stats import PlannerStats

        s = summarize_events(self._golden_events())
        stats = PlannerStats(sample_attempts=100, nn_queries=90,
                             nn_distance_evals=4_000, lp_checks=80,
                             edges_added=70, nn_evals_saved=120_000,
                             nn_rebuilds=7, nn_buffer_hits=40)
        text = format_summary(s, planner_stats=stats)
        assert ("nn evals saved by the incremental index: 120000 "
                "(7 rebuilds, 40 buffer hits)") in text
