"""Tests for the PlanService front end and the request coalescer."""

import threading
import time

import numpy as np
import pytest

from repro import ExecutionPolicy, PlanService, ServiceConfig, Tracer, WorkloadSpec
from repro.obs import format_summary, summarize_events
from repro.runtime import Fault, FaultInjector
from repro.service import BatchQueue, ServiceOverloadError
from repro.service.cache import RoadmapCache, build_engine, snapshot_nbytes
from repro.spec import FaultPolicy

from .oracle import same_answer


def _spec(seed=3):
    return WorkloadSpec(
        environment="med-cube",
        planner="prm",
        num_regions=16,
        samples_per_region=4,
        seed=seed,
    )


def _queries(spec, n, rng_seed=0):
    cs = spec.resolve_cspace()
    lo, hi = cs.bounds.lo, cs.bounds.hi
    rng = np.random.default_rng(rng_seed)
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


class TestBatchQueue:
    """The coalescer is pure — time is an argument — so every flush
    trigger is tested deterministically."""

    def test_full_flush_at_max_batch(self):
        q = BatchQueue(max_batch=3, max_linger=10.0)
        for i in range(3):
            assert q.offer("k", _spec(), i, now=float(i))
        flushes = q.pop_ready(now=2.0)
        assert len(flushes) == 1
        assert flushes[0].reason == "full"
        assert flushes[0].items == (0, 1, 2)
        assert q.queued == 0

    def test_no_flush_before_either_trigger(self):
        q = BatchQueue(max_batch=3, max_linger=1.0)
        q.offer("k", _spec(), "a", now=0.0)
        assert q.pop_ready(now=0.5) == []
        assert q.queued == 1

    def test_linger_flush_after_budget(self):
        q = BatchQueue(max_batch=100, max_linger=1.0)
        q.offer("k", _spec(), "a", now=0.0)
        q.offer("k", _spec(), "b", now=0.4)
        flushes = q.pop_ready(now=1.0)
        assert len(flushes) == 1
        assert flushes[0].reason == "linger"
        assert flushes[0].items == ("a", "b")
        assert flushes[0].waited == pytest.approx(1.0)

    def test_flush_takes_at_most_max_batch(self):
        q = BatchQueue(max_batch=2, max_linger=10.0)
        for i in range(5):
            q.offer("k", _spec(), i, now=0.0)
        flushes = q.pop_ready(now=0.0)
        # One batch per key per wake-up; the rest waits for the next one.
        assert len(flushes) == 1
        assert flushes[0].items == (0, 1)
        assert q.queued == 3

    def test_busy_keys_are_skipped(self):
        q = BatchQueue(max_batch=1, max_linger=0.0)
        q.offer("a", _spec(0), "x", now=0.0)
        q.offer("b", _spec(1), "y", now=0.0)
        flushes = q.pop_ready(now=0.0, busy={"a"})
        assert [f.key for f in flushes] == ["b"]
        assert q.queued == 1

    def test_drain_flushes_everything(self):
        q = BatchQueue(max_batch=100, max_linger=100.0)
        q.offer("a", _spec(0), "x", now=0.0)
        q.offer("b", _spec(1), "y", now=0.0)
        flushes = q.pop_ready(now=0.0, drain=True)
        assert sorted(f.key for f in flushes) == ["a", "b"]
        assert all(f.reason == "drain" for f in flushes)
        assert q.queued == 0

    def test_offer_refuses_past_capacity(self):
        q = BatchQueue(max_batch=10, max_linger=1.0, max_queue=2)
        assert q.offer("k", _spec(), 1, now=0.0)
        assert q.offer("k", _spec(), 2, now=0.0)
        assert not q.offer("k", _spec(), 3, now=0.0)

    def test_next_deadline_is_oldest_plus_linger(self):
        q = BatchQueue(max_batch=10, max_linger=1.0)
        assert q.next_deadline() is None
        q.offer("a", _spec(0), "x", now=5.0)
        q.offer("b", _spec(1), "y", now=3.0)
        assert q.next_deadline() == pytest.approx(4.0)
        assert q.next_deadline(busy={"b"}) == pytest.approx(6.0)


class TestServedParity:
    """Served answers must be bit-identical to direct QueryEngine /
    RoadmapQuery solves on a fresh, unshared build."""

    def test_bit_identical_to_direct_solve(self):
        spec = _spec()
        queries = _queries(spec, 10)
        engine = build_engine(spec)
        direct = [engine.solve(s, g) for s, g in queries]
        with PlanService(ServiceConfig(max_batch=4, max_linger=0.005)) as svc:
            served = svc.solve_many(spec, queries)
        assert all(same_answer(a, b) for a, b in zip(direct, served))

    def test_policy_kernel_backend_reaches_the_cached_engine(self):
        """The service's ``ExecutionPolicy.kernel_backend`` lands on the
        environment of every engine it builds, and a bit-exact backend
        never changes an answer."""
        spec = _spec()
        queries = _queries(spec, 8)
        with PlanService(ServiceConfig(max_batch=4, max_linger=0.005)) as svc:
            default = svc.solve_many(spec, queries)
        cfg = ServiceConfig(
            max_batch=4, max_linger=0.005,
            execution=ExecutionPolicy(kernel_backend="bvh"),
        )
        with PlanService(cfg) as svc:
            served = svc.solve_many(spec, queries)
            engine = svc.cache.get(spec)
        assert all(same_answer(a, b) for a, b in zip(default, served))
        assert engine.cspace.env.kernel_backend.name == "bvh"

    def test_repeat_submissions_stay_identical_warm(self):
        spec = _spec()
        queries = _queries(spec, 6)
        with PlanService(ServiceConfig(max_batch=3, max_linger=0.002)) as svc:
            first = svc.solve_many(spec, queries)
            second = svc.solve_many(spec, queries)
            st = svc.stats()
        assert all(same_answer(a, b) for a, b in zip(first, second))
        assert st.cache.hits >= 1  # second pass came from the snapshot

    def test_multi_tenant_isolation(self):
        s0, s1 = _spec(seed=0), _spec(seed=1)
        queries = _queries(s0, 4)
        d0 = [build_engine(s0).solve(s, g) for s, g in queries]
        d1 = [build_engine(s1).solve(s, g) for s, g in queries]
        with PlanService(ServiceConfig(max_batch=4, max_linger=0.005)) as svc:
            f0 = [svc.submit(s0, q) for q in queries]
            f1 = [svc.submit(s1, q) for q in queries]
            r0 = [f.result() for f in f0]
            r1 = [f.result() for f in f1]
            st = svc.stats()
        assert all(same_answer(a, b) for a, b in zip(d0, r0))
        assert all(same_answer(a, b) for a, b in zip(d1, r1))
        assert st.cache.builds == 2  # one snapshot per tenant


class TestServiceLifecycle:
    def test_close_drains_pending_requests(self):
        spec = _spec()
        queries = _queries(spec, 5)
        svc = PlanService(ServiceConfig(max_batch=100, max_linger=60.0))
        futs = [svc.submit(spec, q) for q in queries]
        svc.close(drain=True)  # linger never fires; drain must answer all
        assert all(f.done() and not f.cancelled() for f in futs)

    def test_close_without_drain_cancels(self):
        spec = _spec()
        svc = PlanService(ServiceConfig(max_batch=100, max_linger=60.0))
        futs = [svc.submit(spec, q) for q in _queries(spec, 3)]
        svc.close(drain=False)
        assert all(f.cancelled() for f in futs)

    def test_submit_after_close_raises(self):
        svc = PlanService()
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(_spec(), ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))

    def test_close_is_idempotent(self):
        svc = PlanService()
        svc.close()
        svc.close()

    def test_config_validated_at_construction(self):
        with pytest.raises(ValueError):
            PlanService(ServiceConfig(max_batch=0))


class TestAdmissionControl:
    def _blocked_service(self):
        """A service whose single key is busy forever-ish, so offers pile
        up: a slow builder keeps the first batch in flight."""
        spec = _spec()
        release = threading.Event()

        def slow_builder(s):
            release.wait(5.0)
            return build_engine(s)

        cache = RoadmapCache(builder=slow_builder)
        cfg = ServiceConfig(max_batch=1, max_linger=0.0, max_queue=2)
        svc = PlanService(cfg, cache=cache)
        return svc, spec, release

    def test_nonblocking_submit_rejects_when_full(self):
        svc, spec, release = self._blocked_service()
        try:
            queries = _queries(spec, 8)
            # First fills the in-flight batch; next two fill the queue.
            futs = [svc.submit(spec, queries[i]) for i in range(3)]
            deadline = time.perf_counter() + 2.0
            while svc.stats().queued < 2 and time.perf_counter() < deadline:
                time.sleep(0.005)
            with pytest.raises(ServiceOverloadError):
                svc.submit(spec, queries[3], block=False)
            assert svc.stats().rejected == 1
            release.set()
            for f in futs:  # the admitted requests still get answered
                f.result(10.0)
        finally:
            release.set()
            svc.close()

    def test_blocking_submit_times_out(self):
        svc, spec, release = self._blocked_service()
        try:
            queries = _queries(spec, 8)
            for i in range(3):
                svc.submit(spec, queries[i])
            deadline = time.perf_counter() + 2.0
            while svc.stats().queued < 2 and time.perf_counter() < deadline:
                time.sleep(0.005)
            t0 = time.perf_counter()
            with pytest.raises(ServiceOverloadError):
                svc.submit(spec, queries[3], timeout=0.05)
            assert time.perf_counter() - t0 < 2.0
        finally:
            release.set()
            svc.close()


class TestFaultsThroughService:
    def test_degrade_surfaces_abandoned_queries(self):
        spec = _spec()
        queries = _queries(spec, 6)
        # Every attempt of every query raises: under "degrade" all six are
        # abandoned (after one retry each) and resolve to None — the
        # service reuses the pool's fault policies instead of crashing.
        injector = FaultInjector(
            [Fault("raise", attempt=0), Fault("raise", attempt=1)]
        )
        cfg = ServiceConfig(
            max_batch=6,
            max_linger=0.01,
            faults=FaultPolicy(policy="degrade", max_retries=1, injector=injector),
            execution=ExecutionPolicy(workers=2),
        )
        with PlanService(cfg) as svc:
            futs = [svc.submit(spec, q) for q in queries]
            results = [f.result() for f in futs]
            st = svc.stats()
        assert results == [None] * 6
        assert st.abandoned == 6
        assert st.retries == 6
        assert st.solved == 0


class TestObservabilityIntegration:
    def test_events_and_summary_table(self):
        spec = _spec()
        tracer = Tracer()
        with PlanService(
            ServiceConfig(max_batch=4, max_linger=0.005), tracer=tracer
        ) as svc:
            svc.solve_many(spec, _queries(spec, 8))
        events = tracer.memory.events
        flushes = [e for e in events if e.name == "batch_flush"]
        assert flushes, "no EV_BATCH_FLUSH emitted"
        for e in flushes:
            assert set(e.attrs) >= {"key", "size", "reason", "waited"}
        summary = summarize_events(events)
        assert summary.cache_misses == 1
        assert summary.batches_flushed == len(flushes)
        assert sum(summary.batch_sizes) == 8
        text = format_summary(summary)
        assert "Service (snapshot cache + coalescer)" in text
        assert "flush reasons" in text

    def test_trace_recounts_cache_and_service_stats(self):
        """The completeness invariant on a served run with a rejection
        and an eviction: the trace alone gives ``CacheStats`` and the
        ``ServiceStats`` batch and rejection counts."""
        a, b = _spec(seed=3), _spec(seed=4)
        release = threading.Event()

        def gated(spec):
            release.wait(5.0)
            return build_engine(spec)

        tracer = Tracer()
        budget = snapshot_nbytes(build_engine(a)) * 3 // 2
        cache = RoadmapCache(max_bytes=budget, builder=gated, tracer=tracer)
        cfg = ServiceConfig(max_batch=1, max_linger=0.0, max_queue=2)
        with PlanService(cfg, tracer=tracer, cache=cache) as svc:
            queries = _queries(a, 4)
            futs = [svc.submit(a, q) for q in queries[:3]]
            deadline = time.perf_counter() + 2.0
            while svc.stats().queued < 2 and time.perf_counter() < deadline:
                time.sleep(0.005)
            with pytest.raises(ServiceOverloadError):
                svc.submit(a, queries[3], block=False)
            release.set()
            for f in futs:
                f.result(10.0)
            svc.solve_many(b, _queries(b, 2))
            st = svc.stats()
        s = summarize_events(tracer.memory.events)
        assert (s.cache_hits, s.cache_misses, s.cache_evictions) == (
            st.cache.hits, st.cache.misses, st.cache.evictions
        )
        assert (s.batches_flushed, sum(s.batch_sizes), s.requests_rejected) == (
            st.batches, st.served, st.rejected
        )
        assert (st.rejected, st.cache.evictions, st.served) == (1, 1, 5)

    def test_stats_latencies_cover_all_requests(self):
        spec = _spec()
        with PlanService(ServiceConfig(max_batch=2, max_linger=0.002)) as svc:
            svc.solve_many(spec, _queries(spec, 6))
            st = svc.stats()
        assert len(st.latencies) == 6
        assert st.latency_percentile(50) > 0
        assert st.latency_percentile(99.9) >= st.latency_percentile(50)
