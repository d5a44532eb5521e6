"""Tests for the snapshot cache (repro.service.cache)."""

import threading

import pytest

from repro import WorkloadSpec
from repro.obs import Tracer
from repro.service import RoadmapCache, snapshot_nbytes
from repro.service.cache import build_engine


def _spec(seed=0, regions=8):
    return WorkloadSpec(
        environment="med-cube",
        planner="prm",
        num_regions=regions,
        samples_per_region=2,
        seed=seed,
    )


class CountingBuilder:
    """Builder wrapper that counts real constructions (thread-safe)."""

    def __init__(self, delay=0.0, fail=False):
        self.calls = 0
        self.delay = delay
        self.fail = fail
        self._lock = threading.Lock()

    def __call__(self, spec):
        with self._lock:
            self.calls += 1
        if self.delay:
            import time

            time.sleep(self.delay)
        if self.fail:
            raise RuntimeError("construction failed")
        return build_engine(spec)


class TestKeying:
    def test_same_workload_hits(self):
        cache = RoadmapCache()
        a = cache.get(_spec(seed=3))
        b = cache.get(_spec(seed=3))
        assert a is b
        st = cache.stats
        assert (st.hits, st.misses, st.builds) == (1, 1, 1)

    def test_different_seed_is_not_a_hit(self):
        cache = RoadmapCache()
        a = cache.get(_spec(seed=0))
        b = cache.get(_spec(seed=1))
        assert a is not b
        st = cache.stats
        assert st.hits == 0
        assert st.misses == 2
        assert st.builds == 2

    def test_contains_and_len(self):
        cache = RoadmapCache()
        assert _spec() not in cache
        cache.get(_spec())
        assert _spec() in cache
        assert len(cache) == 1


class TestLRUEviction:
    def test_evicts_least_recently_used_under_budget(self):
        cache = RoadmapCache(max_bytes=None)
        first = cache.get(_spec(seed=0))
        budget = snapshot_nbytes(first) * 2 + snapshot_nbytes(first) // 2
        cache = RoadmapCache(max_bytes=budget)
        cache.get(_spec(seed=0))
        cache.get(_spec(seed=1))
        cache.get(_spec(seed=0))  # refresh seed 0: seed 1 is now LRU
        cache.get(_spec(seed=2))  # over budget -> evict seed 1
        assert _spec(seed=0) in cache
        assert _spec(seed=1) not in cache
        assert _spec(seed=2) in cache
        st = cache.stats
        assert st.evictions == 1
        assert st.current_bytes <= budget

    def test_oversized_entry_survives_alone(self):
        cache = RoadmapCache(max_bytes=1)  # nothing fits
        cache.get(_spec(seed=0))
        assert len(cache) == 1  # the newest entry is never evicted
        cache.get(_spec(seed=1))
        assert len(cache) == 1
        assert _spec(seed=1) in cache
        assert cache.stats.evictions == 1

    def test_unbounded_cache_never_evicts(self):
        cache = RoadmapCache(max_bytes=None)
        for seed in range(4):
            cache.get(_spec(seed=seed))
        assert len(cache) == 4
        assert cache.stats.evictions == 0

    def test_put_and_clear(self):
        cache = RoadmapCache()
        engine = build_engine(_spec(seed=9))
        cache.put(_spec(seed=9), engine)
        assert cache.get(_spec(seed=9)) is engine
        assert cache.stats.hits == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.current_bytes == 0


class TestSingleflight:
    def test_concurrent_misses_build_once(self):
        builder = CountingBuilder(delay=0.05)
        cache = RoadmapCache(builder=builder)
        results = [None] * 8
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()
            results[i] = cache.get(_spec(seed=42))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert builder.calls == 1
        assert all(r is results[0] for r in results)
        st = cache.stats
        assert st.builds == 1
        assert st.misses == 8
        assert st.coalesced == 7

    def test_failed_build_propagates_and_allows_retry(self):
        builder = CountingBuilder(fail=True)
        cache = RoadmapCache(builder=builder)
        with pytest.raises(RuntimeError, match="construction failed"):
            cache.get(_spec())
        builder.fail = False
        engine = cache.get(_spec())  # the flight was cleared -> retry works
        assert engine is not None
        assert builder.calls == 2


class TestObservability:
    def test_events_and_counters(self):
        tracer = Tracer()
        cache = RoadmapCache(tracer=tracer)
        cache.get(_spec(seed=0))
        cache.get(_spec(seed=0))
        names = [e.name for e in tracer.memory.events]
        assert names.count("cache_miss") == 1
        assert names.count("cache_hit") == 1
        assert tracer.metrics.counter("cache_hits").value == 1
        assert tracer.metrics.counter("cache_misses").value == 1

    def test_eviction_event_carries_bytes(self):
        tracer = Tracer()
        probe = RoadmapCache()
        nbytes = snapshot_nbytes(probe.get(_spec(seed=0)))
        cache = RoadmapCache(max_bytes=nbytes + nbytes // 2, tracer=tracer)
        cache.get(_spec(seed=0))
        cache.get(_spec(seed=1))
        evicts = [e for e in tracer.memory.events if e.name == "cache_evict"]
        assert len(evicts) == 1
        assert evicts[0].attrs["bytes"] > 0

    def test_hit_rate(self):
        cache = RoadmapCache()
        assert cache.stats.hit_rate == 0.0
        cache.get(_spec())
        cache.get(_spec())
        cache.get(_spec())
        assert cache.stats.hit_rate == pytest.approx(2 / 3)
