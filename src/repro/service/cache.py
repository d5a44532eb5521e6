"""Snapshot cache: frozen roadmaps keyed by canonical workload hash.

Every pre-service caller paid roadmap construction per request.  The
:class:`RoadmapCache` amortises it across requests *and* tenants: the
first request for a :class:`~repro.spec.WorkloadSpec` builds the roadmap
and compiles it into a :class:`~repro.planners.engine.QueryEngine`
(frozen CSR snapshot + reusable NN index); every later request for an
equal workload — same environment, planner parameters and seed, hashed
canonically by :meth:`WorkloadSpec.cache_key` — is served from the warm
snapshot.

Three properties matter under concurrent load:

* **Singleflight construction** — N concurrent misses on one key take a
  per-key construction lock: one thread builds, the other N-1 wait on
  the same flight and share the result (counted as ``coalesced``
  misses).  A failed build propagates its exception to every waiter and
  clears the flight so the next request retries.
* **LRU memory budget** — snapshots are charged their CSR array bytes;
  inserting past ``max_bytes`` evicts least-recently-used entries (the
  newest entry is never evicted, so one oversized workload degrades to
  rebuild-per-miss instead of failing).
* **Observability** — every lookup emits ``EV_CACHE_HIT`` /
  ``EV_CACHE_MISS`` / ``EV_CACHE_EVICT`` through the attached
  :class:`~repro.obs.Tracer` and tallies ``cache_hits`` /
  ``cache_misses`` / ``cache_evictions`` metric counters, so the trace
  summariser's Service table reconstructs hit rates offline.

Cached answers are bit-identical to uncached ones by construction: the
cache stores the *engine*, and :class:`~repro.planners.engine.QueryEngine`
answers are asserted bit-identical to ``RoadmapQuery.solve`` on the same
roadmap (see PR 5's parity suite), so serving from a snapshot can never
change a result — only its latency.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..obs.events import EV_CACHE_EVICT, EV_CACHE_HIT, EV_CACHE_MISS
from ..obs.tracer import active
from ..planners.engine import QueryEngine
from ..spec import WorkloadSpec

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = ["CacheStats", "RoadmapCache", "snapshot_nbytes", "build_engine"]


def snapshot_nbytes(engine: QueryEngine) -> int:
    """Memory charge of a cached engine: its frozen snapshot's CSR arrays.

    The Python-list mirrors and the NN index are proportional to the same
    arrays, so array bytes are the right relative measure for an LRU
    budget even though the absolute resident size is a small multiple.
    """
    fz = engine.frozen
    return int(
        fz.configs.nbytes
        + fz.ids.nbytes
        + fz.indptr.nbytes
        + fz.indices.nbytes
        + fz.weights.nbytes
    )


def build_engine(spec: WorkloadSpec, kernel_backend: "str | None" = None) -> QueryEngine:
    """Default cache builder: construct the workload's roadmap exactly the
    way :func:`repro.api.plan` does, then freeze it into an engine.

    Bit-parity anchor: a direct ``RoadmapQuery.solve`` against
    ``plan(spec).roadmap`` and a served query through this engine return
    identical paths, because both start from the same roadmap bytes.
    ``kernel_backend`` (a :mod:`repro.kernels` backend name — the
    service's ``ExecutionPolicy.kernel_backend``) configures the
    environment both the build and the engine's serving paths check
    collisions against.
    """
    spec.validate()
    cspace = spec.resolve_cspace(kernel_backend)
    return QueryEngine(cspace, spec.build_workload(cspace).roadmap)


@dataclass
class CacheStats:
    """Point-in-time counters of one :class:`RoadmapCache`."""

    hits: int = 0
    misses: int = 0
    #: builds actually executed (<= misses: coalesced misses share one).
    builds: int = 0
    #: misses that waited on another thread's in-flight build.
    coalesced: int = 0
    evictions: int = 0
    entries: int = 0
    current_bytes: int = 0
    #: wall seconds spent inside builder calls (leader threads only).
    build_time: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Hits over all lookups (0.0 with no traffic)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class _Flight:
    """One in-flight singleflight build."""

    __slots__ = ("done", "value", "error")

    def __init__(self):
        self.done = threading.Event()
        self.value: "QueryEngine | None" = None
        self.error: "BaseException | None" = None


class _Entry:
    """One cached engine plus its byte charge."""

    __slots__ = ("engine", "nbytes")

    def __init__(self, engine: QueryEngine, nbytes: int):
        self.engine = engine
        self.nbytes = nbytes


class RoadmapCache:
    """LRU cache of frozen-roadmap query engines with singleflight builds.

    Parameters
    ----------
    max_bytes:
        Memory budget over snapshot CSR bytes (see
        :func:`snapshot_nbytes`).  ``None`` means unbounded.
    builder:
        ``WorkloadSpec -> QueryEngine``; defaults to :func:`build_engine`.
        One cache has one builder for life, so the workload hash alone
        keys its entries.
    tracer:
        Optional :class:`~repro.obs.Tracer` for cache events/metrics.
    """

    def __init__(
        self,
        max_bytes: "int | None" = 256 << 20,
        builder: "Callable[[WorkloadSpec], QueryEngine] | None" = None,
        tracer: "Tracer | None" = None,
    ):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0 (or None for unbounded)")
        self.max_bytes = max_bytes
        if builder is None:
            # Resolved by module-level name on every call, so whatever
            # wraps ``build_engine`` after this cache exists still sees
            # its builds.
            builder = lambda spec: build_engine(spec)  # noqa: E731
        self._builder = builder
        self._tracer = active(tracer)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._flights: "dict[str, _Flight]" = {}
        self._stats = CacheStats()

    # -- introspection -------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """A snapshot copy of the counters (safe to keep)."""
        with self._lock:
            return CacheStats(
                hits=self._stats.hits,
                misses=self._stats.misses,
                builds=self._stats.builds,
                coalesced=self._stats.coalesced,
                evictions=self._stats.evictions,
                entries=len(self._entries),
                current_bytes=self._stats.current_bytes,
                build_time=self._stats.build_time,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, spec: "WorkloadSpec | str") -> bool:
        key = spec if isinstance(spec, str) else spec.cache_key()
        with self._lock:
            return key in self._entries

    # -- the lookup ----------------------------------------------------------
    def get(self, spec: WorkloadSpec) -> QueryEngine:
        """The engine for ``spec``: cached, joined in-flight, or built.

        Raises whatever the builder raised (after recording the miss);
        concurrent callers of a failed build all see the same exception.
        """
        key = spec.cache_key()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                if self._tracer:
                    self._tracer.point(EV_CACHE_HIT, key=key)
                    self._tracer.metrics.counter("cache_hits").inc()
                return entry.engine
            self._stats.misses += 1
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[key] = flight
                self._stats.builds += 1
            else:
                self._stats.coalesced += 1
        if self._tracer:
            self._tracer.point(EV_CACHE_MISS, key=key, coalesced=not leader)
            self._tracer.metrics.counter("cache_misses").inc()

        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            assert flight.value is not None
            return flight.value

        # Leader: build outside the lock so hits on other keys never stall.
        t0 = time.perf_counter()
        try:
            engine = self._builder(spec)
        except BaseException as exc:
            with self._lock:
                self._stats.build_time += time.perf_counter() - t0
                self._flights.pop(key, None)
            flight.error = exc
            flight.done.set()
            raise
        nbytes = snapshot_nbytes(engine)
        with self._lock:
            self._stats.build_time += time.perf_counter() - t0
            self._entries[key] = _Entry(engine, nbytes)
            self._entries.move_to_end(key)
            self._stats.current_bytes += nbytes
            evicted = self._evict_over_budget(protect=key)
            self._flights.pop(key, None)
        if self._tracer:
            for ekey, ebytes in evicted:
                self._tracer.point(EV_CACHE_EVICT, key=ekey, bytes=ebytes)
                self._tracer.metrics.counter("cache_evictions").inc()
        flight.value = engine
        flight.done.set()
        return engine

    def put(self, spec: WorkloadSpec, engine: QueryEngine) -> None:
        """Pre-warm: install an already-built engine under ``spec``'s key."""
        key = spec.cache_key()
        nbytes = snapshot_nbytes(engine)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._stats.current_bytes -= old.nbytes
            self._entries[key] = _Entry(engine, nbytes)
            self._stats.current_bytes += nbytes
            evicted = self._evict_over_budget(protect=key)
        if self._tracer:
            for ekey, ebytes in evicted:
                self._tracer.point(EV_CACHE_EVICT, key=ekey, bytes=ebytes)
                self._tracer.metrics.counter("cache_evictions").inc()

    def clear(self) -> None:
        """Drop every entry (stats other than ``current_bytes`` persist)."""
        with self._lock:
            self._entries.clear()
            self._stats.current_bytes = 0

    def _evict_over_budget(self, protect: str) -> "list[tuple[str, int]]":
        """Evict LRU entries while over budget (called under the lock).

        The ``protect`` key (the entry just inserted) is never evicted:
        an oversized workload then simply occupies the whole budget and
        the cache degrades to rebuild-per-miss for everyone else, which
        is strictly better than refusing to serve it.
        """
        if self.max_bytes is None:
            return []
        evicted: "list[tuple[str, int]]" = []
        while self._stats.current_bytes > self.max_bytes and len(self._entries) > 1:
            key = next(iter(self._entries))
            if key == protect:
                # LRU order puts the fresh insert last; reaching it first
                # means it is the only entry left to shed.
                break
            entry = self._entries.pop(key)
            self._stats.current_bytes -= entry.nbytes
            self._stats.evictions += 1
            evicted.append((key, entry.nbytes))
        return evicted
