"""PlanService: a persistent, multi-tenant motion-planning front end.

:func:`repro.api.plan` is one-shot: build a roadmap, answer queries,
throw everything away.  :class:`PlanService` is the long-lived
counterpart — the paper's "construct once, query many" economics turned
into a server loop:

1. ``submit(workload, query)`` hands one ``(start, goal)`` request to
   the service and immediately returns a
   :class:`concurrent.futures.Future` (await-able from asyncio via
   :meth:`submit_async`).
2. Admission control bounds the in-service queue: past ``max_queue``
   requests, ``submit`` blocks for back-pressure (or rejects with
   :class:`ServiceOverloadError` when ``block=False`` / the timeout
   lapses), emitting ``EV_REQUEST_REJECTED``.
3. A dispatcher thread coalesces queued requests per workload key and
   flushes a batch when it is full or its oldest request has lingered
   past the latency budget (:mod:`repro.service.coalescer`).
4. Each flush resolves its :class:`~repro.service.cache.RoadmapCache`
   snapshot (singleflight — concurrent cold-start tenants share one
   construction) and answers the whole batch with one
   :meth:`QueryEngine.solve_many` call under the configured
   :class:`~repro.spec.ExecutionPolicy` / :class:`~repro.spec.FaultPolicy`
   — the same retry / degrade semantics as regional planning.

Answers are **bit-identical** to the direct
``RoadmapQuery.solve`` / ``QueryEngine.solve`` path on the same
workload: the service only changes *when* and *how amortised* the work
happens, never what is computed.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..obs.events import EV_BATCH_FLUSH, EV_REQUEST_REJECTED
from ..obs.metrics import nearest_rank
from ..obs.tracer import active
from ..planners.engine import QueryRequest
from ..spec import ExecutionPolicy, FaultPolicy, WorkloadSpec
from . import cache as _cache
from .cache import CacheStats, RoadmapCache
from .coalescer import BatchQueue, Flush

if TYPE_CHECKING:
    from ..obs.tracer import Tracer
    from ..planners.query import QueryResult

__all__ = ["PlanService", "ServiceConfig", "ServiceStats", "ServiceOverloadError"]


class ServiceOverloadError(RuntimeError):
    """Admission control refused a request: the service queue is full."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`PlanService`.

    The coalescer trades batch amortisation against added latency via
    ``max_batch`` / ``max_linger``; ``max_queue`` bounds memory and gives
    back-pressure a place to push; ``cache_bytes`` bounds the snapshot
    cache.
    """

    #: flush a workload's batch at this many queued requests.
    max_batch: int = 32
    #: ... or once its oldest request waited this many seconds.
    max_linger: float = 0.010
    #: admission-control bound on requests queued (not yet dispatched).
    max_queue: int = 1024
    #: LRU budget for cached roadmap snapshots (None = unbounded).
    cache_bytes: "int | None" = 256 << 20
    #: batches that may execute concurrently (distinct workload keys).
    serve_workers: int = 2
    #: per-batch execution policy (workers/backend for ``solve_many``);
    #: its ``kernel_backend`` is the one cached engines are built on.
    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    #: per-batch fault policy (retry / degrade, forwarded to the pool).
    faults: FaultPolicy = field(default_factory=FaultPolicy)

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range knobs."""
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_linger < 0:
            raise ValueError("max_linger must be >= 0")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.serve_workers < 1:
            raise ValueError("serve_workers must be >= 1")
        self.execution.validate()
        self.faults.validate()


@dataclass
class ServiceStats:
    """Point-in-time service counters (see :meth:`PlanService.stats`)."""

    submitted: int = 0
    rejected: int = 0
    served: int = 0
    solved: int = 0
    abandoned: int = 0
    retries: int = 0
    batches: int = 0
    queued: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    #: sojourn times (submit -> resolution) of completed requests.
    latencies: "list[float]" = field(default_factory=list)

    @property
    def mean_batch_size(self) -> float:
        """Average requests per flushed batch (0.0 before any flush)."""
        return self.served / self.batches if self.batches else 0.0

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank request-sojourn percentile (``q`` in [0, 100])."""
        return nearest_rank(self.latencies, q)


class _Item:
    """One admitted request: payload, its future, and the submit time."""

    __slots__ = ("request", "future", "submitted_at")

    def __init__(self, request: QueryRequest, future: "Future", submitted_at: float):
        self.request = request
        self.future = future
        self.submitted_at = submitted_at


class PlanService:
    """Long-lived planning server over a snapshot cache and a coalescer.

    Use as a context manager (``with PlanService() as svc``) or call
    :meth:`close` explicitly — a dispatcher thread and a serving pool
    run until then.

    Parameters
    ----------
    config:
        :class:`ServiceConfig`; defaults are sensible for tests/benches.
    tracer:
        Optional :class:`~repro.obs.Tracer`; the service emits cache
        events, ``EV_BATCH_FLUSH`` / ``EV_REQUEST_REJECTED`` points, and
        each batch's full ``serve`` span + per-query events through it.
    cache:
        Optional pre-built (possibly shared) :class:`RoadmapCache`;
        by default one is built from the config's budget, its engines on
        the execution policy's kernel backend.
    """

    def __init__(
        self,
        config: "ServiceConfig | None" = None,
        tracer: "Tracer | None" = None,
        cache: "RoadmapCache | None" = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.config.validate()
        self._tracer = active(tracer)
        self._raw_tracer = tracer
        if cache is None:
            kernel_backend = self.config.execution.kernel_backend
            cache = RoadmapCache(
                max_bytes=self.config.cache_bytes,
                # Looked up on the module at every build, so whatever wraps
                # ``build_engine`` after this service exists still sees it.
                builder=lambda spec: _cache.build_engine(spec, kernel_backend),
                tracer=tracer,
            )
        self.cache = cache
        self._cond = threading.Condition()
        self._queue = BatchQueue(
            max_batch=self.config.max_batch,
            max_linger=self.config.max_linger,
            max_queue=self.config.max_queue,
        )
        self._busy: "set[str]" = set()
        self._inflight = 0
        self._closing = False
        self._draining = True
        self._stats = ServiceStats()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.serve_workers,
            thread_name_prefix="repro-serve",
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- lifecycle -----------------------------------------------------------
    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` (default) flushes and answers every queued
        request first; ``drain=False`` cancels queued futures and stops
        as soon as in-flight batches finish.  Idempotent.
        """
        with self._cond:
            if not self._closing:
                self._closing = True
                self._draining = drain
            self._cond.notify_all()
        self._dispatcher.join()
        self._pool.shutdown(wait=True)

    # -- intake --------------------------------------------------------------
    def submit(
        self,
        workload: WorkloadSpec,
        query: "QueryRequest | tuple",
        block: bool = True,
        timeout: "float | None" = None,
    ) -> "Future[QueryResult | None]":
        """Admit one query against ``workload``; returns its future.

        The future resolves to the query's
        :class:`~repro.planners.query.QueryResult` (or ``None`` when no
        path exists / the query was abandoned under ``degrade``) — the
        exact object :meth:`QueryEngine.solve` would have produced.

        When the service queue is full: ``block=True`` waits (up to
        ``timeout`` seconds, forever if ``None``) for space; on
        ``block=False`` or timeout expiry the request is **rejected**
        with :class:`ServiceOverloadError`.
        """
        if not isinstance(query, QueryRequest):
            s, g = query
            query = QueryRequest(np.asarray(s, dtype=float), np.asarray(g, dtype=float))
        key = workload.cache_key()
        fut: "Future[QueryResult | None]" = Future()
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._cond:
            if self._closing:
                raise RuntimeError("PlanService is closed")
            item = _Item(query, fut, time.perf_counter())
            while not self._queue.offer(key, workload, item, time.perf_counter()):
                if not block:
                    self._reject()
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        self._reject()
                self._cond.wait(remaining)
                if self._closing:
                    raise RuntimeError("PlanService is closed")
            self._stats.submitted += 1
            self._cond.notify_all()
        return fut

    def _reject(self) -> None:
        """Record and raise an admission-control rejection (lock held)."""
        self._stats.rejected += 1
        if self._tracer:
            self._tracer.point(EV_REQUEST_REJECTED, queued=self._queue.queued)
            self._tracer.metrics.counter("requests_rejected").inc()
        raise ServiceOverloadError(
            f"service queue full ({self._queue.queued}/{self.config.max_queue})"
        )

    def submit_async(self, workload: WorkloadSpec, query: "QueryRequest | tuple"):
        """Asyncio-compatible :meth:`submit`: returns an awaitable future.

        Admission back-pressure would block the event loop, so this
        variant never waits — a full queue raises
        :class:`ServiceOverloadError` immediately (callers retry with
        their own async pacing).
        """
        import asyncio

        return asyncio.wrap_future(self.submit(workload, query, block=False))

    # -- sync conveniences ---------------------------------------------------
    def solve(
        self, workload: WorkloadSpec, start, goal
    ) -> "QueryResult | None":
        """Submit one query and wait for its answer."""
        return self.submit(workload, (start, goal)).result()

    def solve_many(
        self, workload: WorkloadSpec, queries
    ) -> "list[QueryResult | None]":
        """Submit a burst of queries and wait for all answers, in order."""
        futs = [self.submit(workload, q) for q in queries]
        return [f.result() for f in futs]

    # -- introspection -------------------------------------------------------
    def stats(self) -> ServiceStats:
        """A consistent snapshot of the service counters."""
        with self._cond:
            s = self._stats
            return ServiceStats(
                submitted=s.submitted,
                rejected=s.rejected,
                served=s.served,
                solved=s.solved,
                abandoned=s.abandoned,
                retries=s.retries,
                batches=s.batches,
                queued=self._queue.queued,
                cache=self.cache.stats,
                latencies=list(s.latencies),
            )

    # -- dispatcher ----------------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Flush ready batches to the serving pool until closed."""
        while True:
            with self._cond:
                now = time.perf_counter()
                flushes = self._queue.pop_ready(
                    now, busy=self._busy, drain=self._closing and self._draining
                )
                if not flushes:
                    if self._closing:
                        if self._queue.queued == 0 or not self._draining:
                            break
                        # Drain mode with busy keys: wait for them to free.
                        self._cond.wait(0.05)
                        continue
                    deadline = self._queue.next_deadline(busy=self._busy)
                    self._cond.wait(
                        None if deadline is None else max(deadline - now, 0.0)
                    )
                    continue
                for flush in flushes:
                    self._busy.add(flush.key)
                    self._inflight += 1
                # Popping freed queue space: wake blocked submitters.
                self._cond.notify_all()
            for flush in flushes:
                self._pool.submit(self._serve_batch, flush)
        # Closed without drain: cancel whatever is still queued.
        with self._cond:
            for flush in self._queue.pop_ready(time.perf_counter(), drain=True):
                for item in flush.items:
                    item.future.cancel()
            self._cond.notify_all()

    def _serve_batch(self, flush: Flush) -> None:
        """Answer one coalesced batch (runs on the serving pool)."""
        items: "tuple[_Item, ...]" = flush.items
        try:
            engine = self.cache.get(flush.spec)
            batch = engine.solve_many(
                [it.request for it in items],
                tracer=self._raw_tracer,
                execution=self.config.execution,
                faults=self.config.faults,
                retry_seed=flush.spec.seed,
            )
        except BaseException as exc:
            for it in items:
                if not it.future.done():
                    it.future.set_exception(exc)
            with self._cond:
                self._busy.discard(flush.key)
                self._inflight -= 1
                self._cond.notify_all()
            return
        if self._tracer:
            self._tracer.point(
                EV_BATCH_FLUSH,
                key=flush.key,
                size=len(items),
                reason=flush.reason,
                waited=flush.waited,
            )
            self._tracer.metrics.counter("batches_flushed").inc()
        done = time.perf_counter()
        with self._cond:
            self._stats.served += len(items)
            self._stats.solved += batch.solved
            self._stats.abandoned += len(batch.abandoned)
            self._stats.retries += batch.retries
            self._stats.batches += 1
            for it in items:
                self._stats.latencies.append(done - it.submitted_at)
            self._busy.discard(flush.key)
            self._inflight -= 1
            self._cond.notify_all()
        for it, res in zip(items, batch.results):
            if not it.future.done():
                it.future.set_result(res)
