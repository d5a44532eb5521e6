"""repro.service — persistent multi-tenant planning-as-a-service.

The one-shot :func:`repro.api.plan` pipeline rebuilds a roadmap per
call; this package keeps the expensive artefacts alive between requests:

:mod:`repro.service.cache`
    :class:`RoadmapCache` — LRU snapshot cache of frozen-roadmap query
    engines keyed by canonical :meth:`~repro.spec.WorkloadSpec.cache_key`
    hashes, with singleflight construction.
:mod:`repro.service.coalescer`
    :class:`BatchQueue` — pure per-workload request coalescing under a
    max-batch / max-linger latency budget.
:mod:`repro.service.service`
    :class:`PlanService` — the thread-pooled, asyncio-compatible front
    end: admission control, back-pressure, batched
    :meth:`~repro.planners.engine.QueryEngine.solve_many` dispatch with
    the runtime's retry / degrade fault policies.

Served answers are bit-identical to direct ``RoadmapQuery.solve`` /
``QueryEngine.solve`` calls on the same workload; the ``serve_mixed``
workload of ``benchmarks/e2e`` measures what the amortisation buys
(burst throughput, open-loop latency percentiles, hit rate).
"""

from .cache import CacheStats, RoadmapCache, build_engine, snapshot_nbytes
from .coalescer import BatchQueue, Flush
from .service import PlanService, ServiceConfig, ServiceOverloadError, ServiceStats

__all__ = [
    "RoadmapCache",
    "CacheStats",
    "build_engine",
    "snapshot_nbytes",
    "BatchQueue",
    "Flush",
    "PlanService",
    "ServiceConfig",
    "ServiceOverloadError",
    "ServiceStats",
]
