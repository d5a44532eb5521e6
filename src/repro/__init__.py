"""repro — Load-balanced scalable parallel sampling-based motion planning.

A reproduction of Fidel, Jacobs, Sharma, Amato & Rauchwerger,
"Using Load Balancing to Scalably Parallelize Sampling-Based Motion
Planning Algorithms" (IPDPS 2014).

Packages
--------
``repro.kernels``
    The collision kernels: one exact leaf (``reference``) under an
    optional tree cull (``bvh``), bit-identical; selected via
    ``ExecutionPolicy(kernel_backend=...)``.
``repro.geometry``
    Workspace primitives, benchmark environments, vectorised collision.
``repro.cspace``
    Configuration spaces, the uniform sampler, the straight-line local
    planner.
``repro.knn``
    Interchangeable nearest-neighbour backends.
``repro.planners``
    Sequential PRM / RRT, roadmap graph, queries.
``repro.subdivision``
    Uniform grid and radial region graphs.
``repro.runtime``
    Simulated distributed-memory machine (the STAPL stand-in) and a true
    multiprocessing backend.
``repro.partition``
    Region-graph partitioners and quality metrics.
``repro.core``
    The paper's contribution: load-balanced parallel PRM / RRT, work
    stealing policies, repartitioning, and the theoretical model.
``repro.obs``
    Structured tracing: typed events, sinks (memory / JSON lines), and
    the trace summariser every run tally is read from
    (``python -m repro.obs summarize``).
``repro.spec``
    The layered request vocabulary: ``WorkloadSpec`` / ``ExecutionPolicy``
    / ``FaultPolicy`` / ``ObsConfig``, the ``PlanRequest`` aggregate and
    canonical workload cache keys.
``repro.api``
    The ``plan(WorkloadSpec(...)) -> PlanReport`` facade over the whole
    pipeline.
``repro.service``
    Planning-as-a-service: LRU snapshot cache with singleflight builds,
    request coalescing, and the thread-pooled multi-tenant
    ``PlanService``.
``repro.bench``
    Drivers that regenerate every figure in the paper's evaluation.

Quick start
-----------
>>> from repro import ExecutionPolicy, WorkloadSpec, plan
>>> report = plan(WorkloadSpec(environment="med-cube", num_regions=512, seed=1),
...               execution=ExecutionPolicy(strategy="hybrid", num_pes=96))
>>> print(report.summary())
"""

from .api import PlanReport, PlanRequest, plan
from .spec import ExecutionPolicy, FaultPolicy, ObsConfig, WorkloadSpec
from .obs import (
    JsonlSink,
    MemorySink,
    Tracer,
    format_summary,
    read_jsonl,
    summarize_events,
)
from .runtime import Fault, FaultInjector, TaskFailedError
from .service import PlanService, RoadmapCache, ServiceConfig

__version__ = "1.16.0"

__all__ = [
    "__version__",
    "PlanRequest",
    "PlanReport",
    "plan",
    "WorkloadSpec",
    "ExecutionPolicy",
    "FaultPolicy",
    "ObsConfig",
    "PlanService",
    "ServiceConfig",
    "RoadmapCache",
    "Fault",
    "FaultInjector",
    "TaskFailedError",
    "Tracer",
    "MemorySink",
    "JsonlSink",
    "read_jsonl",
    "summarize_events",
    "format_summary",
]
