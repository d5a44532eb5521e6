"""Simulated distributed-memory runtime (the STAPL stand-in)."""

from .faults import (
    FAULT_CRASH,
    FAULT_HANG,
    FAULT_RAISE,
    Fault,
    FaultInjector,
    InjectedFault,
    TaskFailedError,
    WorkerCrash,
)
from .chunking import CHUNK_POLICIES, policy_label, resolve_chunks
from .local_pool import (
    FAILURE_POLICIES,
    DispatchStats,
    PoolResult,
    resolve_workers,
    run_tasks_parallel,
)
from .shm import (
    ArraySpec,
    SharedArrayManifest,
    attach_arrays,
    cleanup_stale,
    leaked_segments,
    publish_arrays,
    release,
    shm_available,
)
from .simulator import StealPolicy, VictimSource, WorkStealingSimulator, run_static_phase
from .stats import PEStats, SimResult
from .termination import detection_delay_tree
from .topology import ClusterTopology, mesh_shape_for

__all__ = [
    "FAULT_CRASH",
    "FAULT_HANG",
    "FAULT_RAISE",
    "Fault",
    "FaultInjector",
    "InjectedFault",
    "TaskFailedError",
    "WorkerCrash",
    "FAILURE_POLICIES",
    "CHUNK_POLICIES",
    "DispatchStats",
    "PoolResult",
    "policy_label",
    "resolve_chunks",
    "resolve_workers",
    "run_tasks_parallel",
    "ArraySpec",
    "SharedArrayManifest",
    "attach_arrays",
    "cleanup_stale",
    "leaked_segments",
    "publish_arrays",
    "release",
    "shm_available",
    "StealPolicy",
    "VictimSource",
    "WorkStealingSimulator",
    "run_static_phase",
    "PEStats",
    "SimResult",
    "detection_delay_tree",
    "ClusterTopology",
    "mesh_shape_for",
]
