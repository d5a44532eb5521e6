"""The paper's contribution: load-balanced parallel PRM and RRT."""

from .machine import STRATEGIES, PhaseTimes, RunResult, replay
from .metrics import (
    coefficient_of_variation,
    ideal_loads,
    max_load_reduction,
    percent_improvement,
    phases_dict,
    speedup,
)
from .model import ModelEnvironmentAnalysis, ModelPoint
from .parallel_prm import (
    AdjacencyWork,
    PRMRegionPlanner,
    PRMRunResult,
    PRMWorkload,
    RegionWork,
    build_prm_workload,
    simulate_prm,
)
from .parallel_rrt import (
    BranchAdjacencyWork,
    BranchWork,
    RRTRegionPlanner,
    RRTWorkload,
    build_rrt_workload,
    default_root,
    simulate_rrt,
)
from .repartition import RepartitionResult, repartition
from .weights import (
    prm_free_volume_weights,
    prm_sample_count_weights,
    rrt_k_rays_weights,
    uniform_weights,
)
from .work_stealing import (
    DiffusivePolicy,
    HybridPolicy,
    RandKPolicy,
    policy_by_name,
)

__all__ = [
    "STRATEGIES",
    "PhaseTimes",
    "RunResult",
    "replay",
    "coefficient_of_variation",
    "ideal_loads",
    "max_load_reduction",
    "percent_improvement",
    "phases_dict",
    "speedup",
    "ModelEnvironmentAnalysis",
    "ModelPoint",
    "AdjacencyWork",
    "PRMRegionPlanner",
    "PRMRunResult",
    "PRMWorkload",
    "RegionWork",
    "build_prm_workload",
    "simulate_prm",
    "BranchAdjacencyWork",
    "BranchWork",
    "RRTRegionPlanner",
    "RRTWorkload",
    "build_rrt_workload",
    "default_root",
    "simulate_rrt",
    "RepartitionResult",
    "repartition",
    "prm_free_volume_weights",
    "prm_sample_count_weights",
    "rrt_k_rays_weights",
    "uniform_weights",
    "DiffusivePolicy",
    "HybridPolicy",
    "RandKPolicy",
    "policy_by_name",
]
