"""Shared infrastructure for the figure-regeneration benchmarks.

Workloads (the expensive real-planning part) are cached per configuration
so that the many figures drawing on the same experiment — e.g. Figs. 5, 6,
7 and 9 all use the med-cube PRM run — pay for construction once per
session.  Simulation replays per (strategy, PE count) are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.parallel_prm import PRMWorkload, build_prm_workload, simulate_prm
from ..core.parallel_rrt import RRTWorkload, build_rrt_workload, simulate_rrt
from ..cspace.space import EuclideanCSpace
from ..geometry import environments

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = [
    "prm_workload",
    "rrt_workload",
    "prm_scaling_table",
    "rrt_scaling_table",
    "format_table",
    "PRM_STRATEGIES",
    "RRT_STRATEGIES",
]

#: Strategy sets as the paper's figures label them.
PRM_STRATEGIES = ("none", "repartition", "hybrid", "rand-8")
RRT_STRATEGIES = ("none", "hybrid", "rand-8", "diffusive")

_PRM_CACHE: "dict[tuple, PRMWorkload]" = {}
_RRT_CACHE: "dict[tuple, RRTWorkload]" = {}


def prm_workload(
    env_name: str = "med-cube",
    num_regions: int = 6000,
    samples_per_region: int = 8,
    seed: int = 1,
) -> PRMWorkload:
    """Build (or fetch from cache) the PRM workload for an environment."""
    key = ("prm", env_name, num_regions, samples_per_region, seed)
    if key not in _PRM_CACHE:
        env = environments.by_name(env_name)
        cspace = EuclideanCSpace(env)
        _PRM_CACHE[key] = build_prm_workload(
            cspace,
            num_regions=num_regions,
            samples_per_region=samples_per_region,
            seed=seed,
        )
    return _PRM_CACHE[key]


def rrt_workload(
    env_name: str = "mixed",
    num_regions: int = 1024,
    seed: int = 2,
) -> RRTWorkload:
    """Build (or fetch from cache) the radial-RRT workload."""
    key = ("rrt", env_name, num_regions, seed)
    if key not in _RRT_CACHE:
        env = environments.by_name(env_name)
        cspace = EuclideanCSpace(env)
        root = np.zeros(env.dim)
        rng = np.random.default_rng(0)
        while not cspace.valid_single(root):
            root = rng.uniform(-0.3 * 10, 0.3 * 10, env.dim)
        _RRT_CACHE[key] = build_rrt_workload(cspace, root, num_regions=num_regions, seed=seed)
    return _RRT_CACHE[key]


@dataclass
class ScalingRow:
    """One (PE count, strategy) measurement."""

    num_pes: int
    strategy: str
    total_time: float
    speedup_vs_none: float


def prm_scaling_table(
    workload: PRMWorkload,
    pe_counts: "list[int]",
    strategies: "tuple[str, ...]" = PRM_STRATEGIES,
    tracer: "Tracer | None" = None,
) -> "list[ScalingRow]":
    """Strong-scaling sweep of parallel PRM; first strategy must be the baseline.

    ``tracer`` (optional) observes every replay; the default ``None``
    keeps the sweep at zero instrumentation overhead.
    """
    rows: "list[ScalingRow]" = []
    for P in pe_counts:
        base = None
        for strat in strategies:
            result = simulate_prm(workload, P, strat, tracer=tracer)
            if base is None:
                base = result.total_time
            rows.append(ScalingRow(P, strat, result.total_time, base / result.total_time))
    return rows


def rrt_scaling_table(
    workload: RRTWorkload,
    pe_counts: "list[int]",
    strategies: "tuple[str, ...]" = RRT_STRATEGIES,
    tracer: "Tracer | None" = None,
) -> "list[ScalingRow]":
    """RRT twin of :func:`prm_scaling_table`: one row per (PE count,
    strategy) pair, with speedups relative to the first strategy."""
    rows: "list[ScalingRow]" = []
    for P in pe_counts:
        base = None
        for strat in strategies:
            result = simulate_rrt(workload, P, strat, tracer=tracer)
            if base is None:
                base = result.total_time
            rows.append(ScalingRow(P, strat, result.total_time, base / result.total_time))
    return rows


def format_table(headers: "list[str]", rows: "list[list]") -> str:
    """Plain-text table, aligned columns — the benches' printed output."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*["-" * w for w in widths])]
    lines.extend(fmt.format(*row) for row in str_rows)
    return "\n".join(lines)
