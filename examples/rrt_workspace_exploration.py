#!/usr/bin/env python
"""Radial-subdivision parallel RRT: explore a cluttered factory floor.

Demonstrates the tree-based half of the paper: conical region
decomposition around a root, biased regional RRT growth, branch
connection, and the comparison between work stealing (good) and k-rays
repartitioning (poor — the paper's own conclusion) for this dynamic
workload.

Run:  python examples/rrt_workspace_exploration.py [--quick]

``--quick`` shrinks the problem to CI-smoke scale (seconds, same code
paths).
"""

import sys

import numpy as np

from repro.bench import format_table
from repro.core import build_rrt_workload, simulate_rrt
from repro.cspace import EuclideanCSpace
from repro.geometry import mixed_30_env
from repro.planners import dijkstra


def main(quick: bool = False) -> None:
    num_regions = 64 if quick else 512
    num_pes = 32 if quick else 128
    env = mixed_30_env()
    print(f"Environment: {env}")
    cspace = EuclideanCSpace(env)

    rng = np.random.default_rng(0)
    root = np.zeros(3)
    while not cspace.valid_single(root):
        root = rng.uniform(-3.0, 3.0, 3)

    print(f"Growing {num_regions} conical RRT branches (real planning)...")
    workload = build_rrt_workload(
        cspace, root, num_regions=num_regions, nodes_per_region=8, seed=5
    )
    tree = workload.tree
    print(f"  merged tree: {tree}")
    connected = sum(1 for a in workload.adjacency_work if a.edges_added)
    print(f"  {connected} adjacent branch pairs connected, "
          f"{sum(a.cycles_pruned for a in workload.adjacency_work)} cycles pruned")

    # How far can the tree reach?  Longest root-to-leaf path.
    ids, cfgs = tree.configs_array()
    far_vid = int(ids[np.argmax(np.linalg.norm(cfgs - root, axis=1))])
    roots = [v for v, p in workload.parents.items() if p == v]
    best = None
    for r in roots:
        found = dijkstra(tree, r, far_vid)
        if found and (best is None or found[1] < best):
            best = found[1]
    if best is not None:
        print(f"  deepest explored configuration is {best:.1f} units of path away")

    print(f"\nLoad balancing the branch-growth phase (simulated {num_pes}-core run):")
    rows = []
    base = None
    for strategy in ("none", "diffusive", "hybrid", "rand-8", "repartition"):
        run = simulate_rrt(workload, num_pes, strategy)
        if base is None:
            base = run.total_time
        rows.append(
            [
                strategy,
                f"{run.total_time:.0f}",
                f"{run.phases.node_connection:.0f}",
                f"{run.phases.lb_overhead:.0f}",
                f"{base / run.total_time:.2f}x",
            ]
        )
    print(format_table(["strategy", "virtual time", "growth", "LB overhead", "speedup"], rows))
    print(
        "\nNote how the k-rays repartition pays a probe cost for a weight "
        "that barely predicts branch work — work stealing is the right tool "
        "for RRT, exactly as the paper concludes."
    )


if __name__ == "__main__":
    main(quick="--quick" in sys.argv[1:])
