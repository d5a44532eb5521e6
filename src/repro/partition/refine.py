"""Kernighan–Lin-style boundary refinement of a region-graph partition.

Post-processes any assignment by moving boundary regions between PE pairs
when the move reduces edge cut without worsening weight balance beyond a
tolerance.  This is the "high quality partition ... while also preserving
the spatial geometry" step (Sec. III-B): run after LPT it recovers most
of RCB's locality while keeping LPT's balance.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..subdivision.region import RegionGraph
from .edge_cut import checked_weights, loads_of

__all__ = ["BALANCE_TOLERANCE", "MAX_PASSES", "refine_partition"]

#: A move may raise its destination PE to at most ``1 + BALANCE_TOLERANCE``
#: times the mean load.
BALANCE_TOLERANCE = 0.05
#: Sweeps over the regions before refinement stops anyway.
MAX_PASSES = 4


def refine_partition(
    graph: RegionGraph,
    weights: "Mapping[int, float]",
    assignment: "dict[int, int]",
    num_pes: int,
) -> "dict[int, int]":
    """Greedy boundary-move refinement of ``assignment`` under ``weights``.

    A region is movable to a neighbouring PE when the move strictly
    decreases edge cut and leaves both PEs within
    ``(1 + BALANCE_TOLERANCE) * mean`` load.  Passes repeat until no move
    helps or ``MAX_PASSES`` is reached.  The input dict is not mutated.
    """
    weights = checked_weights(graph, weights)
    assign = dict(assignment)
    loads = loads_of(graph, weights, assign, num_pes)
    mean = loads.mean() if num_pes > 0 else 0.0
    cap = (1.0 + BALANCE_TOLERANCE) * mean

    for _ in range(MAX_PASSES):
        improved = False
        for rid in graph.region_ids():
            here = assign[rid]
            nbr_pes: dict[int, int] = {}
            local_ties = 0
            for nbr in graph.neighbors(rid):
                pe = assign[nbr]
                if pe == here:
                    local_ties += 1
                else:
                    nbr_pes[pe] = nbr_pes.get(pe, 0) + 1
            if not nbr_pes:
                continue
            # Gain of moving rid to pe = (cut edges recovered) - (new cut edges).
            best_pe, best_gain = here, 0
            for pe, ties in sorted(nbr_pes.items()):
                gain = ties - local_ties
                if gain > best_gain:
                    best_pe, best_gain = pe, gain
            if best_pe == here:
                continue
            w = weights[rid]
            if loads[best_pe] + w > cap or w > loads[here]:
                continue
            assign[rid] = best_pe
            loads[here] -= w
            loads[best_pe] += w
            improved = True
        if not improved:
            break
    return assign
