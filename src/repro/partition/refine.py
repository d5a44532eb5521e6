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
    cap = float((1.0 + BALANCE_TOLERANCE) * mean)
    # Python lists, built once: a float's IEEE operations are NumPy
    # scalars', without their per-operation cost.  Region ``i`` of the
    # lists is ``ids[i]``.
    loads = loads.tolist()
    ids = graph.region_ids()
    pos = {rid: i for i, rid in enumerate(ids)}
    nbrs = [[pos[nbr] for nbr in graph.neighbors(rid)] for rid in ids]
    owner = [assign[rid] for rid in ids]
    region_w = [weights[rid] for rid in ids]

    for _ in range(MAX_PASSES):
        improved = False
        for i, adjacent in enumerate(nbrs):
            here = owner[i]
            nbr_pes: dict[int, int] = {}
            local_ties = 0
            for j in adjacent:
                pe = owner[j]
                if pe == here:
                    local_ties += 1
                else:
                    nbr_pes[pe] = nbr_pes.get(pe, 0) + 1
            if not nbr_pes:
                continue
            # Gain of moving a region to pe = (cut edges recovered) - (new
            # cut edges): the move goes to the lowest-numbered PE among
            # those holding the most neighbours, when that gain is positive.
            most = max(nbr_pes.values())
            if most <= local_ties:
                continue
            best_pe = min(pe for pe, ties in nbr_pes.items() if ties == most)
            w = region_w[i]
            if loads[best_pe] + w > cap or w > loads[here]:
                continue
            owner[i] = best_pe
            loads[here] -= w
            loads[best_pe] += w
            improved = True
        if not improved:
            break
    assign.update(zip(ids, owner))
    return assign
