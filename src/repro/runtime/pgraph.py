"""Distributed graph view with remote-access accounting.

STAPL's pGraph distributes vertices across processing elements; touching a
vertex owned by another PE is a *remote access* and pays communication
latency.  The paper measures remote accesses into both of its pGraphs —
the region graph and the roadmap graph — during the region-connection
phase (Fig. 7b) and attributes the repartitioning regression there to
increased edge cuts.

:class:`PGraphView` wraps any object with an ownership map and counts
accesses per (accessor PE, owner PE) pair; it does not copy the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .topology import ClusterTopology

__all__ = ["AccessStats", "PGraphView"]


@dataclass
class AccessStats:
    """Access tallies for one distributed data structure."""

    local: int = 0
    remote: int = 0
    #: remote accesses per accessor PE.
    remote_by_pe: "dict[int, int]" = field(default_factory=dict)
    #: virtual latency charged for the remote traffic.
    latency_charged: float = 0.0

    @property
    def total(self) -> int:
        """Local plus remote accesses."""
        return self.local + self.remote

    def remote_fraction(self) -> float:
        """Share of accesses that went remote (0.0 when untouched)."""
        return 0.0 if self.total == 0 else self.remote / self.total


class PGraphView:
    """Ownership map + access counters for a distributed graph.

    Parameters
    ----------
    name:
        Label used in reports ("region graph", "roadmap graph").
    topology:
        Supplies the latency model for charged accesses.
    """

    def __init__(self, name: str, topology: ClusterTopology):
        self.name = name
        self.topology = topology
        self._owner: "dict[int, int]" = {}
        self.stats = AccessStats()

    # -- ownership -----------------------------------------------------------
    def set_owners(self, owners: "dict[int, int]") -> None:
        """Assign (or reassign) elements to PEs from an element -> PE mapping."""
        num_pes = self.topology.num_pes
        for pe in owners.values():
            if not 0 <= pe < num_pes:
                raise ValueError(f"invalid owner PE {pe}")
        self._owner.update(owners)

    def owner(self, element: int) -> int:
        """Current owner PE of ``element`` (KeyError if unknown)."""
        return self._owner[element]

    @property
    def num_elements(self) -> int:
        """Number of elements with an assigned owner."""
        return len(self._owner)

    def elements_of(self, pe: int) -> "list[int]":
        """Sorted elements currently owned by ``pe``."""
        return sorted(e for e, p in self._owner.items() if p == pe)

    # -- access accounting ------------------------------------------------------
    def access_many(self, accessor_pes, elements, counts=1, aggregated=False) -> np.ndarray:
        """A whole walk in one call: entry ``i`` records ``counts[i]``
        accesses to ``elements[i]`` from ``accessor_pes[i]`` — each a round
        trip, or one message per entry when ``aggregated`` (STAPL
        aggregates asynchronous remote accesses, so such an entry pays one
        base latency plus bandwidth; counts still tally per element).
        Returns the latency charged per entry; only remote entries reach
        the topology.
        """
        accessor = np.asarray(accessor_pes, dtype=int)
        count = np.broadcast_to(np.asarray(counts, dtype=int), accessor.shape)
        if (count < 0).any():
            raise ValueError("count must be non-negative")
        owner = np.array([self._owner[e] for e in elements], dtype=int)
        remote = (owner != accessor) & (count > 0)
        src, dst, n = accessor[remote], owner[remote], count[remote]
        st = self.stats
        st.local += int(count[owner == accessor].sum())
        st.remote += int(n.sum())
        per_pe = np.bincount(src, weights=n)
        for pe in np.flatnonzero(per_pe).tolist():
            st.remote_by_pe[pe] = st.remote_by_pe.get(pe, 0) + int(per_pe[pe])
        # ``ClusterTopology.latency`` for every remote entry at once: the
        # same IEEE operations, so the same bits.
        topo = self.topology
        node = np.asarray(topo.pe_node)
        base = np.where(node[src] == node[dst], topo.latency_local, topo.latency_remote)
        charged = np.zeros(accessor.shape)
        charged[remote] = base + topo.bandwidth_cost * n if aggregated else n * base
        st.latency_charged += float(charged.sum())
        return charged

    def reset_stats(self) -> None:
        """Zero the access counters, keeping the ownership map."""
        self.stats = AccessStats()
