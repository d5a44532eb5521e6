"""Machine topology and message-latency model.

Two aspects of the physical machine matter to the paper's load balancers:

* **Steal cost asymmetry** — "the cost of stealing from a processor on the
  same shared-memory node is generally less than the cost of stealing from
  a processor on another node" (Sec. III-A).  We model a cluster of
  multi-core nodes with distinct intra-node and inter-node latencies.
* **Mesh neighbourhoods** — the DIFFUSIVE policy "assumes processors are
  arranged in a 2D mesh" and steals only from mesh neighbours.

Latencies are in the same abstract virtual-time unit the
:class:`~repro.planners.stats.WorkModel` produces.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ClusterTopology", "mesh_shape_for"]


def mesh_shape_for(num_pes: int) -> "tuple[int, int]":
    """Most-square 2D factorisation ``rows x cols == num_pes``."""
    if num_pes < 1:
        raise ValueError("num_pes must be >= 1")
    rows = int(np.floor(np.sqrt(num_pes)))
    while rows > 1 and num_pes % rows != 0:
        rows -= 1
    return rows, num_pes // rows


class ClusterTopology:
    """A cluster of shared-memory nodes, logically arranged as a 2D mesh.

    Parameters
    ----------
    num_pes:
        Total processing elements.
    cores_per_node:
        PEs per shared-memory node (24 matches the paper's Hopper Cray XE6
        nodes).
    latency_local / latency_remote:
        One-way message latency between PEs on the same / different nodes.
    bandwidth_cost:
        Additional latency per unit of payload size (e.g. per migrated
        region or per roadmap vertex shipped).
    """

    def __init__(
        self,
        num_pes: int,
        cores_per_node: int = 24,
        latency_local: float = 1.0,
        latency_remote: float = 10.0,
        bandwidth_cost: float = 0.05,
    ):
        if num_pes < 1:
            raise ValueError("num_pes must be >= 1")
        if cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        if latency_local < 0 or latency_remote < 0 or bandwidth_cost < 0:
            raise ValueError("latencies must be non-negative")
        self.num_pes = num_pes
        self.cores_per_node = cores_per_node
        self.latency_local = latency_local
        self.latency_remote = latency_remote
        self.bandwidth_cost = bandwidth_cost
        self.mesh_shape = mesh_shape_for(num_pes)
        #: per-PE 4-neighbourhoods, built on first use: an O(P) table (at
        #: most four entries a PE), never a P x P one.
        self._mesh_neighbors: "list[tuple[int, ...]] | None" = None

    # -- node structure ------------------------------------------------------
    def node_of(self, pe: int) -> int:
        """Node index hosting ``pe``."""
        self._check(pe)
        return pe // self.cores_per_node

    def same_node(self, a: int, b: int) -> bool:
        """True when both PEs share a node (cheap intra-node latency)."""
        return self.node_of(a) == self.node_of(b)

    @property
    def num_nodes(self) -> int:
        """Node count (ceiling of PEs / cores per node)."""
        return -(-self.num_pes // self.cores_per_node)

    # -- latency ---------------------------------------------------------------
    def latency(self, src: int, dst: int, payload: float = 0.0) -> float:
        """One-way latency of a message from ``src`` to ``dst``: one range
        test, then node-id arithmetic (the simulator asks once per message)."""
        if not (0 <= src < self.num_pes and 0 <= dst < self.num_pes):
            self._check(src)
            self._check(dst)
        if src == dst:
            return 0.0
        cpn = self.cores_per_node
        base = self.latency_local if src // cpn == dst // cpn else self.latency_remote
        return base + self.bandwidth_cost * payload

    # -- 2D mesh -----------------------------------------------------------------
    def mesh_coords(self, pe: int) -> "tuple[int, int]":
        """(row, col) of ``pe`` in the logical 2-D mesh."""
        self._check(pe)
        _rows, cols = self.mesh_shape
        return pe // cols, pe % cols

    def mesh_pe(self, row: int, col: int) -> int:
        """PE at (row, col); IndexError outside the mesh."""
        rows, cols = self.mesh_shape
        if not (0 <= row < rows and 0 <= col < cols):
            raise IndexError(f"mesh coords ({row},{col}) out of {self.mesh_shape}")
        return row * cols + col

    def mesh_neighbors(self, pe: int) -> "list[int]":
        """4-neighbourhood of ``pe`` in the logical 2D mesh (up, down,
        left, right; a fresh list the caller may keep)."""
        self._check(pe)
        if self._mesh_neighbors is None:
            rows, cols = self.mesh_shape
            self._mesh_neighbors = [
                tuple(
                    r * cols + c
                    for r, c in ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1))
                    if 0 <= r < rows and 0 <= c < cols
                )
                for row in range(rows)
                for col in range(cols)
            ]
        return list(self._mesh_neighbors[pe])

    def _check(self, pe: int) -> None:
        if not 0 <= pe < self.num_pes:
            raise IndexError(f"PE {pe} out of range [0, {self.num_pes})")
