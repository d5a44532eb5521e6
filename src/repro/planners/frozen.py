"""Frozen CSR snapshot of a built roadmap, for amortised query serving.

A :class:`~repro.planners.roadmap.Roadmap` is built for growth.  Query
serving has the opposite access pattern — the graph never changes and
thousands of shortest-path searches walk it — so :class:`FrozenRoadmap`
holds the roadmap's compressed sparse row arrays (``indptr`` /
``indices`` / ``weights``: adjacency over dense rows in insertion order,
:meth:`Roadmap.csr <repro.planners.roadmap.Roadmap.csr>`), a copy of its
configurations, the per-row lists its search loop indexes, and exact
component labels (BFS at freeze time, robust to prior edge removals) so
disconnected queries fail in O(1) instead of exhausting a search.

The one search, :meth:`FrozenRoadmap.astar_virtual`, is **path-exact**
versus the dict A* of :mod:`repro.planners.query` (the oracle): heap keys
carry the original vertex id (the dict tie-break), neighbours relax in
adjacency insertion order, and arithmetic matches operation for
operation, so the returned path and length are bit-identical — swapping
a query to the frozen path can never change a result.

The snapshot is immutable and does not track its source: a roadmap that
changes after freezing builds a new CSR and leaves the snapshot's arrays
alone, so freeze once per built roadmap and re-freeze after any mutation.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .roadmap import Roadmap, _component_labels

__all__ = ["FrozenRoadmap"]


class FrozenRoadmap:
    """Immutable CSR view of a roadmap with an array-based shortest path.

    Attributes
    ----------
    ids : np.ndarray
        ``(n,)`` original vertex ids in insertion (row) order.
    configs : np.ndarray
        ``(n, dim)`` configurations, row ``i`` belonging to ``ids[i]``.
    indptr, indices, weights : np.ndarray
        CSR adjacency over dense rows; neighbours of row ``i`` occupy
        ``indices[indptr[i]:indptr[i+1]]`` in insertion order.
    comp : np.ndarray
        ``(n,)`` dense component labels (exact, BFS-derived).
    max_id : int
        Largest vertex id (``-1`` when empty) — what
        :class:`~repro.planners.query.RoadmapQuery` derives temporary
        start/goal ids from.
    """

    def __init__(
        self,
        dim: int,
        ids: np.ndarray,
        configs: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ):
        self.dim = dim
        self.ids = ids
        self.configs = configs
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        n = ids.shape[0]
        self.max_id = int(ids.max()) if n else -1
        # Python-list mirrors: the search inner loops index these with
        # plain ints, which is several times faster than NumPy scalar
        # extraction for graphs of a few thousand vertices.
        self._ids_list: "list[int]" = ids.tolist()
        self._row: "dict[int, int]" = dict(zip(self._ids_list, range(n)))
        # Per-row (neighbour, weight) tuples, prebuilt once so the search
        # inner loop is a single list index plus direct tuple unpacking —
        # no per-pop slicing.  Order is CSR order, i.e. relax order.
        ind, nb, wt = indptr.tolist(), indices.tolist(), weights.tolist()
        self._adj: "list[list[tuple[int, float]]]" = [
            list(zip(nb[ind[i] : ind[i + 1]], wt[ind[i] : ind[i + 1]]))
            for i in range(n)
        ]
        self._comp_list = _component_labels(ind, nb)
        self.comp = np.array(self._comp_list, dtype=np.int64)
        self.num_components = int(self.comp.max()) + 1 if n else 0

    # -- construction -------------------------------------------------------
    @classmethod
    def from_roadmap(cls, rmap: Roadmap) -> "FrozenRoadmap":
        """A snapshot of ``rmap``: copies of its vertex arrays, its shared CSR."""
        ids, configs = rmap.configs_array()
        return cls(rmap.dim, ids.copy(), configs.copy(), *rmap.csr())

    # -- introspection ------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._ids_list)

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def has_vertex(self, vid: int) -> bool:
        return vid in self._row

    def row_of(self, vid: int) -> int:
        """Dense row index of a vertex id."""
        return self._row[vid]

    def config(self, vid: int) -> np.ndarray:
        return self.configs[self._row[vid]]

    def configs_of(self, vids) -> np.ndarray:
        """Configurations of many vertices as one fancy-indexed gather."""
        row = self._row
        rows = [row[v] for v in vids]
        if not rows:
            return np.empty((0, self.dim))
        return self.configs[rows]

    def same_component(self, u: int, v: int) -> bool:
        return self._comp_list[self._row[u]] == self._comp_list[self._row[v]]

    # -- searches -----------------------------------------------------------
    def astar_virtual(
        self,
        start_cfg: np.ndarray,
        goal_cfg: np.ndarray,
        start_links: "list[tuple[int, float]]",
        goal_links: "list[tuple[int, float]]",
        sid: int,
        gid: int,
    ) -> "tuple[list[int], float] | None":
        """A* between two virtual endpoints attached by explicit links.

        ``start_links`` / ``goal_links`` are ``(row, weight)`` pairs in
        attachment order; a goal link whose row equals ``num_vertices``
        targets the virtual start itself (the direct start—goal edge).
        Replays exactly what :meth:`RoadmapQuery.solve` produces when it
        temporarily inserts start/goal vertices ``sid``/``gid`` into the
        roadmap and runs the dict A*: identical relax order (CSR row,
        then the start link, then the goal link — adjacency append
        order), identical heap tie-breaking, identical floats.
        """
        if not start_links or not goal_links:
            return None
        n = len(self._ids_list)
        srow, grow = n, n + 1
        s_back: "dict[int, float]" = {}
        g_back: "dict[int, float]" = {}
        sg_w: "float | None" = None
        for r, w in start_links:
            s_back[r] = w
        for r, w in goal_links:
            if r == srow:
                sg_w = w
            else:
                g_back[r] = w
        comp = self._comp_list
        if sg_w is None and not (
            {comp[r] for r in s_back} & {comp[r] for r in g_back}
        ):
            return None
        start_cfg = np.asarray(start_cfg, dtype=float)
        goal_cfg = np.asarray(goal_cfg, dtype=float)
        h: "list[float]" = (
            np.linalg.norm(self.configs - goal_cfg[None, :], axis=1).tolist() if n else []
        )
        h.append(float(np.linalg.norm((start_cfg - goal_cfg)[None, :], axis=1)[0]))
        h.append(0.0)
        ids = self._ids_list
        adj = self._adj
        inf = math.inf
        g = [inf] * (n + 2)
        prev = [-1] * (n + 2)
        done = bytearray(n + 2)
        g[srow] = 0.0
        heap: "list[tuple[float, int, int]]" = [(h[srow], sid, srow)]
        pop, push = heapq.heappop, heapq.heappush
        g_get = g_back.get
        h_g = h[grow]
        while heap:
            _f, _uvid, u = pop(heap)
            if u == grow:
                path = [gid]
                node = grow
                while node != srow:
                    node = prev[node]
                    path.append(sid if node == srow else ids[node])
                path.reverse()
                return path, g[grow]
            if done[u]:
                continue
            done[u] = 1
            gu = g[u]
            if u == srow:
                for v, w in start_links:
                    ng = gu + w
                    if ng < g[v]:
                        g[v] = ng
                        prev[v] = u
                        push(heap, (ng + h[v], ids[v], v))
                if sg_w is not None:
                    ng = gu + sg_w
                    if ng < g[grow]:
                        g[grow] = ng
                        prev[grow] = u
                        push(heap, (ng + h_g, gid, grow))
                continue
            for v, w in adj[u]:
                ng = gu + w
                if ng < g[v]:
                    g[v] = ng
                    prev[v] = u
                    push(heap, (ng + h[v], ids[v], v))
            # The start's back-links are provably dead: the virtual start
            # pops first with g = 0, so no relaxation can ever improve it
            # — the dict search relaxes them to the same no-op.
            w = g_get(u)
            if w is not None:
                ng = gu + w
                if ng < g[grow]:
                    g[grow] = ng
                    prev[grow] = u
                    push(heap, (ng + h_g, gid, grow))
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenRoadmap(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"components={self.num_components})"
        )
