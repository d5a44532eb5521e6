"""Frozen CSR snapshot of a built roadmap, for amortised query serving.

A :class:`~repro.planners.roadmap.Roadmap` is optimised for construction:
dict-of-dict adjacency, incremental union-find, amortised vertex storage.
Query serving has the opposite access pattern — the graph never changes
and thousands of shortest-path searches walk it — so
:class:`FrozenRoadmap` compiles the graph once into compressed sparse row
(CSR) arrays:

* ``indptr`` / ``indices`` / ``weights`` — adjacency in insertion order,
  vertex ids interned to dense rows;
* ``configs`` — one contiguous ``(n, dim)`` float array;
* exact component labels (BFS at freeze time, robust to prior edge
  removals) so disconnected queries fail in O(1) instead of exhausting
  a search.

The one search, :meth:`FrozenRoadmap.astar_virtual`, is **path-exact**
versus the dict A* of :mod:`repro.planners.query` (the oracle): heap keys
carry the original vertex id (the dict tie-break), neighbours relax in
adjacency insertion order, and arithmetic matches operation for
operation, so the returned path and length are bit-identical — swapping
a query to the frozen path can never change a result.

The snapshot is immutable by contract: mutating the source roadmap after
freezing (adding/removing vertices or edges) silently invalidates it, so
freeze once per built roadmap and re-freeze after any mutation.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .roadmap import Roadmap

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
        self._row: "dict[int, int]" = {int(v): i for i, v in enumerate(ids.tolist())}
        self.max_id = int(ids.max()) if n else -1
        # Python-list mirrors: the search inner loops index these with
        # plain ints, which is several times faster than NumPy scalar
        # extraction for graphs of a few thousand vertices.
        self._ids_list: "list[int]" = ids.tolist()
        self._indptr_list: "list[int]" = indptr.tolist()
        self._indices_list: "list[int]" = indices.tolist()
        self._weights_list: "list[float]" = weights.tolist()
        # Per-row (neighbour, weight) tuples, prebuilt once so the search
        # inner loop is a single list index plus direct tuple unpacking —
        # no per-pop slicing.  Order is CSR order, i.e. relax order.
        ind, nb, wt = self._indptr_list, self._indices_list, self._weights_list
        self._adj: "list[list[tuple[int, float]]]" = [
            list(zip(nb[ind[i] : ind[i + 1]], wt[ind[i] : ind[i + 1]]))
            for i in range(n)
        ]
        self.comp = self._label_components()
        self._comp_list: "list[int]" = self.comp.tolist()
        self.num_components = int(self.comp.max()) + 1 if n else 0

    # -- construction -------------------------------------------------------
    @classmethod
    def from_roadmap(cls, rmap: Roadmap) -> "FrozenRoadmap":
        """Compile a built roadmap into a frozen snapshot."""
        ids_view, cfgs_view = rmap.configs_array()
        ids = ids_view.copy()
        configs = cfgs_view.copy()
        n = ids.shape[0]
        ids_list = ids.tolist()
        row = {v: i for i, v in enumerate(ids_list)}
        indptr = np.zeros(n + 1, dtype=np.int64)
        for i, vid in enumerate(ids_list):
            indptr[i + 1] = rmap.degree(vid)
        np.cumsum(indptr, out=indptr)
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int64)
        weights = np.empty(nnz, dtype=np.float64)
        pos = 0
        # Rows are visited in row order, so filling is contiguous; within a
        # row, neighbours keep their adjacency-dict insertion order — the
        # order the dict searches relax in.
        for vid in ids_list:
            for v, w in rmap.neighbors(vid).items():
                indices[pos] = row[v]
                weights[pos] = w
                pos += 1
        return cls(rmap.dim, ids, configs, indptr, indices, weights)

    def _label_components(self) -> np.ndarray:
        """Exact dense component labels by BFS over the CSR arrays."""
        n = len(self._ids_list)
        comp = np.full(n, -1, dtype=np.int64)
        labels = comp.tolist()
        indptr, nbrs = self._indptr_list, self._indices_list
        c = 0
        for s in range(n):
            if labels[s] >= 0:
                continue
            labels[s] = c
            frontier = [s]
            while frontier:
                u = frontier.pop()
                for p in range(indptr[u], indptr[u + 1]):
                    v = nbrs[p]
                    if labels[v] < 0:
                        labels[v] = c
                        frontier.append(v)
            c += 1
        comp[:] = labels
        return comp

    # -- introspection ------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._ids_list)

    @property
    def num_edges(self) -> int:
        return len(self._indices_list) // 2

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
