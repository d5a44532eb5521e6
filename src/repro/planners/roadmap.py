"""Roadmap graph: the data structure PRM and RRT build.

A small, dependency-free adjacency-list graph specialised for motion
planning: vertices carry configurations, edges carry C-space lengths, and
connected components are tracked incrementally with a union-find so that
"would this edge merge two components?" — the question PRM connection
strategies ask constantly — is O(α(n)).

Configurations live in one contiguous, amortised-growth NumPy array (the
same layout as :class:`repro.knn.brute.BruteForceNN`), so
:meth:`Roadmap.configs_array` is O(1) and batched accessors like
:meth:`Roadmap.configs_of` feed the vectorised local planner directly —
roadmap construction is the hot path of the whole computation
(paper Sec. III-B).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .prm import PRMBlock

__all__ = ["Roadmap", "UnionFind"]

_INITIAL_CAPACITY = 64


class UnionFind:
    """Array-based union-find with path compression and union by rank.

    Arbitrary hashable keys are interned once into dense slots; parent and
    rank live in flat lists indexed by slot, which beats per-element dict
    storage for the millions of tiny find/union operations roadmap
    construction performs.
    """

    __slots__ = ("_slot", "_key", "_parent", "_rank", "num_sets")

    def __init__(self) -> None:
        self._slot: dict[int, int] = {}
        self._key: list[int] = []
        self._parent: list[int] = []
        self._rank: list[int] = []
        self.num_sets = 0

    def make_set(self, x: int) -> None:
        if x in self._slot:
            return
        s = len(self._parent)
        self._slot[x] = s
        self._key.append(x)
        self._parent.append(s)
        self._rank.append(0)
        self.num_sets += 1

    def _find_slot(self, s: int) -> int:
        parent = self._parent
        root = s
        while parent[root] != root:
            root = parent[root]
        while parent[s] != root:
            parent[s], s = root, parent[s]
        return root

    def find(self, x: int) -> int:
        """Representative key of the set containing ``x``."""
        return self._key[self._find_slot(self._slot[x])]

    def root_slot(self, x: int) -> int:
        """Dense slot index of ``x``'s representative — one find instead of
        the two a ``same_set`` costs, for callers comparing many elements
        against a fixed set.  Stable only until the next union."""
        return self._find_slot(self._slot[x])

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; returns True if they were distinct."""
        ra = self._find_slot(self._slot[a])
        rb = self._find_slot(self._slot[b])
        if ra == rb:
            return False
        rank = self._rank
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if rank[ra] == rank[rb]:
            rank[ra] += 1
        self.num_sets -= 1
        return True

    def same_set(self, a: int, b: int) -> bool:
        return self._find_slot(self._slot[a]) == self._find_slot(self._slot[b])

    def __contains__(self, x: int) -> bool:
        return x in self._slot


class Roadmap:
    """Undirected graph of configurations.

    Vertex ids are non-negative integers.  By default they are assigned
    sequentially, but callers may supply explicit ids (the distributed
    planners use globally unique ids of the form ``region_id << 32 | local``).

    ``metric`` (optional) supplies the edge weight when :meth:`add_edge` is
    called without one.  The default is the raw Euclidean norm, which is
    **wrong for C-spaces with topology** (e.g. SO(2) wraparound); planners
    in this repo therefore always pass explicit weights computed by their
    configuration space, and callers on non-Euclidean spaces should either
    do the same or pass ``metric=cspace.distance`` here.
    """

    def __init__(self, dim: int, metric: "Callable[[np.ndarray, np.ndarray], float] | None" = None):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.metric = metric
        self._ids = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._cfgs = np.empty((_INITIAL_CAPACITY, dim))
        self._n = 0
        self._index: dict[int, int] = {}
        self._adj: dict[int, dict[int, float]] = {}
        self._next_id = 0
        self._uf = UnionFind()
        self.num_edges = 0

    def _ensure_capacity(self, extra: int) -> None:
        need = self._n + extra
        cap = self._cfgs.shape[0]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)
        cfgs = np.empty((new_cap, self.dim))
        cfgs[: self._n] = self._cfgs[: self._n]
        ids = np.empty(new_cap, dtype=np.int64)
        ids[: self._n] = self._ids[: self._n]
        self._cfgs, self._ids = cfgs, ids

    # -- vertices ---------------------------------------------------------
    def add_vertex(self, config: np.ndarray, vid: int | None = None) -> int:
        cfg = np.asarray(config, dtype=float)
        if cfg.shape != (self.dim,):
            raise ValueError(f"config must have shape ({self.dim},), got {cfg.shape}")
        if vid is None:
            vid = self._next_id
        if vid in self._index:
            raise KeyError(f"vertex {vid} already exists")
        self._next_id = max(self._next_id, vid + 1)
        self._ensure_capacity(1)
        row = self._n
        self._cfgs[row] = cfg
        self._ids[row] = vid
        self._index[vid] = row
        self._n = row + 1
        self._adj[vid] = {}
        self._uf.make_set(vid)
        return vid

    def add_vertices(self, ids: np.ndarray, configs: np.ndarray) -> None:
        """Insert many vertices with explicit ids; leaves the roadmap in
        the state an :meth:`add_vertex` loop over the rows would.  A
        duplicate id raises ``KeyError`` before anything is inserted."""
        cfgs = np.asarray(configs, dtype=float)
        vids = np.asarray(ids, dtype=np.int64).tolist()
        if cfgs.shape != (len(vids), self.dim):
            raise ValueError(
                f"configs must have shape ({len(vids)}, {self.dim}), got {cfgs.shape}"
            )
        if not vids:
            return
        index = self._index
        if len(set(vids)) != len(vids) or not index.keys().isdisjoint(vids):
            raise KeyError("vertex ids must be new and distinct")
        lo = self._n
        self._ensure_capacity(len(vids))
        self._cfgs[lo : lo + len(vids)] = cfgs
        self._ids[lo : lo + len(vids)] = vids
        index.update(zip(vids, range(lo, lo + len(vids))))
        self._adj.update((vid, {}) for vid in vids)
        make_set = self._uf.make_set
        for vid in vids:
            make_set(vid)
        self._next_id = max(self._next_id, max(vids) + 1)
        self._n = lo + len(vids)

    def config(self, vid: int) -> np.ndarray:
        """The configuration of ``vid`` (a read-view into shared storage)."""
        return self._cfgs[self._index[vid]]

    def configs_of(self, vids) -> np.ndarray:
        """Configurations of many vertices as one ``(len(vids), dim)`` array."""
        index = self._index
        rows = [index[v] for v in vids]
        if not rows:
            return np.empty((0, self.dim))
        return self._cfgs[rows]

    def remove_vertex(self, vid: int) -> None:
        """Delete a vertex and its incident edges.

        O(degree) via swap-with-last storage removal (insertion order of
        the *last-added* vertex changes).  Like :meth:`remove_edge`,
        union-find component tracking is not rewound — callers needing
        exact components afterwards should use
        :meth:`connected_components`.
        """
        row = self._index.pop(vid, None)
        if row is None:
            raise KeyError(f"vertex {vid} does not exist")
        for nbr in self._adj.pop(vid):
            del self._adj[nbr][vid]
            self.num_edges -= 1
        last = self._n - 1
        if row != last:
            self._cfgs[row] = self._cfgs[last]
            moved = int(self._ids[last])
            self._ids[row] = moved
            self._index[moved] = row
        self._n = last

    def has_vertex(self, vid: int) -> bool:
        return vid in self._index

    @property
    def num_vertices(self) -> int:
        return self._n

    def vertices(self):
        """All vertex ids in insertion order."""
        return self._ids[: self._n]

    def configs_array(self) -> "tuple[np.ndarray, np.ndarray]":
        """All vertex ids and configurations as arrays (stable order, O(1)).

        Returns views of the internal storage; treat them as read-only
        snapshots (they stay valid — but stop tracking — if the roadmap
        grows afterwards).
        """
        return self._ids[: self._n], self._cfgs[: self._n]

    # -- edges --------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float | None = None) -> bool:
        """Insert undirected edge; returns False if it already existed.

        When ``weight`` is omitted it comes from the roadmap's ``metric``
        (default: Euclidean norm — see the class docstring for the
        topology caveat).
        """
        if u == v:
            raise ValueError("self-loops are not allowed in a roadmap")
        if u not in self._index or v not in self._index:
            raise KeyError(f"edge ({u},{v}) references missing vertex")
        if v in self._adj[u]:
            return False
        if weight is None:
            cu, cv = self._cfgs[self._index[u]], self._cfgs[self._index[v]]
            w = float(self.metric(cu, cv)) if self.metric is not None else float(np.linalg.norm(cu - cv))
        else:
            w = float(weight)
        self._adj[u][v] = w
        self._adj[v][u] = w
        self._uf.union(u, v)
        self.num_edges += 1
        return True

    def add_edges(self, u: np.ndarray, v: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Insert many weighted undirected edges in order; leaves the
        roadmap in the state an :meth:`add_edge` loop would (adjacency
        insertion order and union order included).  Returns the boolean
        mask of edges actually inserted — one that already exists is
        skipped, as :meth:`add_edge` returning False.  Self-loops and
        missing endpoints raise before anything is inserted."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        ws = np.asarray(weights, dtype=float).tolist()
        if not u.shape == v.shape == (len(ws),):
            raise ValueError("u, v and weights must be 1-D and of equal length")
        if np.any(u == v):
            raise ValueError("self-loops are not allowed in a roadmap")
        # Endpoints become the vertices' own id objects (interned by the
        # union-find), so an edge keeps no integer of its own alive.
        slot, key = self._uf._slot, self._uf._key
        try:
            us = [key[slot[a]] for a in u.tolist()]
            vs = [key[slot[b]] for b in v.tolist()]
        except KeyError as exc:
            raise KeyError(f"an edge references missing vertex {exc.args[0]}") from None
        adj, union = self._adj, self._uf.union
        added = np.ones(len(us), dtype=bool)
        for i, (a, b, w) in enumerate(zip(us, vs, ws)):
            row = adj[a]
            if b in row:
                added[i] = False
                continue
            row[b] = w
            adj[b][a] = w
            union(a, b)
        self.num_edges += int(np.count_nonzero(added))
        return added

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def remove_edge(self, u: int, v: int) -> None:
        """Delete an undirected edge (component tracking is rebuilt lazily:
        union-find does not support splits, so callers needing exact
        components after removal should use :meth:`connected_components`)."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u},{v}) does not exist")
        del self._adj[u][v]
        del self._adj[v][u]
        self.num_edges -= 1

    def neighbors(self, vid: int) -> "dict[int, float]":
        return self._adj[vid]

    def degree(self, vid: int) -> int:
        return len(self._adj[vid])

    def edges(self):
        """Iterate undirected edges once, as (u, v, weight) with u < v."""
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u < v:
                    yield u, v, w

    # -- components ------------------------------------------------------------
    def same_component(self, u: int, v: int) -> bool:
        """Fast, union-find-based check (exact as long as no edges were removed)."""
        return self._uf.same_set(u, v)

    def component_id(self, vid: int) -> int:
        """Representative vertex id of ``vid``'s component (union-find root).

        Stable only until the next union; use for transient grouping, not
        as a persistent label.
        """
        return self._uf.find(vid)

    def component_slot(self, vid: int) -> int:
        """Opaque dense label of ``vid``'s component — equality-comparable
        like :meth:`component_id` but cheaper on the hot path.  Stable
        only until the next edge insertion."""
        return self._uf.root_slot(vid)

    @property
    def num_components_fast(self) -> int:
        return self._uf.num_sets

    def connected_components(self) -> "list[set[int]]":
        """Exact connected components by BFS (robust to edge removals)."""
        seen: set[int] = set()
        comps: list[set[int]] = []
        for start in self._adj:
            if start in seen:
                continue
            comp = {start}
            frontier = [start]
            while frontier:
                u = frontier.pop()
                for v in self._adj[u]:
                    if v not in comp:
                        comp.add(v)
                        frontier.append(v)
            seen |= comp
            comps.append(comp)
        return comps

    # -- merging (used to stitch regional roadmaps into one) -------------------
    def merge(self, other: "Roadmap | PRMBlock") -> None:
        """Graph union of ``other`` into self; vertex ids must be disjoint
        or refer to identical configurations.

        A :class:`~repro.planners.prm.PRMBlock` (regional roadmaps side by
        side in flat arrays, new to this roadmap, segment id ranges
        ascending) merges as the roadmaps it holds would one after the
        other — same rows, same adjacency insertion order, same union-find
        forest — through one :meth:`add_vertices` and one :meth:`add_edges`.
        """
        if not isinstance(other, Roadmap):
            if other.configs.shape[1] != self.dim:
                raise ValueError("cannot merge roadmaps of different dimension")
            self.add_vertices(other.ids, other.configs)
            # A regional roadmap's edges replay as (min id, max id) in that
            # order; a block's ``u`` is always the newer, larger id.
            u, v, w = other.edges
            order = np.lexsort((u, v))
            self.add_edges(v[order], u[order], w[order])
            return
        if other.dim != self.dim:
            raise ValueError("cannot merge roadmaps of different dimension")
        o_ids = other._ids[: other._n]
        o_cfgs = other._cfgs[: other._n]
        fresh_rows: "list[int]" = []
        for i in range(other._n):
            vid = int(o_ids[i])
            row = self._index.get(vid)
            if row is not None:
                if not np.allclose(self._cfgs[row], o_cfgs[i]):
                    raise ValueError(f"vertex id clash with different configs: {vid}")
            else:
                fresh_rows.append(i)
        if fresh_rows:
            self._ensure_capacity(len(fresh_rows))
            dst = self._n
            self._cfgs[dst : dst + len(fresh_rows)] = o_cfgs[fresh_rows]
            self._ids[dst : dst + len(fresh_rows)] = o_ids[fresh_rows]
            for i in fresh_rows:
                vid = int(o_ids[i])
                self._index[vid] = dst
                dst += 1
                self._adj[vid] = {}
                self._uf.make_set(vid)
                self._next_id = max(self._next_id, vid + 1)
            self._n = dst
        for u, v, w in other.edges():
            self.add_edge(u, v, w)

    # -- freezing -----------------------------------------------------------
    def freeze(self):
        """Compile this roadmap into a :class:`~repro.planners.frozen.FrozenRoadmap`
        CSR snapshot for amortised query serving.  The snapshot does not
        track later mutations — re-freeze after changing the roadmap."""
        from .frozen import FrozenRoadmap

        return FrozenRoadmap.from_roadmap(self)

    # -- paths --------------------------------------------------------------
    def path_length(self, path: "list[int]") -> float:
        total = 0.0
        for u, v in zip(path, path[1:]):
            if not self.has_edge(u, v):
                raise KeyError(f"path uses missing edge ({u},{v})")
            total += self._adj[u][v]
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Roadmap(|V|={self.num_vertices}, |E|={self.num_edges})"
