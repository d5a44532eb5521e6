"""Roadmap graph: the data structure PRM and RRT build.

Flat arrays over vertex rows (insertion order): ids, configurations
(the layout of :class:`repro.knn.brute.BruteForceNN`) and degrees; an
append-only edge log of ``(u_row, v_row)`` pairs, weights and a live
mask.  Everything else is derived from those and caught up only when
asked: a duplicate index of sorted ``min_row << 32 | max_row`` keys, and
the CSR.  :meth:`Roadmap.csr` stable-sorts the live log by row, which
keeps each row's neighbours in insertion order (the order searches relax
them in); a frozen snapshot serves from those very arrays, and
:meth:`Roadmap.connected_components` labels rows by BFS over them.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .prm import PRMBlock

__all__ = ["Roadmap"]

_INITIAL_CAPACITY = 64


def _keys_of(uv: np.ndarray) -> np.ndarray:
    """Packed undirected keys ``min_row << 32 | max_row`` of ``(k, 2)`` row pairs."""
    return (uv.min(axis=1) << 32) | uv.max(axis=1)


def _grown(arr: np.ndarray, used: int, need: int) -> np.ndarray:
    """A copy of ``arr``'s first ``used`` rows with room for ``need``."""
    out = np.empty((max(need, 2 * arr.shape[0]),) + arr.shape[1:], dtype=arr.dtype)
    out[:used] = arr[:used]
    return out


def _component_labels(indptr: "list[int]", indices: "list[int]") -> "list[int]":
    """Component label of every row of a CSR graph, by BFS in row order."""
    labels, c = [-1] * (len(indptr) - 1), 0
    for s in range(len(labels)):
        if labels[s] >= 0:
            continue
        labels[s] = c
        frontier = [s]
        while frontier:
            u = frontier.pop()
            for v in indices[indptr[u] : indptr[u + 1]]:
                if labels[v] < 0:
                    labels[v] = c
                    frontier.append(v)
        c += 1
    return labels


class Roadmap:
    """Undirected graph of configurations.

    Vertex ids are non-negative integers.  By default they are assigned
    sequentially, but callers may supply explicit ids (the distributed
    planners use globally unique ids of the form ``region_id << 32 | local``).
    """

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self._ids = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._cfgs = np.empty((_INITIAL_CAPACITY, dim))
        self._deg = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._index: dict[int, int] = {}
        self._uv = np.empty((_INITIAL_CAPACITY, 2), dtype=np.int64)
        self._w = np.empty(_INITIAL_CAPACITY)
        self._live = np.empty(_INITIAL_CAPACITY, dtype=bool)
        self._runs: "list[tuple[np.ndarray, np.ndarray]]" = []  # sorted keys, log positions
        self._n = self._next_id = self._m = self.num_edges = self._indexed = 0
        self._csr: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None

    # -- vertices ---------------------------------------------------------
    def add_vertex(self, config: np.ndarray, vid: int | None = None) -> int:
        cfg = np.asarray(config, dtype=float)
        if cfg.shape != (self.dim,):
            raise ValueError(f"config must have shape ({self.dim},), got {cfg.shape}")
        if vid is None:
            vid = self._next_id
        if vid in self._index:
            raise KeyError(f"vertex {vid} already exists")
        row = self._n
        self._reserve(1, 0)
        self._ids[row], self._cfgs[row], self._deg[row] = vid, cfg, 0
        self._index[vid] = row
        self._next_id = max(self._next_id, vid + 1)
        self._n, self._csr = row + 1, None
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
        if len(set(vids)) != len(vids) or not self._index.keys().isdisjoint(vids):
            raise KeyError("vertex ids must be new and distinct")
        self._append(vids, cfgs)

    def _append(self, vids: "list[int]", cfgs: np.ndarray) -> int:
        """Rows for the new, distinct ids ``vids``; returns the first."""
        lo, k = self._n, len(vids)
        self._reserve(k, 0)
        self._ids[lo : lo + k] = vids
        self._cfgs[lo : lo + k] = cfgs
        self._deg[lo : lo + k] = 0
        self._index.update(zip(vids, range(lo, lo + k)))
        self._next_id = max(self._next_id, max(vids, default=-1) + 1)
        self._n, self._csr = lo + k, None
        return lo

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

        When ``weight`` is omitted it is the Euclidean distance between
        the endpoints; the planners pass their own.
        """
        if u == v:
            raise ValueError("self-loops are not allowed in a roadmap")
        a, b = self._index.get(u), self._index.get(v)
        if a is None or b is None:
            raise KeyError(f"edge ({u},{v}) references missing vertex")
        if self._find(a, b) >= 0:
            return False
        if weight is None:
            w = float(np.linalg.norm(self._cfgs[a] - self._cfgs[b]))
        else:
            w = float(weight)
        m = self._m
        self._reserve(0, 1)
        self._uv[m], self._w[m], self._live[m] = (a, b), w, True
        self._m = m + 1
        self._deg[a] += 1
        self._deg[b] += 1
        self.num_edges += 1
        self._csr = None
        return True

    def add_edges(self, u: np.ndarray, v: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Insert many weighted undirected edges in order; leaves the
        roadmap in the state an :meth:`add_edge` loop would (adjacency
        and log order included).  Returns the boolean mask of edges
        actually inserted — one that already exists is skipped, as
        :meth:`add_edge` returning False.  Self-loops and missing
        endpoints raise before anything is inserted."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(weights, dtype=float)
        if u.ndim != 1 or not u.shape == v.shape == w.shape:
            raise ValueError("u, v and weights must be 1-D and of equal length")
        if np.any(u == v):
            raise ValueError("self-loops are not allowed in a roadmap")
        try:
            rows = np.fromiter(map(self._index.__getitem__, np.concatenate((u, v)).tolist()),
                               dtype=np.int64, count=2 * u.size)
        except KeyError as exc:
            raise KeyError(f"an edge references missing vertex {exc.args[0]}") from None
        return self._insert(rows.reshape(2, -1).T, w)

    def _reserve(self, vertices: int, edges: int) -> None:
        """Room for that many more rows and log entries (amortised doubling)."""
        n, m = self._n, self._m
        if n + vertices > self._ids.shape[0]:
            self._ids, self._cfgs, self._deg = (
                _grown(a, n, n + vertices) for a in (self._ids, self._cfgs, self._deg))
        if m + edges > self._w.shape[0]:
            self._uv, self._w, self._live = (
                _grown(a, m, m + edges) for a in (self._uv, self._w, self._live))

    def _insert(self, uv: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Append the row pairs ``uv`` (weights ``w``) to the log in order
        but for those already edges or repeated in the batch — one
        membership test; returns the mask."""
        keys = _keys_of(uv)
        self._fold()
        fresh = np.zeros(keys.size, dtype=bool)
        fresh[np.unique(keys, return_index=True)[1]] = True
        for run, _pos in self._runs:
            if run.size:
                fresh &= run[np.minimum(run.searchsorted(keys), run.size - 1)] != keys
        uv, w = uv[fresh], w[fresh]
        m, k = self._m, w.size
        self._reserve(0, k)
        self._uv[m : m + k] = uv
        self._w[m : m + k] = w
        self._live[m : m + k] = True
        self._m = m + k
        np.add.at(self._deg, uv.ravel(), 1)
        self.num_edges += k
        self._csr = None
        return fresh

    def _fold(self) -> None:
        """Bring the duplicate index up to the end of the log: the new live
        entries become a sorted run, merged with each last run up to twice its size."""
        lo, m = self._indexed, self._m
        if lo == m:
            return
        pos = lo + np.flatnonzero(self._live[lo:m])
        keys = _keys_of(self._uv[pos])
        while self._runs and self._runs[-1][0].size <= 2 * keys.size:
            run, at = self._runs.pop()
            keys, pos = np.concatenate((run, keys)), np.concatenate((at, pos))
        order = np.argsort(keys)
        self._runs.append((keys[order], pos[order]))
        self._indexed = m

    def _find(self, a: int, b: int) -> int:
        """Log position of the edge between rows ``a`` and ``b``, or -1; a
        degree of 0 settles a miss before the duplicate index is asked."""
        if self._deg[a] == 0 or self._deg[b] == 0:
            return -1
        self._fold()
        key = a << 32 | b if a < b else b << 32 | a
        for run, pos in self._runs:
            i = int(run.searchsorted(key))
            if i < run.size and run[i] == key:
                return int(pos[i])
        return -1

    def _edge(self, u: int, v: int) -> int:
        """Log position of edge ``(u, v)``; KeyError when there is none."""
        a, b = self._index.get(u), self._index.get(v)
        e = -1 if a is None or b is None or a == b else self._find(a, b)
        if e < 0:
            raise KeyError(f"edge ({u},{v}) does not exist")
        return e

    def has_edge(self, u: int, v: int) -> bool:
        a, b = self._index.get(u), self._index.get(v)
        return a is not None and b is not None and a != b and self._find(a, b) >= 0

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``; KeyError when there is none."""
        return float(self._w[self._edge(u, v)])

    def remove_edge(self, u: int, v: int) -> None:
        """Delete an undirected edge (its log entry goes dead)."""
        e = self._edge(u, v)
        self._runs = [(run[pos != e], pos[pos != e]) for run, pos in self._runs]
        self._live[e] = False
        self._deg[self._uv[e]] -= 1
        self.num_edges -= 1
        self._csr = None

    def edge_rows(self) -> "tuple[np.ndarray, np.ndarray]":
        """The live edges as ``(uv, w)``: ``(k, 2)`` rows and weights, in insertion order."""
        live = self._live[: self._m]
        return self._uv[: self._m][live], self._w[: self._m][live]

    def csr(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Adjacency as compressed sparse rows ``(indptr, indices, weights)``:
        row ``i``'s neighbour rows and weights at ``indptr[i]:indptr[i + 1]``
        in insertion order.  One stable sort of the live log by row, cached
        until the next change; read-only, shared with every caller."""
        if self._csr is None:
            uv, w = self.edge_rows()
            order = np.argsort(uv.ravel(), kind="stable")
            indptr = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum(self._deg[: self._n], out=indptr[1:])
            self._csr = (indptr, uv[:, ::-1].ravel()[order], np.repeat(w, 2)[order])
            for arr in self._csr:
                arr.flags.writeable = False
        return self._csr

    def neighbors(self, vid: int) -> "dict[int, float]":
        """``vid``'s neighbours and edge weights in insertion order (a fresh dict)."""
        indptr, indices, weights = self.csr()
        row = self._index[vid]
        lo, hi = indptr[row], indptr[row + 1]
        return dict(zip(self._ids[indices[lo:hi]].tolist(), weights[lo:hi].tolist()))

    def degree(self, vid: int) -> int:
        return int(self._deg[self._index[vid]])

    def edges(self):
        """Iterate undirected edges once, as ``(u, v, weight)`` with
        ``u < v``: by the row of ``u``, then in insertion order."""
        indptr, indices, weights = self.csr()
        ids = self._ids[: self._n]
        u, v = np.repeat(ids, np.diff(indptr)), ids[indices]
        once = np.flatnonzero(u < v)
        for lo in range(0, once.size, 4096):  # a few Python objects at a time
            part = once[lo : lo + 4096]
            yield from zip(u[part].tolist(), v[part].tolist(), weights[part].tolist())

    # -- components ------------------------------------------------------------
    def connected_components(self) -> "list[set[int]]":
        """Exact connected components, by BFS over the CSR."""
        indptr, indices, _w = self.csr()
        labels = _component_labels(indptr.tolist(), indices.tolist())
        comps: "list[set[int]]" = [set() for _ in range(max(labels, default=-1) + 1)]
        for vid, c in zip(self._ids[: self._n].tolist(), labels):
            comps[c].add(vid)
        return comps

    # -- merging (used to stitch regional roadmaps into one) -------------------
    def merge(self, other: "Roadmap | PRMBlock") -> None:
        """Graph union of ``other`` (a roadmap, or a
        :class:`~repro.planners.prm.PRMBlock` of regional roadmaps side by
        side, id ranges ascending) into self; vertex ids must be disjoint or
        refer to identical configurations.  Leaves the state of appending
        the missing vertices in ``other``'s row order, then an
        :meth:`add_edge` loop over ``other``'s edges in :meth:`edges` order
        (lower id first) — in one membership test."""
        ids, cfgs = other.configs_array()
        if cfgs.shape[1] != self.dim:
            raise ValueError("cannot merge roadmaps of different dimension")
        vids = ids.tolist()
        rows = np.fromiter(map(self._index.get, vids, repeat(-1)), dtype=np.int64, count=len(vids))
        shared = np.flatnonzero(rows >= 0)
        held = self._cfgs[rows[shared]].view(np.int64)
        clash = (held != np.asarray(cfgs[shared], dtype=float).view(np.int64)).any(axis=1)
        if clash.any():
            raise ValueError(f"vertex id clash with different configs: {vids[shared[clash.argmax()]]}")
        fresh = np.flatnonzero(rows < 0)
        rows[fresh] = self._append(ids[fresh].tolist(), cfgs[fresh]) + np.arange(fresh.size)
        uv, w = other.edge_rows()
        flip = ids[uv[:, 0]] > ids[uv[:, 1]]
        uv[flip] = uv[flip, ::-1]
        order = np.argsort(uv[:, 0], kind="stable")
        self._insert(rows[uv[order]], w[order])

    # -- temporary vertices ----------------------------------------------------
    @contextmanager
    def transient(self):
        """A block whose changes are undone on exit — rows, edge log, next
        id and the index cursor rewind to a mark taken on entry — for
        temporary vertices such as a query's start and goal."""
        # The mark keeps a caught-up index, so later blocks start from it.
        self._fold()
        mark = (self._n, self._m, self._next_id, self.num_edges, self._runs[:],
                self._indexed, self._csr)
        deg, live = self._deg[: self._n].copy(), self._live[: self._m].copy()
        try:
            yield self
        finally:
            for vid in self._ids[mark[0] : self._n].tolist():
                del self._index[vid]
            (self._n, self._m, self._next_id, self.num_edges, self._runs,
             self._indexed, self._csr) = mark
            self._deg[: self._n], self._live[: self._m] = deg, live

    # -- freezing -----------------------------------------------------------
    def freeze(self):
        """Compile this roadmap into a :class:`~repro.planners.frozen.FrozenRoadmap`
        CSR snapshot for amortised query serving.  The snapshot does not
        track later mutations — re-freeze after changing the roadmap."""
        from .frozen import FrozenRoadmap

        return FrozenRoadmap.from_roadmap(self)

    # -- paths --------------------------------------------------------------
    def path_length(self, path: "list[int]") -> float:
        return sum((self.weight(u, v) for u, v in zip(path, path[1:])), 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Roadmap(|V|={self.num_vertices}, |E|={self.num_edges})"
