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
    u, v = uv[:, 0], uv[:, 1]
    keys = np.minimum(u, v)
    keys <<= 32
    keys |= np.maximum(u, v)
    return keys


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of every key; one plain sort settles
    the usual batch, whose keys are all distinct."""
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return np.ones(keys.size, dtype=bool)
    first = np.zeros(keys.size, dtype=bool)
    first[np.unique(keys, return_index=True)[1]] = True
    return first


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
        vids = np.asarray(ids, dtype=np.int64)
        if cfgs.shape != (vids.size, self.dim):
            raise ValueError(
                f"configs must have shape ({vids.size}, {self.dim}), got {cfgs.shape}"
            )
        listed = vids.tolist()
        if len(set(listed)) != len(listed) or not self._index.keys().isdisjoint(listed):
            raise KeyError("vertex ids must be new and distinct")
        self._append(vids, cfgs)

    def _append(self, vids: np.ndarray, cfgs: np.ndarray) -> None:
        """Rows for the new, distinct ids ``vids``."""
        lo, k = self._n, vids.size
        self._reserve(k, 0)
        self._ids[lo : lo + k] = vids
        self._cfgs[lo : lo + k] = cfgs
        self._deg[lo : lo + k] = 0
        self._index.update(zip(vids.tolist(), range(lo, lo + k)))
        if k:
            self._next_id = max(self._next_id, int(vids.max()) + 1)
        self._n, self._csr = lo + k, None

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
        but for those already edges or repeated in the batch; returns the
        mask."""
        k, m = w.size, self._m
        self._reserve(0, k)
        self._uv[m : m + k] = uv
        self._w[m : m + k] = w
        return self._commit(k)

    def _commit(self, k: int) -> np.ndarray:
        """Enter the ``k`` row pairs staged (with their weights) just past
        the end of the log, in order but for those already edges or
        repeated among them, which are compacted away; returns the mask of
        those entered.  Only a pair of rows that both have edges can
        already be an edge, so only those ask the duplicate index (caught
        up first)."""
        m = self._m
        uv, w = self._uv[m : m + k], self._w[m : m + k]
        keys = _keys_of(uv)
        fresh = _first_occurrences(keys)
        deg = self._deg
        asks = np.flatnonzero(fresh & (deg[uv[:, 0]] > 0) & (deg[uv[:, 1]] > 0))
        if asks.size:
            self._fold()
            probe = keys[asks]
            for run, _pos in self._runs:
                if run.size:
                    found = run[np.minimum(run.searchsorted(probe), run.size - 1)] == probe
                    fresh[asks[found]] = False
        del keys
        if not fresh.all():
            kept = np.flatnonzero(fresh)
            k = kept.size
            uv[:k], w[:k] = uv[kept], w[kept]
        self._live[m : m + k] = True
        self._m = m + k
        deg[: self._n] += np.bincount(uv[:k].ravel(), minlength=self._n)
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
        keys = _keys_of(self._uv[lo:m] if pos.size == m - lo else self._uv[pos])
        while self._runs and self._runs[-1][0].size <= 2 * keys.size:
            run, at = self._runs.pop()
            keys, pos = np.concatenate((run, keys)), np.concatenate((at, pos))
            del run, at  # not held through the sort
        order = np.argsort(keys)
        keys = keys[order]
        self._runs.append((keys, pos[order]))
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
    def merge(self, *parts: "Roadmap | PRMBlock") -> None:
        """Graph union of every part — a roadmap, or a
        :class:`~repro.planners.prm.PRMBlock` of regional roadmaps side by
        side — into self, in one pass: one vertex append, one edge append.

        Leaves exactly the state of merging the parts one after the other
        (``tests/oracle.py::merge_one_by_one``): per part, its missing
        vertices appended in its row order, then an :meth:`add_edge` loop
        over its edges in :meth:`edges` order (lower id first).  An id held
        by self or by an earlier part is adopted when its configuration is
        the same to the last bit.  A clash in *any* part raises
        ``ValueError`` before anything is inserted — stricter than merging
        part by part, which would keep the parts before the clashing one.
        """
        arrays = [part.configs_array() for part in parts]
        if any(cfgs.shape[1] != self.dim for _ids, cfgs in arrays):
            raise ValueError("cannot merge roadmaps of different dimension")
        if not arrays:
            return
        ids = np.concatenate([vids for vids, _cfgs in arrays]).astype(np.int64, copy=False)
        rows = self._adopt(ids, np.concatenate([cfgs for _ids, cfgs in arrays]))
        self._commit(self._stage(ids, rows, [vids.size for vids, _cfgs in arrays], parts))

    def _stage(self, ids: np.ndarray, rows: np.ndarray, sizes: "list[int]", parts) -> int:
        """Stage every part's edges just past the end of the log, as rows
        and weights in the order merging the parts one by one appends
        them; returns how many.  ``ids`` / ``rows`` are the parts' vertices
        side by side (``sizes`` per part) and the rows they landed on.

        Each edge is taken as (lower id, higher id) batch positions and
        ordered by the lower endpoint's position, log order within: part
        after part, each in its :meth:`edges` order.  With the position in
        the high bits and the edge's index in the low ones, a plain sort
        is that stable sort.  The log's own storage holds the batch, so the
        temporaries are a few columns."""
        edge_parts = [part.edge_rows() for part in parts]
        counts = [pw.size for _uv, pw in edge_parts]
        k, m = sum(counts), self._m
        self._reserve(0, k)
        uv, w = self._uv[m : m + k], self._w[m : m + k]
        np.concatenate([puv for puv, _w in edge_parts], out=uv)
        np.concatenate([pw for _uv, pw in edge_parts], out=w)
        uv += np.repeat(np.cumsum([0] + sizes[:-1]), counts)[:, None]
        u, v = uv[:, 0], uv[:, 1]
        lo = np.where(ids[u] > ids[v], v, u)
        v += u
        v -= lo  # the higher-id endpoint
        order = lo << 32
        order |= np.arange(k)
        order.sort()
        order &= 0xFFFFFFFF
        u[:] = rows[lo[order]]
        del lo
        v[:] = rows[v[order]]
        w[:] = w[order]
        return k

    def _adopt(self, ids: np.ndarray, cfgs: np.ndarray) -> np.ndarray:
        """Every batch vertex's row: the one self holds, else the row its
        first occurrence is appended at, appending in batch order.  Every
        other occurrence must carry the bits its row holds, or
        ``ValueError`` is raised before anything is appended."""
        cfgs = cfgs.astype(float, copy=False)
        uniq, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        if self._n:
            held = np.fromiter(map(self._index.get, uniq.tolist(), repeat(-1)),
                               dtype=np.int64, count=uniq.size)
        else:
            held = np.full(uniq.size, -1, dtype=np.int64)
        new = held < 0
        appends = np.zeros(ids.size, dtype=bool)
        appends[first[new]] = True
        held[new] = self._n + (np.cumsum(appends) - 1)[first[new]]
        rows = held[inverse]
        again = np.flatnonzero(~appends)
        want = cfgs[first[inverse[again]]]
        old = rows[again] < self._n
        want[old] = self._cfgs[rows[again][old]]
        clash = (want.view(np.int64) != cfgs[again].view(np.int64)).any(axis=1)
        if clash.any():
            vid = ids[again[clash.argmax()]]
            raise ValueError(f"vertex id clash with different configs: {vid}")
        appended = np.flatnonzero(appends)
        self._append(ids[appended], cfgs[appended])
        return rows

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
