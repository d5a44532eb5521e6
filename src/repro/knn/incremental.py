"""Incremental nearest neighbours for growing point sets.

RRT grows its tree one vertex at a time and queries the structure between
every insertion, which rules out both a static kd-tree (stale after one
insert) and a brute-force scan (O(n) per query makes the build O(n²) in
distance evaluations).  This module is the classic logarithmic-rebuild
answer (Bentley & Saxe's static-to-dynamic transformation): a *ladder* of
frozen kd-trees of geometrically growing sizes plus a small brute-force
buffer.

* **Inserts** append to the buffer (O(1)).  When the buffer reaches
  capacity ``B``, its points merge with every occupied rung below the
  first empty rung ``j`` into one freshly built kd-tree of ``B·2^j``
  points — rung sizes follow the bits of ``n // B``, so each point is
  rebuilt O(log n) times and the amortised insert cost is O(log² n).
* **Queries** probe every occupied rung (a :class:`KDTreeNN` descent
  each) plus the buffer (one vectorised scan of ≤ ``B`` rows) and merge
  the candidates under the canonical ``(distance, insertion order)``
  key.

Because rungs always absorb the buffer together with every rung below
them, each rung covers a *contiguous* range of insertion slots, with
higher rungs holding older points — the merge step is a slice, never a
gather.

Two properties make it a drop-in for :class:`~repro.knn.brute
.BruteForceNN` (the contract every backend in this package shares):

* **Canonical tie-breaking** — candidates merge by ``(distance,
  insertion slot)``.  Rung kd-trees are built with ids equal to global
  insertion slots inserted in ascending order, so their internal
  insertion-sequence tie-break *is* the global insertion order; the
  buffer scan indexes by slot directly.
* **Bit-identical distances** — rung descents accumulate squared
  per-axis differences left to right in Python floats
  (:class:`KDTreeNN`'s arithmetic) and the buffer scan is a row-wise
  ``np.linalg.norm`` over a slice of the stored array, both of which
  match BruteForceNN's full-scan values bit for bit.

The structure's :class:`~repro.knn.base.KnnStats` additionally count
``rebuilds`` (rung merges), ``buffer_hits`` (returned neighbours that
were still sitting in the brute buffer) and ``evals_saved`` (distance
evaluations a brute-force scan would have spent minus what the ladder
actually spent) — surfaced as planner counters.
"""

from __future__ import annotations

import numpy as np

from .base import NeighborFinder
from .kdtree import KDTreeNN

__all__ = ["IncrementalNN"]

#: Default brute-buffer capacity.  Large enough that rebuilds are rare
#: and the rung count stays small, small enough that the vectorised
#: buffer scan is cheap next to a rung descent (the best measured
#: growing-stream throughput at 10^4-10^5 points; see docs/nn.md).
_DEFAULT_BUFFER = 128

_INITIAL_CAPACITY = 64


class IncrementalNN(NeighborFinder):
    """Logarithmic-rebuild kd-tree forest over ``dim``-dimensional points.

    Every distance here is exact float64.  ``buffer_capacity`` is the
    brute-buffer size ``B`` (rung ``j`` holds ``B·2^j`` points).
    """

    def __init__(self, dim: int, buffer_capacity: int = _DEFAULT_BUFFER):
        super().__init__()
        if dim <= 0:
            raise ValueError("dim must be positive")
        if buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        self.dim = dim
        self.buffer_capacity = buffer_capacity
        # Global insertion-order store (amortised growth, like BruteForceNN):
        # slot index == insertion sequence number, the canonical tie-break.
        self._points = np.empty((_INITIAL_CAPACITY, dim))
        self._ids = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._n = 0
        # Rung ladder: rung j is None or (lo, KDTreeNN over slots [lo, hi)),
        # where hi is the next-lower occupied rung's lo (or the buffer
        # start).  Slots in [self._buf_start, self._n) are the buffer.
        self._rungs: "list[tuple[int, KDTreeNN] | None]" = []
        self._buf_start = 0
        # External-id multiplicities, so `exclude` can over-fetch exactly.
        self._id_count: "dict[int, int]" = {}

    # -- construction -------------------------------------------------------
    def _ensure_capacity(self, extra: int) -> None:
        need = self._n + extra
        cap = self._points.shape[0]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)
        points = np.empty((new_cap, self.dim))
        points[: self._n] = self._points[: self._n]
        ids = np.empty(new_cap, dtype=np.int64)
        ids[: self._n] = self._ids[: self._n]
        self._points, self._ids = points, ids

    def _rebuild(self) -> None:
        """Merge the full buffer and every rung below the first empty one
        into a single freshly built kd-tree at that rung."""
        j = 0
        lo = self._buf_start
        while j < len(self._rungs) and self._rungs[j] is not None:
            lo = min(lo, self._rungs[j][0])
            self._rungs[j] = None
            j += 1
        if j == len(self._rungs):
            self._rungs.append(None)
        tree = KDTreeNN(self.dim)
        # Ids are global slots inserted in ascending order: the rung's
        # internal insertion-sequence tie-break equals the global one.
        slots = np.arange(lo, self._n, dtype=np.int64)
        tree.add_batch(slots, self._points[lo : self._n])
        self._rungs[j] = (lo, tree)
        self._buf_start = self._n
        self.stats.rebuilds += 1

    def add(self, point_id: int, point: np.ndarray) -> None:
        pt = np.asarray(point, dtype=float)
        if pt.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {pt.shape}")
        self._ensure_capacity(1)
        self._points[self._n] = pt
        self._ids[self._n] = int(point_id)
        self._n += 1
        self._id_count[int(point_id)] = self._id_count.get(int(point_id), 0) + 1
        if self._n - self._buf_start >= self.buffer_capacity:
            self._rebuild()

    def add_batch(self, ids: np.ndarray, points: np.ndarray) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] != points.shape[0]:
            raise ValueError("ids and points length mismatch")
        if points.shape[0] and points.shape[1] != self.dim:
            raise ValueError(f"points must have shape (m, {self.dim}), got {points.shape}")
        # One at a time: the rebuild schedule (and therefore the stats)
        # must match the interleaved insert stream the planners perform.
        for pid, row in zip(ids, points):
            self.add(pid, row)

    # -- queries -----------------------------------------------------------
    def _candidates(self, q: np.ndarray, k: int, exclude: "int | None"):
        """``(slot, distance)`` candidates from every rung plus the buffer,
        enough that the best ``k`` non-excluded are certainly among them.
        Also charges ``distance_evals`` (and ``evals_saved``)."""
        n_excl = self._id_count.get(exclude, 0) if exclude is not None else 0
        cands: "list[tuple[float, int]]" = []
        evals = 0
        for rung in self._rungs:
            if rung is None:
                continue
            _lo, tree = rung
            before = tree.stats.distance_evals
            # Rung ids are slots; over-fetch by the exclude multiplicity
            # and filter below, which preserves exactness: at most
            # ``n_excl`` of the rung's best k+n_excl can be excluded.
            for slot, d in tree.knn(q, k + n_excl):
                if exclude is None or self._ids[slot] != exclude:
                    cands.append((d, slot))
            evals += tree.stats.distance_evals - before
        b0, b1 = self._buf_start, self._n
        if b1 > b0:
            # Row-wise norm over the buffer slice: bit-identical to the
            # full-scan distances BruteForceNN computes for these rows.
            d_buf = np.linalg.norm(self._points[b0:b1] - q[None, :], axis=1)
            evals += b1 - b0
            for off, d in enumerate(d_buf.tolist()):
                slot = b0 + off
                if exclude is None or self._ids[slot] != exclude:
                    cands.append((d, slot))
        self.stats.distance_evals += evals
        self.stats.evals_saved += self._n - evals
        return cands

    def _nn1(self, q: np.ndarray) -> "list[tuple[int, float]]":
        """Hot path for ``knn(q, 1)`` without ``exclude`` — the query RRT
        issues once per extension.  The buffer scan runs first so its
        best distance becomes the prune radius for every rung descent
        (:meth:`KDTreeNN.nn1`), and each rung tightens the radius for the
        next; ties survive because pruning is strictly-greater-than and
        later-probed rungs hold strictly older slots."""
        best_d = np.inf
        best_slot = -1
        evals = 0
        b0, b1 = self._buf_start, self._n
        if b1 > b0:
            d_buf = np.linalg.norm(self._points[b0:b1] - q[None, :], axis=1)
            evals += b1 - b0
            # argmin returns the FIRST minimum — the earliest slot.
            off = int(np.argmin(d_buf))
            best_d = float(d_buf[off])
            best_slot = b0 + off
        for rung in self._rungs:
            if rung is None:
                continue
            tree = rung[1]
            before = tree.stats.distance_evals
            slot, d = tree.nn1(q, best_d)
            evals += tree.stats.distance_evals - before
            # Rung slots are strictly older (smaller) than everything
            # probed so far, so an exact tie flips to the rung.
            if d < best_d or d == best_d:
                best_d, best_slot = d, slot
        self.stats.distance_evals += evals
        self.stats.evals_saved += self._n - evals
        if best_slot >= self._buf_start:
            self.stats.buffer_hits += 1
        return [(int(self._ids[best_slot]), best_d)]

    def knn(self, query: np.ndarray, k: int, exclude: int | None = None) -> "list[tuple[int, float]]":
        if self._n == 0 or k <= 0:
            return []
        q = np.asarray(query, dtype=float)
        self.stats.queries += 1
        if k == 1 and exclude is None:
            return self._nn1(q)
        cands = self._candidates(q, k, exclude)
        # The canonical (distance, insertion order) order: slot == global
        # insertion sequence, so sorting by (d, slot) replays exactly the
        # selection BruteForceNN's stable top-k performs.
        cands.sort()
        out = cands[:k]
        self.stats.buffer_hits += sum(1 for _d, slot in out if slot >= self._buf_start)
        return [(int(self._ids[slot]), d) for d, slot in out]

    def radius(self, query: np.ndarray, r: float, exclude: int | None = None) -> "list[tuple[int, float]]":
        if self._n == 0:
            return []
        q = np.asarray(query, dtype=float)
        self.stats.queries += 1
        found: "list[tuple[float, int]]" = []
        evals = 0
        for rung in self._rungs:
            if rung is None:
                continue
            _lo, tree = rung
            before = tree.stats.distance_evals
            for slot, d in tree.radius(q, r):
                if exclude is None or self._ids[slot] != exclude:
                    found.append((d, slot))
            evals += tree.stats.distance_evals - before
        b0, b1 = self._buf_start, self._n
        if b1 > b0:
            d_buf = np.linalg.norm(self._points[b0:b1] - q[None, :], axis=1)
            evals += b1 - b0
            for off, d in enumerate(d_buf.tolist()):
                slot = b0 + off
                if d <= r and (exclude is None or self._ids[slot] != exclude):
                    found.append((d, slot))
        self.stats.distance_evals += evals
        self.stats.evals_saved += self._n - evals
        found.sort()
        return [(int(self._ids[slot]), d) for d, slot in found]

    def __len__(self) -> int:
        return self._n

    # -- diagnostics --------------------------------------------------------
    def rung_sizes(self) -> "list[int]":
        """Occupied-rung point counts, smallest rung first (0 = empty
        rung), excluding the buffer — for tests and docs."""
        return [0 if rung is None else len(rung[1]) for rung in self._rungs]

    @property
    def buffer_size(self) -> int:
        """Points currently in the brute-force buffer."""
        return self._n - self._buf_start
