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

The snapshot also caches one derived table, built on request
(:meth:`FrozenRoadmap.build_landmarks`; :class:`~repro.planners.engine
.QueryEngine` starts it once its searches have settled as many vertices
as the table costs): exact graph distances from :data:`LANDMARKS` rows.
With it the search runs in ALT order (Goldberg & Harrelson's bound)
and keeps that answer only when a tie certificate proves it equal to the
Euclidean order's; otherwise it re-runs the Euclidean order, so the
table changes how fast a query is answered, never the answer.
:meth:`FrozenRoadmap.prepare` computes the heap heuristics — Euclidean
and landmark bound — of a whole batch of queries in array passes.
``docs/serving.md`` states the bound, the certificate and the passes.

The snapshot is immutable and does not track its source: a roadmap that
changes after freezing builds a new CSR and leaves the snapshot's arrays
alone, so freeze once per built roadmap and re-freeze after any mutation.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

import numpy as np

from ..kernels.reference import pairwise_accumulate_exact
from .roadmap import Roadmap, _component_labels

__all__ = ["FrozenRoadmap", "Prepared", "LANDMARKS", "ACTIVE_LANDMARKS"]

#: Rows of the landmark table (farthest-point picks in configuration space).
LANDMARKS = 16
#: Landmarks bounding one query: those whose bound is largest at its start.
ACTIVE_LANDMARKS = 4
#: Relative slack: the landmark bound is scaled by ``1 - _TOL`` so table
#: rounding cannot make it overestimate, and the tie certificate counts two
#: lengths within ``_TOL`` of the answer's length as tied.
_TOL = 1e-9


class Prepared(NamedTuple):
    """One query's heap heuristics, as :meth:`FrozenRoadmap.prepare`
    builds them for a whole batch."""

    #: ``(n,)`` Euclidean distance from the goal to every row.
    h: np.ndarray
    #: ``(n,)`` ALT-order bound, or None when the search runs Euclidean.
    alt: "np.ndarray | None"
    #: Euclidean start-goal distance, the virtual start's heuristic.
    d_sg: float


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
    landmark_table : np.ndarray or None
        ``(K, n)`` graph distances from each landmark row (NaN in other
        components), or None until :meth:`build_landmarks` publishes it.
    searches, settled, fallbacks : int
        Searches run by :meth:`astar_virtual`, roadmap rows they settled
        (both orders, when a certificate fails), and failed certificates.
        Plain tallies: concurrent searches may drop an update.
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
        pairs = list(zip(nb, wt))
        self._adj: "list[list[tuple[int, float]]]" = [
            pairs[lo:hi] for lo, hi in zip(ind, ind[1:])
        ]
        self._comp_list = _component_labels(ind, nb)
        self.comp = np.array(self._comp_list, dtype=np.int64)
        self.num_components = int(self.comp.max()) + 1 if n else 0
        self.landmark_table: "np.ndarray | None" = None
        self.searches = 0
        self.settled = 0
        self.fallbacks = 0

    # -- construction -------------------------------------------------------
    @classmethod
    def from_roadmap(cls, rmap: Roadmap) -> "FrozenRoadmap":
        """A snapshot of ``rmap``: copies of its vertex arrays, its shared CSR."""
        ids, configs = rmap.configs_array()
        return cls(rmap.dim, ids.copy(), configs.copy(), *rmap.csr())

    def build_landmarks(self) -> None:
        """Compute the landmark table and publish it with one assignment.

        ``min(LANDMARKS, n)`` rows are picked by farthest-point selection
        in configuration space (deterministic per snapshot); each table row
        is one full sweep of the search loop from its landmark, with a zero
        heuristic and no goal.  A no-op once the table exists.
        """
        n = len(self._ids_list)
        if self.landmark_table is not None or n == 0:
            return
        rows = _farthest_points(self.configs, min(LANDMARKS, n))
        zero = [0.0] * (n + 2)
        table = np.empty((len(rows), n))
        for i, r in enumerate(rows):
            table[i] = self._search(zero, [(r, 0.0)], None, {}, -1, -1)[0][:n]
        table[np.isinf(table)] = np.nan
        self.landmark_table = table

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
    def prepare(self, starts, goals, links, dist=None) -> "list[Prepared]":
        """The heap heuristics of a batch of queries, in array passes.

        ``links[i]`` is query ``i``'s ``(start_links, goal_links)`` (as
        :meth:`astar_virtual` takes them) and ``dist``, when the caller
        already holds it, the ``(q, n)`` Euclidean distances from each goal
        to every row (:class:`~repro.knn.brute.BruteForceNN`'s attachment
        block is): otherwise one
        :func:`~repro.kernels.reference.pairwise_accumulate_exact` pass
        computes it, bit-identical to a per-query ``np.linalg.norm``.  The
        landmark bounds of the whole batch are one pass over the table as
        it stands now (:func:`_landmark_bounds`).  Returns one
        :class:`Prepared` per query.
        """
        starts = np.asarray(starts, dtype=float)
        goals = np.asarray(goals, dtype=float)
        if dist is None:
            dist = np.empty((goals.shape[0], self.num_vertices))
            pairwise_accumulate_exact(self.configs, goals, dist)
        d_sg = np.linalg.norm(starts - goals, axis=1).tolist()
        table = self.landmark_table
        alt = [None] * len(links) if table is None else _landmark_bounds(table, dist, links)
        return [Prepared(*row) for row in zip(dist, alt, d_sg)]

    def astar_virtual(
        self,
        start_cfg: np.ndarray,
        goal_cfg: np.ndarray,
        start_links: "list[tuple[int, float]]",
        goal_links: "list[tuple[int, float]]",
        sid: int,
        gid: int,
        *,
        landmarks: bool = True,
        prepared: "Prepared | None" = None,
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

        ``prepared`` is this query's entry of a batch's :meth:`prepare`;
        without it the query is prepared as a batch of one.  With a
        landmark bound the search first runs in ALT order and returns that
        answer only when :meth:`_certified` proves it equal to the
        Euclidean order's; otherwise, and always with ``landmarks=False``
        (the oracle), it runs in Euclidean order.
        """
        if not start_links or not goal_links:
            return None
        n = len(self._ids_list)
        g_back: "dict[int, float]" = {}
        sg_w: "float | None" = None
        for r, w in goal_links:
            if r == n:
                sg_w = w
            else:
                g_back[r] = w
        comp = self._comp_list
        if sg_w is None and not (
            {comp[r] for r, _w in start_links} & {comp[r] for r in g_back}
        ):
            return None
        if prepared is None:
            prepared = self.prepare(
                np.asarray(start_cfg, dtype=float)[None, :],
                np.asarray(goal_cfg, dtype=float)[None, :],
                [(start_links, goal_links)],
            )[0]
        ends = [prepared.d_sg, 0.0]
        self.searches += 1
        if landmarks and prepared.alt is not None:
            state = self._search(
                prepared.alt.tolist() + ends, start_links, sg_w, g_back, sid, gid
            )
            self.settled += state[2].count(1, 0, n)
            if self._certified(state, start_links, sg_w, g_back):
                return self._answer(state, sid, gid)
            self.fallbacks += 1
        state = self._search(prepared.h.tolist() + ends, start_links, sg_w, g_back, sid, gid)
        self.settled += state[2].count(1, 0, n)
        return self._answer(state, sid, gid)

    def _search(self, h, start_links, sg_w, g_back, sid, gid):
        """The relaxation loop every search here runs, A* and landmark sweep.

        Rows ``n`` / ``n + 1`` are the virtual start / goal; ``h`` is the
        heap heuristic per row.  Stops when the goal pops, or when the heap
        empties (a sweep: no goal links).  Returns ``(g, prev, done, heap)``.
        """
        n = len(self._ids_list)
        srow, grow = n, n + 1
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
            if done[u]:
                continue
            done[u] = 1
            if u == grow:
                break
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
        return g, prev, done, heap

    def _answer(self, state, sid: int, gid: int) -> "tuple[list[int], float] | None":
        """The path and length a finished search found, or None."""
        g, prev, done, _heap = state
        n = len(self._ids_list)
        srow, grow = n, n + 1
        if not done[grow]:
            return None
        ids = self._ids_list
        path = [gid]
        node = grow
        while node != srow:
            node = prev[node]
            path.append(sid if node == srow else ids[node])
        path.reverse()
        return path, g[grow]

    def _certified(self, state, start_links, sg_w, g_back) -> bool:
        """Tie certificate: True when an ALT-order answer is the
        Euclidean order's.

        Both heuristics are consistent, so if the shortest path is unique
        by a margin, both searches settle each of its vertices with the
        same ``g`` and the same predecessor, and the path and its float
        length agree to the bit.  Two checks prove the margin:

        (a) after stale entries, the next heap key exceeds ``C (1 + tol)``
            — every vertex that could tie the answer of length ``C`` is
            settled;
        (b) no settled in-neighbour of a path vertex other than its
            predecessor (start and goal links included) reaches it within
            ``tol C`` of its ``g``.
        """
        g, prev, done, heap = state
        n = len(self._ids_list)
        srow, grow = n, n + 1
        if not done[grow]:
            return False
        cost = g[grow]
        slack = _TOL * cost
        while heap and done[heap[0][2]]:
            heapq.heappop(heap)
        if heap and heap[0][0] <= cost + slack:
            return False
        start_w = dict(start_links)
        adj = self._adj
        v = grow
        while v != srow:
            p = prev[v]
            if v == grow:
                ways = list(g_back.items())
                if sg_w is not None:
                    ways.append((srow, sg_w))
            else:
                ways = adj[v]
                if v in start_w:
                    ways = [*ways, (srow, start_w[v])]
            reach = g[v] + slack
            for u, w in ways:
                if u != p and done[u] and g[u] + w <= reach:
                    return False
            v = p
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenRoadmap(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"components={self.num_components})"
        )


def _farthest_points(configs: np.ndarray, k: int) -> "list[int]":
    """Up to ``k`` distinct rows by farthest-point selection, seeded with
    the row farthest from row 0 (ties to the lowest row)."""
    r = int(np.argmax(np.linalg.norm(configs - configs[0], axis=1)))
    rows = [r]
    near = np.linalg.norm(configs - configs[r], axis=1)
    while len(rows) < k:
        r = int(np.argmax(near))
        if near[r] == 0.0:
            break
        rows.append(r)
        near = np.minimum(near, np.linalg.norm(configs - configs[r], axis=1))
    return rows


def _landmark_bounds(table, h, links) -> "list[np.ndarray | None]":
    """The ALT-order heap heuristics of a batch over roadmap rows: row
    ``i`` is ``max(h[i], (1 - tol) h_L)``, ``h_L`` the largest landmark
    bound among the :data:`ACTIVE_LANDMARKS` rows of ``table`` whose bound
    is largest at query ``i``'s start links; None when no landmark reaches
    one of its goal links (or it has no goal link in the roadmap).

    Landmark ``L`` sees the goal through its links ``r`` (weight ``w_r``)
    in its own component: ``dG = min (D[L, r] + w_r)`` and
    ``dGmax = max (D[L, r] - w_r)``; then
    ``h_L(v) = max(dG - D[L, v], D[L, v] - dGmax)`` for ``v`` it reaches.
    ``h_L(r) <= w_r`` on every goal link, so the bound is admissible and
    consistent in the graph the search walks (the virtual start is settled
    first and never re-entered).  The table's NaNs (unreachable) and the
    NaN weights that pad the ragged link lists drop out of every ``fmin`` /
    ``fmax``, so a vertex no active landmark reaches keeps ``h``, and each
    row is the bits one query alone would get.
    """
    q, n = len(links), table.shape[1]
    out: "list[np.ndarray | None]" = [None] * q
    backs = [[(r, w) for r, w in dict(g).items() if r != n] for _s, g in links]
    todo = [i for i in range(q) if backs[i] and links[i][0]]
    if not todo:
        return out

    def padded(lists):
        rows = np.zeros((len(todo), max(len(x) for x in lists)), dtype=np.int64)
        w = np.full(rows.shape, np.nan)
        for j, x in enumerate(lists):
            rows[j, : len(x)], w[j, : len(x)] = zip(*x)
        return rows, w

    g_rows, g_w = padded([backs[i] for i in todo])
    s_rows, s_w = padded([links[i][0] for i in todo])
    at_goal = table[:, g_rows]
    d_goal = np.fmin.reduce(at_goal + g_w, axis=2)
    d_far = np.fmax.reduce(at_goal - g_w, axis=2)
    at_start = table[:, s_rows]
    score = np.fmin.reduce(
        np.fmax(d_goal[:, :, None] - at_start, at_start - d_far[:, :, None]) + s_w, axis=2
    )
    # Each column sorts alone: the per-query stable pick.  A picked
    # landmark that reaches no goal link has NaN dG and dGmax, so its
    # whole term is NaN and drops out of the fmax below.
    pick = np.argsort(-score, axis=0, kind="stable")[:ACTIVE_LANDMARKS]
    cols = np.arange(len(todo))
    d_goal, d_far = d_goal[pick, cols][:, :, None], d_far[pick, cols][:, :, None]
    # The fmax.reduce over the picks, one pick at a time in three
    # (batch, n) buffers.
    alt, dist, term = (np.empty((len(todo), n)) for _ in range(3))
    for a in range(pick.shape[0]):
        np.take(table, pick[a], axis=0, out=dist)
        np.subtract(d_goal[a], dist, out=term)
        np.subtract(dist, d_far[a], out=dist)
        np.fmax(term, dist, out=alt if a == 0 else term)
        if a:
            np.fmax(alt, term, out=alt)
    alt *= 1.0 - _TOL
    np.take(h, todo, axis=0, out=dist)
    np.fmax(dist, alt, out=alt)
    reach = ~np.isnan(d_goal[:, :, 0]).all(axis=0)
    for j, i in enumerate(todo):
        if reach[j]:
            out[i] = alt[j]
    return out
