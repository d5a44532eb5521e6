"""Roadmap queries: shortest paths and start/goal connection.

Once a roadmap is built, a motion planning query is answered by connecting
the start and goal configurations to the roadmap and extracting a path
through it (Sec. II-B1 of the paper).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..cspace.local_planner import StraightLinePlanner
from ..cspace.space import ConfigurationSpace
from ..knn.brute import BruteForceNN
from .roadmap import Roadmap

__all__ = ["dijkstra", "astar", "QueryResult", "RoadmapQuery"]


def dijkstra(rmap: Roadmap, source: int, target: int) -> "tuple[list[int], float] | None":
    """Shortest path by edge weight; None when disconnected."""
    if not (rmap.has_vertex(source) and rmap.has_vertex(target)):
        raise KeyError("source or target vertex missing from roadmap")
    dist: dict[int, float] = {source: 0.0}
    prev: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == target:
            break
        done.add(u)
        for v, w in rmap.neighbors(u).items():
            nd = d + w
            if nd < dist.get(v, np.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    if target not in dist:
        return None
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return path, dist[target]


def astar(
    rmap: Roadmap,
    source: int,
    target: int,
    heuristic=None,
) -> "tuple[list[int], float] | None":
    """A* with an admissible heuristic (default: Euclidean distance of
    configurations, which is admissible for Euclidean edge weights)."""
    if not (rmap.has_vertex(source) and rmap.has_vertex(target)):
        raise KeyError("source or target vertex missing from roadmap")
    target_cfg = rmap.config(target)
    if heuristic is None:
        # Row-wise norm so the heuristic is bit-identical to the vectorised
        # one in FrozenRoadmap.astar (np.linalg.norm(..., axis=1)).
        def heuristic(vid: int) -> float:
            return float(np.linalg.norm((rmap.config(vid) - target_cfg)[None, :], axis=1)[0])

    g: dict[int, float] = {source: 0.0}
    prev: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(heuristic(source), source)]
    done: set[int] = set()
    while heap:
        _f, u = heapq.heappop(heap)
        if u == target:
            path = [target]
            while path[-1] != source:
                path.append(prev[path[-1]])
            path.reverse()
            return path, g[target]
        if u in done:
            continue
        done.add(u)
        for v, w in rmap.neighbors(u).items():
            ng = g[u] + w
            if ng < g.get(v, np.inf):
                g[v] = ng
                prev[v] = u
                heapq.heappush(heap, (ng + heuristic(v), v))
    return None


@dataclass
class QueryResult:
    """Solved query: configurations along the path including start and goal."""

    path_vertices: "list[int]"
    path_configs: np.ndarray
    length: float


class RoadmapQuery:
    """Connects a start and goal configuration to a roadmap and solves.

    Each endpoint is linked to up to ``k`` of its nearest roadmap vertices
    (a fresh :class:`~repro.knn.brute.BruteForceNN` per attachment)
    through a straight-line local planner at resolution 0.25.
    """

    def __init__(self, cspace: ConfigurationSpace, k: int = 8):
        self.cspace = cspace
        self.local_planner = StraightLinePlanner(resolution=0.25)
        self.k = k

    def _attach(self, rmap: Roadmap, config: np.ndarray, vid: int) -> bool:
        """Add ``config`` as vertex ``vid`` and link it to up to k nearest
        reachable roadmap vertices; True if at least one link succeeded."""
        ids, cfgs = rmap.configs_array()
        nn = BruteForceNN(self.cspace.dim)
        nn.add_batch(ids, cfgs)
        rmap.add_vertex(config, vid)
        attached = False
        for nbr, _d in nn.knn(config, self.k):
            result = self.local_planner(self.cspace, config, rmap.config(nbr))
            if result.valid:
                rmap.add_edge(vid, nbr, result.length)
                attached = True
        return attached

    def solve(self, rmap: Roadmap, start: np.ndarray, goal: np.ndarray) -> QueryResult | None:
        """Solve the (start, goal) query; None when no path exists.

        The start and goal join the roadmap as temporary vertices inside
        :meth:`Roadmap.transient`, which leaves it exactly as it was.
        """
        start = np.asarray(start, dtype=float)
        goal = np.asarray(goal, dtype=float)
        if not self.cspace.valid_single(start) or not self.cspace.valid_single(goal):
            return None
        ids, _ = rmap.configs_array()
        max_id = int(ids.max()) if ids.size else -1
        sid, gid = max_id + 1, max_id + 2
        with rmap.transient():
            ok_s = self._attach(rmap, start, sid)
            ok_g = self._attach(rmap, goal, gid)
            found = astar(rmap, sid, gid) if ok_s and ok_g else None
            if found is None:
                return None
            path, length = found
            return QueryResult(path, rmap.configs_of(path), length)
