"""Sequential sampling-based planners: PRM, RRT, queries, smoothing."""

from .engine import BatchQueryResult, QueryEngine, QueryRequest
from .frozen import FrozenRoadmap
from .prm import PRM, PRMBlock, PRMResult, PRMSegment
from .query import QueryResult, RoadmapQuery, astar, dijkstra
from .roadmap import Roadmap, UnionFind
from .rrt import RRT, RRTResult
from .smoothing import path_length, shortcut_smooth
from .stats import PlannerStats, WorkModel

__all__ = [
    "PRM",
    "PRMBlock",
    "PRMResult",
    "PRMSegment",
    "QueryResult",
    "QueryEngine",
    "QueryRequest",
    "BatchQueryResult",
    "FrozenRoadmap",
    "RoadmapQuery",
    "astar",
    "dijkstra",
    "Roadmap",
    "UnionFind",
    "RRT",
    "RRTResult",
    "path_length",
    "shortcut_smooth",
    "PlannerStats",
    "WorkModel",
]
