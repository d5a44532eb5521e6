"""Sequential sampling-based planners: PRM, RRT and roadmap queries."""

from .engine import BatchQueryResult, QueryEngine, QueryRequest
from .frozen import FrozenRoadmap
from .prm import PRM, PRMBlock, PRMResult, PRMSegment
from .query import QueryResult, RoadmapQuery, astar, dijkstra
from .roadmap import Roadmap
from .rrt import RRT, RRTResult
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
    "RRT",
    "RRTResult",
    "PlannerStats",
    "WorkModel",
]
