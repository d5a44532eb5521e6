"""Interchangeable k-nearest-neighbour finders.

Every finder implements the same :class:`NeighborFinder` interface with
the canonical ``(distance, insertion order)`` tie-break and bit-identical
float64 distances, so swapping one for another never changes an answer
— only its latency.  Every planner and index in the repo (``PRM``,
``RRT``, ``RoadmapQuery``, ``QueryEngine`` and the workload builders)
constructs :class:`BruteForceNN`; no parameter, spec field or name
registry carries a choice.

* :class:`BruteForceNN` — vectorised flat scan, fastest below a few
  thousand points and the finder the planners' batched construction
  paths inline.
* :class:`KDTreeNN` — incremental-insert kd-tree, for static sets larger
  than any the repo serves, queried many times.
* :class:`IncrementalNN` — logarithmic-rebuild kd-tree forest for
  interleaved insert/query streams; a standalone index.
"""

from .base import KnnStats, NeighborFinder
from .brute import BruteForceNN
from .incremental import IncrementalNN
from .kdtree import KDTreeNN

__all__ = [
    "KnnStats",
    "NeighborFinder",
    "BruteForceNN",
    "KDTreeNN",
    "IncrementalNN",
]
