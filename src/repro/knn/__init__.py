"""Interchangeable k-nearest-neighbour finders.

Every finder implements the same :class:`NeighborFinder` interface with
the canonical ``(distance, insertion order)`` tie-break and bit-identical
float64 distances, so swapping one for another never changes an answer
— only its latency.  Construction (``PRM``, ``RRT``, ``RoadmapQuery`` and
the workload builders) always uses :class:`BruteForceNN`; the one place a
finder is chosen is ``QueryEngine(nn_factory=...)`` (a class or any
``dim -> NeighborFinder`` callable, automatic by roadmap size); no spec
field or name registry carries the choice.

* :class:`BruteForceNN` — vectorised flat scan, fastest below a few
  thousand points and the finder the planners' batched construction
  paths inline.
* :class:`KDTreeNN` — incremental-insert kd-tree, best for static sets
  queried many times (``QueryEngine`` picks it above 8192 vertices).
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
