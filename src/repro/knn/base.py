"""k-nearest-neighbour interface.

Nearest-neighbour search is a well-known bottleneck of parallelising
sampling-based motion planning (Sec. I of the paper); restricting
connection attempts to within a region plus its neighbours is exactly what
makes the uniform-subdivision approach scale.  The planners only need this
small interface, so backends (brute force, kd-tree, incremental) are
interchangeable and are cross-checked against each other in the tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = ["NeighborFinder", "KnnStats"]


@dataclass
class KnnStats:
    """Counts of NN work, charged to virtual time by the runtime.

    The structure-maintenance fields (``rebuilds``, ``buffer_hits``,
    ``evals_saved``) stay zero for the flat backends; only
    :class:`~repro.knn.incremental.IncrementalNN` maintains internal
    structure worth counting.  ``evals_saved`` is the number of distance
    evaluations a brute-force scan of the same stream would have spent
    minus what the structure actually spent (never negative).
    """

    queries: int = 0
    distance_evals: int = 0
    rebuilds: int = 0
    buffer_hits: int = 0
    evals_saved: int = 0

    def reset(self) -> None:
        self.queries = 0
        self.distance_evals = 0
        self.rebuilds = 0
        self.buffer_hits = 0
        self.evals_saved = 0


class NeighborFinder(ABC):
    """Maintains a set of points supporting k-NN and radius queries.

    Points are identified by the integer id supplied at :meth:`add` time
    (planners use roadmap vertex descriptors).
    """

    def __init__(self) -> None:
        self.stats = KnnStats()

    @abstractmethod
    def add(self, point_id: int, point: np.ndarray) -> None:
        """Insert a point with an external integer id."""

    @abstractmethod
    def add_batch(self, ids: np.ndarray, points: np.ndarray) -> None:
        """Insert many points at once."""

    @abstractmethod
    def knn(self, query: np.ndarray, k: int, exclude: int | None = None) -> "list[tuple[int, float]]":
        """The ``k`` nearest stored points to ``query`` as ``(id, distance)``
        sorted by ascending distance, ties broken by insertion order (the
        canonical order every backend implements identically).  ``exclude``
        omits one id (typically the query point itself)."""

    def knn_batch(self, queries: np.ndarray, k: int) -> "list[list[tuple[int, float]]]":
        """:meth:`knn` for every row of ``queries``.

        The default loops; backends override with a vectorised path that
        must return identical results and charge identical stats.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        return [self.knn(q, k) for q in queries]

    def knn_batch_arrays(self, queries: np.ndarray, k: int) -> "tuple[np.ndarray, np.ndarray]":
        """Array-native :meth:`knn_batch`: ``(ids (m, k) int64, dists
        (m, k) float64)``, rows padded with id ``-1`` / distance ``+inf``
        when fewer than ``k`` neighbours exist (test validity with
        ``np.isfinite(dists)``, not the id sentinel).

        Same results, ordering, and stats charges as :meth:`knn_batch`,
        without materialising ``list[list[tuple]]`` per query — the
        allocation that dominates ``QueryEngine.solve_many`` profiles.
        The default adapts the tuple path; backends override with a fully
        vectorised implementation.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        m = queries.shape[0]
        kk = max(k, 0)
        ids = np.full((m, kk), -1, dtype=np.int64)
        dists = np.full((m, kk), np.inf)
        for i, row in enumerate(self.knn_batch(queries, k) if m else []):
            for j, (pid, d) in enumerate(row):
                ids[i, j] = pid
                dists[i, j] = d
        return ids, dists

    @abstractmethod
    def radius(self, query: np.ndarray, r: float, exclude: int | None = None) -> "list[tuple[int, float]]":
        """All stored points within distance ``r`` of ``query``."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored points."""
