"""The narrow kernel interface both collision backends implement.

A backend supplies four primitives:

* :meth:`KernelBackend.points_free` — point-set collision masks,
* :meth:`KernelBackend.segments_free` — batched exact segment tests,
* :meth:`KernelBackend.pairwise_accumulate` — blocked k-NN distance
  accumulation, and
* :meth:`KernelBackend.knn_block_min` — top-k selection over a stored
  point block.

``Environment`` is written against the collision pair.  The distance
pair has no caller in ``src/`` (``BruteForceNN`` and the batched RRT call
:func:`repro.kernels.reference.pairwise_accumulate_exact` directly); it
stays on both classes because the e2e harness wraps it by name, and goes
with ROADMAP item 2(b).  Contracts:

* Inputs are float64 arrays; obstacle data arrives as an
  :class:`~repro.kernels.data.EnvKernelData` snapshot.
* Outputs are float64 / bool / int64.
* One parity tier: ``reference`` is bit-exact with the historical inline
  NumPy expressions, and ``bvh`` culls with a conservative tree but
  decides with the reference expressions, so it is bit-exact with
  ``reference`` (``tests/test_bvh.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .data import EnvKernelData

__all__ = ["KernelBackend"]


class KernelBackend(ABC):
    """Interchangeable implementation of the planner's hot primitives."""

    #: One of :data:`repro.kernels.BACKENDS`.
    name: str = "abstract"

    # -- collision ---------------------------------------------------------
    @abstractmethod
    def points_free(self, data: EnvKernelData, points: np.ndarray) -> np.ndarray:
        """``(n,)`` bool: point is inside the workspace bounds and outside
        every obstacle.  ``points`` has shape ``(n, d)``."""

    @abstractmethod
    def segments_free(self, data: EnvKernelData, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """``(n,)`` bool: both endpoints are in bounds and the swept
        segment ``p[i] -> q[i]`` intersects no obstacle (exact test, not
        sampled).  ``p``/``q`` have shape ``(n, d)``."""

    # -- distances ---------------------------------------------------------
    @abstractmethod
    def pairwise_accumulate(self, stored: np.ndarray, queries: np.ndarray, out: np.ndarray) -> None:
        """Write ``||stored[j] - queries[i]||`` into ``out[i, j]``.

        ``stored`` is ``(n, d)``, ``queries`` is ``(m, d)``, ``out`` is a
        preallocated float64 ``(m, n)`` buffer.  ``n == 0`` is a no-op.
        """

    @abstractmethod
    def knn_block_min(
        self, stored: np.ndarray, queries: np.ndarray, k: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Positional indices and distances of the ``k`` nearest stored
        points per query: ``(idx (m, k) int64, dist (m, k) float64)``.

        Rows are sorted ascending by (distance, stored index); when fewer
        than ``k`` points are stored the tail is padded with index ``-1``
        and distance ``+inf`` (test validity with ``np.isfinite(dist)``).
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
