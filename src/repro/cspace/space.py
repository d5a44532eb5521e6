"""Configuration-space abstractions.

A :class:`ConfigurationSpace` bundles everything a sampling-based planner
needs to know about the planning problem:

* the dimension and bounds of the configuration vector,
* how to draw uniform samples,
* a distance metric,
* straight-line interpolation between configurations, and
* validity (collision) checking, delegated to a workspace
  :class:`~repro.geometry.environment.Environment`.

One concrete space is provided, :class:`EuclideanCSpace`: a point robot
whose C-space is the workspace.  The paper plans its PRM cubes with a
small rigid body; the reproduction models that robot's narrow-passage
cost with the region planner's boost instead (DESIGN.md).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from ..geometry.environment import Environment
from ..geometry.primitives import AABB

__all__ = ["ConfigurationSpace", "EuclideanCSpace"]


class ConfigurationSpace(ABC):
    """Interface all configuration spaces implement."""

    #: The workspace environment collision queries are made against.
    env: Environment
    #: Bounds of the configuration vector (an AABB in C-space coordinates).
    bounds: AABB

    def set_kernel_backend(self, backend: str) -> None:
        """Route this space's collision checks through the
        :mod:`repro.kernels` backend of that name."""
        self.env.set_kernel_backend(backend)

    @property
    def dim(self) -> int:
        """Number of degrees of freedom."""
        return self.bounds.dim

    # -- sampling -----------------------------------------------------------
    def sample(
        self, rng: np.random.Generator, n: int | None = None, within=None, *, unit=None
    ) -> np.ndarray:
        """Uniform samples from the (sub-)space ``within`` (default: bounds).

        ``within`` is a domain that is an elementwise map of the unit cube,
        like :class:`AABB` or a radial region's cone: ``from_unit_cube(u)`` maps
        ``(dim,)`` or ``(n, dim)`` uniforms to configurations row by row,
        and ``sample(rng, n)`` is ``from_unit_cube`` of ``dim`` (or
        ``(n, dim)``) ``rng.random`` doubles — so a block of ``n`` draws
        consumes the generator exactly as ``n`` single draws do.

        ``unit``, if given, is rows of uniforms the caller already drew
        from ``rng``: they are mapped through the domain and ``rng`` and
        ``n`` are not touched — how a caller that interleaves other draws
        with its samples maps a whole block in one call.
        """
        region = within if within is not None else self.bounds
        if unit is not None:
            return region.from_unit_cube(unit)
        return region.sample(rng, n)

    # -- metric ---------------------------------------------------------------
    def distance(self, a: np.ndarray, b: np.ndarray) -> "float | np.ndarray":
        """Euclidean distance between configurations ``a`` and ``b``: a
        float for two 1-D configurations, ``(m,)`` row-wise distances when
        either is 2-D.  Every row has the bits of the 1-D call: the
        stacked ``matmul`` reaches the same dot kernel as
        ``diff.dot(diff)``, where the reduction of
        ``np.linalg.norm(diff, axis=1)`` is one ulp off on 8-15 % of random
        rows for d = 2..7 (``distance_pairs`` keeps that norm)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        diff = b - a
        if diff.ndim == 1:
            # np.linalg.norm's own 1-D path (one dot, then sqrt) without
            # its dispatch: the same bits at half the cost.
            return math.sqrt(diff.dot(diff))
        return np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])

    def interpolate(self, a: np.ndarray, b: np.ndarray, t: "float | np.ndarray") -> np.ndarray:
        """Point(s) on the straight line from ``a`` to ``b`` at parameter ``t``."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        if t_arr.ndim == 0:
            return a + t_arr * (b - a)
        return a[None, :] + t_arr[:, None] * (b - a)[None, :]

    def distance_pairs(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Vectorised pairwise distances ``d(starts[i], ends[i])``."""
        starts = np.atleast_2d(np.asarray(starts, dtype=float))
        ends = np.atleast_2d(np.asarray(ends, dtype=float))
        return np.linalg.norm(ends - starts, axis=1)

    def interpolate_pairs(self, starts: np.ndarray, ends: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Vectorised per-pair interpolation: row ``i`` is the point at
        parameter ``t[i]`` on the segment ``starts[i] -> ends[i]``."""
        starts = np.atleast_2d(np.asarray(starts, dtype=float))
        ends = np.atleast_2d(np.asarray(ends, dtype=float))
        t = np.asarray(t, dtype=float)
        return starts + t[:, None] * (ends - starts)

    # -- validity ---------------------------------------------------------------
    @abstractmethod
    def valid(self, configs: np.ndarray) -> np.ndarray:
        """Boolean mask of collision-free configurations (vectorised)."""

    def valid_single(self, config: np.ndarray) -> bool:
        return bool(np.atleast_1d(self.valid(np.atleast_2d(config)))[0])

    def boxes_valid(self, lo: np.ndarray, hi: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Certificate mask: True only where every configuration in the box
        ``lo[i]..hi[i]`` is valid.  A caller skips the ``points[i]``
        validity checks a certified box settles; the space charges them as
        :meth:`valid` would.  This default certifies nothing."""
        return np.zeros(len(points), dtype=bool)


class EuclideanCSpace(ConfigurationSpace):
    """Point-robot configuration space: C-space coincides with the workspace."""

    def __init__(self, env: Environment):
        self.env = env
        self.bounds = env.bounds

    def valid(self, configs: np.ndarray) -> np.ndarray:
        return ~self.env.points_in_collision(configs)

    def boxes_valid(self, lo: np.ndarray, hi: np.ndarray, points: np.ndarray) -> np.ndarray:
        return self.env.boxes_free(lo, hi, points)

    def segment_valid(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Exact continuous validity of the straight segment (point robot)."""
        return not bool(self.env.segments_in_collision(a, b)[0])

    def segments_valid(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return ~self.env.segments_in_collision(a, b)
