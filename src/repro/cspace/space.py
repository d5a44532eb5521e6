"""Configuration-space abstractions.

A :class:`ConfigurationSpace` bundles everything a sampling-based planner
needs to know about the planning problem:

* the dimension and bounds of the configuration vector,
* how to draw uniform samples,
* a distance metric,
* straight-line interpolation between configurations, and
* validity (collision) checking, delegated to a workspace
  :class:`~repro.geometry.environment.Environment`.

Two concrete spaces are provided: :class:`EuclideanCSpace` for point
robots (C-space == workspace, the setting of the paper's PRM evaluation
with a small rigid body, which we model conservatively by inflating
obstacles) and :class:`repro.cspace.rigid_body.RigidBodyCSpace` for
SE(2)/SE(3) rigid bodies.
"""

from __future__ import annotations

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

    @property
    @abstractmethod
    def positional_dims(self) -> "tuple[int, ...]":
        """Indices of the configuration that are workspace positions.

        Uniform spatial subdivision partitions along these dimensions only
        (the paper subdivides using the positional DOFs, Sec. II-B1).
        """

    # -- sampling -----------------------------------------------------------
    def sample(
        self, rng: np.random.Generator, n: int | None = None, within=None, *, unit=None
    ) -> np.ndarray:
        """Uniform samples from the (sub-)space ``within`` (default: bounds).

        ``within`` is a domain that is an elementwise map of the unit cube,
        like :class:`AABB` or a lifted cone: ``from_unit_cube(u)`` maps
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
        """Distance between configuration ``a`` (1-D) and ``b`` (1-D or 2-D).

        The default metric is Euclidean; subclasses override for angular
        components.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        diff = b - a
        if diff.ndim == 1:
            return float(np.linalg.norm(diff))
        return np.linalg.norm(diff, axis=1)

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


class EuclideanCSpace(ConfigurationSpace):
    """Point-robot configuration space: C-space coincides with the workspace.

    A ``robot_radius`` may be given; obstacles are inflated by it so that a
    point check is a conservative rigid-body check (the standard
    Minkowski-sum reduction for disc/sphere robots).
    """

    def __init__(self, env: Environment, robot_radius: float = 0.0):
        if robot_radius < 0:
            raise ValueError("robot_radius must be non-negative")
        self.env = env
        self.robot_radius = robot_radius
        if robot_radius > 0.0:
            inflated = Environment(
                env.bounds.expanded(-robot_radius),
                [o.expanded(robot_radius) for o in env.obstacles],
                name=env.name + f"+r{robot_radius:g}",
                kernel_backend=env.kernel_backend.name,
            )
            # Share the counter object so planner work is visible on the
            # original environment too.
            inflated.counters = env.counters
            self._check_env = inflated
        else:
            self._check_env = env
        self.bounds = self._check_env.bounds

    @property
    def positional_dims(self) -> "tuple[int, ...]":
        return tuple(range(self.bounds.dim))

    def set_kernel_backend(self, backend: str) -> None:
        # The inflated check environment is a distinct object sharing only
        # the counters; both must dispatch to the same backend.
        self.env.set_kernel_backend(backend)
        if self._check_env is not self.env:
            self._check_env.set_kernel_backend(backend)

    def valid(self, configs: np.ndarray) -> np.ndarray:
        return ~self._check_env.points_in_collision(configs)

    def segment_valid(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Exact continuous validity of the straight segment (point robot)."""
        return not self._check_env.segment_in_collision(a, b)

    def segments_valid(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return ~self._check_env.segments_in_collision(a, b)
