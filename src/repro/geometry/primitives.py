"""Geometric primitives used by the workspace model.

All primitives are axis-aligned-friendly and store their data in small
NumPy arrays so that batched queries (many points / many segments against
many obstacles) vectorise.  The workspace is ``d``-dimensional; motion
planning environments in this repository use ``d`` = 2 or 3, but nothing
here assumes a particular dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AABB", "Sphere"]


@dataclass(frozen=True)
class AABB:
    """Axis-aligned bounding box, ``lo[i] <= x[i] <= hi[i]``.

    Degenerate boxes (``lo == hi`` along some axis) are permitted and
    behave as lower-dimensional slabs.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError(f"AABB bounds must be 1-D and equal shape, got {lo.shape} vs {hi.shape}")
        if np.any(lo > hi):
            raise ValueError(f"AABB has lo > hi: lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- basic measures -------------------------------------------------
    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def extents(self) -> np.ndarray:
        return self.hi - self.lo

    def volume(self) -> float:
        """Lebesgue measure of the box (0 for degenerate boxes)."""
        return float(np.prod(self.hi - self.lo))

    # -- point queries ---------------------------------------------------
    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorised membership test.

        ``points`` has shape ``(n, d)`` or ``(d,)``; the result is a boolean
        array of shape ``(n,)`` (or a scalar bool for a single point).
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        inside = np.all((pts >= self.lo) & (pts <= self.hi), axis=1)
        return bool(inside[0]) if single else inside

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance from each point to the box (0 if inside)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        delta = np.maximum(np.maximum(self.lo - pts, pts - self.hi), 0.0)
        d = np.linalg.norm(delta, axis=1)
        return d[0] if np.asarray(points).ndim == 1 else d

    # -- box-box queries --------------------------------------------------
    def intersects(self, other: "AABB") -> bool:
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def intersection(self, other: "AABB") -> "AABB | None":
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(lo > hi):
            return None
        return AABB(lo, hi)

    def intersection_volume(self, other: "AABB") -> float:
        inter = self.intersection(other)
        return 0.0 if inter is None else inter.volume()

    def from_unit_cube(self, u: np.ndarray) -> np.ndarray:
        """Map points of the unit ``d``-cube onto the box, elementwise:
        ``lo + (hi - lo) * u`` — the arithmetic of ``rng.uniform(lo, hi)``,
        so a mapped ``rng.random`` row equals a ``uniform`` draw bit for
        bit.  ``u`` is ``(d,)`` or ``(n, d)``."""
        return self.lo + (self.hi - self.lo) * np.asarray(u, dtype=float)

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Draw uniform samples from the box interior: ``(d,)`` for
        ``n=None``, else ``(n, d)``, one uniform per coordinate."""
        return self.from_unit_cube(rng.random(self.dim if n is None else (n, self.dim)))


@dataclass(frozen=True)
class Sphere:
    """A ball; its surface places the targets of radial regions."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1:
            raise ValueError("Sphere center must be a 1-D point")
        if self.radius < 0:
            raise ValueError(f"Sphere radius must be non-negative, got {self.radius}")
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def surface_sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Uniform samples on the sphere surface (Muller's Gaussian trick)."""
        m = 1 if n is None else n
        v = rng.normal(size=(m, self.dim))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        # A Gaussian draw landing exactly at the origin has probability 0;
        # fall back to a coordinate axis to stay safe anyway.
        norms[norms == 0.0] = 1.0
        pts = self.center + self.radius * v / norms
        return pts[0] if n is None else pts

