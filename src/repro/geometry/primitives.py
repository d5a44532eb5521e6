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

__all__ = ["AABB", "Sphere", "aabb_union", "aabb_from_points"]


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

    def clamp(self, points: np.ndarray) -> np.ndarray:
        """Project points onto the box (componentwise clamping)."""
        return np.clip(np.asarray(points, dtype=float), self.lo, self.hi)

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

    def expanded(self, margin: float | np.ndarray) -> "AABB":
        """Return the box grown by ``margin`` on every side.

        Negative margins shrink the box; shrinking below a point collapses
        each axis to its midpoint rather than producing an invalid box.
        """
        m = np.broadcast_to(np.asarray(margin, dtype=float), self.lo.shape)
        lo, hi = self.lo - m, self.hi + m
        bad = lo > hi
        if np.any(bad):
            mid = self.center
            lo = np.where(bad, mid, lo)
            hi = np.where(bad, mid, hi)
        return AABB(lo, hi)

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

    # -- segment queries --------------------------------------------------
    def segment_intersects(self, p: np.ndarray, q: np.ndarray) -> bool:
        """Slab test: does segment ``p->q`` touch the box?"""
        t0, t1 = _segment_slab_interval(np.asarray(p, float), np.asarray(q, float), self.lo, self.hi)
        return t0 <= t1

    def segments_intersect(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Vectorised slab test for segments ``p[i]->q[i]``; returns bools ``(n,)``."""
        p = np.atleast_2d(np.asarray(p, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        d = q - p
        # Avoid division warnings: where d==0, the ray is parallel to the slab.
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(d != 0.0, 1.0 / d, np.inf)
        t_lo = (self.lo - p) * inv
        t_hi = (self.hi - p) * inv
        t_near = np.minimum(t_lo, t_hi)
        t_far = np.maximum(t_lo, t_hi)
        # Parallel axes: the segment misses unless p is within the slab.
        parallel = d == 0.0
        outside = parallel & ((p < self.lo) | (p > self.hi))
        t_near = np.where(parallel, -np.inf, t_near)
        t_far = np.where(parallel, np.inf, t_far)
        t0 = np.maximum(np.max(t_near, axis=1), 0.0)
        t1 = np.minimum(np.min(t_far, axis=1), 1.0)
        hit = (t0 <= t1) & ~np.any(outside, axis=1)
        return hit


def _segment_slab_interval(p, q, lo, hi):
    """Parametric entry/exit of segment p->q through box [lo,hi]; empty if t0>t1."""
    d = q - p
    t0, t1 = 0.0, 1.0
    for i in range(p.shape[0]):
        if d[i] == 0.0:
            if p[i] < lo[i] or p[i] > hi[i]:
                return 1.0, 0.0
        else:
            ta = (lo[i] - p[i]) / d[i]
            tb = (hi[i] - p[i]) / d[i]
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 > t1:
                return 1.0, 0.0
    return t0, t1


@dataclass(frozen=True)
class Sphere:
    """A solid ball; used for robot bounding volumes and radial regions."""

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

    def volume(self) -> float:
        """Volume of a d-ball (gamma-function formula)."""
        from math import gamma, pi

        d = self.dim
        return float(pi ** (d / 2.0) / gamma(d / 2.0 + 1.0) * self.radius**d)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        inside = np.einsum("ij,ij->i", pts - self.center, pts - self.center) <= self.radius**2
        return bool(inside[0]) if single else inside

    def bounding_box(self) -> AABB:
        return AABB(self.center - self.radius, self.center + self.radius)

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


def aabb_union(boxes: "list[AABB]") -> AABB:
    """Smallest AABB containing every box in ``boxes``."""
    if not boxes:
        raise ValueError("aabb_union of an empty list")
    lo = np.min(np.stack([b.lo for b in boxes]), axis=0)
    hi = np.max(np.stack([b.hi for b in boxes]), axis=0)
    return AABB(lo, hi)


def aabb_from_points(points: np.ndarray) -> AABB:
    """Smallest AABB containing all rows of ``points``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("aabb_from_points of an empty point set")
    return AABB(pts.min(axis=0), pts.max(axis=0))
