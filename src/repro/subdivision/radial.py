"""Uniform radial subdivision for parallel RRT (Algorithm 2, lines 1-9).

A hypersphere of radius ``r`` is centred at the tree root; ``Nr`` points
are sampled on its surface, each defining a conical region around the ray
from the root through the point.  The region graph connects each region
to its ``k`` nearest regions (by surface point distance).  Membership in a
cone is angular: a configuration belongs to the region whose ray is
nearest in angle, with an ``overlap`` margin (in radians) so branches can
explore slightly into neighbouring cones, as the paper allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..geometry.primitives import Sphere
from .region import Region, RegionGraph

__all__ = ["ConeRegion", "RadialSubdivision"]


@dataclass
class ConeRegion(Region):
    """Conical region around the ray root -> target."""

    root: np.ndarray = None  # type: ignore[assignment]
    target: np.ndarray = None  # type: ignore[assignment]
    half_angle: float = 0.0
    overlap: float = 0.0
    radius: float = 0.0

    def __post_init__(self) -> None:
        d = self.target - self.root
        #: Unit vector of the region ray.
        self.direction = d / np.linalg.norm(d)

    @cached_property
    def _frame(self) -> "tuple[np.ndarray, ...]":
        """Orthonormal frame whose first axis is the region ray."""
        e0 = self.direction
        if e0.shape[0] == 2:
            return e0, np.array([-e0[1], e0[0]])
        # Cross with the coordinate axis least aligned with the ray.
        e1 = np.cross(e0, np.eye(3)[np.argmin(np.abs(e0))])
        e1 /= np.linalg.norm(e1)
        return e0, e1, np.cross(e0, e1)

    def from_unit_cube(self, u: np.ndarray) -> np.ndarray:
        """Map points of the unit ``d``-cube onto the cone ∩ ball, volume
        for volume: uniform ``u`` gives uniform positions in the region.

        The direction is uniform in the spherical cap of half-angle
        ``min(half_angle + overlap, pi)`` — the polar angle itself in 2-D,
        its cosine and the azimuth in 3-D — and the radius is
        ``radius * u**(1/d)``.  ``u`` is ``(d,)`` or ``(n, d)``; every step
        is elementwise, so row ``i`` of a block equals the single point
        mapped alone, bit for bit.  Only positional dimensions 2 and 3
        have a closed form here; any other raises.
        """
        u = np.asarray(u, dtype=float)
        d = self.root.shape[0]
        cap = min(self.half_angle + self.overlap, np.pi)
        if d == 2:
            theta = cap * (2.0 * u[..., 0] - 1.0)
            coords = (np.cos(theta), np.sin(theta))
            r = self.radius * np.sqrt(u[..., 1])
        elif d == 3:
            cos_t = 1.0 - u[..., 0] * (1.0 - np.cos(cap))
            sin_t = np.sqrt((1.0 - cos_t) * (1.0 + cos_t))
            phi = (2.0 * np.pi) * u[..., 1]
            coords = (cos_t, sin_t * np.cos(phi), sin_t * np.sin(phi))
            r = self.radius * np.cbrt(u[..., 2])
        else:
            raise ValueError(
                f"ConeRegion can only be sampled in 2 or 3 positional dimensions, not {d}"
            )
        unit = sum(c[..., None] * e for c, e in zip(coords, self._frame))
        return self.root + r[..., None] * unit

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Draw uniform positions from the cone ∩ ball — the ``within=``
        protocol of :meth:`repro.geometry.primitives.AABB.sample`: ``(d,)``
        for ``n=None``, else ``(n, d)``, and ``sample(rng, n)`` consumes
        the generator exactly as ``n`` single draws do."""
        d = self.root.shape[0]
        return self.from_unit_cube(rng.random(d) if n is None else rng.random((n, d)))

    def angle_to(self, config: np.ndarray) -> float:
        """Angle between the region ray and the root->config direction."""
        v = np.asarray(config, dtype=float)[: self.root.shape[0]] - self.root
        n = np.linalg.norm(v)
        if n == 0.0:
            return 0.0
        c = float(np.clip(np.dot(v / n, self.direction), -1.0, 1.0))
        return float(np.arccos(c))

    def contains(self, config: np.ndarray) -> bool:
        """Whether ``config`` lies in the cone (within radius and angle)."""
        return bool(self.contains_many(config)[0])

    def contains_many(self, configs: np.ndarray) -> np.ndarray:
        """Vectorised membership: boolean mask for ``(m, dim)`` positions.

        The RRT region guard (``RRT.grow``'s ``region_predicate``), and
        :meth:`contains`, which delegates here, so a point's verdict does
        not depend on the batch it is tested in, even on the cone boundary.
        """
        pts = np.atleast_2d(np.asarray(configs, dtype=float))[:, : self.root.shape[0]]
        v = pts - self.root
        n = np.sqrt(np.einsum("ij,ij->i", v, v))
        nonzero = n > 0.0
        safe_n = np.where(nonzero, n, 1.0)
        cos = np.clip((v / safe_n[:, None]) @ self.direction, -1.0, 1.0)
        angle = np.where(nonzero, np.arccos(cos), 0.0)
        return (n <= self.radius) & (angle <= self.half_angle + self.overlap)


class RadialSubdivision:
    """Radial (conical) subdivision of the positional space.

    Parameters
    ----------
    root:
        Positional coordinates of the RRT root ``q_root``.
    radius:
        Sphere radius ``r`` (how far branches may grow).
    num_regions:
        Number of surface points / conical regions ``Nr``.
    k:
        Each region is adjacent to its ``k`` nearest regions.
    overlap:
        Angular overlap in radians allowed beyond the nominal half-angle.
    rng:
        Source of randomness for the surface points.
    """

    def __init__(
        self,
        root: np.ndarray,
        radius: float,
        num_regions: int,
        k: int = 4,
        overlap: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        if radius <= 0:
            raise ValueError("radius must be positive")
        if num_regions < 1:
            raise ValueError("num_regions must be >= 1")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.root = np.asarray(root, dtype=float)
        self.radius = float(radius)
        self.num_regions = int(num_regions)
        self.k = min(k, num_regions - 1) if num_regions > 1 else 0
        self.overlap = float(overlap)
        rng = rng if rng is not None else np.random.default_rng(0)

        sphere = Sphere(self.root, self.radius)
        targets = np.atleast_2d(sphere.surface_sample(rng, self.num_regions))
        # Order regions angularly (lexicographic on direction cosines):
        # region ids then sweep the sphere coherently, the radial analogue
        # of the row-major ordering a mesh-distributed container uses, so
        # a blocked naive assignment owns contiguous angular sectors.
        order = np.lexsort(targets.T[::-1])
        self.targets = targets[order]
        # Nominal half-angle from the surface density: each cone covers
        # ~1/Nr of the sphere's solid angle; for a d-sphere the cap with
        # fraction f has cos(theta) ≈ 1 - 2 f^(2/(d-1)) — we use the
        # simpler equal-angle heuristic theta = pi * (1/Nr)^(1/(d-1)).
        d = self.root.shape[0]
        exponent = 1.0 / max(d - 1, 1)
        self.half_angle = float(np.pi * (1.0 / self.num_regions) ** exponent)

        self.graph = self._build()

    def _build(self) -> RegionGraph:
        graph = RegionGraph()
        for i, target in enumerate(self.targets):
            graph.add_region(
                ConeRegion(
                    id=i,
                    root=self.root,
                    target=target,
                    half_angle=self.half_angle,
                    overlap=self.overlap,
                    radius=self.radius,
                )
            )
        if self.num_regions > 1 and self.k > 0:
            # k nearest surface points define adjacency (Alg. 2 lines 4-9).
            diffs = self.targets[:, None, :] - self.targets[None, :, :]
            dist = np.linalg.norm(diffs, axis=2)
            np.fill_diagonal(dist, np.inf)
            for i in range(self.num_regions):
                for j in np.argsort(dist[i], kind="stable")[: self.k]:
                    if int(j) != i:
                        graph.add_adjacency(i, int(j))
        return graph

    # -- queries --------------------------------------------------------------
    def locate(self, position: np.ndarray) -> int:
        """Region whose ray is angularly nearest to root->position."""
        pos = np.asarray(position, dtype=float)[: self.root.shape[0]]
        v = pos - self.root
        n = np.linalg.norm(v)
        if n == 0.0:
            return 0
        dirs = self.targets - self.root
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        cos = dirs @ (v / n)
        return int(np.argmax(cos))

    def region_of(self, rid: int) -> ConeRegion:
        return self.graph.region(rid)  # type: ignore[return-value]
