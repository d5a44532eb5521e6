"""Seeded procedural generators for large-obstacle benchmark scenarios.

The paper's environments top out at ~125 obstacles — enough to show load
imbalance, not enough to exercise hierarchical collision acceleration.
These generators produce 10³–10⁵-obstacle worlds with the *structured*
clutter real workloads have (aisles, streets), giving the ``bvh`` kernel
backend something to climb and the load-balancing story richer imbalance
profiles:

* :func:`shelf_warehouse` — rows of shelving racks with stacked bays and
  cross aisles; collision density is strongly anisotropic (along-aisle
  segments are nearly free, cross-rack segments hit constantly).
* :func:`city_grid` — a Manhattan grid of buildings with jittered
  footprints and heights over street canyons.

Every generator is **deterministic for a fixed seed** and produces
**exactly** ``n_obstacles`` primitives, so benchmark rows are
reproducible across machines — the golden-seed tests pin obstacle counts
and a sha256 of the packed arrays (:func:`fingerprint`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .environment import Environment
from .primitives import AABB

__all__ = [
    "shelf_warehouse",
    "city_grid",
    "scenario_by_name",
    "available_scenarios",
    "fingerprint",
]

#: Workspace half-extent shared by every generator (matches the paper
#: environments in ``repro.geometry.environments``).
HALF_EXTENT = 10.0


def _boxes_to_env(lo: np.ndarray, hi: np.ndarray, name: str, half: float) -> Environment:
    bounds = AABB(-half * np.ones(lo.shape[1]), half * np.ones(lo.shape[1]))
    return Environment(bounds, [AABB(a, b) for a, b in zip(lo, hi)], name=name)


def shelf_warehouse(n_obstacles: int = 1000, seed: int = 0, half: float = HALF_EXTENT) -> Environment:
    """A 3-D warehouse: rows of racks, each rack a column of stacked bays.

    Racks are laid out on a regular grid of aisles in the x/y plane;
    every bay is one box obstacle with a small seeded jitter in extent
    (cargo of varying size).  Exactly ``n_obstacles`` bays are produced,
    filled rack by rack, level by level.
    """
    if n_obstacles < 1:
        raise ValueError("n_obstacles must be >= 1")
    rng = np.random.default_rng(seed)
    levels = 4
    # Racks needed to hold n bays; lay them out on a near-square grid.
    racks = -(-n_obstacles // levels)
    cols = max(1, int(np.ceil(np.sqrt(racks))))
    rows = -(-racks // cols)
    # Rack footprint and aisle pitch derived from the grid so the layout
    # always fits the workspace regardless of n.
    pitch_x = 2.0 * half / cols
    pitch_y = 2.0 * half / rows
    foot_x = 0.45 * pitch_x
    foot_y = 0.60 * pitch_y
    level_h = 2.0 * half / (levels + 1)
    lo = np.empty((n_obstacles, 3))
    hi = np.empty((n_obstacles, 3))
    i = 0
    for r in range(rows):
        for c in range(cols):
            if i >= n_obstacles:
                break
            cx = -half + (c + 0.5) * pitch_x
            cy = -half + (r + 0.5) * pitch_y
            for z in range(levels):
                if i >= n_obstacles:
                    break
                # Cargo jitter: each bay shrinks by up to 30% per axis.
                shrink = rng.uniform(0.7, 1.0, size=3)
                ex = 0.5 * foot_x * shrink[0]
                ey = 0.5 * foot_y * shrink[1]
                z_lo = -half + (z + 0.5) * level_h
                ez = 0.5 * level_h * 0.8 * shrink[2]
                z_c = z_lo + 0.5 * level_h * 0.8
                lo[i] = (cx - ex, cy - ey, z_c - ez)
                hi[i] = (cx + ex, cy + ey, z_c + ez)
                i += 1
    return _boxes_to_env(lo, hi, f"warehouse-{n_obstacles}", half)


def city_grid(n_obstacles: int = 1000, seed: int = 0, half: float = HALF_EXTENT) -> Environment:
    """A 3-D city: blocks of buildings over a street grid.

    The x/y plane is divided into city blocks separated by streets; each
    block holds a 2x2 cluster of buildings with seeded jitter in
    footprint and height.  Buildings rise from the workspace floor, so
    low-altitude segments thread street canyons while high ones fly
    free — strong vertical heterogeneity.  Exactly ``n_obstacles``
    buildings are produced.
    """
    if n_obstacles < 1:
        raise ValueError("n_obstacles must be >= 1")
    rng = np.random.default_rng(seed)
    per_block = 4
    blocks = -(-n_obstacles // per_block)
    bpa = max(1, int(np.ceil(np.sqrt(blocks))))
    pitch = 2.0 * half / bpa
    street = 0.25 * pitch  # street width between blocks
    lot = 0.5 * (pitch - street)  # one building lot (2x2 per block)
    lo = np.empty((n_obstacles, 3))
    hi = np.empty((n_obstacles, 3))
    i = 0
    for by in range(bpa):
        for bx in range(bpa):
            if i >= n_obstacles:
                break
            ox = -half + bx * pitch + 0.5 * street
            oy = -half + by * pitch + 0.5 * street
            for ly in range(2):
                for lx in range(2):
                    if i >= n_obstacles:
                        break
                    # Jittered footprint inside the lot, jittered height.
                    fx = rng.uniform(0.5, 0.9) * lot
                    fy = rng.uniform(0.5, 0.9) * lot
                    x0 = ox + lx * lot + rng.uniform(0.0, lot - fx)
                    y0 = oy + ly * lot + rng.uniform(0.0, lot - fy)
                    height = rng.uniform(0.2, 0.9) * 2.0 * half
                    lo[i] = (x0, y0, -half)
                    hi[i] = (x0 + fx, y0 + fy, -half + height)
                    i += 1
    return _boxes_to_env(lo, hi, f"city-{n_obstacles}", half)


_SCENARIOS = {
    "warehouse": shelf_warehouse,
    "city": city_grid,
}


def available_scenarios() -> "list[str]":
    """Registered scenario names, sorted."""
    return sorted(_SCENARIOS)


def scenario_by_name(name: str, n_obstacles: int = 1000, seed: int = 0) -> Environment:
    """Build a scenario by name (``warehouse`` / ``city``)."""
    try:
        builder = _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {available_scenarios()}"
        ) from None
    return builder(n_obstacles=n_obstacles, seed=seed)


def fingerprint(obj) -> str:
    """sha256 hex digest of a scenario's packed obstacle arrays.

    Accepts an :class:`Environment` (hashed via its cached
    ``EnvKernelData`` snapshot) or an ``EnvKernelData`` directly.  The
    digest covers bounds and box arrays byte-for-byte, so the
    golden-seed tests pin exact cross-machine reproducibility, not just
    obstacle counts.
    """
    data = obj.kernel_data() if isinstance(obj, Environment) else obj
    h = hashlib.sha256()
    for arr in (data.bounds_lo, data.bounds_hi, data.box_lo, data.box_hi):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()
