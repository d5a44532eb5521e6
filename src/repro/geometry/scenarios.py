"""Seeded procedural generators for large-obstacle benchmark scenarios.

The paper's environments top out at ~125 obstacles — enough to show load
imbalance, not enough to exercise hierarchical collision acceleration.
:func:`shelf_warehouse` produces 10³–10⁵-obstacle worlds with the
*structured* clutter real workloads have, giving the ``bvh`` kernel
backend something to climb and the load-balancing story richer imbalance
profiles: rows of shelving racks with stacked bays and cross aisles, so
collision density is strongly anisotropic (along-aisle segments are
nearly free, cross-rack segments hit constantly).

The generator is **deterministic for a fixed seed** and produces
**exactly** ``n_obstacles`` primitives, so benchmark rows are
reproducible across machines — the golden-seed tests pin obstacle counts
and a sha256 of the packed arrays (:func:`fingerprint`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .environment import Environment
from .environments import HALF_EXTENT
from .primitives import AABB

__all__ = ["shelf_warehouse", "fingerprint"]


def shelf_warehouse(n_obstacles: int = 1000, seed: int = 0) -> Environment:
    """A 3-D warehouse: rows of racks, each rack a column of stacked bays.

    Racks are laid out on a regular grid of aisles in the x/y plane;
    every bay is one box obstacle with a small seeded jitter in extent
    (cargo of varying size).  Exactly ``n_obstacles`` bays are produced,
    filled rack by rack, level by level: bay ``i`` is level ``i % 4`` of
    rack ``i // 4``, and rack ``k`` stands in grid row ``k // cols``,
    column ``k % cols``.  All bays are computed in one array pass and
    adopted by :meth:`Environment.from_arrays`; no per-bay object is made.
    """
    if n_obstacles < 1:
        raise ValueError("n_obstacles must be >= 1")
    # The workspace of the paper environments (``HALF_EXTENT``).
    half = HALF_EXTENT
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
    rack, z = np.divmod(np.arange(n_obstacles), levels)
    r, c = np.divmod(rack, cols)
    cx = -half + (c + 0.5) * pitch_x
    cy = -half + (r + 0.5) * pitch_y
    # Cargo jitter: each bay shrinks by up to 30% per axis (one row of
    # three draws per bay, in bay order).
    shrink = rng.uniform(0.7, 1.0, size=(n_obstacles, 3))
    ex = 0.5 * foot_x * shrink[:, 0]
    ey = 0.5 * foot_y * shrink[:, 1]
    z_lo = -half + (z + 0.5) * level_h
    ez = 0.5 * level_h * 0.8 * shrink[:, 2]
    z_c = z_lo + 0.5 * level_h * 0.8
    lo = np.stack([cx - ex, cy - ey, z_c - ez], axis=1)
    hi = np.stack([cx + ex, cy + ey, z_c + ez], axis=1)
    bounds = AABB(-half * np.ones(3), half * np.ones(3))
    return Environment.from_arrays(bounds, lo, hi, name=f"warehouse-{n_obstacles}")


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
