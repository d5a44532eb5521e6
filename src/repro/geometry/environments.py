"""Procedural builders for the benchmark environments used in the paper.

The paper evaluates on:

* **model-2d** (Sec. IV-B): a 2-D square workspace with a single square
  obstacle equidistant from the bounding box — the analytically tractable
  model environment.
* **med-cube / small-cube / free** (PRM, Sec. IV-C1): 3-D narrow-passage
  variants of the model with roughly 24%, 6% and 0% of the workspace
  blocked by a single central cube.
* **walls / walls-45**: narrow-passage wall environments (Fig. 8 captions);
  the running text uses the cube names, so these are provided as extras.
* **mixed / mixed-30 / free** (RRT, Sec. IV-C2): cluttered environments
  that are 60%, 30% and 0% blocked.

All builders return an :class:`~repro.geometry.environment.Environment`
whose blocked fraction matches the paper's figure within a small tolerance
(checked by the test-suite).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .environment import Environment
from .primitives import AABB

__all__ = [
    "model_2d",
    "cube_env",
    "med_cube",
    "small_cube",
    "free_env",
    "walls_env",
    "cluttered_env",
    "mixed_env",
    "mixed_30_env",
    "by_name",
]

#: Workspace half-extent of every scene.
HALF_EXTENT = 10.0
#: Dimension of every scene but model-2d's: the catalogue is 2-D or 3-D.
DIM = 3
#: Walls of the walls / walls-45 scenes.
NUM_WALLS = 3
#: Width of each wall's gap, as a fraction of the workspace extent.
GAP_FRACTION = 0.15
#: Placement seed of the mixed / mixed-30 clutter.
MIXED_SEED = 7


def _workspace(dim: int) -> AABB:
    return AABB(-HALF_EXTENT * np.ones(dim), HALF_EXTENT * np.ones(dim))


def model_2d(obstacle_fraction: float = 0.25) -> Environment:
    """The paper's theoretical model: one square obstacle centred in a 2-D
    square workspace, equidistant from the bounding box.

    ``obstacle_fraction`` is the fraction of the workspace *area* covered by
    the obstacle.
    """
    if not 0.0 <= obstacle_fraction < 1.0:
        raise ValueError(f"obstacle_fraction must be in [0, 1), got {obstacle_fraction}")
    bounds = _workspace(2)
    side = 2.0 * HALF_EXTENT * np.sqrt(obstacle_fraction)
    obstacle = AABB(-0.5 * side * np.ones(2), 0.5 * side * np.ones(2))
    obstacles = [obstacle] if obstacle_fraction > 0 else []
    return Environment(bounds, obstacles, name=f"model-2d({obstacle_fraction:.0%})")


def cube_env(blocked_fraction: float, name: str | None = None) -> Environment:
    """A 3-D workspace with one central cube blocking the given volume
    fraction; the generalisation behind med-cube/small-cube."""
    if not 0.0 <= blocked_fraction < 1.0:
        raise ValueError(f"blocked_fraction must be in [0, 1), got {blocked_fraction}")
    bounds = _workspace(DIM)
    obstacles = []
    if blocked_fraction > 0:
        side = 2.0 * HALF_EXTENT * blocked_fraction ** (1.0 / DIM)
        obstacles.append(AABB(-0.5 * side * np.ones(DIM), 0.5 * side * np.ones(DIM)))
    env = Environment(bounds, obstacles, name=name or f"cube({blocked_fraction:.0%})")
    return env


def med_cube() -> Environment:
    """~24% of the environment blocked by a central cube (paper's med-cube)."""
    return cube_env(0.24, name="med-cube")


def small_cube() -> Environment:
    """~6% of the environment blocked by a central cube (paper's small-cube)."""
    return cube_env(0.06, name="small-cube")


def free_env() -> Environment:
    """Completely obstacle-free workspace (paper's free environment)."""
    return cube_env(0.0, name="free")


def walls_env(angled: bool = False) -> Environment:
    """Narrow-passage environment: ``NUM_WALLS`` parallel walls spanning
    the workspace, each pierced by one off-centre gap.

    With ``angled=True`` the gaps alternate corners, mimicking the
    "walls-45" style of staggered passages that forces long detours.
    """
    dim, half = DIM, HALF_EXTENT
    bounds = _workspace(dim)
    thickness = 0.05 * (2 * half)
    gap = GAP_FRACTION * (2 * half)
    obstacles: list[AABB] = []
    for w in range(NUM_WALLS):
        # Wall position along axis 0, evenly spaced inside the workspace.
        x = -half + (w + 1) * (2 * half) / (NUM_WALLS + 1)
        # The gap slides along axis 1: alternate sides for staggering.
        side = (-1) ** w if not angled else (-1) ** (w + (w // 2))
        gap_center = side * (half - gap)
        gap_lo, gap_hi = gap_center - 0.5 * gap, gap_center + 0.5 * gap
        # Wall = two slabs leaving [gap_lo, gap_hi] open along axis 1.
        lo1 = np.full(dim, -half)
        hi1 = np.full(dim, half)
        lo1[0], hi1[0] = x - 0.5 * thickness, x + 0.5 * thickness
        hi1[1] = gap_lo
        if hi1[1] > lo1[1]:
            obstacles.append(AABB(lo1.copy(), hi1.copy()))
        lo2 = np.full(dim, -half)
        hi2 = np.full(dim, half)
        lo2[0], hi2[0] = x - 0.5 * thickness, x + 0.5 * thickness
        lo2[1] = gap_hi
        if hi2[1] > lo2[1]:
            obstacles.append(AABB(lo2.copy(), hi2.copy()))
    name = "walls-45" if angled else "walls"
    return Environment(bounds, obstacles, name=f"{name}({NUM_WALLS})")


def cluttered_env(
    blocked_fraction: float,
    cells_per_axis: int = 4,
    seed: int = 0,
    name: str | None = None,
    asymmetry: float = 0.0,
) -> Environment:
    """Cluttered 3-D workspace with *non-overlapping* box obstacles
    totalling ``blocked_fraction`` of the volume (exactly, up to jitter).

    Placement is a jittered grid: the workspace is divided into
    ``cells_per_axis**3`` cells and each cell receives one box whose
    volume is the cell's share of the target.  ``asymmetry`` in [0, 1)
    shifts volume toward the positive-x half: the +x half is filled to
    ``blocked * (1 + asymmetry)`` and the -x half to
    ``blocked * (1 - asymmetry)``, producing the directional workload
    heterogeneity the paper's cluttered RRT environments exhibit.
    """
    if not 0.0 <= blocked_fraction < 0.92:
        raise ValueError("blocked_fraction must be in [0, 0.92)")
    if not 0.0 <= asymmetry < 1.0:
        raise ValueError("asymmetry must be in [0, 1)")
    fill_plus = blocked_fraction * (1.0 + asymmetry)
    fill_minus = blocked_fraction * (1.0 - asymmetry)
    if fill_plus >= 0.95:
        raise ValueError("asymmetric fill exceeds the +x half's capacity")
    dim = DIM
    bounds = _workspace(dim)
    rng = np.random.default_rng(seed)
    cell = bounds.extents / cells_per_axis
    obstacles: list[AABB] = []
    for idx in np.ndindex(*(cells_per_axis,) * dim):
        lo = bounds.lo + np.asarray(idx) * cell
        center_x = lo[0] + 0.5 * cell[0]
        fill = fill_plus if center_x > 0 else fill_minus
        if fill <= 0.0:
            continue
        side = cell * fill ** (1.0 / dim)
        # Jitter the box inside its cell; boxes stay disjoint by
        # construction because each lives in its own cell.
        slack = cell - side
        offset = rng.uniform(0.05, 0.95, size=dim) * slack
        obstacles.append(AABB(lo + offset, lo + offset + side))
    env = Environment(bounds, obstacles, name=name or f"cluttered({blocked_fraction:.0%})")
    return env


def mixed_env() -> Environment:
    """The RRT evaluation's 60%-blocked cluttered environment.

    The clutter is strongly one-sided so that conical regions facing it
    are far more expensive than those facing open space — the directional
    heterogeneity the paper's mixed workload exhibits.
    """
    return cluttered_env(0.60, seed=MIXED_SEED, name="mixed", asymmetry=0.5, cells_per_axis=5)


def mixed_30_env() -> Environment:
    """The RRT evaluation's 30%-blocked cluttered environment."""
    return cluttered_env(0.30, seed=MIXED_SEED, name="mixed-30", asymmetry=0.6, cells_per_axis=5)


#: The catalogue: every scene by its paper name.
_BUILDERS = {
    "model-2d": model_2d,
    "med-cube": med_cube,
    "small-cube": small_cube,
    "free": free_env,
    "walls": walls_env,
    "walls-45": partial(walls_env, angled=True),
    "mixed": mixed_env,
    "mixed-30": mixed_30_env,
}


def by_name(name: str) -> Environment:
    """Build a benchmark environment by its paper name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown environment {name!r}; known: {sorted(_BUILDERS)}") from None
    return builder()
