"""Workspace geometry: primitives, environments, and collision checking."""

from .bvh import BVH
from .environment import CollisionCounters, Environment
from .environments import (
    by_name,
    cluttered_env,
    cube_env,
    free_env,
    med_cube,
    mixed_30_env,
    mixed_env,
    model_2d,
    small_cube,
    walls_env,
)
from .primitives import AABB, Sphere, aabb_from_points, aabb_union
from .scenarios import (
    available_scenarios,
    city_grid,
    fingerprint,
    scenario_by_name,
    shelf_warehouse,
)
from .transforms import (
    angular_difference,
    rot2d,
    rot3d_euler,
    transform_points_se2,
    transform_points_se3,
    wrap_angle,
)

__all__ = [
    "AABB",
    "BVH",
    "Sphere",
    "aabb_from_points",
    "aabb_union",
    "CollisionCounters",
    "Environment",
    "available_scenarios",
    "city_grid",
    "fingerprint",
    "scenario_by_name",
    "shelf_warehouse",
    "by_name",
    "cluttered_env",
    "cube_env",
    "free_env",
    "med_cube",
    "mixed_30_env",
    "mixed_env",
    "model_2d",
    "small_cube",
    "walls_env",
    "angular_difference",
    "rot2d",
    "rot3d_euler",
    "transform_points_se2",
    "transform_points_se3",
    "wrap_angle",
]
