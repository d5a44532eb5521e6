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
from .primitives import AABB, Sphere
from .scenarios import fingerprint, shelf_warehouse

__all__ = [
    "AABB",
    "BVH",
    "Sphere",
    "CollisionCounters",
    "Environment",
    "fingerprint",
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
]
