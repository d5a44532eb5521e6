"""Configuration spaces, the uniform sampler and the straight-line local planner."""

from .local_planner import LocalPlanResult, StraightLinePlanner
from .rigid_body import RigidBodyCSpace, box_body_points
from .sampling import SampleBatch, UniformSampler
from .space import ConfigurationSpace, EuclideanCSpace

__all__ = [
    "LocalPlanResult",
    "StraightLinePlanner",
    "RigidBodyCSpace",
    "box_body_points",
    "SampleBatch",
    "UniformSampler",
    "ConfigurationSpace",
    "EuclideanCSpace",
]
