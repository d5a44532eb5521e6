"""Configuration spaces, the uniform sampler and the straight-line local planner."""

from .local_planner import LocalPlanResult, StraightLinePlanner
from .sampling import SampleBatch, UniformSampler
from .space import ConfigurationSpace, EuclideanCSpace

__all__ = [
    "LocalPlanResult",
    "StraightLinePlanner",
    "SampleBatch",
    "UniformSampler",
    "ConfigurationSpace",
    "EuclideanCSpace",
]
