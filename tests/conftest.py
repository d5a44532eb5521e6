"""Shared fixtures for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from repro.cspace import EuclideanCSpace
from repro.geometry import AABB, Environment, med_cube

#: Every property draws the same examples on every run, and no deadline
#: turns a slow run into a failure: ``pytest --hypothesis-profile=derandomized``
#: (``tools/mutants.py`` runs under it, so a verdict cannot depend on the draw).
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retries back off from 0.01 s instead of ``BACKOFF_BASE`` (0.05 s),
    so retry-heavy tests stay fast; the dispatcher reads the constant at
    each retry, in the parent process on either backend."""
    monkeypatch.setattr("repro.runtime.local_pool.BACKOFF_BASE", 0.01)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def box_env():
    """Small 2-D environment with two obstacles."""
    bounds = AABB([-5.0, -5.0], [5.0, 5.0])
    obstacles = [AABB([-1.0, -1.0], [1.0, 1.0]), AABB([2.0, 2.0], [4.0, 4.0])]
    return Environment(bounds, obstacles, name="two-box")


@pytest.fixture
def box_cspace(box_env):
    return EuclideanCSpace(box_env)


@pytest.fixture
def medcube_cspace():
    return EuclideanCSpace(med_cube())
