"""Golden-seed tests for the procedural large-obstacle scenarios.

Each generator must be deterministic for a fixed seed — bench rows built
on these worlds are only comparable across machines if the obstacle
arrays are byte-identical.  The goldens pin exact obstacle counts plus a
sha256 of the packed arrays (``repro.geometry.scenarios.fingerprint``),
so any drift in the generation code (RNG call order, layout math,
dtype) fails loudly.
"""

import numpy as np
import pytest

from repro.geometry import Environment
from repro.geometry.scenarios import (
    available_scenarios,
    city_grid,
    fingerprint,
    scenario_by_name,
    shelf_warehouse,
)
from repro.kernels import EnvKernelData

# sha256 of the packed obstacle arrays for pinned (n, seed) pairs.
# Regenerate with:
#   PYTHONPATH=src python -c "from repro.geometry.scenarios import *; \
#       print(fingerprint(shelf_warehouse(1000, seed=42)))"
GOLDEN = {
    ("warehouse", 1000, 42): "acf53e585e5d0ac99050468d7e5eddc46c50b270264a01f34af44efa962e6b5f",
    ("city", 1000, 42): "aaa9aca623680bd33bbdb28a96bd647855beafafb21c442cb309933731c0098e",
    ("warehouse", 100, 7): "bebbb895cc86c78464e30f88975940b415862b7faa9fb183edbb1d314f7e1c9c",
    ("city", 100, 7): "9db6f29da58b9861b1ac5edaa91a007f4ff7d00f97f465ab3137db9554e31685",
}


class TestGoldenSeeds:
    @pytest.mark.parametrize("name,n,seed", sorted(GOLDEN))
    def test_fingerprint_matches_golden(self, name, n, seed):
        obj = scenario_by_name(name, n_obstacles=n, seed=seed)
        assert obj.num_obstacles == n
        assert fingerprint(obj) == GOLDEN[(name, n, seed)]

    @pytest.mark.parametrize("name", ["warehouse", "city"])
    def test_same_seed_same_world(self, name):
        a = scenario_by_name(name, n_obstacles=250, seed=3)
        b = scenario_by_name(name, n_obstacles=250, seed=3)
        assert fingerprint(a) == fingerprint(b)

    @pytest.mark.parametrize("name", ["warehouse", "city"])
    def test_different_seed_different_world(self, name):
        a = scenario_by_name(name, n_obstacles=250, seed=3)
        b = scenario_by_name(name, n_obstacles=250, seed=4)
        assert fingerprint(a) != fingerprint(b)


class TestExactCounts:
    """Generators must produce *exactly* n obstacles, including counts
    that don't divide evenly into racks/blocks."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 101, 1000, 1001])
    @pytest.mark.parametrize("name", ["warehouse", "city"])
    def test_exact_count(self, name, n):
        assert scenario_by_name(name, n_obstacles=n, seed=0).num_obstacles == n

    @pytest.mark.parametrize("name", ["warehouse", "city"])
    def test_zero_rejected(self, name):
        with pytest.raises(ValueError):
            scenario_by_name(name, n_obstacles=0, seed=0)


class TestGeometry:
    def test_warehouse_is_environment(self):
        env = shelf_warehouse(200, seed=0)
        assert isinstance(env, Environment)
        assert env.dim == 3
        assert env.name == "warehouse-200"

    def test_city_is_environment(self):
        env = city_grid(200, seed=0)
        assert isinstance(env, Environment)
        assert env.name == "city-200"

    @pytest.mark.parametrize("name", ["warehouse", "city"])
    def test_boxes_inside_workspace(self, name):
        env = scenario_by_name(name, n_obstacles=300, seed=5)
        data = env.kernel_data()
        assert np.all(data.box_lo <= data.box_hi)
        assert np.all(data.box_lo >= data.bounds_lo - 1e-12)
        assert np.all(data.box_hi <= data.bounds_hi + 1e-12)

    def test_city_buildings_rise_from_floor(self):
        env = city_grid(64, seed=0)
        data = env.kernel_data()
        assert np.all(data.box_lo[:, 2] == data.bounds_lo[2])

    def test_warehouse_has_free_space(self):
        # Aisles exist: sampling must find free points easily.
        env = shelf_warehouse(400, seed=0)
        pts = env.sample_free(np.random.default_rng(0), 50)
        assert pts.shape[0] == 50


class TestRegistry:
    def test_available_scenarios(self):
        assert available_scenarios() == ["city", "warehouse"]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario_by_name("maze")


class TestFingerprint:
    def test_accepts_environment_and_snapshot(self):
        env = shelf_warehouse(50, seed=0)
        fp_env = fingerprint(env)
        fp_data = fingerprint(env.kernel_data())
        assert fp_env == fp_data

    def test_sensitive_to_single_element(self):
        data = shelf_warehouse(50, seed=0).kernel_data()
        before = fingerprint(data)
        box_lo = data.box_lo.copy()
        box_lo[0, 0] += 1e-12
        perturbed = EnvKernelData(
            bounds_lo=data.bounds_lo,
            bounds_hi=data.bounds_hi,
            box_lo=box_lo,
            box_hi=data.box_hi,
        )
        assert fingerprint(perturbed) != before
