"""Tests for the layered request API (repro.spec)."""

import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro import (
    ExecutionPolicy,
    FaultPolicy,
    ObsConfig,
    PlanRequest,
    WorkloadSpec,
    plan,
)
from repro.geometry import environments
from repro.spec import _environment_fingerprint


class TestSpecObjects:
    def test_specs_are_frozen(self):
        with pytest.raises(FrozenInstanceError):
            WorkloadSpec().num_regions = 5
        with pytest.raises(FrozenInstanceError):
            ExecutionPolicy().workers = 5

    def test_workload_validate_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            WorkloadSpec(planner="astar").validate()
        with pytest.raises(ValueError):
            WorkloadSpec(num_regions=0).validate()

    def test_execution_validate_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(mode="cloud").validate()
        with pytest.raises(ValueError):
            ExecutionPolicy(strategy="telepathy").validate()
        with pytest.raises(ValueError):
            ExecutionPolicy(backend="gpu").validate()

    def test_fault_policy_pool_kwargs_round_trip(self):
        fp = FaultPolicy(policy="retry", max_retries=5, task_timeout=1.5)
        kw = fp.pool_kwargs(retry_seed=7)
        assert kw == {
            "failure_policy": "retry",
            "max_retries": 5,
            "task_timeout": 1.5,
            "fault_injector": None,
            "retry_seed": 7,
        }


class TestCacheKey:
    def test_equal_specs_share_a_key(self):
        a = WorkloadSpec(environment="med-cube", num_regions=32, seed=4)
        b = WorkloadSpec(environment="med-cube", num_regions=32, seed=4)
        assert a.cache_key() == b.cache_key()

    def test_different_seed_changes_the_key(self):
        a = WorkloadSpec(seed=0)
        b = WorkloadSpec(seed=1)
        assert a.cache_key() != b.cache_key()

    @pytest.mark.parametrize(
        "changes",
        [
            {"planner": "rrt"},
            {"num_regions": 57},
            {"samples_per_region": 9},
            {"nodes_per_region": 13},
            {"environment": "maze-2d"},
        ],
    )
    def test_every_roadmap_shaping_field_participates(self, changes):
        base = WorkloadSpec()
        assert WorkloadSpec(**changes).cache_key() != base.cache_key()

    def test_environment_instances_hash_by_content(self):
        e1 = environments.by_name("med-cube")
        e2 = environments.by_name("med-cube")
        assert e1 is not e2
        assert _environment_fingerprint(e1) == _environment_fingerprint(e2)
        k1 = WorkloadSpec(environment=e1).cache_key()
        k2 = WorkloadSpec(environment=e2).cache_key()
        assert k1 == k2

    def test_name_and_instance_keys_differ(self):
        # A catalog name and a materialised instance are different
        # identities on purpose: the name is the stable cross-process key.
        by_name = WorkloadSpec(environment="med-cube").cache_key()
        by_inst = WorkloadSpec(
            environment=environments.by_name("med-cube")
        ).cache_key()
        assert by_name != by_inst


class TestPlanRequestAggregate:
    def test_defaults(self):
        req = PlanRequest()
        assert req.workload == WorkloadSpec()
        assert req.execution == ExecutionPolicy()
        assert req.faults == FaultPolicy()
        assert req.obs == ObsConfig()
        req.validate()

    def test_frozen(self):
        req = PlanRequest()
        with pytest.raises(AttributeError, match="frozen"):
            req.workload = WorkloadSpec()

    def test_wrong_spec_type_raises(self):
        with pytest.raises(TypeError, match="WorkloadSpec"):
            PlanRequest(workload=ExecutionPolicy())
        with pytest.raises(TypeError, match="FaultPolicy"):
            PlanRequest(faults={"policy": "retry"})

    def test_unknown_flat_kwarg_raises(self):
        with pytest.raises(TypeError):
            PlanRequest(n_workers=4)

    def test_mixing_flat_with_same_spec_raises(self):
        with pytest.raises(TypeError):
            PlanRequest(workload=WorkloadSpec(), num_regions=32)

    def test_replace_derives_a_new_request(self):
        req = PlanRequest()
        other = req.replace(execution=ExecutionPolicy(num_pes=99))
        assert other.execution.num_pes == 99
        assert req.execution.num_pes == ExecutionPolicy().num_pes
        assert other != req
        with pytest.raises(TypeError, match="unknown spec field"):
            req.replace(num_pes=3)

    def test_equality(self):
        assert PlanRequest() == PlanRequest()
        assert PlanRequest(workload=WorkloadSpec(seed=1)) != PlanRequest()


class TestFlatShim:
    """The flat-kwarg shim is gone: spec objects are the only spelling."""

    def test_flat_kwargs_and_execution_string_raise_type_error(self):
        with pytest.raises(TypeError):
            PlanRequest(num_regions=8)
        with pytest.raises(TypeError, match="ExecutionPolicy"):
            PlanRequest(execution="local")

    def test_no_legacy_flat_reads(self):
        req = PlanRequest(workload=WorkloadSpec(num_regions=8))
        with pytest.raises(AttributeError):
            req.num_regions

    def test_spec_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PlanRequest(workload=WorkloadSpec(num_regions=32))


class TestUnifiedEntryPoints:
    def test_plan_accepts_bare_workload_spec(self):
        wl = WorkloadSpec(num_regions=16, samples_per_region=2, seed=5)
        report = plan(wl, execution=ExecutionPolicy(num_pes=2))
        assert report.request.workload == wl
        assert report.request.execution.num_pes == 2

    def test_plan_rejects_overrides_on_full_request(self):
        with pytest.raises(TypeError, match="overrides"):
            plan(PlanRequest(), execution=ExecutionPolicy())

    def test_bare_spec_equals_wrapped_request(self):
        wl = WorkloadSpec(num_regions=16, samples_per_region=2, seed=5)
        a = plan(wl)
        b = plan(PlanRequest(workload=wl))
        assert sorted(a.roadmap.edges()) == sorted(b.roadmap.edges())

    def test_solve_queries_accepts_specs(self):
        wl = WorkloadSpec(num_regions=16, samples_per_region=4, seed=5)
        report = plan(wl)
        cs = wl.resolve_cspace()
        rng = np.random.default_rng(0)
        lo, hi = cs.bounds.lo, cs.bounds.hi
        queries = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(4)]
        inline = report.solve_queries(queries)
        spec = report.solve_queries(
            queries,
            execution=ExecutionPolicy(workers=2),
            faults=FaultPolicy(policy="retry"),
        )
        assert inline.dispatch is None and spec.dispatch is not None
        assert inline.solved == spec.solved
        for a, b in zip(inline.results, spec.results):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.path_vertices == b.path_vertices
                assert np.array_equal(a.path_configs, b.path_configs)


class TestKernelBackendPolicy:
    def test_default_is_inherit(self):
        ex = ExecutionPolicy()
        assert ex.kernel_backend is None
        ex.validate()  # None is always valid

    def test_known_backends_validate(self):
        from repro.kernels import BACKENDS

        for name in BACKENDS:
            ExecutionPolicy(kernel_backend=name).validate()

    def test_unknown_backend_rejected(self):
        from repro.kernels import get_backend

        # An unknown name and a backend instance alike: a backend is one of two names.
        for bad in ("fortran77", get_backend("bvh")):
            with pytest.raises(ValueError, match=r"kernel_backend .*\('reference', 'bvh'\)"):
                ExecutionPolicy(kernel_backend=bad).validate()
