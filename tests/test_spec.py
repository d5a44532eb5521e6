"""Tests for the layered request API (repro.spec)."""

import hashlib
import warnings
from dataclasses import FrozenInstanceError, replace

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
from repro.geometry import AABB, Environment, environments
from repro.geometry.scenarios import shelf_warehouse
from repro.runtime import shm as shm_mod
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

    @pytest.mark.parametrize("environment", [object(), None, 3, b"med-cube"])
    def test_environment_is_a_name_or_an_environment(self, environment, monkeypatch):
        """Anything else fails ``validate()``, so ``plan()`` rejects it
        before it builds anything.  A name is not looked up in the
        catalog: shm workers rebuild a spec from the environment's own
        name."""
        with pytest.raises(ValueError, match="environment"):
            WorkloadSpec(environment=environment).validate()
        monkeypatch.setattr(WorkloadSpec, "build_workload", lambda *a: pytest.fail("built"))
        with pytest.raises(ValueError, match="environment"):
            plan(WorkloadSpec(environment=environment, num_regions=8))
        WorkloadSpec(environment="no-such-scene").validate()
        WorkloadSpec(environment=environments.by_name("med-cube")).validate()

    @pytest.mark.parametrize("field, value", [
        ("num_regions", 64.0), ("num_regions", True), ("samples_per_region", 8.0),
        ("samples_per_region", True), ("nodes_per_region", 12.0), ("nodes_per_region", True),
        ("seed", 1.5), ("seed", -1), ("seed", True),
    ])
    def test_workload_counts_and_seed_are_ints(self, field, value, monkeypatch):
        """A count that is not an int >= 1, or a seed that is not an int
        >= 0, fails ``validate()``, so ``plan()`` rejects it before it
        builds anything (a float spelling would otherwise key a second
        cache snapshot of the same roadmap)."""
        with pytest.raises(ValueError, match=field):
            WorkloadSpec(**{field: value}).validate()
        monkeypatch.setattr(WorkloadSpec, "build_workload", lambda *a: pytest.fail("built"))
        with pytest.raises(ValueError, match=field):
            plan(WorkloadSpec(**{"num_regions": 8, field: value}))

    def test_execution_validate_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(mode="cloud").validate()
        with pytest.raises(ValueError):
            ExecutionPolicy(strategy="telepathy").validate()
        with pytest.raises(ValueError):
            ExecutionPolicy(backend="gpu").validate()

    @pytest.mark.parametrize("field, value", [
        ("num_pes", 2.5), ("num_pes", True), ("workers", 2.5), ("workers", True),
    ])
    def test_execution_counts_are_ints(self, field, value, monkeypatch):
        """A count that is not an int >= 1 fails ``validate()``, so
        ``plan()`` rejects it before it builds anything."""
        with pytest.raises(ValueError, match=field):
            ExecutionPolicy(**{field: value}).validate()
        monkeypatch.setattr(WorkloadSpec, "build_workload", lambda *a: pytest.fail("built"))
        with pytest.raises(ValueError, match=field):
            plan(WorkloadSpec(num_regions=8), execution=ExecutionPolicy(**{field: value}))

    @pytest.mark.parametrize("chunk", ["third", True, 0, -1, 2.0])
    def test_steal_chunk_is_half_or_an_int(self, chunk, monkeypatch):
        """The simulator's own check: refused by ``validate()``, so
        ``plan()`` rejects it before it builds anything."""
        with pytest.raises(ValueError, match="steal_chunk"):
            ExecutionPolicy(steal_chunk=chunk).validate()
        monkeypatch.setattr(WorkloadSpec, "build_workload", lambda *a: pytest.fail("built"))
        with pytest.raises(ValueError, match="steal_chunk"):
            plan(WorkloadSpec(num_regions=8),
                 execution=ExecutionPolicy(strategy="rand-8", steal_chunk=chunk))

    @pytest.mark.parametrize("chunk", ["half", 1, 4])
    def test_good_steal_chunks_validate(self, chunk):
        ExecutionPolicy(steal_chunk=chunk).validate()

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


def loop_fingerprint(env) -> bytes:
    """The per-obstacle digest the array fingerprint replaced: bounds,
    then each obstacle's ``lo`` and ``hi`` in turn."""
    h = hashlib.sha256()
    h.update(env.bounds.lo.tobytes())
    h.update(env.bounds.hi.tobytes())
    for obs in env.obstacles:
        h.update(obs.lo.tobytes())
        h.update(obs.hi.tobytes())
    return b"env:" + h.digest()


class TestArrayFingerprintEqualsTheLoop:
    """Cache keys read the obstacle arrays; every key must stay the one
    the per-obstacle loop gave."""

    def test_list_built(self):
        env = environments.by_name("mixed")
        assert env.num_obstacles > 1
        assert _environment_fingerprint(env) == loop_fingerprint(env)

    def test_array_built(self):
        env = shelf_warehouse(500, seed=3)
        assert _environment_fingerprint(env) == loop_fingerprint(env)

    def test_no_obstacles(self):
        env = Environment(AABB([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]))
        assert _environment_fingerprint(env) == loop_fingerprint(env)

    def test_two_dimensional(self):
        env = Environment(
            AABB([0.0, 0.0], [10.0, 10.0]),
            [AABB([1.0, 2.0], [3.0, 4.0]), AABB([-0.0, 5.0], [0.5, 9.0]), AABB([6.0, 6.0], [6.0, 7.5])],
        )
        assert _environment_fingerprint(env) == loop_fingerprint(env)

    def test_adopted_from_read_only_shm_views(self):
        src = shelf_warehouse(300, seed=5).kernel_data()
        manifest = shm_mod.publish_arrays(
            {"bounds_lo": src.bounds_lo, "bounds_hi": src.bounds_hi,
             "obs_lo": src.box_lo, "obs_hi": src.box_hi}, label="fingerprint")
        try:
            views = shm_mod.attach_arrays(manifest)
            assert not views["obs_lo"].flags.writeable
            env = Environment.from_arrays(
                AABB(views["bounds_lo"], views["bounds_hi"]), views["obs_lo"], views["obs_hi"])
            assert _environment_fingerprint(env) == loop_fingerprint(env)
        finally:
            shm_mod.release(manifest)

    def test_list_and_array_twins_share_a_key(self):
        listed = environments.by_name("mixed")
        twin = Environment.from_arrays(
            listed.bounds,
            np.stack([o.lo for o in listed.obstacles]),
            np.stack([o.hi for o in listed.obstacles]),
        )
        assert (WorkloadSpec(environment=listed).cache_key()
                == WorkloadSpec(environment=twin).cache_key())


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
        assert issubclass(FrozenInstanceError, AttributeError)
        with pytest.raises(FrozenInstanceError):
            req.workload = WorkloadSpec()
        with pytest.raises(FrozenInstanceError):
            req.num_regions = 8

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
        other = replace(req, execution=ExecutionPolicy(num_pes=99))
        assert other.execution.num_pes == 99
        assert req.execution.num_pes == ExecutionPolicy().num_pes
        assert other != req
        with pytest.raises(TypeError):
            replace(req, num_pes=3)
        with pytest.raises(TypeError, match="ExecutionPolicy"):
            replace(req, execution="local")

    def test_equality(self):
        assert PlanRequest() == PlanRequest()
        assert PlanRequest(workload=WorkloadSpec(seed=1)) != PlanRequest()
        req = PlanRequest(workload=WorkloadSpec(seed=1))
        assert repr(req) == (
            f"PlanRequest(workload={req.workload!r}, execution={req.execution!r}, "
            f"faults={req.faults!r}, obs={req.obs!r})"
        )


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
