"""End-to-end fault tolerance through the plan() facade.

The acceptance scenario for the resilient runtime: a run that loses one
worker and transiently fails two regions, under ``failure_policy="retry"``,
must return a :class:`PlanReport` identical to the fault-free run in
every field except wall-clock and the retry accounting — and the trace
must tell the failure story via ``python -m repro.obs summarize``.
"""

import os
import subprocess
import sys

import pytest

from repro import (
    ExecutionPolicy,
    Fault,
    FaultInjector,
    FaultPolicy,
    JsonlSink,
    ObsConfig,
    PlanRequest,
    Tracer,
    WorkloadSpec,
    plan,
)
from repro.core import PRMRegionPlanner
from repro.planners import PRMSegment, Roadmap
from repro.runtime import TaskFailedError

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _roadmap_signature(report):
    rm = report.roadmap
    ids, cfgs = rm.configs_array()
    edges = sorted((min(u, v), max(u, v), w) for u, v, w in rm.edges())
    return list(ids), cfgs.tolist(), edges


def _local_request(faults=None, tracer=None, execution=None, **workload):
    defaults = dict(planner="prm", num_regions=12, samples_per_region=4, seed=7)
    defaults.update(workload)
    return PlanRequest(
        workload=WorkloadSpec(**defaults),
        execution=execution or ExecutionPolicy(mode="local", workers=3),
        faults=faults,
        obs=ObsConfig(tracer=tracer),
    )


def _parts(report):
    """How each region's result came back: as its ``Roadmap`` (per-task
    loop) or as a segment of the block its chunk was planned as."""
    return {rid: type(value[0]) for rid, value in report.pool.results.items()}


class TestPlanRetryParity:
    def test_one_crash_two_transients_full_parity(self, tmp_path):
        clean = plan(_local_request())

        region_ids = sorted(clean.pool.results)
        injector = FaultInjector(
            [
                Fault("crash", task=region_ids[1], attempt=0),
                Fault("raise", task=region_ids[4], attempt=0),
                Fault("raise", task=region_ids[8], attempt=0),
            ]
        )
        trace = tmp_path / "chaos.jsonl"
        tracer = Tracer(sinks=[JsonlSink(trace)])
        chaotic = plan(
            _local_request(
                faults=FaultPolicy(policy="retry", injector=injector), tracer=tracer
            )
        )
        tracer.close()

        # Field-for-field parity, modulo wall-clock and retry accounting.
        assert _roadmap_signature(chaotic) == _roadmap_signature(clean)
        assert chaotic.pool.results.keys() == clean.pool.results.keys()
        assert chaotic.abandoned_regions == []
        assert chaotic.pool.complete

        # The accounting tells the injected story exactly.
        assert chaotic.retries == 3
        assert chaotic.worker_deaths == 1
        assert chaotic.pool.attempts[region_ids[4]] == 2
        assert chaotic.pool.attempts[region_ids[8]] == 2
        assert "failures: 3 retries, 0 abandoned regions, 1 worker deaths" in (
            chaotic.summary()
        )

        # And the trace is legible from the CLI.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", "summarize", str(trace)],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Failures" in proc.stdout
        assert "worker deaths" in proc.stdout
        assert "retry reasons" in proc.stdout

    def test_retry_parity_also_holds_for_rrt(self):
        clean = plan(_local_request(planner="rrt", nodes_per_region=5))
        rid = sorted(clean.pool.results)[2]
        chaotic = plan(
            _local_request(
                planner="rrt",
                nodes_per_region=5,
                faults=FaultPolicy(
                    policy="retry",
                    injector=FaultInjector([Fault("raise", task=rid, attempt=0)]),
                ),
            )
        )
        assert _roadmap_signature(chaotic) == _roadmap_signature(clean)
        assert chaotic.retries == 1


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestChunksPlannedAsBlocks:
    """``chunksize=4``: every chunk of the 12 regions is a block, unless an
    injector is installed; failures read exactly as at ``chunksize=1``."""

    DOOMED = 5

    def _policies(self, backend):
        return [
            ExecutionPolicy(mode="local", workers=2, backend=backend, chunksize=c)
            for c in (1, 4)
        ]

    @pytest.fixture
    def doomed_region(self, monkeypatch):
        """One region raises wherever it is planned, in a block or alone
        (forked workers inherit the patch)."""
        sample_box = PRMRegionPlanner._sample_box

        def exploding(planner, region):
            if region.id == self.DOOMED:
                raise RuntimeError(f"region {region.id} exploded")
            return sample_box(planner, region)

        monkeypatch.setattr(PRMRegionPlanner, "_sample_box", exploding)

    def test_an_injector_plan_keeps_the_per_task_loop(self, backend):
        loop, blocks = self._policies(backend)
        clean = plan(_local_request(execution=blocks))
        assert set(_parts(clean).values()) == {PRMSegment}
        ids = sorted(clean.pool.results)
        faults = FaultPolicy(
            policy="retry",
            task_timeout=5.0,
            injector=FaultInjector(
                [
                    Fault("crash", task=ids[1], attempt=0),
                    Fault("raise", task=ids[4], attempt=0),
                    Fault("hang", task=ids[8], attempt=0, hang=0.05),
                ]
            ),
        )
        for execution in (loop, blocks):
            chaotic = plan(_local_request(faults=faults, execution=execution))
            assert set(_parts(chaotic).values()) == {Roadmap}
            assert _roadmap_signature(chaotic) == _roadmap_signature(clean)
            assert (chaotic.retries, chaotic.worker_deaths) == (2, 1)
            assert chaotic.pool.attempts[ids[4]] == 2 and chaotic.pool.attempts[ids[8]] == 1

    def test_degrade_abandons_the_region_not_its_block(self, backend, doomed_region):
        faults = FaultPolicy(policy="degrade", max_retries=1)
        loop, blocks = (
            plan(_local_request(faults=faults, execution=ex)) for ex in self._policies(backend)
        )
        for report in (loop, blocks):
            assert report.abandoned_regions == [self.DOOMED]
            assert report.retries == 1
            assert report.pool.attempts == {
                **{rid: 1 for rid in loop.pool.results}, self.DOOMED: 2
            }
        assert _roadmap_signature(blocks) == _roadmap_signature(loop)
        assert blocks.local_stats == loop.local_stats
        assert blocks.local_counters == loop.local_counters
        # The doomed region's chunk went through the loop, the others stayed blocks.
        assert _parts(blocks) == {
            rid: Roadmap if rid // 4 == self.DOOMED // 4 else PRMSegment
            for rid in blocks.pool.results
        }

    def test_retry_exhaustion_names_the_region(self, backend, doomed_region):
        for execution in self._policies(backend):
            with pytest.raises(TaskFailedError) as err:
                plan(
                    _local_request(
                        faults=FaultPolicy(policy="retry", max_retries=1), execution=execution
                    )
                )
            assert (err.value.task, err.value.attempts) == (self.DOOMED, 2)

    def test_fail_fast_raises_the_regions_own_exception(self, backend, doomed_region):
        for execution in self._policies(backend):
            with pytest.raises(RuntimeError, match="region 5 exploded"):
                plan(_local_request(execution=execution))


class TestPlanDegrade:
    def test_abandoned_region_missing_from_merge(self):
        clean = plan(_local_request())
        doomed = sorted(clean.pool.results)[3]
        report = plan(
            _local_request(
                faults=FaultPolicy(
                    policy="degrade",
                    max_retries=1,
                    injector=FaultInjector(
                        [Fault("raise", task=doomed, attempt=a) for a in range(4)]
                    ),
                )
            )
        )
        assert report.abandoned_regions == [doomed]
        assert doomed not in report.pool.results
        # The surviving regions still stitch into a valid roadmap.
        assert report.roadmap.num_vertices < clean.roadmap.num_vertices
        assert report.roadmap.num_vertices > 0
        assert "failures:" in report.summary()

    def test_fail_fast_propagates(self):
        with pytest.raises(TaskFailedError):
            plan(
                _local_request(
                    faults=FaultPolicy(injector=FaultInjector([Fault("raise", attempt=0)]))
                )
            )


class TestSimulateModeFaults:
    def test_simulate_mode_accepts_injector(self):
        report = plan(
            PlanRequest(
                workload=WorkloadSpec(num_regions=64, samples_per_region=4, seed=3),
                execution=ExecutionPolicy(strategy="rand-8", num_pes=8),
                faults=FaultPolicy(injector=FaultInjector(rate=0.1, seed=5)),
            )
        )
        assert report.sim is not None
        assert report.retries >= 0
        assert report.worker_deaths == 0  # rate faults are "raise" only

    def test_simulate_mode_crash_accounted(self):
        report = plan(
            PlanRequest(
                workload=WorkloadSpec(num_regions=32, samples_per_region=4, seed=3),
                execution=ExecutionPolicy(strategy="rand-8", num_pes=4),
                faults=FaultPolicy(
                    injector=FaultInjector([Fault("crash", worker=1, attempt=0)]),
                ),
            )
        )
        assert report.worker_deaths == 1
        assert report.abandoned_regions == []


class TestRequestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "panic"},
            {"max_retries": -1},
            {"task_timeout": 0.0},
        ],
    )
    def test_rejects_bad_fault_fields(self, kwargs):
        with pytest.raises(ValueError):
            PlanRequest(faults=FaultPolicy(**kwargs)).validate()
