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
    summarize_events,
)
from repro.core import parallel_prm
from repro.planners import PRMSegment, Roadmap
from repro.runtime import TaskFailedError

from .oracle import assert_same, digest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _same_plan(chaotic, clean):
    """The chaotic run's digest equals the clean one's but for the
    collision counters, which a failed attempt's checks add to."""
    assert_same(digest(chaotic), digest(clean), ignore=("counters",))


def _local_request(faults=None, tracer=None, execution=None, **workload):
    defaults = dict(planner="prm", num_regions=12, samples_per_region=4, seed=7)
    defaults.update(workload)
    return PlanRequest(
        workload=WorkloadSpec(**defaults),
        execution=execution or ExecutionPolicy(mode="local", workers=3, chunksize=1),
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
        _same_plan(chaotic, clean)
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
        _same_plan(chaotic, clean)
        assert chaotic.retries == 1


@pytest.mark.parametrize("backend", ["inline", "process"])
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
        keyed = parallel_prm.region_rng

        def exploding(seed, rid):
            if rid == self.DOOMED:
                raise RuntimeError(f"region {rid} exploded")
            return keyed(seed, rid)

        monkeypatch.setattr(parallel_prm, "region_rng", exploding)

    def test_an_injector_plan_keeps_the_per_task_loop(self, backend):
        loop, blocks = self._policies(backend)
        clean = plan(_local_request(execution=blocks))
        assert set(_parts(clean).values()) == {PRMSegment}
        ids = sorted(clean.pool.results)
        faults = FaultPolicy(
            policy="retry",
            task_timeout=5.0 if backend == "process" else None,  # inline: a slow task
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
            _same_plan(chaotic, clean)
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
        assert_same(digest(blocks), digest(loop))
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


@pytest.mark.parametrize("policy", ["retry", "degrade"])
@pytest.mark.parametrize("backend", ["inline", "process"])
def test_trace_recounts_the_reports_failures(backend, policy):
    """The completeness invariant on a chaotic local run: the trace alone
    gives the report's retries, worker deaths and abandoned regions."""
    doomed = [Fault("raise", task=8, attempt=a) for a in range(2 if policy == "degrade" else 1)]
    injector = FaultInjector(
        [Fault("crash", task=1, attempt=0), Fault("raise", task=4, attempt=0), *doomed]
    )
    tracer = Tracer()
    report = plan(
        _local_request(
            faults=FaultPolicy(policy=policy, max_retries=1, injector=injector),
            tracer=tracer,
            execution=ExecutionPolicy(mode="local", workers=2, backend=backend, chunksize=1),
        )
    )
    s = summarize_events(tracer.memory.events)
    assert (s.task_retries, s.worker_deaths, sorted(s.abandoned_tasks)) == (
        report.retries, report.worker_deaths, report.abandoned_regions
    )
    assert (report.retries, report.worker_deaths) == (3, 1)
    assert report.abandoned_regions == ([8] if policy == "degrade" else [])


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


class TestSimulateModeRefusesFaults:
    """The simulated machine is the paper's reliable one: a fault policy
    applies to local execution, and simulate mode refuses any other than
    the default before it builds anything."""

    @pytest.mark.parametrize(
        "faults",
        [
            FaultPolicy(injector=FaultInjector([Fault("crash", task=1, attempt=0)])),
            FaultPolicy(policy="retry"),
        ],
        ids=["injector", "retry"],
    )
    def test_simulate_mode_refuses_a_fault_policy(self, faults):
        spec = WorkloadSpec(num_regions=16, samples_per_region=4, seed=3)
        with pytest.raises(ValueError, match="local execution"):
            plan(spec, faults=faults)


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
