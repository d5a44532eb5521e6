"""Golden digests of the virtual machine's output.

Every digest below was computed on the commit *before* the simulator's
event core was flattened (tuple events, list-held PE state, O(1)
latency, index-shift RAND-K) — ``GOLDEN_RRT`` excepted, see there — and
must never move: virtual time is the
quantity every figure in EXPERIMENTS.md reports, so a change to the
event loop, the topology or a steal policy has to reproduce it bit for
bit.  Floats enter the digest through ``float.hex`` and integers through
``int``, so the digest pins values, not the NumPy-vs-builtin type that
happens to hold them.

Regenerate (only when a change is *meant* to move virtual time) with
``PYTHONPATH=src python tests/test_simulator_golden.py``.
"""

import hashlib
import numbers
from dataclasses import fields

import numpy as np
import pytest

from repro.core import build_prm_workload, build_rrt_workload, simulate_prm, simulate_rrt
from repro.cspace import EuclideanCSpace
from repro.geometry import med_cube, mixed_30_env
from repro.obs import MemorySink, Tracer
from repro.runtime import Fault, FaultInjector

PES = (16, 48)
PRM_STRATEGIES = ("none", "repartition", "rand-8", "diffusive", "hybrid")
RRT_STRATEGIES = ("none", "repartition", "rand-8", "hybrid")


def _canon(value):
    """Type-agnostic, exact spelling of a result field."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return tuple(_canon(v) for v in value.tolist())
    if isinstance(value, dict):
        return tuple((_canon(k), _canon(v)) for k, v in sorted(value.items()))
    return tuple(_canon(v) for v in value)


def _sha(obj) -> str:
    return hashlib.sha256(repr(_canon(obj)).encode()).hexdigest()


def result_digest(run) -> str:
    """sha256 over everything a ``simulate_*`` run reports."""
    sim = run.sim
    return _sha((
        run.total_time,
        sim.makespan,
        sim.end_time,
        sim.total_messages,
        sorted(sim.executed_by.items()),
        [[getattr(s, f.name) for f in fields(s)] for s in sim.pe_stats],
        sim.task_costs,
        sim.task_attempts,
        sim.abandoned,
        sim.worker_deaths,
        run.phases.phase_items(),
        run.loads,
        run.nodes_per_pe,
        getattr(run, "nodes_per_pe_before", None),
        getattr(run, "region_graph_remote", None),
        getattr(run, "roadmap_graph_remote", None),
    ))


def trace_digest(events) -> str:
    """sha256 over the emitted event sequence with virtual timestamps."""
    return _sha([(e.ts, e.kind, e.name, e.pe, dict(e.attrs)) for e in events])


def _build_prm_workload():
    return build_prm_workload(
        EuclideanCSpace(med_cube()), num_regions=256, samples_per_region=6, seed=3
    )


def _build_rrt_workload():
    cs = EuclideanCSpace(mixed_30_env())
    rng = np.random.default_rng(0)
    root = np.zeros(3)
    while not cs.valid_single(root):
        root = rng.uniform(-3, 3, 3)
    return build_rrt_workload(cs, root, num_regions=128, nodes_per_region=6, seed=4)


prm_workload = pytest.fixture(scope="module")(_build_prm_workload)
rrt_workload = pytest.fixture(scope="module")(_build_rrt_workload)


def _fault_plan() -> FaultInjector:
    """Two crashes (so a redispatched task can land on a PE that dies
    later) plus a transient raise and a raise that exhausts its budget."""
    return FaultInjector([
        Fault("crash", task=5, attempt=0),
        Fault("crash", task=140, attempt=0),
        Fault("raise", task=77, attempt=0),
        *(Fault("raise", task=200, attempt=a) for a in range(4)),
    ])


GOLDEN_PRM = {
    (16, "none"): "4d5c9b581ff407d4e1de7f112d86991b827f702e02febc05c6e3885934fcbcc2",
    (16, "repartition"): "ee56f099b1d07d3cdee2ea4bfa3bd8d5b8b2997acb25334980963438b141e3fe",
    (16, "rand-8"): "c9d82d06866720caade97d8a1cda9a6ba083db1b87f99653c4a486c3cd97828c",
    (16, "diffusive"): "aef63e364cbeec949c663ebfc9ba316c6007ba474d8f9f40e9ffea5615f299af",
    (16, "hybrid"): "8b93606b16cde6d59863caee293804a8cd1ded80f43c4d41125c3b2401c5cfd4",
    (48, "none"): "59d318beb32dd7fb29ef974c46b5cf14beace1217826f3f45cb00bf26ea851d5",
    (48, "repartition"): "9fb5d2d2b7273e8ab410a0471969f180c8d0ea66be8df4f333cd6a318ec3a17a",
    (48, "rand-8"): "2f126377d2497113f1ef0fccef23fcd1dff20ced3bfc6586d31e155ec1cd6d94",
    (48, "diffusive"): "f55a96918c40f74b466d1d58ede499c0bf1ece528d8dfad4b08c2d3cf752574a",
    (48, "hybrid"): "92afe9a1bc025a24afa474d098f31d6cf876f126b3ae3ca44f604fcece51d4b7",
}

# Regenerated once since (ROADMAP item 3a): regional branches draw
# ``q_rand`` from their own cone, so the RRT *workload* these runs replay —
# not the machine replaying it — has other trees and other branch costs.
GOLDEN_RRT = {
    (16, "none"): "d43c52abcea730e9908c7b6b7b1874036730081357a5a4738c4cfd8eb171087a",
    (16, "repartition"): "8505b7b04e6e5b9a501aa4f69446d1e5835da8ffbe412c3cb5575310aed9ac58",
    (16, "rand-8"): "4993ec61dd1f16b98291dafdc052bf2a9e569ab071fbd847f263134776dbd830",
    (16, "hybrid"): "39e3c8a33c5bfea631a9bffb8bccae93d393d51e51086f7b8fb7edbb0626471d",
    (48, "none"): "56c6dc5ecfebb250d743fb94ef9a21732b9846329bbde2ee6b6decdfa75c4003",
    (48, "repartition"): "60ad36116c90cf5507dc71697b8a5ce63bdd41d11647eb895fddb6f9a0e59c49",
    (48, "rand-8"): "59628cff39e1949bd10f81b12dd9d3f67cffed0cfc4726be14f5b990b33815fd",
    (48, "hybrid"): "7f9783880cc82dd3749729c3ed85ce5d6b7b3156331a56ab40ae488dadc0c003",
}

GOLDEN_FAULTS = "f42b4e9571d3c2551bbde36b6f6d4e55346fda53f2a504d75b2631e476eb6edd"
GOLDEN_FAULT_EVENTS = "7127ccc8b9db51635053592872e045a31dbd9fbc06281cdf1a8a76d0af3349d6"
GOLDEN_TRACE_RESULT = GOLDEN_PRM[16, "hybrid"]
GOLDEN_TRACE_EVENTS = "55bf098b17a9b94aade3935f37f1b8c1c7e738dea9b32becb7b8ba3dc78acb3a"


@pytest.mark.parametrize("strategy", PRM_STRATEGIES)
@pytest.mark.parametrize("num_pes", PES)
def test_simulate_prm_golden(prm_workload, num_pes, strategy):
    run = simulate_prm(prm_workload, num_pes, strategy)
    assert result_digest(run) == GOLDEN_PRM[num_pes, strategy]


@pytest.mark.parametrize("strategy", RRT_STRATEGIES)
@pytest.mark.parametrize("num_pes", PES)
def test_simulate_rrt_golden(rrt_workload, num_pes, strategy):
    run = simulate_rrt(rrt_workload, num_pes, strategy)
    assert result_digest(run) == GOLDEN_RRT[num_pes, strategy]


def _faulty_run(workload):
    """rand-8 with an integer steal chunk under the fault plan, traced, so
    the kill / redispatch / retry / abandon paths and their events are pinned."""
    sink = MemorySink()
    run = simulate_prm(
        workload, 16, "rand-8", steal_chunk=2,
        fault_injector=_fault_plan(), tracer=Tracer(sinks=[sink]),
    )
    return run, sink.events


def test_fault_injected_golden(prm_workload):
    run, events = _faulty_run(prm_workload)
    assert run.sim.worker_deaths == 2 and run.sim.abandoned == [200]
    assert run.sim.retries > 0
    assert result_digest(run) == GOLDEN_FAULTS
    assert trace_digest(events) == GOLDEN_FAULT_EVENTS


def test_traced_run_golden(prm_workload):
    sink = MemorySink()
    run = simulate_prm(prm_workload, 16, "hybrid", tracer=Tracer(sinks=[sink]))
    # A tracer observes; it must not perturb the run it watches.
    assert result_digest(run) == GOLDEN_TRACE_RESULT
    assert trace_digest(sink.events) == GOLDEN_TRACE_EVENTS


@pytest.mark.parametrize("strategy", RRT_STRATEGIES)
def test_rrt_traced_equals_untraced(rrt_workload, strategy):
    traced = simulate_rrt(rrt_workload, 48, strategy, tracer=Tracer(sinks=[MemorySink()]))
    assert result_digest(traced) == GOLDEN_RRT[48, strategy]


if __name__ == "__main__":  # pragma: no cover - regeneration aid
    prm, rrt = _build_prm_workload(), _build_rrt_workload()
    print("GOLDEN_PRM = {")
    for p in PES:
        for s in PRM_STRATEGIES:
            print(f'    ({p}, "{s}"): "{result_digest(simulate_prm(prm, p, s))}",')
    print("}\n\nGOLDEN_RRT = {")
    for p in PES:
        for s in RRT_STRATEGIES:
            print(f'    ({p}, "{s}"): "{result_digest(simulate_rrt(rrt, p, s))}",')
    print("}\n")
    faulty, fault_events = _faulty_run(prm)
    print(f'GOLDEN_FAULTS = "{result_digest(faulty)}"')
    print(f'GOLDEN_FAULT_EVENTS = "{trace_digest(fault_events)}"')
    sink = MemorySink()
    simulate_prm(prm, 16, "hybrid", tracer=Tracer(sinks=[sink]))
    print(f'GOLDEN_TRACE_EVENTS = "{trace_digest(sink.events)}"')
