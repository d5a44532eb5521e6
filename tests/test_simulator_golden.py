"""Golden digests of the virtual machine's output.

Every digest below was computed on the commit *before* the simulator's
event core was flattened (tuple events, list-held PE state, O(1)
latency, index-shift RAND-K) — ``GOLDEN_RRT`` and the later ``GOLDEN_WIDE``
/ ``GOLDEN_VARIANTS`` sets excepted, see there — and
must never move: virtual time is the
quantity every figure in EXPERIMENTS.md reports, so a change to the
event loop, the topology or a steal policy has to reproduce it bit for
bit.  Floats enter the digest through ``float.hex`` and integers through
``int``, so the digest pins values, not the NumPy-vs-builtin type that
happens to hold them.

Regenerate (only when a change is *meant* to move virtual time) with
``PYTHONPATH=src python tests/test_simulator_golden.py``, which prints
every set below.
"""

import copy
import hashlib
import numbers
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    build_prm_workload,
    build_rrt_workload,
    policy_by_name,
    simulate_prm,
    simulate_rrt,
)
from repro.core.machine import STRATEGIES
from repro.cspace import EuclideanCSpace
from repro.geometry import med_cube, mixed_30_env
from repro.obs import MemorySink, Tracer
from repro.partition import (
    partition_block,
    partition_greedy_lpt,
    partition_rcb,
    partition_weighted_blocks,
)
from repro.runtime import ClusterTopology, WorkStealingSimulator

from .oracle import PerMessageSimulator

PES = (16, 48)
PRM_STRATEGIES = ("none", "repartition", "rand-8", "diffusive", "hybrid")
RRT_STRATEGIES = ("none", "repartition", "rand-8", "hybrid")
STEALING = ("rand-8", "diffusive", "hybrid")
#: Four and eight 24-core nodes: a round's victims arrive at two times.
WIDE_PES = (96, 192)
VARIANT_PES = 96
#: Protocol corners the tables miss, as topology latencies: every arrival
#: of a round tied, and free intra-node messages.
VARIANTS = {
    "tied-latency": {"latency_local": 10.0, "latency_remote": 10.0},
    "free-local": {"latency_local": 0.0},
}


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


#: The digests were recorded while the simulator still modelled PE
#: faults: every ``PEStats`` then ended in ``wasted_time`` and
#: ``attempts_failed``, and every ``SimResult`` in ``task_attempts``,
#: ``abandoned`` and ``worker_deaths``.  A fault-free run held them at
#: these values, which the digests keep spelling.
_FAULT_FREE_PE = (0.0, 0)
_FAULT_FREE_SIM = ({}, [], 0)


def _sim_fields(sim) -> tuple:
    """Everything one simulated phase (a ``SimResult``) reports."""
    return (
        sim.makespan,
        sim.end_time,
        sim.total_messages,
        sorted(sim.executed_by.items()),
        [[*(getattr(s, f.name) for f in fields(s)), *_FAULT_FREE_PE] for s in sim.pe_stats],
        sim.task_costs,
        *_FAULT_FREE_SIM,
    )


def sim_digest(sim) -> str:
    """sha256 over one simulated phase."""
    return _sha(_sim_fields(sim))


def result_digest(run) -> str:
    """sha256 over everything a ``simulate_*`` run reports."""
    return _sha((
        run.total_time,
        *_sim_fields(run.sim),
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


def _variant_run(workload, variant, strategy):
    """The PRM connection phase on ``VARIANT_PES`` PEs under one variant."""
    costs = {rid: w.connect_cost for rid, w in workload.region_work.items()}
    return WorkStealingSimulator(
        ClusterTopology(VARIANT_PES, **VARIANTS[variant]),
        lambda task, pe: costs[task],
        steal_policy=policy_by_name(strategy),
        rng=np.random.default_rng(12345),
    ).run(partition_block(workload.subdivision.graph, VARIANT_PES))


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

# Recorded on the simulator that still modelled PE faults, before they
# were deleted: the one run with an integer ``steal_chunk``.
GOLDEN_CHUNK = "df2a343a185fe800a3e23750579e19cc9fa89489465c9e1ea0634b277ec576c4"
GOLDEN_CHUNK_EVENTS = "ce530f11e8445f579b1030e86b86e560b8098a8a3ebadcab27e6ca4a49a16790"
GOLDEN_TRACE_RESULT = GOLDEN_PRM[16, "hybrid"]
GOLDEN_TRACE_EVENTS = "55bf098b17a9b94aade3935f37f1b8c1c7e738dea9b32becb7b8ba3dc78acb3a"

# Recorded before steal requests travelled as one event per arrival time:
# rounds that span nodes, and the protocol corners of ``VARIANTS``.
GOLDEN_WIDE = {
    (96, "rand-8"): "6791d63f2a01e5c12b6acc88e46be5b751637feead045f7a2a7e9021c258fca8",
    (96, "diffusive"): "3c8f5f3ddfe91e1e11c3e913cd1740bd79bef704646a7b69ed332f4271aaf9dd",
    (96, "hybrid"): "916c3d341adaa1b63060e9c5c9d7dce0aeada99d612c88901717ff6fcd5f07dd",
    (192, "rand-8"): "45eaa0df7ad7327c1e3b1e40bd22b1dfa013d366e9e57c6233bafde1e4f7aee9",
    (192, "diffusive"): "8daa7294a673bd81b18dda771943fabf07ccb7f676f3efe4848b05bb406690cf",
    (192, "hybrid"): "a7af15351e91ad18f2e4fa7e7121bd4cf80efd5a47548be5fd25643741f905fa",
}
GOLDEN_VARIANTS = {
    ("tied-latency", "rand-8"): "1717ff4bb2062430092c8d0c59771d1221ddeb97843a655d1b71e57ada3be990",
    ("tied-latency", "diffusive"): "9264b18455ebf9bcf604197d0babb0add69064982ac897f019b4570f43abe674",
    ("tied-latency", "hybrid"): "bb6a126a51624caa85d9fc4de82d2f19b22e51e025afd57491bf8a3aa371c120",
    ("free-local", "rand-8"): "ce069a6f7a27169e3a0322b0e636c10639f9991da98f55e6d6bb0a94434ac910",
    ("free-local", "diffusive"): "173b07ae4f9a6f8dfac4a5e80ef527a499aacf4a2443049100ad0a19f5051429",
    ("free-local", "hybrid"): "dff734d3d87238647010b83a0981124e09b3a69834c1ef6d6579bb5a67ec7d78",
}
GOLDEN_WIDE_TRACE_EVENTS = "0925cbb8cba8b6db68f30e7a966c671bfe838efcff048bd6261f9d06eb281db2"


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


def _chunk_run(workload):
    """rand-8 with an integer steal chunk, traced, so the hand-over's
    ``min(steal_chunk, stealable)`` branch and its events are pinned."""
    sink = MemorySink()
    run = simulate_prm(workload, 16, "rand-8", steal_chunk=2, tracer=Tracer(sinks=[sink]))
    return run, sink.events


def test_integer_steal_chunk_golden(prm_workload):
    run, events = _chunk_run(prm_workload)
    assert sum(s.steals_serviced for s in run.sim.pe_stats) > 0
    assert result_digest(run) == GOLDEN_CHUNK
    assert trace_digest(events) == GOLDEN_CHUNK_EVENTS


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


@pytest.mark.parametrize("strategy", ["repartition", "hybrid"])
@pytest.mark.parametrize("planner", ["prm", "rrt"])
def test_events_land_on_their_phase(prm_workload, rrt_workload, planner, strategy):
    """Every event sits where the run's phase spans put it: the decision
    where ``repartition`` begins, each task event inside ``construct``,
    the remote-access total where ``connect`` begins."""
    sink = MemorySink()
    if planner == "prm":
        run = simulate_prm(prm_workload, 16, strategy, tracer=Tracer(sinks=[sink]))
    else:
        run = simulate_rrt(rrt_workload, 16, strategy, tracer=Tracer(sinks=[sink]))
    spans = {name: (begin, end) for name, begin, end in run.phases.spans()}
    assert [e.name for e in sink.events if e.kind == "span_begin"] == list(spans)
    at = {e.name: e.ts for e in sink.events if e.kind == "point"}
    assert at["remote_access"] == spans["connect"][0]
    if strategy == "repartition":
        assert run.phases.lb_overhead > 0
        assert at["repartition_decision"] == spans["repartition"][0]
    tasks = [e.ts for e in sink.events if e.name in ("task_start", "task_end")]
    assert len(tasks) == 2 * len(run.sim.executed_by)
    begin, end = spans["construct"]
    assert begin <= min(tasks) and max(tasks) <= end


def _workload_state(planner, workload):
    """Everything a replay reads from a workload, copied: the region
    graph's own fields, the per-region and per-adjacency ledgers, the
    repartition weights and the maps three partitioners draw from them."""
    if planner == "prm":
        graph, ledger, weights = (workload.subdivision.graph, workload.region_work,
                                  workload.sample_count_weights())
    else:
        graph, ledger, weights = (workload.radial.graph, workload.branch_work,
                                  workload.k_rays_weights())
    fields_ = {k: v for k, v in vars(graph).items() if k != "_regions"}
    maps = [f(graph, weights, 16)
            for f in (partition_greedy_lpt, partition_rcb, partition_weighted_blocks)]
    return copy.deepcopy((fields_, graph.region_ids(), ledger, workload.adjacency_work,
                          weights, maps))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("planner", ["prm", "rrt"])
def test_a_replay_leaves_its_workload_untouched(prm_workload, rrt_workload, planner, strategy):
    """A replay is a pure function of its workload: the repartition
    weights are an argument of the decision, never written back, so a
    second weighting of the same workload sees what the first one saw."""
    workload = prm_workload if planner == "prm" else rrt_workload
    simulate = simulate_prm if planner == "prm" else simulate_rrt
    before = _workload_state(planner, workload)
    simulate(workload, 16, strategy)
    assert _workload_state(planner, workload) == before


@pytest.mark.parametrize("strategy", STEALING)
@pytest.mark.parametrize("num_pes", WIDE_PES)
def test_multi_node_rounds_golden(prm_workload, num_pes, strategy):
    run = simulate_prm(prm_workload, num_pes, strategy)
    assert result_digest(run) == GOLDEN_WIDE[num_pes, strategy]


@pytest.mark.parametrize("strategy", STEALING)
@pytest.mark.parametrize("variant", VARIANTS)
def test_protocol_variant_golden(prm_workload, variant, strategy):
    assert sim_digest(_variant_run(prm_workload, variant, strategy)) == GOLDEN_VARIANTS[
        variant, strategy
    ]


def _wide_traced_run(workload):
    sink = MemorySink()
    run = simulate_prm(workload, WIDE_PES[0], "hybrid", tracer=Tracer(sinks=[sink]))
    return run, sink.events


def test_multi_node_traced_run_golden(prm_workload):
    run, events = _wide_traced_run(prm_workload)
    assert result_digest(run) == GOLDEN_WIDE[WIDE_PES[0], "hybrid"]
    assert trace_digest(events) == GOLDEN_WIDE_TRACE_EVENTS


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_pes=st.integers(2, 12),
    cores_per_node=st.integers(1, 4),
    latency_local=st.sampled_from([0.0, 1.0]),
    latency_remote=st.sampled_from([1.0, 10.0]),
    policy=st.sampled_from(STEALING),
    n_tasks=st.integers(1, 60),
)
def test_traced_equals_untraced_property(
    seed, num_pes, cores_per_node, latency_local, latency_remote, policy, n_tasks,
):
    """One protocol serves traced and untraced runs: a tracer never moves
    a result, and every task runs exactly once either way."""
    rng = np.random.default_rng(seed)
    costs = rng.uniform(1, 20, n_tasks)
    assignment = {t: int(rng.integers(0, num_pes)) for t in range(n_tasks)}
    topology = ClusterTopology(
        num_pes, cores_per_node, latency_local=latency_local, latency_remote=latency_remote
    )

    def run(tracer):
        return WorkStealingSimulator(
            topology,
            lambda task, pe: float(costs[task]),
            steal_policy=policy_by_name(policy),
            rng=np.random.default_rng(seed + 1),
            tracer=tracer,
        ).run(assignment)

    plain, traced = run(None), run(Tracer(sinks=[MemorySink()]))
    assert sim_digest(traced) == sim_digest(plain)
    assert sorted(plain.executed_by) == list(range(n_tasks))
    assert sum(s.tasks_executed for s in plain.pe_stats) == n_tasks


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10_000),
    num_pes=st.integers(2, 12),
    cores_per_node=st.integers(1, 4),
    latency_local=st.sampled_from([0.0, 1.0]),
    latency_remote=st.sampled_from([1.0, 10.0]),
    bandwidth_cost=st.sampled_from([0.0, 0.5]),
    steal_chunk=st.sampled_from(["half", 1, 3]),
    policy=st.sampled_from(STEALING),
    n_tasks=st.integers(1, 60),
    whole_costs=st.booleans(),
)
def test_bundled_replies_equal_one_event_per_reply(
    seed, num_pes, cores_per_node, latency_local, latency_remote, bandwidth_cost,
    steal_chunk, policy, n_tasks, whole_costs,
):
    """A bundle's failed replies as one count-carrying event replay the
    per-message loop bit for bit: results, every ``PEStats`` field and
    the traced event stream.  Whole-number task costs make the ties
    between PEs common.  And no PE goes idle with work queued (the
    simulator's invariant): every task runs, once."""
    rng = np.random.default_rng(seed)
    if whole_costs:
        costs = rng.integers(1, 6, n_tasks).astype(float)
    else:
        costs = rng.uniform(1, 20, n_tasks)
    assignment = {t: int(rng.integers(0, num_pes)) for t in range(n_tasks)}
    topology = ClusterTopology(
        num_pes, cores_per_node, latency_local=latency_local,
        latency_remote=latency_remote, bandwidth_cost=bandwidth_cost,
    )

    def run(cls, tracer):
        return cls(
            topology,
            lambda task, pe: float(costs[task]),
            steal_policy=policy_by_name(policy),
            steal_chunk=steal_chunk,
            rng=np.random.default_rng(seed + 1),
            tracer=tracer,
        ).run(assignment)

    oracle_sink, sink = MemorySink(), MemorySink()
    want = run(PerMessageSimulator, Tracer(sinks=[oracle_sink]))
    got = run(WorkStealingSimulator, Tracer(sinks=[sink]))
    assert sim_digest(got) == sim_digest(want)
    assert got.pe_stats == want.pe_stats
    assert trace_digest(sink.events) == trace_digest(oracle_sink.events)
    assert sim_digest(run(WorkStealingSimulator, None)) == sim_digest(want)
    assert sum(s.tasks_executed for s in got.pe_stats) == len(got.executed_by)
    assert sorted(got.executed_by) == list(range(n_tasks))


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
    chunked, chunk_events = _chunk_run(prm)
    print(f'GOLDEN_CHUNK = "{result_digest(chunked)}"')
    print(f'GOLDEN_CHUNK_EVENTS = "{trace_digest(chunk_events)}"')
    sink = MemorySink()
    simulate_prm(prm, 16, "hybrid", tracer=Tracer(sinks=[sink]))
    print(f'GOLDEN_TRACE_EVENTS = "{trace_digest(sink.events)}"')
    print("\nGOLDEN_WIDE = {")
    for p in WIDE_PES:
        for s in STEALING:
            print(f'    ({p}, "{s}"): "{result_digest(simulate_prm(prm, p, s))}",')
    print("}\nGOLDEN_VARIANTS = {")
    for v in VARIANTS:
        for s in STEALING:
            print(f'    ("{v}", "{s}"): "{sim_digest(_variant_run(prm, v, s))}",')
    print("}")
    print(f'GOLDEN_WIDE_TRACE_EVENTS = "{trace_digest(_wide_traced_run(prm)[1])}"')


@pytest.mark.parametrize("policy", STEALING)
@pytest.mark.parametrize("num_pes", [2, 3, 9, 48, 96, 200])
def test_a_run_leaves_the_generator_where_per_round_draws_do(num_pes, policy):
    """The simulator draws RAND-K rounds in blocks and rewinds its
    generator when the run ends; the per-message loop draws one round at
    a time.  Both runs end with the same result and the same generator
    state."""
    costs = np.random.default_rng(num_pes).uniform(1, 20, 4 * num_pes)
    # A quarter of the PEs hold the work: the rest steal, round after round.
    holders = max(1, num_pes // 4)
    assignment = {t: t % holders for t in range(costs.size)}
    topology = ClusterTopology(num_pes, cores_per_node=4)
    rngs = {}

    def run(cls):
        rng = rngs[cls] = np.random.default_rng([num_pes, 1])
        return cls(
            topology,
            lambda task, pe: float(costs[task]),
            steal_policy=policy_by_name(policy),
            rng=rng,
        ).run(assignment)

    want, got = run(PerMessageSimulator), run(WorkStealingSimulator)
    assert sim_digest(got) == sim_digest(want)
    end = rngs[WorkStealingSimulator].bit_generator.state
    assert end == rngs[PerMessageSimulator].bit_generator.state
    if policy != "diffusive" and num_pes > 2:  # choice(1, 1) draws nothing
        assert end != np.random.default_rng([num_pes, 1]).bit_generator.state
