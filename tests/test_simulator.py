"""Tests for the event-driven work-stealing simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiffusivePolicy, HybridPolicy, RandKPolicy
from repro.runtime import ClusterTopology, WorkStealingSimulator, run_static_phase


def _uniform_executor(cost=10.0):
    return lambda task, pe: cost


class TestStaticExecution:
    def test_balanced_static(self):
        topo = ClusterTopology(4, cores_per_node=2)
        assignment = {t: t % 4 for t in range(16)}
        res = run_static_phase(topo, _uniform_executor(5.0), assignment)
        assert res.makespan == pytest.approx(20.0)
        assert res.total_work() == pytest.approx(80.0)
        assert res.efficiency() == pytest.approx(1.0)

    def test_imbalanced_static_makespan(self):
        topo = ClusterTopology(4)
        assignment = {t: 0 for t in range(8)}  # everything on PE 0
        res = run_static_phase(topo, _uniform_executor(3.0), assignment)
        assert res.makespan == pytest.approx(24.0)
        assert res.pe_stats[0].tasks_executed == 8
        assert res.pe_stats[1].tasks_executed == 0

    def test_executed_by_matches_assignment(self):
        topo = ClusterTopology(3)
        assignment = {t: t % 3 for t in range(9)}
        res = run_static_phase(topo, _uniform_executor(), assignment)
        assert res.executed_by == assignment

    def test_empty_assignment(self):
        topo = ClusterTopology(2)
        res = run_static_phase(topo, _uniform_executor(), {})
        assert res.makespan == 0.0

    def test_invalid_pe_rejected(self):
        topo = ClusterTopology(2)
        with pytest.raises(ValueError):
            run_static_phase(topo, _uniform_executor(), {0: 5})

    @pytest.mark.parametrize("pe", [2, -1])
    def test_invalid_pe_rejected_at_either_edge(self, pe):
        # The check rides the loop that fills the deques; it must catch the
        # first PE past the machine and a negative one (which would wrap).
        with pytest.raises(ValueError):
            run_static_phase(ClusterTopology(2), _uniform_executor(), {0: 0, 1: pe})

    def test_negative_cost_rejected(self):
        topo = ClusterTopology(1)
        sim = WorkStealingSimulator(topo, lambda t, p: -1.0)
        with pytest.raises(ValueError):
            sim.run({0: 0})


class TestWorkStealing:
    def _run(self, policy, P=8, tasks_on_pe0=64, cost=10.0, **kw):
        topo = ClusterTopology(P, cores_per_node=4)
        sim = WorkStealingSimulator(
            topo, _uniform_executor(cost), steal_policy=policy,
            rng=np.random.default_rng(0), **kw
        )
        return sim.run({t: 0 for t in range(tasks_on_pe0)})

    def test_stealing_reduces_makespan(self):
        static = run_static_phase(
            ClusterTopology(8, cores_per_node=4), _uniform_executor(10.0),
            {t: 0 for t in range(64)},
        )
        stolen = self._run(RandKPolicy(4))
        assert stolen.makespan < static.makespan
        # Should be within a small factor of perfect balance (steal
        # latency, transfer cost and non-preemptive service all add up).
        assert stolen.makespan < 3.0 * (64 * 10.0 / 8)

    def test_all_tasks_execute_exactly_once(self):
        res = self._run(HybridPolicy())
        assert len(res.executed_by) == 64
        assert sum(s.tasks_executed for s in res.pe_stats) == 64

    def test_stolen_marks_consistent(self):
        res = self._run(RandKPolicy(4))
        for st in res.pe_stats:
            assert st.tasks_stolen_executed <= st.tasks_executed
        # Tasks left PE 0:
        assert res.pe_stats[0].tasks_lost > 0
        lost = sum(s.tasks_lost for s in res.pe_stats)
        stolen_exec = sum(s.tasks_stolen_executed for s in res.pe_stats)
        assert stolen_exec <= lost  # some stolen tasks may be re-stolen

    def test_work_conserved(self):
        res = self._run(DiffusivePolicy())
        assert res.total_work() == pytest.approx(64 * 10.0)

    def test_deterministic_given_seed(self):
        a = self._run(RandKPolicy(4))
        b = self._run(RandKPolicy(4))
        assert a.makespan == b.makespan
        assert a.executed_by == b.executed_by

    def test_chunk_one_slower_than_half(self):
        half = self._run(RandKPolicy(4), steal_chunk="half")
        one = self._run(RandKPolicy(4), steal_chunk=1)
        assert one.total_messages >= half.total_messages

    def test_min_keep_respected(self):
        res = self._run(RandKPolicy(4), min_keep=8, tasks_on_pe0=16)
        # Victim must keep at least 8 queued; at most 16-8 stolen overall
        # in the first service, so PE 0 executes at least 8.
        assert res.pe_stats[0].tasks_executed >= 8

    def test_single_pe_never_steals(self):
        topo = ClusterTopology(1)
        sim = WorkStealingSimulator(topo, _uniform_executor(), steal_policy=RandKPolicy(4))
        res = sim.run({t: 0 for t in range(5)})
        assert res.total_messages == 0
        assert res.makespan == pytest.approx(50.0)

    def test_offload_service_at_least_as_fast(self):
        slow = self._run(RandKPolicy(4), offload_service=False)
        fast = self._run(RandKPolicy(4), offload_service=True)
        assert fast.makespan <= slow.makespan + 1e-9

    def test_invalid_parameters(self):
        topo = ClusterTopology(2)
        with pytest.raises(ValueError):
            WorkStealingSimulator(topo, _uniform_executor(), steal_chunk=0)
        with pytest.raises(ValueError):
            WorkStealingSimulator(topo, _uniform_executor(), min_keep=-1)


class _FixedVictims:
    """A custom policy: every thief asks the same PEs, minus itself."""

    name = "fixed"

    def __init__(self, *victims):
        self.victims = victims

    def select_victims(self, thief, round_index, topology, rng):
        return [v for v in self.victims if v != thief]


class TestCustomPolicies:
    @pytest.mark.parametrize("victim", [4, 99, -1])
    def test_out_of_range_victim_raises(self, victim):
        # The simulator does not re-validate victims per message; the
        # topology's range check on the request's latency must catch it.
        sim = WorkStealingSimulator(
            ClusterTopology(4), _uniform_executor(), steal_policy=_FixedVictims(0, victim)
        )
        with pytest.raises(IndexError):
            sim.run({t: 0 for t in range(8)})

    def test_self_and_empty_selections_are_tolerated(self):
        sim = WorkStealingSimulator(
            ClusterTopology(3), _uniform_executor(), steal_policy=_FixedVictims()
        )
        res = sim.run({t: 0 for t in range(4)})
        assert res.total_messages == 0 and res.makespan == pytest.approx(40.0)

    @pytest.mark.xfail(
        strict=True,
        reason="protocol wart — thief re-arm after a partly successful round: "
        "a thief whose round partly succeeded and that drains the loot before "
        "the round's last, failed reply arrives is never re-armed",
    )
    def test_thief_rearms_after_a_partly_successful_round(self):
        # PE 0 holds the queue, PE 1 is stuck in one long task and PE 2
        # starts empty.  PE 2 asks both: PE 0 hands over one task at t=10,
        # PE 1 (non-preemptive) says "nothing" only after t=50.  PE 2 is
        # done with the stolen task by t~25 — one reply still pending, so
        # it may not start a round — and when the failure lands the round
        # already "found work", so no retry is scheduled either.
        costs = {t: 10.0 for t in range(40)}
        costs[100] = 50.0
        sim = WorkStealingSimulator(
            ClusterTopology(3),
            lambda task, pe: costs[task],
            steal_policy=_FixedVictims(0, 1),
            steal_chunk=1,
        )
        res = sim.run({**{t: 0 for t in range(40)}, 100: 1})
        thief = res.pe_stats[2]
        assert thief.tasks_executed == 1 and thief.finish_time < 50.0  # the set-up holds
        assert res.pe_stats[0].finish_time > 100.0  # work was queued elsewhere all along
        assert thief.steal_requests_sent > 2  # ...so the thief should have asked again


class TestHeterogeneousCosts:
    def test_makespan_at_least_heaviest_task(self, rng):
        topo = ClusterTopology(8, cores_per_node=4)
        costs = {t: float(c) for t, c in enumerate(rng.uniform(1, 100, 40))}
        sim = WorkStealingSimulator(
            topo, lambda t, p: costs[t], steal_policy=HybridPolicy(),
            rng=np.random.default_rng(1),
        )
        res = sim.run({t: t % 2 for t in costs})
        assert res.makespan >= max(costs.values())
        assert res.total_work() == pytest.approx(sum(costs.values()))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    P=st.integers(2, 12),
    n_tasks=st.integers(1, 60),
)
def test_simulation_invariants_property(seed, P, n_tasks):
    """Property: every task executes once; makespan bounds hold."""
    rng = np.random.default_rng(seed)
    topo = ClusterTopology(P, cores_per_node=4)
    costs = rng.uniform(1, 20, n_tasks)
    assignment = {t: int(rng.integers(0, P)) for t in range(n_tasks)}
    sim = WorkStealingSimulator(
        topo, lambda t, p: float(costs[t]), steal_policy=RandKPolicy(3),
        rng=np.random.default_rng(seed + 1),
    )
    res = sim.run(assignment)
    assert sorted(res.executed_by) == list(range(n_tasks))
    total = float(costs.sum())
    assert res.makespan >= total / P - 1e-9  # cannot beat perfect balance
    assert res.makespan <= total + 1e-9  # cannot be worse than serial
    assert res.total_work() == pytest.approx(total)
