"""Tests for the victim-selection policies."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DiffusivePolicy, HybridPolicy, RandKPolicy, policy_by_name
from repro.core.work_stealing import BLOCK_ROUNDS, K
from repro.runtime import ClusterTopology


@pytest.fixture
def topo():
    return ClusterTopology(16, cores_per_node=4)


class TestRandK:
    def test_k_distinct_victims_excluding_self(self, topo, rng):
        policy = RandKPolicy()
        for _ in range(20):
            victims = policy.select_victims(3, 0, topo, rng)
            assert len(victims) == 8
            assert len(set(victims)) == 8
            assert 3 not in victims

    def test_k_capped_by_machine(self, rng):
        topo = ClusterTopology(4)
        victims = RandKPolicy().select_victims(0, 0, topo, rng)
        assert len(victims) == 3

    def test_single_pe_no_victims(self, rng):
        topo = ClusterTopology(1)
        assert RandKPolicy().select_victims(0, 0, topo, rng) == []

    def test_varies_between_calls(self, topo, rng):
        policy = RandKPolicy()
        draws = {tuple(policy.select_victims(0, 0, topo, rng)) for _ in range(10)}
        assert len(draws) > 1

    @pytest.mark.parametrize("P", [2, 3, 9, 96])
    def test_same_generator_stream_as_explicit_candidate_array(self, P):
        """The index-shift draw is, victim for victim and bit for bit of
        generator state, the draw from the explicit array of other PEs:
        capped at every other PE when ``P <= K + 1``, a proper subset at 96."""
        topo, policy = ClusterTopology(P), RandKPolicy()
        for thief in range(P):
            new_rng = np.random.default_rng([P, K, thief])
            ref_rng = np.random.default_rng([P, K, thief])
            for round_index in range(3):
                got = policy.select_victims(thief, round_index, topo, new_rng)
                others = np.delete(np.arange(P), thief)
                ref = ref_rng.choice(others, size=min(K, P - 1), replace=False)
                assert got == ref.tolist()
                assert all(type(v) is int for v in got)
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state


class TestBlockStream:
    """A run's victim source draws RAND-K in blocks of rounds; it must
    give the rows of one ``choice`` call per round and, once closed,
    leave the generator where those calls leave it."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        num_pes=st.integers(2, 600),
        calls=st.integers(1, 2 * BLOCK_ROUNDS + 5),
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from(["rand-8", "hybrid"]),
    )
    @example(num_pes=2, calls=3, seed=0, policy="rand-8")
    @example(num_pes=3, calls=BLOCK_ROUNDS + 1, seed=1, policy="rand-8")
    @example(num_pes=9, calls=BLOCK_ROUNDS + 1, seed=2, policy="rand-8")
    @example(num_pes=10, calls=3 * BLOCK_ROUNDS, seed=3, policy="hybrid")
    @example(num_pes=96, calls=2 * BLOCK_ROUNDS + 1, seed=4, policy="rand-8")
    @example(num_pes=383, calls=2 * BLOCK_ROUNDS, seed=5, policy="hybrid")
    @example(num_pes=3072, calls=BLOCK_ROUNDS + 7, seed=6, policy="rand-8")
    @example(num_pes=10002, calls=BLOCK_ROUNDS + 2, seed=7, policy="hybrid")
    def test_rows_and_end_state_equal_one_choice_per_round(self, num_pes, calls, seed, policy):
        topo = ClusterTopology(num_pes)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        # Thieves and round indices as a run would ask: any PE, and round 0
        # (HYBRID's diffusive round, which draws nothing) a third of the time.
        asks = np.random.default_rng([seed, 1]).integers(0, [num_pes, 3], size=(calls, 2))
        source = policy_by_name(policy).victim_source(topo, rng)
        n, k = num_pes - 1, min(K, num_pes - 1)
        for thief, round_index in asks.tolist():
            got = source(thief, round_index)
            if policy == "hybrid" and round_index == 0:
                assert list(got) == topo.mesh_neighbors(thief)
                continue
            row = ref.choice(n, size=k, replace=False).tolist()
            assert list(got) == [v + 1 if v >= thief else v for v in row]
        source.close()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_choice_keeps_floyds_algorithm_at_k(self):
        """``choice(n, k, replace=False)`` switches to a tail shuffle only
        when ``n > 10000`` and ``k > n // 50``; with ``k = min(K, n)`` the
        second test needs ``n < 50 * K``, so it never holds."""
        assert 50 * K <= 10_000
        assert not any(n > 10_000 and min(K, n) > n // 50 for n in range(1, 50_000))


class TestDiffusive:
    def test_selects_mesh_neighbors(self, topo, rng):
        policy = DiffusivePolicy()
        victims = policy.select_victims(5, 0, topo, rng)
        assert set(victims) == set(topo.mesh_neighbors(5))

    def test_same_every_round(self, topo, rng):
        policy = DiffusivePolicy()
        assert policy.select_victims(5, 0, topo, rng) == policy.select_victims(5, 3, topo, rng)


class TestHybrid:
    def test_first_round_is_diffusive(self, topo, rng):
        policy = HybridPolicy()
        assert set(policy.select_victims(5, 0, topo, rng)) == set(topo.mesh_neighbors(5))

    def test_fallback_is_random(self, topo, rng):
        policy = HybridPolicy()
        victims = policy.select_victims(5, 1, topo, rng)
        assert len(victims) == K
        assert 5 not in victims


class TestFactory:
    def test_known_names(self):
        assert policy_by_name("rand-8").name == "rand-8"
        assert policy_by_name("diffusive").name == "diffusive"
        assert policy_by_name("hybrid").name.startswith("hybrid")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            policy_by_name("lifo")
