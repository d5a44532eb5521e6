"""Tests for the victim-selection policies."""

import numpy as np
import pytest

from repro.core import DiffusivePolicy, HybridPolicy, RandKPolicy, policy_by_name
from repro.runtime import ClusterTopology


@pytest.fixture
def topo():
    return ClusterTopology(16, cores_per_node=4)


class TestRandK:
    def test_k_distinct_victims_excluding_self(self, topo, rng):
        policy = RandKPolicy(8)
        for _ in range(20):
            victims = policy.select_victims(3, 0, topo, rng)
            assert len(victims) == 8
            assert len(set(victims)) == 8
            assert 3 not in victims

    def test_k_capped_by_machine(self, rng):
        topo = ClusterTopology(4)
        victims = RandKPolicy(8).select_victims(0, 0, topo, rng)
        assert len(victims) == 3

    def test_single_pe_no_victims(self, rng):
        topo = ClusterTopology(1)
        assert RandKPolicy(8).select_victims(0, 0, topo, rng) == []

    def test_varies_between_calls(self, topo, rng):
        policy = RandKPolicy(4)
        draws = {tuple(policy.select_victims(0, 0, topo, rng)) for _ in range(10)}
        assert len(draws) > 1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            RandKPolicy(0)

    @pytest.mark.parametrize("P", [2, 3, 9, 96])
    def test_same_generator_stream_as_explicit_candidate_array(self, P):
        """The index-shift draw is, victim for victim and bit for bit of
        generator state, the draw from the explicit array of other PEs."""
        topo = ClusterTopology(P)
        for k in (1, 8, P + 3):
            policy = RandKPolicy(k)
            for thief in range(P):
                new_rng = np.random.default_rng([P, k, thief])
                ref_rng = np.random.default_rng([P, k, thief])
                for round_index in range(3):
                    got = policy.select_victims(thief, round_index, topo, new_rng)
                    others = np.delete(np.arange(P), thief)
                    ref = ref_rng.choice(others, size=min(k, P - 1), replace=False)
                    assert got == ref.tolist()
                    assert all(type(v) is int for v in got)
                assert new_rng.bit_generator.state == ref_rng.bit_generator.state


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
        policy = HybridPolicy(k=6)
        victims = policy.select_victims(5, 1, topo, rng)
        assert len(victims) == 6
        assert 5 not in victims


class TestFactory:
    def test_known_names(self):
        assert policy_by_name("rand-8").name == "rand-8"
        assert policy_by_name("rand-k", k=3).k == 3
        assert policy_by_name("diffusive").name == "diffusive"
        assert policy_by_name("hybrid").name.startswith("hybrid")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            policy_by_name("lifo")
