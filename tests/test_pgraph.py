"""Remote-access accounting of the connection phase (the paper's Fig. 7b).

STAPL's pGraph distributes a graph's vertices across PEs; reading a vertex
another PE owns is a remote access.  ``repro.core.machine.replay`` reads
each adjacency's ``vertex_reads`` vertices of region ``b`` from ``a``'s
owner, shipped as one aggregated message priced by
``ClusterTopology.latencies``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AdjacencyWork, replay
from repro.geometry import AABB
from repro.runtime import ClusterTopology
from repro.subdivision import UniformSubdivision


def _topology(num_pes=4):
    return ClusterTopology(num_pes, cores_per_node=2, latency_local=1.0, latency_remote=10.0)


def _replay(adjacency, num_pes=4):
    """Four regions in a row on ``num_pes`` PEs (region r on PE r when
    ``num_pes`` is 4), no load balancing."""
    graph = UniformSubdivision(AABB([0.0, 0.0], [4.0, 1.0]), 4).graph
    return replay(graph, [1.0] * 4, [1] * 4, adjacency, num_pes, "none", 0,
                  topology=_topology(num_pes))


def _adj(a, b, cost, reads):
    return AdjacencyWork(a=a, b=b, cost=cost, vertex_reads=reads, edges_added=0)


class TestLatencies:
    """``ClusterTopology.latencies`` is ``latency`` entry by entry."""

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        num_pes=st.integers(1, 64),
        cores=st.integers(1, 32),
        local=st.floats(0.0, 100.0),
        remote=st.floats(0.0, 100.0),
        bandwidth=st.floats(0.0, 10.0),
    )
    @example(data=None, num_pes=4, cores=2, local=1.0, remote=10.0, bandwidth=0.05)
    def test_equal_the_scalar_latency(self, data, num_pes, cores, local, remote, bandwidth):
        topo = ClusterTopology(num_pes, cores_per_node=cores, latency_local=local,
                               latency_remote=remote, bandwidth_cost=bandwidth)
        if data is None:  # every (src, dst) pair, payloads 0 and 3
            src, dst = np.divmod(np.arange(2 * num_pes * num_pes), num_pes)
            src %= num_pes
            payload = np.repeat([0, 3], num_pes * num_pes)
        else:
            pes = st.integers(0, num_pes - 1)
            n = data.draw(st.integers(0, 40))
            src = np.array(data.draw(st.lists(pes, min_size=n, max_size=n)), dtype=int)
            dst = np.array(data.draw(st.lists(pes, min_size=n, max_size=n)), dtype=int)
            same = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
            dst[same] = src[same]
            payload = np.array(
                data.draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)), dtype=int
            )
        got = topo.latencies(src, dst, payload)
        want = [topo.latency(s, d, payload=p) for s, d, p in zip(src.tolist(), dst.tolist(),
                                                                 payload.tolist())]
        assert got.tolist() == want  # bit-equal, entry by entry


class TestAccessAccounting:
    def test_local_access_free(self):
        assert _topology().latencies([0, 3], [0, 3], [7, 0]).tolist() == [0.0, 0.0]
        # One PE owns every region: nothing is remote, connection is its cost.
        run = _replay([_adj(0, 1, 0.5, 5), _adj(2, 3, 0.25, 9)], num_pes=1)
        assert run.remote_reads == 0
        assert run.phases.region_connection == 0.75

    def test_remote_access_charged(self):
        topo = _topology()
        # Same node (cores_per_node=2), then cross node.
        assert topo.latencies([0, 0], [1, 2], [0, 0]).tolist() == [1.0, 10.0]
        assert topo.latencies([0, 0], [1, 2], [4, 4]).tolist() == [1.0 + 4 * 0.05, 10.0 + 4 * 0.05]

    def test_counted_per_element(self):
        run = _replay([_adj(0, 2, 0.5, 5), _adj(1, 3, 0.5, 2), _adj(2, 2, 0.5, 4)])
        assert run.initial_owner == {0: 0, 1: 1, 2: 2, 3: 3}
        assert run.remote_reads == 7

    def test_bulk_access_single_latency(self):
        run = _replay([_adj(0, 2, 0.5, 100)])
        # One message: base remote latency + bandwidth * payload.
        assert run.phases.region_connection == 0.5 + (10.0 + 0.05 * 100)
        assert run.remote_reads == 100

    def test_bulk_zero_count_free(self):
        run = _replay([_adj(0, 2, 0.5, 0), _adj(1, 0, 0.25, 0)])
        assert run.phases.region_connection == 0.5
        assert run.remote_reads == 0


class TestConnectionPhase:
    """The replay's array pass against the accounting spelt out as the
    one-adjacency-at-a-time walk it replaced."""

    @staticmethod
    def _walk(run, adjacency, topo):
        owner = run.final_owner
        remote, loads = 0, [0.0] * topo.num_pes
        for adj in adjacency:
            pe, home = owner[adj.a], owner[adj.b]
            charge = 0.0
            if pe != home and adj.vertex_reads > 0:
                remote += adj.vertex_reads
                charge = topo.latency(pe, home, payload=adj.vertex_reads)
            loads[pe] += adj.cost + charge
        return remote, max(loads)

    @pytest.mark.parametrize("strategy", ["none", "rand-8", "hybrid"])
    def test_matches_the_scalar_walk(self, strategy):
        rng = np.random.default_rng(7)
        graph = UniformSubdivision(AABB([0.0, 0.0], [6.0, 4.0]), 24).graph
        topo = ClusterTopology(12, cores_per_node=4, latency_local=1.5, latency_remote=9.0)
        adjacency = [_adj(a, b, float(rng.uniform(0.1, 2.0)), int(rng.integers(0, 6)))
                     for edge in graph.edges() for a, b in (edge, edge[::-1])]
        costs = rng.uniform(0.5, 5.0, 24).tolist()
        run = replay(graph, costs, [1] * 24, adjacency, 12, strategy, 3, topology=topo)
        remote, load = self._walk(run, adjacency, topo)
        assert run.remote_reads == remote > 0
        assert run.phases.region_connection == load  # bit-equal

    def test_an_empty_ledger_is_free(self):
        run = _replay([])
        assert run.remote_reads == 0 and run.phases.region_connection == 0.0
