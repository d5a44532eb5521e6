"""Tests for the termination-detection cost model."""

import numpy as np
import pytest

from repro.runtime import ClusterTopology, detection_delay_tree


def _topo(num_pes, cores_per_node=4):
    return ClusterTopology(
        num_pes, cores_per_node=cores_per_node, latency_local=1.0, latency_remote=10.0
    )


class TestDetectionDelay:
    def test_grows_logarithmically(self):
        """Every level above the node pays remote latency both ways:
        64 -> 1024 PEs (6 -> 10 levels, 2 of them local) adds 4 remote
        levels, no matter how many PEs that is."""
        d64, d1024 = detection_delay_tree(_topo(64)), detection_delay_tree(_topo(1024))
        assert d64 == 2.0 * (2 * 1.0 + 4 * 10.0)
        assert d1024 - d64 == 2.0 * 4 * 10.0
        assert detection_delay_tree(_topo(65)) == detection_delay_tree(_topo(128))

    def test_one_core_per_node_is_all_remote(self):
        """No two PEs share a node, so no level is local."""
        for num_pes in (2, 16, 100):
            levels = int(np.ceil(np.log2(num_pes)))
            assert detection_delay_tree(_topo(num_pes, cores_per_node=1)) == 2.0 * levels * 10.0

    def test_one_node_is_all_local(self):
        for num_pes, cores in ((2, 2), (16, 16), (16, 64), (100, 128)):
            levels = int(np.ceil(np.log2(num_pes)))
            assert detection_delay_tree(_topo(num_pes, cores)) == 2.0 * levels * 1.0

    def test_tree_variant_cheaper_than_all_remote(self):
        topo = ClusterTopology(256, cores_per_node=16, latency_local=1.0, latency_remote=10.0)
        assert detection_delay_tree(topo) < 2.0 * 8 * 10.0

    @pytest.mark.parametrize("num_pes,expected", [(16, 8.0), (96, 50.0), (3072, 150.0)])
    def test_default_topology_is_pinned(self, num_pes, expected):
        """The cost every simulated run charges (24 cores per node)."""
        assert detection_delay_tree(ClusterTopology(num_pes)) == expected
