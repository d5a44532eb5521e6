"""Tests for the cluster topology / latency model."""

import pytest

from repro.runtime import ClusterTopology, mesh_shape_for


class TestMeshShape:
    def test_square(self):
        assert mesh_shape_for(16) == (4, 4)

    def test_rectangular(self):
        rows, cols = mesh_shape_for(96)
        assert rows * cols == 96
        assert rows <= cols

    def test_prime_degenerates_to_row(self):
        assert mesh_shape_for(13) == (1, 13)

    def test_invalid(self):
        with pytest.raises(ValueError):
            mesh_shape_for(0)


class TestClusterTopology:
    @pytest.fixture
    def topo(self):
        return ClusterTopology(48, cores_per_node=8, latency_local=1.0, latency_remote=10.0)

    def test_node_mapping(self, topo):
        assert topo.node_of(0) == 0
        assert topo.node_of(7) == 0
        assert topo.node_of(8) == 1
        assert topo.num_nodes == 6

    def test_latency_asymmetry(self, topo):
        assert topo.latency(0, 0) == 0.0
        assert topo.latency(0, 7) == 1.0  # same node
        assert topo.latency(0, 8) == 10.0  # cross node

    def test_latency_symmetric(self, topo):
        assert topo.latency(3, 19) == topo.latency(19, 3)

    def test_payload_adds_bandwidth(self, topo):
        base = topo.latency(0, 8)
        with_payload = topo.latency(0, 8, payload=100)
        assert with_payload == pytest.approx(base + 100 * topo.bandwidth_cost)

    def test_out_of_range_pe(self, topo):
        with pytest.raises(IndexError):
            topo.latency(0, 48)
        with pytest.raises(IndexError):
            topo.node_of(-1)

    @pytest.mark.parametrize("bad", [-1, 48])
    def test_range_checks_survive_the_fast_path(self, topo, bad):
        # latency() is the simulator's per-message call and mesh_neighbors()
        # answers from a table: neither may let a negative index wrap.
        with pytest.raises(IndexError):
            topo.latency(bad, 0)
        with pytest.raises(IndexError):
            topo.latency(0, bad)
        with pytest.raises(IndexError):
            topo.mesh_neighbors(bad)

    def test_latency_is_node_arithmetic(self, topo):
        for src in range(48):
            for dst in range(48):
                expect = 0.0 if src == dst else (1.0 if topo.same_node(src, dst) else 10.0)
                assert topo.latency(src, dst) == expect
                assert topo.latency(src, dst, payload=3) == (
                    0.0 if src == dst else expect + topo.bandwidth_cost * 3
                )

    def test_mesh_round_trip(self, topo):
        for pe in range(48):
            r, c = topo.mesh_coords(pe)
            assert topo.mesh_pe(r, c) == pe

    def test_mesh_neighbors_interior(self, topo):
        rows, cols = topo.mesh_shape
        pe = topo.mesh_pe(1, 1)
        nbrs = topo.mesh_neighbors(pe)
        assert len(nbrs) == 4
        assert pe not in nbrs

    def test_mesh_neighbors_corner(self, topo):
        nbrs = topo.mesh_neighbors(0)
        assert len(nbrs) == 2

    def test_mesh_neighbors_order_and_ownership(self, topo):
        rows, cols = topo.mesh_shape
        for pe in range(48):
            r, c = topo.mesh_coords(pe)
            expect = [
                topo.mesh_pe(rr, cc)
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                if 0 <= rr < rows and 0 <= cc < cols
            ]
            assert topo.mesh_neighbors(pe) == expect
        # The caller owns what it gets: mutating it must not reach the table.
        topo.mesh_neighbors(5).clear()
        assert len(topo.mesh_neighbors(5)) == 3

    def test_mesh_neighbors_symmetric(self, topo):
        for pe in range(48):
            for n in topo.mesh_neighbors(pe):
                assert pe in topo.mesh_neighbors(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterTopology(0)
        with pytest.raises(ValueError):
            ClusterTopology(4, latency_local=-1.0)
