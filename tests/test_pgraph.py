"""Tests for the distributed-graph view and remote-access accounting."""

import numpy as np
import pytest

from repro.runtime import ClusterTopology, PGraphView


@pytest.fixture
def view():
    topo = ClusterTopology(4, cores_per_node=2, latency_local=1.0, latency_remote=10.0)
    v = PGraphView("roadmap graph", topo)
    v.set_owners({0: 0, 1: 1, 2: 2, 3: 3})
    return v


class TestOwnership:
    def test_owner_and_elements(self, view):
        assert view.owner(2) == 2
        assert view.elements_of(1) == [1]
        assert view.num_elements == 4

    def test_invalid_owner_rejected(self, view):
        with pytest.raises(ValueError):
            view.set_owner(9, 7)

    def test_migrate(self, view):
        view.migrate(0, 3)
        assert view.owner(0) == 3
        with pytest.raises(KeyError):
            view.migrate(77, 0)


class TestAccessAccounting:
    def test_local_access_free(self, view):
        charged = view.access(0, 0)
        assert charged == 0.0
        assert view.stats.local == 1
        assert view.stats.remote == 0

    def test_remote_access_charged(self, view):
        charged = view.access(0, 1)  # same node (cores_per_node=2)
        assert charged == pytest.approx(1.0)
        charged = view.access(0, 2)  # cross node
        assert charged == pytest.approx(10.0)
        assert view.stats.remote == 2
        assert view.stats.remote_by_pe[0] == 2

    def test_counted_per_element(self, view):
        view.access(0, 2, count=5)
        assert view.stats.remote == 5
        assert view.stats.latency_charged == pytest.approx(50.0)

    def test_bulk_access_single_latency(self, view):
        charged = view.access_bulk(0, 2, count=100)
        # One message: base remote latency + bandwidth * payload.
        assert charged == pytest.approx(10.0 + 100 * view.topology.bandwidth_cost)
        assert view.stats.remote == 100

    def test_bulk_zero_count_free(self, view):
        assert view.access_bulk(0, 2, count=0) == 0.0
        assert view.stats.total == 0

    def test_negative_count_rejected(self, view):
        with pytest.raises(ValueError):
            view.access(0, 1, count=-1)

    def test_remote_fraction(self, view):
        view.access(0, 0)
        view.access(0, 1)
        assert view.stats.remote_fraction() == pytest.approx(0.5)

    def test_reset(self, view):
        view.access(0, 1)
        view.reset_stats()
        assert view.stats.total == 0


class TestAccessMany:
    """``access_many`` is the production path (``simulate_prm`` hands it a
    whole adjacency walk); the reference is the accounting spelt out as the
    one-access-at-a-time loop it replaced."""

    @staticmethod
    def _reference(view, accessors, elements, counts, aggregated):
        topo = view.topology
        local = remote = 0
        by_pe, charged = {}, []
        for pe, element, count in zip(accessors, elements, counts):
            owner = view.owner(element)
            if owner == pe or count == 0:
                local += count if owner == pe else 0
                charged.append(0.0)
                continue
            remote += count
            by_pe[pe] = by_pe.get(pe, 0) + count
            charged.append(
                topo.latency(pe, owner, payload=count) if aggregated
                else count * topo.latency(pe, owner)
            )
        return local, remote, by_pe, charged

    @pytest.mark.parametrize("aggregated", [False, True])
    def test_matches_the_scalar_walk(self, aggregated):
        rng = np.random.default_rng(7)
        topo = ClusterTopology(12, cores_per_node=4, latency_local=1.5, latency_remote=9.0)
        view = PGraphView("roadmap graph", topo)
        view.set_owners({e: int(rng.integers(12)) for e in range(40)})
        accessors = rng.integers(12, size=300).tolist()
        elements = rng.integers(40, size=300).tolist()
        counts = rng.integers(0, 6, size=300).tolist()
        local, remote, by_pe, charged = self._reference(
            view, accessors, elements, counts, aggregated
        )
        got = view.access_many(accessors, elements, counts, aggregated=aggregated)
        assert got.tolist() == charged  # bit-equal, entry by entry
        assert (view.stats.local, view.stats.remote) == (local, remote)
        assert view.stats.remote_by_pe == by_pe
        assert view.stats.latency_charged == pytest.approx(sum(charged))

    def test_scalar_count_broadcasts_and_empty_walk_is_free(self, view):
        charged = view.access_many([0, 0, 0], [0, 1, 2])
        assert charged.tolist() == [0.0, 1.0, 10.0]
        assert (view.stats.local, view.stats.remote) == (1, 2)
        assert view.access_many([], []).size == 0
        assert view.stats.total == 3

    def test_rejects_negative_counts_and_unknown_elements(self, view):
        with pytest.raises(ValueError):
            view.access_many([0, 1], [1, 0], [2, -1])
        with pytest.raises(KeyError):
            view.access_many([0], [99])

    def test_set_owners_validates_before_it_mutates(self, view):
        with pytest.raises(ValueError):
            view.set_owners({0: 3, 7: 4})
        assert view.owner(0) == 0 and view.num_elements == 4
