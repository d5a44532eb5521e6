"""Tests for the roadmap graph and union-find."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planners import PRMBlock, Roadmap, UnionFind

from .oracle import assert_same, digest


class TestUnionFind:
    def test_union_and_find(self):
        uf = UnionFind()
        for x in range(5):
            uf.make_set(x)
        assert uf.num_sets == 5
        assert uf.union(0, 1)
        assert not uf.union(0, 1)
        assert uf.same_set(0, 1)
        assert not uf.same_set(0, 2)
        assert uf.num_sets == 4

    def test_transitive_union(self):
        uf = UnionFind()
        for x in range(4):
            uf.make_set(x)
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(1, 2)
        assert uf.same_set(0, 3)
        assert uf.num_sets == 1

    def test_make_set_idempotent(self):
        uf = UnionFind()
        uf.make_set(1)
        uf.make_set(1)
        assert uf.num_sets == 1


class TestRoadmap:
    def test_add_vertex_auto_ids(self):
        rm = Roadmap(2)
        assert rm.add_vertex(np.zeros(2)) == 0
        assert rm.add_vertex(np.ones(2)) == 1

    def test_explicit_ids(self):
        rm = Roadmap(2)
        rm.add_vertex(np.zeros(2), vid=100)
        assert rm.add_vertex(np.ones(2)) == 101

    def test_duplicate_vertex_rejected(self):
        rm = Roadmap(2)
        rm.add_vertex(np.zeros(2), vid=0)
        with pytest.raises(KeyError):
            rm.add_vertex(np.ones(2), vid=0)

    def test_wrong_dim_rejected(self):
        rm = Roadmap(2)
        with pytest.raises(ValueError):
            rm.add_vertex(np.zeros(3))

    def test_edge_weight_defaults_to_euclidean(self):
        rm = Roadmap(2)
        rm.add_vertex(np.zeros(2), 0)
        rm.add_vertex(np.array([3.0, 4.0]), 1)
        rm.add_edge(0, 1)
        assert rm.neighbors(0)[1] == pytest.approx(5.0)

    def test_self_loop_rejected(self):
        rm = Roadmap(2)
        rm.add_vertex(np.zeros(2), 0)
        with pytest.raises(ValueError):
            rm.add_edge(0, 0)

    def test_edge_to_missing_vertex(self):
        rm = Roadmap(2)
        rm.add_vertex(np.zeros(2), 0)
        with pytest.raises(KeyError):
            rm.add_edge(0, 5)

    def test_duplicate_edge_returns_false(self):
        rm = Roadmap(2)
        rm.add_vertex(np.zeros(2), 0)
        rm.add_vertex(np.ones(2), 1)
        assert rm.add_edge(0, 1)
        assert not rm.add_edge(1, 0)
        assert rm.num_edges == 1

    def test_components_tracking(self):
        rm = Roadmap(2)
        for i in range(4):
            rm.add_vertex(np.array([float(i), 0.0]), i)
        rm.add_edge(0, 1)
        rm.add_edge(2, 3)
        assert rm.num_components_fast == 2
        assert rm.same_component(0, 1)
        assert not rm.same_component(1, 2)
        rm.add_edge(1, 2)
        assert rm.num_components_fast == 1

    def test_connected_components_exact(self):
        rm = Roadmap(2)
        for i in range(5):
            rm.add_vertex(np.array([float(i), 0.0]), i)
        rm.add_edge(0, 1)
        rm.add_edge(1, 2)
        comps = rm.connected_components()
        assert sorted(map(sorted, comps)) == [[0, 1, 2], [3], [4]]

    def test_remove_edge(self):
        rm = Roadmap(2)
        rm.add_vertex(np.zeros(2), 0)
        rm.add_vertex(np.ones(2), 1)
        rm.add_edge(0, 1)
        rm.remove_edge(0, 1)
        assert rm.num_edges == 0
        with pytest.raises(KeyError):
            rm.remove_edge(0, 1)

    def test_edges_iteration_unique(self):
        rm = Roadmap(2)
        for i in range(3):
            rm.add_vertex(np.array([float(i), 0.0]), i)
        rm.add_edge(0, 1)
        rm.add_edge(1, 2)
        edges = list(rm.edges())
        assert len(edges) == 2
        assert all(u < v for u, v, _w in edges)

    def test_merge_disjoint(self):
        a = Roadmap(2)
        a.add_vertex(np.zeros(2), 0)
        b = Roadmap(2)
        b.add_vertex(np.ones(2), 100)
        b.add_vertex(np.array([2.0, 2.0]), 101)
        b.add_edge(100, 101)
        a.merge(b)
        assert a.num_vertices == 3
        assert a.num_edges == 1

    def test_merge_conflicting_config_rejected(self):
        a = Roadmap(2)
        a.add_vertex(np.zeros(2), 0)
        b = Roadmap(2)
        b.add_vertex(np.ones(2), 0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_shared_identical_vertex_ok(self):
        a = Roadmap(2)
        a.add_vertex(np.zeros(2), 0)
        b = Roadmap(2)
        b.add_vertex(np.zeros(2), 0)
        a.merge(b)
        assert a.num_vertices == 1

    def test_path_length(self):
        rm = Roadmap(2)
        rm.add_vertex(np.zeros(2), 0)
        rm.add_vertex(np.array([1.0, 0.0]), 1)
        rm.add_vertex(np.array([1.0, 1.0]), 2)
        rm.add_edge(0, 1)
        rm.add_edge(1, 2)
        assert rm.path_length([0, 1, 2]) == pytest.approx(2.0)
        with pytest.raises(KeyError):
            rm.path_length([0, 2])

    def test_configs_array_round_trip(self, rng):
        rm = Roadmap(3)
        cfgs = rng.normal(size=(10, 3))
        for i, c in enumerate(cfgs):
            rm.add_vertex(c, i * 7)
        ids, arr = rm.configs_array()
        for i, vid in enumerate(ids):
            assert np.allclose(arr[i], rm.config(int(vid)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_union_find_matches_bfs_components(seed):
    """Property: union-find component count equals exact BFS count."""
    rng = np.random.default_rng(seed)
    rm = Roadmap(2)
    n = 30
    for i in range(n):
        rm.add_vertex(rng.normal(size=2), i)
    for _ in range(25):
        u, v = rng.integers(0, n, 2)
        if u != v and not rm.has_edge(int(u), int(v)):
            rm.add_edge(int(u), int(v))
    assert rm.num_components_fast == len(rm.connected_components())


class TestArrayBackedStorage:
    def test_configs_of_matches_config(self, rng):
        rm = Roadmap(3)
        cfgs = rng.uniform(-1, 1, size=(10, 3))
        vids = [rm.add_vertex(c) for c in cfgs]
        got = rm.configs_of([vids[7], vids[2], vids[2]])
        np.testing.assert_array_equal(got[0], rm.config(vids[7]))
        np.testing.assert_array_equal(got[1], rm.config(vids[2]))
        np.testing.assert_array_equal(got[2], rm.config(vids[2]))
        assert rm.configs_of([]).shape == (0, 3)

    def test_capacity_growth_preserves_data(self, rng):
        """Adding past the initial capacity one vertex at a time must keep
        every earlier configuration intact (regression for tiling-style
        resize bugs)."""
        rm = Roadmap(2)
        cfgs = rng.uniform(-5, 5, size=(200, 2))
        for c in cfgs:
            rm.add_vertex(c)
        ids, stored = rm.configs_array()
        np.testing.assert_array_equal(ids, np.arange(200))
        np.testing.assert_array_equal(stored, cfgs)

    def test_remove_vertex_swaps_last(self):
        rm = Roadmap(2)
        for i in range(4):
            rm.add_vertex([float(i), 0.0], vid=i)
        rm.add_edge(0, 1, 1.0)
        rm.add_edge(1, 2, 1.0)
        rm.remove_vertex(1)
        assert not rm.has_vertex(1)
        assert rm.num_vertices == 3
        assert rm.num_edges == 0
        assert not rm.has_edge(0, 1)
        # Remaining vertices keep their configurations.
        np.testing.assert_array_equal(rm.config(3), [3.0, 0.0])
        np.testing.assert_array_equal(rm.config(0), [0.0, 0.0])
        with pytest.raises(KeyError):
            rm.remove_vertex(99)


class TestMetricAndComponents:
    def test_metric_supplies_default_weight(self):
        rm = Roadmap(2, metric=lambda a, b: 42.0)
        rm.add_vertex([0.0, 0.0], vid=0)
        rm.add_vertex([3.0, 4.0], vid=1)
        rm.add_edge(0, 1)
        assert rm.neighbors(0)[1] == 42.0

    def test_default_weight_is_euclidean(self):
        rm = Roadmap(2)
        rm.add_vertex([0.0, 0.0], vid=0)
        rm.add_vertex([3.0, 4.0], vid=1)
        rm.add_edge(0, 1)
        assert rm.neighbors(0)[1] == pytest.approx(5.0)

    def test_component_slot_tracks_component_id(self, rng):
        rm = Roadmap(2)
        for i in range(12):
            rm.add_vertex(rng.uniform(-1, 1, size=2), vid=i)
        for u, v in [(0, 1), (1, 2), (4, 5), (6, 7), (7, 8)]:
            rm.add_edge(u, v, 1.0)
        for a in range(12):
            for b in range(12):
                same_by_slot = rm.component_slot(a) == rm.component_slot(b)
                same_by_id = rm.component_id(a) == rm.component_id(b)
                assert same_by_slot == same_by_id


def _random_graph(seed, n=40, m=90):
    """Random ids/configs plus an edge list with repeats (both
    orientations) — the loops skip those, and so must the bulk calls."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(10_000, size=n, replace=False).astype(np.int64)
    cfgs = rng.normal(size=(n, 3))
    u, v = rng.integers(0, n, size=(2, m))
    keep = u != v
    u, v = u[keep], v[keep]
    u, v = np.concatenate((u, v[:5])), np.concatenate((v, u[:5]))
    return ids, cfgs, ids[u], ids[v], rng.uniform(0.1, 2.0, size=u.size)


class TestBulkInsertion:
    """``add_vertices`` / ``add_edges`` leave the roadmap exactly as the
    ``add_vertex`` / ``add_edge`` loops would."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), split=st.integers(0, 40))
    def test_bulk_equals_loops(self, seed, split):
        ids, cfgs, u, v, w = _random_graph(seed)
        loop, bulk = Roadmap(3), Roadmap(3)
        inserted = []
        for part in (slice(0, split), slice(split, None)):
            for vid, cfg in zip(ids[part].tolist(), cfgs[part]):
                loop.add_vertex(cfg, vid)
            bulk.add_vertices(ids[part], cfgs[part])
        for a, b, weight in zip(u.tolist(), v.tolist(), w.tolist()):
            inserted.append(loop.add_edge(a, b, weight))
        half = len(u) // 2
        added = np.concatenate(
            [bulk.add_edges(u[:half], v[:half], w[:half]), bulk.add_edges(u[half:], v[half:], w[half:])]
        )
        assert added.tolist() == inserted
        assert not all(inserted)  # the draw repeats edges: skipping is exercised
        assert_same(digest(bulk), digest(loop))

    def test_auto_ids_continue_after_bulk(self):
        rm = Roadmap(2)
        rm.add_vertices([5, 3], np.zeros((2, 2)))
        assert rm.add_vertex(np.ones(2)) == 6

    def test_duplicate_ids_rejected_before_insertion(self):
        rm = Roadmap(2)
        rm.add_vertex(np.zeros(2), 7)
        for ids in ([1, 7], [2, 2]):
            with pytest.raises(KeyError):
                rm.add_vertices(ids, np.zeros((2, 2)))
        assert rm.num_vertices == 1 and not rm.has_vertex(1) and not rm.has_vertex(2)
        with pytest.raises(ValueError):
            rm.add_vertices([1, 2], np.zeros((2, 3)))

    def test_bad_edges_rejected_before_insertion(self):
        rm = Roadmap(2)
        rm.add_vertices([0, 1, 2], np.zeros((3, 2)))
        with pytest.raises(ValueError):
            rm.add_edges([0, 1], [1, 1], [1.0, 1.0])
        with pytest.raises(KeyError):
            rm.add_edges([0, 1], [1, 9], [1.0, 1.0])
        with pytest.raises(ValueError):
            rm.add_edges([0, 1], [1, 2], [1.0])
        assert rm.num_edges == 0 and rm.num_components_fast == 3
        assert rm.add_edges([], [], []).shape == (0,)


class TestMergeBlock:
    """``merge(PRMBlock)`` leaves the roadmap exactly as merging the
    regional roadmaps it lays side by side, one after the other, would."""

    @staticmethod
    def _regional(rng, base, sizes):
        """A regional roadmap grown the way ``PRM.build`` grows one, in
        ``len(sizes)`` passes: ascending ids from ``base``, each new vertex
        joined to a few earlier ones.  Returns it plus per pass its
        ``(u newer, v older, weight)`` edges in insertion order."""
        rm, passes = Roadmap(3), []
        for size in sizes:
            edges = []
            for _ in range(size):
                vid = rm.add_vertex(rng.normal(size=3), base + rm.num_vertices)
                earlier = rm.vertices()[:-1]
                for old in rng.permutation(earlier)[: rng.integers(0, 4)].tolist():
                    weight = float(rng.uniform(0.1, 2.0))
                    rm.add_edge(vid, old, weight)
                    edges.append((vid, old, weight))
            passes.append(edges)
        return rm, passes

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), segments=st.integers(1, 6))
    def test_block_equals_the_per_region_merges(self, seed, segments):
        rng = np.random.default_rng(seed)
        # Two passes per region, the second sometimes empty: a boosted
        # block appends the second pass's edges after all of the first's.
        regional = [
            self._regional(rng, s << 8, (int(rng.integers(0, 9)), int(rng.integers(0, 5))))
            for s in range(segments)
        ]
        counts = [rm.num_vertices for rm, _passes in regional]
        edges = [e for p in (0, 1) for _rm, passes in regional for e in passes[p]]
        block = PRMBlock(
            ids=np.concatenate([rm.vertices() for rm, _ in regional]),
            configs=np.concatenate([rm.configs_array()[1] for rm, _ in regional]),
            offsets=np.concatenate(([0], np.cumsum(counts))),
            edges=(
                np.array([u for u, _v, _w in edges], dtype=np.int64),
                np.array([v for _u, v, _w in edges], dtype=np.int64),
                np.array([w for _u, _v, w in edges], dtype=float),
            ),
            stats=[],
        )
        loop, bulk = Roadmap(3), Roadmap(3)
        for rm in (loop, bulk):  # merged into a roadmap that already holds something
            rm.add_vertex(np.zeros(3), 1 << 20)
        for rm, _passes in regional:
            loop.merge(rm)
        bulk.merge(block)
        assert_same(digest(bulk), digest(loop))

    def test_a_block_of_another_dimension_is_refused(self):
        none = np.empty(0, dtype=np.int64)
        block = PRMBlock(none, np.empty((0, 2)), np.zeros(1, dtype=np.int64),
                         (none, none, np.empty(0)), [])
        with pytest.raises(ValueError):
            Roadmap(3).merge(block)
