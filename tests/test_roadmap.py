"""Tests for the roadmap graph."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cspace import EuclideanCSpace
from repro.geometry import AABB, Environment
from repro.planners import PRMBlock, Roadmap, RoadmapQuery

from .oracle import assert_same, digest, merge_one_by_one


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
        assert sorted(map(sorted, rm.connected_components())) == [[0, 1], [2, 3]]
        rm.add_edge(1, 2)
        assert rm.connected_components() == [{0, 1, 2, 3}]

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

    def test_adjacency_keeps_insertion_order(self):
        """A row's neighbours come in insertion order, whatever their rows;
        a removed edge disappears and one added again goes last."""
        rm = Roadmap(2)
        rm.add_vertices([0, 1, 2, 3], np.zeros((4, 2)))
        for v, w in ((3, 0.5), (1, 1.5), (2, 2.5)):
            rm.add_edge(0, v, w)
        assert list(rm.neighbors(0).items()) == [(3, 0.5), (1, 1.5), (2, 2.5)]
        rm.remove_edge(3, 0)
        assert list(rm.neighbors(0)) == [1, 2] and rm.degree(3) == 0
        assert not rm.has_edge(0, 3) and rm.num_edges == 2
        rm.add_edge(3, 0, 4.0)
        assert list(rm.neighbors(0).items()) == [(1, 1.5), (2, 2.5), (3, 4.0)]
        assert rm.weight(3, 0) == rm.weight(0, 3) == 4.0
        assert list(rm.edges()) == [(0, 1, 1.5), (0, 2, 2.5), (0, 3, 4.0)]

    def test_csr_is_cached_read_only_and_shared_by_freeze(self):
        rm = Roadmap(2)
        rm.add_vertices([0, 1], np.zeros((2, 2)))
        rm.add_edge(0, 1, 1.0)
        csr = rm.csr()
        assert rm.csr() is csr and not any(a.flags.writeable for a in csr)
        frozen = rm.freeze()
        assert frozen.indices is csr[1]
        rm.add_vertex(np.ones(2), 2)
        assert rm.csr() is not csr and frozen.num_vertices == 2


class TestDuplicateIndex:
    """``add_edge`` settles a duplicate by degrees, then the sorted key
    index, which lags the log; any interleaving of scalar and bulk
    inserts, removals and lookups agrees with a plain set of edges."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_lookups_agree_with_a_set_of_edges(self, seed):
        rng = np.random.default_rng(seed)
        rm, truth = Roadmap(2), {}
        rm.add_vertices(np.arange(12) * 3, rng.normal(size=(12, 2)))
        for _ in range(60):
            a, b = (3 * int(x) for x in rng.choice(12, size=2, replace=False))
            key = (min(a, b), max(a, b))
            op = rng.integers(0, 4)
            if op == 0:
                assert rm.add_edge(a, b, float(key[0] + key[1])) == (key not in truth)
                truth.setdefault(key, float(key[0] + key[1]))
            elif op == 1:
                added = rm.add_edges([a, b], [b, a], [1.0, 2.0])
                assert added.tolist() == [key not in truth, False]
                truth.setdefault(key, 1.0)
            elif op == 2 and key in truth:
                rm.remove_edge(b, a)
                del truth[key]
            assert rm.has_edge(a, b) == (key in truth)
            if key in truth:
                assert rm.weight(b, a) == truth[key]
        assert rm.num_edges == len(truth)
        assert sorted((u, v) for u, v, _w in rm.edges()) == sorted(truth)

    def test_a_duplicate_leaves_the_forest_alone(self):
        """A repeated edge, refused by the scalar loop or skipped by a later
        bulk insert, leaves the two roadmaps alike."""
        loop, bulk = Roadmap(2), Roadmap(2)
        for rm in (loop, bulk):
            rm.add_vertices(range(4), np.zeros((4, 2)))
        u, v = [0, 2, 1, 3], [1, 3, 3, 2]  # the last repeats (2, 3)
        for a, b in zip(u, v):
            loop.add_edge(a, b, 1.0)
        bulk.add_edges(u[:3], v[:3], np.ones(3))
        bulk.add_edges(u[3:], v[3:], np.ones(1))
        assert_same(digest(bulk), digest(loop))


class TestTransient:
    def test_everything_rewinds(self):
        rm = Roadmap(2)
        rm.add_vertices([0, 1, 2], [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        rm.add_edge(0, 1)
        assert rm.has_edge(1, 0)  # the index has caught up before the mark
        before = digest(rm)
        with rm.transient():
            rm.add_vertex(np.ones(2), 10)
            rm.add_edges([10, 10], [1, 2], [1.0, 1.0])
            rm.remove_edge(0, 1)
            assert rm.has_edge(2, 10) and rm.num_vertices == 4
        assert_same(digest(rm), before)
        assert not rm.has_vertex(10) and rm.has_edge(0, 1) and not rm.has_edge(1, 2)
        assert rm.add_vertex(np.ones(2)) == 3


def _pairs(rng, vids, k):
    """``k`` random pairs of distinct vertex ids out of ``vids``."""
    picks = [rng.choice(vids, size=2, replace=False).tolist() for _ in range(k)]
    return [a for a, _b in picks], [b for _a, b in picks]


_OPS = ("vertex", "vertices", "edge", "edges", "merge", "merge_block", "remove",
        "transient", "read")


def _play(rm, script, eager, inside=False):
    """Run ``script`` — ``(op, seed)`` steps — on ``rm``, every argument
    drawn from the seed and the roadmap's public state; returns what each
    step answered.  ``eager`` looks an edge up after every step, so the
    CSR and the duplicate index catch up with each edge as it goes in."""
    answers = []
    for op, seed in script:
        rng = np.random.default_rng(seed)
        vids = rm.vertices().tolist()
        edges = [(u, v) for u, v, _w in rm.edges()]
        absent = np.setdiff1d(np.arange(96), vids)
        if op == "vertex":
            vid = int(rng.choice(absent)) if rng.random() < 0.5 and absent.size else None
            answers.append(rm.add_vertex(rng.normal(size=2), vid))
        elif op == "vertices" and absent.size:
            new = rng.choice(absent, size=min(absent.size, int(rng.integers(1, 5))), replace=False)
            rm.add_vertices(new, rng.normal(size=(new.size, 2)))
        elif op == "edge" and len(vids) > 1:
            (a,), (b,) = _pairs(rng, vids, 1)
            answers.append(rm.add_edge(a, b, float(rng.uniform(0.1, 2.0))))
        elif op == "edges" and len(vids) > 1:
            u, v = _pairs(rng, vids, int(rng.integers(1, 6)))
            u, v = u + v[:1], v + u[:1]  # an in-batch duplicate, reversed
            for a, b in edges[:1]:  # and an existing edge
                u, v = u + [b], v + [a]
            answers.append(rm.add_edges(u, v, rng.uniform(0.1, 2.0, len(u))).tolist())
        elif op in ("merge", "merge_block") and vids and absent.size > 2:
            held = edges[:2]  # edges both hold, with their endpoints
            shared = sorted(set(rng.choice(vids, size=min(len(vids), 3)).tolist())
                            | {x for e in held for x in e})
            ids = shared + rng.choice(absent, size=3, replace=False).tolist()
            cfgs = np.concatenate((rm.configs_of(shared), rng.normal(size=(3, 2))))
            u, v = _pairs(rng, ids, 5)
            u, v = u + [a for a, _b in held], v + [b for _a, b in held]
            if op == "merge":
                other = Roadmap(2)
                other.add_vertices(ids, cfgs)
                other.add_edges(u, v, rng.uniform(0.1, 2.0, len(u)))
            else:
                other = _block(ids, cfgs, u, v, rng.uniform(0.1, 2.0, len(u)))
            rm.merge(other)
        elif op == "remove" and edges:
            a, b = edges[int(rng.integers(len(edges)))]
            rm.remove_edge(b, a)
        elif op == "transient" and not inside:
            inner = list(zip(rng.choice(_OPS, size=6).tolist(), rng.integers(0, 2**32, 6).tolist()))
            with rm.transient():
                answers.append(_play(rm, inner, eager, inside=True))
        elif op == "read" and vids:
            a, b = rng.choice(vids, size=2).tolist()
            answers.append((rm.has_edge(a, b), sorted(map(sorted, rm.connected_components()))))
        if eager:
            for a, b, _w in list(rm.edges())[:1]:
                rm.has_edge(b, a)
    return answers


class TestLazyForest:
    """The derived state — the CSR and the duplicate index — is caught up
    from the edge log only when asked; whatever the interleaving, the
    answers and the roadmap equal those of catching up after every step."""

    @settings(max_examples=60, deadline=None)
    @given(script=st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 2**32 - 1)),
                           max_size=30))
    def test_lazy_equals_eager(self, script):
        lazy, eager = Roadmap(2), Roadmap(2)
        assert _play(lazy, script, False) == _play(eager, script, True)
        assert_same(digest(lazy), digest(eager))

    def test_a_duplicate_is_found_in_a_forest_that_lags(self):
        """``add_edge`` catches the duplicate index up with the log before
        it looks an edge up."""
        rm = Roadmap(2)
        rm.add_vertices([0, 1, 2], np.zeros((3, 2)))
        rm.add_edges([0], [2], np.ones(1))
        assert rm.has_edge(2, 0)  # the index holds (0, 2) and nothing after it
        rm.add_edges([0, 1], [1, 2], np.ones(2))
        assert not rm.add_edge(1, 0) and not rm.add_edge(2, 1) and rm.num_edges == 3

    def test_two_solves_leave_the_roadmap_as_it_was(self):
        """Each solve catches the index up on entering its block and
        rewinds to that on exit: a twin never solved digests the same."""
        cs = EuclideanCSpace(Environment(AABB([-5.0, -5.0], [5.0, 5.0]), []))
        solved, twin = Roadmap(2), Roadmap(2)
        for rm in (solved, twin):
            rm.add_vertices(range(4), [[1.0, 1.0], [3.0, 1.0], [1.0, 3.0], [-3.0, -3.0]])
            rm.add_edges([0, 1], [1, 2], np.ones(2))
        for goal in ([1.0, 2.0], [-2.0, -3.0]):
            assert RoadmapQuery(cs).solve(solved, np.array([2.0, 1.0]), np.array(goal))
        assert_same(digest(solved), digest(twin))


class TestDigest:
    def test_a_digest_does_not_follow_its_roadmap(self):
        """Every digest field is a copy: mutating the roadmap afterwards,
        catching its index up included, leaves an earlier digest as it was."""
        rm = Roadmap(2)
        rm.add_vertices(range(4), np.zeros((4, 2)))
        for a, b in ((0, 1), (2, 3), (1, 3)):
            rm.add_edge(a, b, 1.0)
        d = digest(rm)
        kept = copy.deepcopy(d)
        rm.has_edge(2, 3)  # catches the duplicate index up
        rm.add_vertex(np.ones(2), 9)
        rm.add_edge(9, 0, 2.0)
        rm.remove_edge(0, 1)
        assert d == kept


class TestMetricAndComponents:
    def test_default_weight_is_euclidean(self):
        rm = Roadmap(2)
        rm.add_vertex([0.0, 0.0], vid=0)
        rm.add_vertex([3.0, 4.0], vid=1)
        rm.add_edge(0, 1)
        assert rm.neighbors(0)[1] == pytest.approx(5.0)


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
        assert rm.num_edges == 0 and len(rm.connected_components()) == 3
        assert rm.add_edges([], [], []).shape == (0,)


def _block(ids, cfgs, u, v, w, offsets=None) -> PRMBlock:
    """A :class:`PRMBlock` over ``ids`` (one segment unless ``offsets``
    says otherwise) whose edges ``u[i] - v[i]`` are named by endpoint id."""
    ids = np.asarray(ids, dtype=np.int64)
    row = {vid: i for i, vid in enumerate(ids.tolist())}
    uv = np.array([[row[a], row[b]] for a, b in zip(u, v)], dtype=np.int64).reshape(-1, 2)
    offsets = np.array([0, ids.size]) if offsets is None else offsets
    return PRMBlock(ids, np.asarray(cfgs, dtype=float), offsets,
                    (uv, np.asarray(w, dtype=float)), [])


class TestMergeRoadmap:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_merge_replays_edges_in_their_order(self, seed):
        """Shared vertices, removed edges and edges ``into`` already holds
        included: one bulk merge leaves the replay loop's state."""
        ids, cfgs, u, v, w = _random_graph(seed, n=30, m=60)
        other = Roadmap(3)
        other.add_vertices(ids, cfgs)
        other.add_edges(u, v, w)
        for a, b in zip(u[:4].tolist(), v[:4].tolist()):
            if other.has_edge(a, b):
                other.remove_edge(b, a)
        held = ids[::3]
        loop, bulk = Roadmap(3), Roadmap(3)
        for rm in (loop, bulk):
            rm.add_vertices(held, cfgs[::3])
            rm.add_edges(held[1:], held[:-1], np.ones(held.size - 1))
        merge_one_by_one(loop, other)
        bulk.merge(other)
        assert_same(digest(bulk), digest(loop))

    def test_a_shared_id_must_hold_the_same_bits(self):
        """An id both roadmaps hold must name the same configuration to the
        last bit; one 1e-9 off is refused before anything moves."""
        a = Roadmap(2)
        a.add_vertices([5, 6], [[0.0, 0.0], [1.0, 0.0]])
        a.add_edge(5, 6, 1.0)
        b = Roadmap(2)
        b.add_vertices([5, 6], [[1e-9, 0.0], [1.0, 0.0]])
        b.add_edge(5, 6, 2.0)
        with pytest.raises(ValueError):
            a.merge(b)
        assert a.config(5).tolist() == [0.0, 0.0] and a.weight(5, 6) == 1.0


class TestMergeBlock:
    """``merge(PRMBlock)`` leaves the roadmap exactly as replaying the
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
        block = _block(
            np.concatenate([rm.vertices() for rm, _ in regional]),
            np.concatenate([rm.configs_array()[1] for rm, _ in regional]),
            [u for u, _v, _w in edges], [v for _u, v, _w in edges], [w for _u, _v, w in edges],
            offsets=np.concatenate(([0], np.cumsum(counts))),
        )
        loop, bulk = Roadmap(3), Roadmap(3)
        for rm in (loop, bulk):  # merged into a roadmap that already holds something
            rm.add_vertex(np.zeros(3), 1 << 20)
        merge_one_by_one(loop, *(rm for rm, _passes in regional))
        bulk.merge(block)
        assert_same(digest(bulk), digest(loop))

    def test_a_block_of_another_dimension_is_refused(self):
        block = _block([], np.empty((0, 2)), [], [], [], offsets=np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError):
            Roadmap(3).merge(block)


#: The ids parts draw from: large, and in no particular order, so rows and
#: ids sort differently.
_POOL = np.random.default_rng(0).permutation(40).astype(np.int64) * 7919 + (1 << 33)


def _mix(seed, count, clash):
    """A roadmap factory and ``count`` parts to merge into what it makes.

    The roadmap holds some of :data:`_POOL` and a few edges.  The parts are
    roadmaps (some with a dead edge) and blocks, some empty, sharing ids
    with it and with each other — always with the id's one configuration —
    and repeating edges: its own, an earlier part's, and within a block.
    With ``clash`` the last part holds a shared id one ulp off."""
    rng = np.random.default_rng(seed)
    cfg = rng.normal(size=(_POOL.size, 2))
    held = rng.choice(_POOL.size, size=8, replace=False)
    held_edges = [(int(a), int(b)) for a, b in rng.choice(held, size=(6, 2)) if a != b]

    def into():
        rm = Roadmap(2)
        rm.add_vertices(_POOL[held], cfg[held])
        rm.add_edges([_POOL[a] for a, _b in held_edges], [_POOL[b] for _a, b in held_edges],
                     np.arange(1.0, len(held_edges) + 1.0))
        return rm

    parts, seen = [], list(held_edges)
    for i in range(count):
        size = 0 if rng.random() < 0.2 else int(rng.integers(1, 9))
        idx = rng.choice(_POOL.size, size=size, replace=False)
        if clash and i == count - 1:
            idx = np.union1d(idx, held[:1])
        mine = set(idx.tolist())
        pairs = [(int(a), int(b)) for a, b in rng.choice(idx, size=(int(rng.integers(0, 10)), 2))
                 if a != b] if size > 1 else []
        pairs += [e for e in seen if set(e) <= mine][:3]  # edges held before, either way round
        pairs += [(b, a) for a, b in pairs[:1]]
        seen += pairs
        u, v = [_POOL[a] for a, _b in pairs], [_POOL[b] for _a, b in pairs]
        w = rng.uniform(0.1, 2.0, len(pairs))
        cfgs = cfg[idx].copy()
        if clash and i == count - 1:
            row = int(np.flatnonzero(idx == held[0])[0])
            cfgs[row, 0] = np.nextafter(cfgs[row, 0], np.inf)
        if rng.random() < 0.5:
            part = _block(_POOL[idx], cfgs, u, v, w)
        else:
            part = Roadmap(2)
            part.add_vertices(_POOL[idx], cfgs)
            part.add_edges(u, v, w)
            if pairs and rng.random() < 0.5:
                part.remove_edge(*u[:1], *v[:1])
        parts.append(part)
    return into, parts


def _later_calls(rm, seed):
    """What a roadmap answers to the calls a merge is followed by."""
    rng = np.random.default_rng(seed)
    vids = rm.vertices().tolist()
    answers = [rm.csr()[k].tolist() for k in range(3)]
    if len(vids) < 2:
        return answers
    for a, b in rng.choice(vids, size=(6, 2)).tolist():
        answers.append(a != b and rm.has_edge(a, b))
        if a != b:
            answers.append(rm.add_edge(b, a, 0.5))
    live = [(u, v) for u, v, _w in rm.edges()]
    if live:
        rm.remove_edge(*live[int(rng.integers(len(live)))])
        answers.append(rm.has_edge(*live[0]))
    with rm.transient():
        vid = rm.add_vertex(np.zeros(2))
        answers += [rm.add_edge(vid, vids[0], 1.0), rm.has_edge(vids[0], vid)]
        answers.append([arr.tolist() for arr in rm.csr()])
    answers.append([arr.tolist() for arr in rm.csr()])
    return answers


class TestMergeParts:
    """``merge(*parts)`` — one vertex append, one edge append — leaves what
    merging the parts one by one leaves (``tests/oracle.py``), and every
    later call answers alike."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 5), clash=st.booleans())
    def test_one_pass_equals_one_by_one(self, seed, count, clash):
        make, parts = _mix(seed, count, clash and count > 0)
        loop, bulk = make(), make()
        if clash and count:
            before = digest(bulk)
            with pytest.raises(ValueError):
                bulk.merge(*parts)
            assert_same(digest(bulk), before)  # the roadmap is as it was
            with pytest.raises(ValueError):
                merge_one_by_one(loop, *parts)
            return
        merge_one_by_one(loop, *parts)
        bulk.merge(*parts)
        assert_same(digest(bulk), digest(loop))
        assert _later_calls(bulk, seed) == _later_calls(loop, seed)
        assert_same(digest(bulk), digest(loop))

    def test_a_clash_in_the_last_part_inserts_nothing(self):
        """Stricter than merging part by part: the first parts are clean,
        the last names a held id 1e-9 off, and nothing of any part goes in."""
        rm = Roadmap(2)
        rm.add_vertices([5, 6], [[0.0, 0.0], [1.0, 0.0]])
        rm.add_edge(5, 6, 1.0)
        clean = _block([7, 8], [[2.0, 0.0], [3.0, 0.0]], [7], [8], [1.0])
        clashing = _block([6, 9], [[1.0, 1e-9], [4.0, 0.0]], [6], [9], [1.0])
        before = digest(rm)
        with pytest.raises(ValueError, match="6"):
            rm.merge(clean, clashing)
        assert_same(digest(rm), before)
        assert not rm.has_vertex(7) and not rm.has_vertex(9)

    def test_no_parts_and_empty_parts_change_nothing(self):
        rm = Roadmap(2)
        rm.add_vertices([1, 2], np.eye(2))
        rm.add_edge(1, 2, 1.0)
        before = digest(rm)
        rm.merge()
        rm.merge(Roadmap(2), _block([], np.empty((0, 2)), [], [], []))
        assert_same(digest(rm), before)
