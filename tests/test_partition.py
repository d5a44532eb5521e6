"""Tests for the region-graph partitioners."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import coefficient_of_variation
from repro.geometry import AABB
from repro.partition import (
    edge_cut_of,
    evaluate_partition,
    loads_of,
    partition_1d_columns,
    partition_block,
    partition_greedy_lpt,
    partition_rcb,
    partition_weighted_blocks,
    refine_partition,
)
from repro.subdivision import RadialSubdivision, UniformSubdivision


def _grid(n=64, weights=None, seed=0):
    """A grid's subdivision, its graph and one weight per region."""
    sub = UniformSubdivision(AABB([0, 0], [8, 8]), n)
    g = sub.graph
    rng = np.random.default_rng(seed)
    w = {rid: float(rng.uniform(0.1, 10)) if weights is None else weights(rid)
         for rid in g.region_ids()}
    return sub, g, w


def _assert_complete(assignment, g, P):
    assert set(assignment) == set(g.region_ids())
    assert all(0 <= pe < P for pe in assignment.values())


class TestNaivePartitions:
    def test_columns_balanced_counts(self):
        sub, g, _w = _grid(64)
        assign = partition_1d_columns(sub, 4)
        _assert_complete(assign, g, 4)
        counts = np.bincount(list(assign.values()), minlength=4)
        assert counts.max() - counts.min() == 0

    def test_columns_are_contiguous(self):
        sub, _g, _w = _grid(64)
        assign = partition_1d_columns(sub, 4)
        for region in sub.graph.regions():
            col = region.grid_index[0]
            assert assign[region.id] == col // 2

    def test_block_balanced(self):
        _sub, g, _w = _grid(64)
        assign = partition_block(g, 7)
        _assert_complete(assign, g, 7)
        counts = np.bincount(list(assign.values()), minlength=7)
        assert counts.max() - counts.min() <= 1

    def test_block_more_pes_than_regions(self):
        _sub, g, _w = _grid(16)
        assign = partition_block(g, 64)
        _assert_complete(assign, g, 64)
        counts = np.bincount(list(assign.values()), minlength=64)
        assert counts.max() == 1

    def test_invalid_pe_count(self):
        sub, g, _w = _grid(16)
        with pytest.raises(ValueError):
            partition_block(g, 0)
        with pytest.raises(ValueError):
            partition_1d_columns(sub, 0)


class TestGreedyLPT:
    def test_balances_weights(self):
        _sub, g, w = _grid(64)
        assign = partition_greedy_lpt(g, w, 8)
        _assert_complete(assign, g, 8)
        q = evaluate_partition(g, w, assign, 8)
        assert q.imbalance < 1.2

    def test_beats_naive_on_skewed_weights(self):
        _sub, g, w = _grid(64, weights=lambda rid: 100.0 if rid < 8 else 1.0)
        naive = partition_block(g, 8)
        lpt = partition_greedy_lpt(g, w, 8)
        assert evaluate_partition(g, w, lpt, 8).max_load < evaluate_partition(g, w, naive, 8).max_load

    def test_lpt_deterministic(self):
        _sub, g, w = _grid(64)
        assert partition_greedy_lpt(g, w, 8) == partition_greedy_lpt(g, w, 8)

    def test_weighted_blocks_contiguous(self):
        _sub, g, w = _grid(64)
        assign = partition_weighted_blocks(g, w, 4)
        _assert_complete(assign, g, 4)
        # Contiguity: PE of region ids is non-decreasing.
        pes = [assign[r] for r in g.region_ids()]
        assert all(a <= b for a, b in zip(pes, pes[1:]))

    def test_weighted_blocks_zero_weights(self):
        _sub, g, w = _grid(16, weights=lambda rid: 0.0)
        assign = partition_weighted_blocks(g, w, 4)
        counts = np.bincount(list(assign.values()), minlength=4)
        assert counts.max() - counts.min() == 0


class TestRCB:
    def test_complete_and_balanced(self):
        _sub, g, w = _grid(64)
        assign = partition_rcb(g, w, 8)
        _assert_complete(assign, g, 8)
        q = evaluate_partition(g, w, assign, 8)
        assert q.imbalance < 2.0

    def test_non_power_of_two(self):
        _sub, g, w = _grid(64)
        assign = partition_rcb(g, w, 6)
        _assert_complete(assign, g, 6)
        assert len(set(assign.values())) == 6

    def test_lower_edge_cut_than_lpt(self):
        _sub, g, w = _grid(256)
        rcb = partition_rcb(g, w, 16)
        lpt = partition_greedy_lpt(g, w, 16)
        assert edge_cut_of(g, rcb) < edge_cut_of(g, lpt)

    def test_cones_complete_and_balanced(self):
        """A radial graph bisects on its cones' targets."""
        radial = RadialSubdivision(np.zeros(3), radius=5.0, num_regions=64, k=4,
                                   rng=np.random.default_rng(3))
        g = radial.graph
        rng = np.random.default_rng(0)
        w = {rid: float(rng.uniform(0.1, 10)) for rid in g.region_ids()}
        assign = partition_rcb(g, w, 8)
        _assert_complete(assign, g, 8)
        assert len(set(assign.values())) == 8
        assert evaluate_partition(g, w, assign, 8).imbalance < 2.0


class TestRefinement:
    def test_never_increases_edge_cut(self):
        _sub, g, w = _grid(144)
        lpt = partition_greedy_lpt(g, w, 12)
        refined = refine_partition(g, w, lpt, 12)
        assert edge_cut_of(g, refined) <= edge_cut_of(g, lpt)

    def test_respects_balance_tolerance(self):
        _sub, g, w = _grid(144)
        lpt = partition_greedy_lpt(g, w, 12)
        refined = refine_partition(g, w, lpt, 12)
        loads = loads_of(g, w, refined, 12)
        assert loads.max() <= 1.12 * loads.mean()

    def test_input_not_mutated(self):
        _sub, g, w = _grid(64)
        lpt = partition_greedy_lpt(g, w, 8)
        before = dict(lpt)
        refine_partition(g, w, lpt, 8)
        assert lpt == before


WEIGHTED = [
    pytest.param(lambda g, w: partition_greedy_lpt(g, w, 4), id="lpt"),
    pytest.param(lambda g, w: partition_weighted_blocks(g, w, 4), id="weighted-blocks"),
    pytest.param(lambda g, w: partition_rcb(g, w, 4), id="rcb"),
    pytest.param(lambda g, w: refine_partition(g, w, partition_block(g, 4), 4), id="refine"),
    pytest.param(lambda g, w: evaluate_partition(g, w, partition_block(g, 4), 4), id="evaluate"),
]


class TestWeightsAreArguments:
    """Every weighted entry point checks its weights and keeps none."""

    @pytest.mark.parametrize("call", WEIGHTED)
    def test_a_missing_region_raises(self, call):
        _sub, g, w = _grid(16)
        del w[5]
        with pytest.raises(ValueError, match="miss"):
            call(g, w)

    @pytest.mark.parametrize("call", WEIGHTED)
    def test_a_negative_weight_raises(self, call):
        _sub, g, w = _grid(16)
        w[5] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            call(g, w)

    @pytest.mark.parametrize("call", WEIGHTED)
    def test_a_region_outside_the_graph_raises(self, call):
        _sub, g, w = _grid(16)
        w[16] = 1.0
        with pytest.raises(ValueError, match="outside"):
            call(g, w)


class TestQualityMetrics:
    def test_evaluate_rejects_bad_assignment(self):
        _sub, g, w = _grid(16)
        with pytest.raises(ValueError):
            evaluate_partition(g, w, {}, 4)
        assign = partition_block(g, 4)
        assign[0] = 99
        with pytest.raises(ValueError):
            evaluate_partition(g, w, assign, 4)

    def test_cov_zero_when_balanced(self):
        _sub, g, w = _grid(16, weights=lambda rid: 1.0)
        assign = partition_block(g, 4)
        q = evaluate_partition(g, w, assign, 4)
        assert coefficient_of_variation(q.loads) == pytest.approx(0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), P=st.integers(1, 16))
def test_lpt_within_4_3_of_mean_bound(seed, P):
    """Property: LPT makespan <= 4/3 * OPT; OPT >= max(mean, max weight)."""
    _sub, g, w = _grid(64, seed=seed)
    assign = partition_greedy_lpt(g, w, P)
    loads = loads_of(g, w, assign, P)
    weights = list(w.values())
    opt_lb = max(sum(weights) / P, max(weights))
    assert loads.max() <= (4.0 / 3.0) * opt_lb + 1e-9
