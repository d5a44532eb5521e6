"""The verdict rule of ``tools/bench_pairs.py`` (choosing-metrics section 8).

The rule is a pure function of the paired readings, so it is tested on
hand-made numbers; nothing here runs the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict, pair_wins = bench_pairs.verdict, bench_pairs.pair_wins

#: ten parent readings, quartiles 1.465 / 1.50 / 1.535 — 0.07 apart.
PARENT = [1.40, 1.44, 1.46, 1.48, 1.50, 1.50, 1.52, 1.54, 1.56, 1.60]


def shifted(by, base=PARENT):
    return [x + by for x in base]


class TestVerdict:
    def test_gain_needs_wins_and_separation(self):
        assert verdict(PARENT, shifted(-0.7), bound=0.25) == "gain"
        # Ten wins of ten, but the medians are closer than the parent's quartiles.
        assert verdict(PARENT, shifted(-0.05), bound=0.25) == "unresolved"
        # Far apart in the median, but only eight pairs won.
        change = shifted(-0.7)
        change[0], change[1] = PARENT[0] + 0.01, PARENT[1] + 0.01
        assert pair_wins(PARENT, change) == 8
        assert verdict(PARENT, change, bound=0.25) != "gain"

    def test_nine_of_ten_is_enough_and_a_tie_counts_for_neither(self):
        change = shifted(-0.7)
        change[3] = PARENT[3]  # a tie: not a win, not a loss
        assert pair_wins(PARENT, change) == 9
        assert verdict(PARENT, change, bound=0.25) == "gain"
        change[4] = PARENT[4]
        assert verdict(PARENT, change, bound=0.25) != "gain"

    def test_regression_is_the_median_past_the_bound(self):
        assert verdict(PARENT, shifted(0.40), bound=0.25) == "regression"  # +27 %
        assert verdict(PARENT, shifted(0.30), bound=0.25) == "within bound"  # +20 %, resolved

    def test_unresolved_when_the_spread_swallows_the_difference_or_the_bound(self):
        assert verdict(PARENT, shifted(0.05), bound=0.25) == "unresolved"
        assert verdict(PARENT, list(PARENT), bound=0.25) == "unresolved"
        # Better by more than the quartiles but two pairs lost: no claim.  Whether
        # "no worse" can be said depends on the bound being wider than the spread.
        change = shifted(-0.10)
        change[0], change[1] = PARENT[0] + 0.01, PARENT[1] + 0.01
        assert verdict(PARENT, change, bound=0.25) == "within bound"
        assert verdict(PARENT, change, bound=0.04) == "unresolved"  # 4 % < 0.07 / 1.50

    def test_every_run_better_resolves_without_a_claim(self):
        bimodal = [1.0] * 5 + [3.0] * 5  # quartiles 2.0 apart, wider than any difference
        assert verdict(bimodal, [0.99] * 10, bound=0.25) == "within bound"
        assert verdict(bimodal, [0.99] * 5 + [1.01] * 5, bound=0.25) == "unresolved"

    def test_fewer_than_ten_pairs_claim_nothing(self):
        assert verdict(PARENT[:9], shifted(-0.7)[:9], bound=0.25) == "within bound"
        assert verdict(PARENT, shifted(-0.7), bound=0.25) == "gain"

    def test_higher_is_better(self):
        qps = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
        assert verdict(qps, [x + 50 for x in qps], bound=0.25, better="higher") == "gain"
        assert verdict(qps, [x - 50 for x in qps], bound=0.25, better="higher") == "regression"

    def test_unpaired_input_is_rejected(self):
        with pytest.raises(ValueError):
            verdict([1.0, 2.0], [1.0], bound=0.25)
        with pytest.raises(ValueError):
            verdict([], [], bound=0.25)


def test_a_failed_operation_on_either_side_stops_the_comparison(monkeypatch, capsys):
    results = {
        "parent": {"correct": True, "attempted": 9, "failed": 0,
                   "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}},
        "change": {"correct": False, "attempted": 9, "failed": 1,
                   "metrics": {"wall_s": {"value": 0.7, "unit": "s"}}},
    }
    monkeypatch.setattr(
        bench_pairs, "run_once", lambda tree, workload, seed: results[tree.name]
    )
    trees = {side: Path(side) for side in bench_pairs.SIDES}
    with pytest.raises(SystemExit, match="change: w seed 5 reports 1 failed of 9"):
        bench_pairs.run_pairs(trees, "w", pairs=2, seed=5)
    assert "parent" in capsys.readouterr().out  # the parent's run was printed, no table
