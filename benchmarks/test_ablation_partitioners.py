"""Ablation: greedy LPT vs spatial RCB vs refined LPT.

Quantifies the balance/edge-cut trade-off behind Fig. 7's region-connection
regression: LPT balances best but cuts most adjacencies; RCB preserves
locality; refinement recovers locality at small balance cost.
"""

from repro.bench import format_table, prm_workload
from repro.core.metrics import coefficient_of_variation
from repro.partition import (
    edge_cut_of,
    evaluate_partition,
    partition_greedy_lpt,
    partition_rcb,
    refine_partition,
)


def run_ablation():
    wl = prm_workload("med-cube", num_regions=3000, samples_per_region=8)
    g = wl.subdivision.graph
    w = wl.sample_count_weights()
    P = 192
    rows = []
    partitions = {
        "lpt": partition_greedy_lpt(g, w, P),
        "rcb": partition_rcb(g, w, P),
    }
    partitions["lpt+refine"] = refine_partition(g, w, partitions["lpt"], P)
    for name, assign in partitions.items():
        q = evaluate_partition(g, w, assign, P)
        rows.append([name, f"{coefficient_of_variation(q.loads):.3f}", q.edge_cut, f"{q.imbalance:.2f}"])
    print("\nAblation — partitioner balance vs edge cut (med-cube, P=192)")
    print(format_table(["partitioner", "CoV", "edge cut", "max/mean"], rows))
    return rows


def test_ablation_partitioners(once):
    rows = once(run_ablation)
    by = {r[0]: r for r in rows}
    # RCB cuts fewer edges than raw LPT; refinement does not increase LPT's cut.
    assert int(by["rcb"][2]) < int(by["lpt"][2])
    assert int(by["lpt+refine"][2]) <= int(by["lpt"][2])
    # LPT balances at least as well as RCB.
    assert float(by["lpt"][1]) <= float(by["rcb"][1]) + 0.05
