"""Drivers that regenerate every figure of the paper's evaluation.

Each ``figN_*`` function reproduces the corresponding figure's series,
prints them as a table, and returns the raw data so benchmarks and tests
can assert on the *shape* (who wins, how trends move) without caring about
absolute numbers.  The experiment scales are reduced from the paper's
250,000-region, hours-long runs, but the regions-per-PE regime and the
workload heterogeneity are preserved (see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from ..core.metrics import coefficient_of_variation, percent_improvement, phases_dict
from ..core.model import ModelEnvironmentAnalysis
from ..core.parallel_prm import simulate_prm
from ..partition.edge_cut import loads_of
from .harness import (
    PRM_STRATEGIES,
    RRT_STRATEGIES,
    format_table,
    prm_scaling_table,
    prm_workload,
    rrt_scaling_table,
    rrt_workload,
)

__all__ = [
    "fig4a_model_cov",
    "fig4b_model_improvement",
    "fig5a_prm_medcube_time",
    "fig5b_prm_cov",
    "fig5c_load_profile",
    "fig6_prm_scale",
    "fig7a_phase_breakdown",
    "fig7b_remote_accesses",
    "fig8_prm_environments",
    "fig9_steal_distribution",
    "fig10_rrt_environments",
]

# Reduced-scale defaults shared by the PRM figures (med-cube experiment).
MEDCUBE_REGIONS = 6000
MEDCUBE_SPR = 8
PE_COUNTS_HOPPER = (96, 192, 384, 768)
PE_COUNTS_SCALE = (384, 768, 1536, 3072)
PE_COUNTS_OPTERON = (32, 64, 128, 256)
PE_COUNTS_RRT = (8, 32, 64, 128, 256)


def fig4a_model_cov(pe_counts=(2, 4, 8, 16, 32, 64, 128, 256), verbose: bool = True):
    """Fig. 4(a): coefficient of variation in the model environment.

    Series: model imbalance (V_free, naive), model best (V_free, greedy),
    experimental imbalance (#samples, naive), after repartitioning.
    """
    analysis = ModelEnvironmentAnalysis()
    points = analysis.sweep(list(pe_counts))
    rows = [
        [
            p.num_pes,
            f"{p.model_imbalance:.3f}",
            f"{p.model_best:.3f}",
            f"{p.experimental_imbalance:.3f}",
            f"{p.experimental_best:.3f}",
        ]
        for p in points
    ]
    if verbose:
        print("\nFig 4(a) — CoV of model environment (lower is better)")
        print(
            format_table(
                ["P", "model naive", "model best", "exp naive", "exp repart"], rows
            )
        )
    return points


def fig4b_model_improvement(pe_counts=(16, 32, 64, 128), verbose: bool = True):
    """Fig. 4(b): % improvement — theoretical (unit area), experimental
    (#samples), and runtime of the load-balanced phase."""
    analysis = ModelEnvironmentAnalysis()
    out = []
    for P in pe_counts:
        point = analysis.analyze(P)
        # Runtime improvement: simulate the connection phase under naive vs
        # repartitioned ownership using sample counts as per-region cost.
        naive = analysis.naive_assignment(P)
        best = analysis.best_assignment(analysis.sample_counts, P)
        loads_naive = loads_of(analysis.subdivision.graph, analysis.sample_counts, naive, P)
        loads_best = loads_of(analysis.subdivision.graph, analysis.sample_counts, best, P)
        runtime_impr = percent_improvement(float(loads_naive.max()), float(loads_best.max()))
        out.append(
            {
                "num_pes": P,
                "theoretical": point.model_improvement,
                "experimental": point.experimental_improvement,
                "runtime": runtime_impr,
            }
        )
    if verbose:
        print("\nFig 4(b) — potential improvement in model environment (%)")
        rows = [
            [o["num_pes"], f"{o['theoretical']:.1f}", f"{o['experimental']:.1f}", f"{o['runtime']:.1f}"]
            for o in out
        ]
        print(format_table(["P", "theoretical", "experimental", "runtime"], rows))
    return out


def _prm_time_figure(env_name, pe_counts, title, num_regions=MEDCUBE_REGIONS, strategies=PRM_STRATEGIES, verbose=True):
    wl = prm_workload(env_name, num_regions=num_regions, samples_per_region=MEDCUBE_SPR)
    rows = prm_scaling_table(wl, list(pe_counts), strategies)
    if verbose:
        print(f"\n{title}")
        print(
            format_table(
                ["P", "strategy", "exec time", "speedup vs no-LB"],
                [[r.num_pes, r.strategy, f"{r.total_time:.0f}", f"{r.speedup_vs_none:.2f}x"] for r in rows],
            )
        )
    return rows


def fig5a_prm_medcube_time(pe_counts=PE_COUNTS_HOPPER, verbose: bool = True):
    """Fig. 5(a): PRM execution time on med-cube (Hopper scale)."""
    return _prm_time_figure(
        "med-cube", pe_counts, "Fig 5(a) — PRM med-cube execution time", verbose=verbose
    )


def fig5b_prm_cov(pe_counts=PE_COUNTS_HOPPER, verbose: bool = True):
    """Fig. 5(b): CoV of roadmap-node load before/after repartitioning."""
    wl = prm_workload("med-cube", num_regions=MEDCUBE_REGIONS, samples_per_region=MEDCUBE_SPR)
    out = []
    for P in pe_counts:
        r = simulate_prm(wl, P, "repartition")
        out.append(
            {
                "num_pes": P,
                "cov_before": coefficient_of_variation(r.nodes_per_pe_before),
                "cov_after": coefficient_of_variation(r.nodes_per_pe),
            }
        )
    if verbose:
        print("\nFig 5(b) — CoV of PRM roadmap nodes per PE (med-cube)")
        rows = [[o["num_pes"], f"{o['cov_before']:.3f}", f"{o['cov_after']:.3f}"] for o in out]
        print(format_table(["P", "before repart", "after repart"], rows))
    return out


def fig5c_load_profile(num_pes: int = 192, verbose: bool = True):
    """Fig. 5(c): per-PE roadmap-node distribution at one machine size."""
    wl = prm_workload("med-cube", num_regions=MEDCUBE_REGIONS, samples_per_region=MEDCUBE_SPR)
    r = simulate_prm(wl, num_pes, "repartition")
    without = np.sort(r.nodes_per_pe_before)[::-1]
    with_lb = np.sort(r.nodes_per_pe)[::-1]
    ideal = np.full(num_pes, r.nodes_per_pe.sum() / num_pes)
    if verbose:
        print(f"\nFig 5(c) — load profile at {num_pes} PEs (sorted nodes/PE)")
        qs = [0, 10, 25, 50, 75, 90, 100]
        rows = []
        for q in qs:
            i = min(int(q / 100 * (num_pes - 1)), num_pes - 1)
            rows.append([f"p{q}", f"{without[i]:.0f}", f"{with_lb[i]:.0f}", f"{ideal[i]:.0f}"])
        print(format_table(["percentile", "without LB", "repartitioned", "ideal"], rows))
    return {"without_lb": without, "repartitioned": with_lb, "ideal": ideal}


def fig6_prm_scale(pe_counts=PE_COUNTS_SCALE, verbose: bool = True):
    """Fig. 6: PRM med-cube at scale (to 3,072 PEs), no-LB vs repartitioning."""
    return _prm_time_figure(
        "med-cube",
        pe_counts,
        "Fig 6 — PRM med-cube at scale",
        num_regions=16000,
        strategies=("none", "repartition"),
        verbose=verbose,
    )


def fig7a_phase_breakdown(num_pes: int = 192, verbose: bool = True):
    """Fig. 7(a): breakdown into region connection / node connection / other."""
    wl = prm_workload("med-cube", num_regions=MEDCUBE_REGIONS, samples_per_region=MEDCUBE_SPR)
    out = []
    for strat in PRM_STRATEGIES:
        r = simulate_prm(wl, num_pes, strat)
        # Canonical phase names of the one PhaseTimes: the same code
        # consumes PRM and RRT results (construct = the LB'd phase,
        # connect = inter-region connection).
        pd = phases_dict(r.phases)
        out.append(
            {
                "strategy": strat,
                "region_connection": pd["connect"],
                "node_connection": pd["construct"],
                "other": r.phases.other,
                "total": r.total_time,
            }
        )
    if verbose:
        print(f"\nFig 7(a) — PRM phase breakdown at {num_pes} PEs (med-cube)")
        rows = [
            [
                o["strategy"],
                f"{o['region_connection']:.0f}",
                f"{o['node_connection']:.0f}",
                f"{o['other']:.0f}",
                f"{o['total']:.0f}",
            ]
            for o in out
        ]
        print(format_table(["strategy", "region conn", "node conn", "other", "total"], rows))
    return out


def fig7b_remote_accesses(num_pes: int = 768, verbose: bool = True):
    """Fig. 7(b): remote accesses during region connection, per pGraph."""
    wl = prm_workload("med-cube", num_regions=MEDCUBE_REGIONS, samples_per_region=MEDCUBE_SPR)
    out = []
    for strat in ("none", "repartition"):
        r = simulate_prm(wl, num_pes, strat)
        out.append(
            {
                "strategy": strat,
                "region_graph": r.region_graph_remote,
                "roadmap_graph": r.roadmap_graph_remote,
            }
        )
    if verbose:
        print(f"\nFig 7(b) — remote accesses in region connection at {num_pes} PEs")
        rows = [[o["strategy"], o["region_graph"], o["roadmap_graph"]] for o in out]
        print(format_table(["strategy", "region graph", "roadmap graph"], rows))
    return out


def fig8_prm_environments(pe_counts=PE_COUNTS_OPTERON, verbose: bool = True):
    """Fig. 8(a,b,c): PRM execution time on med-cube / small-cube / free."""
    out = {}
    for env_name, panel in (("med-cube", "a"), ("small-cube", "b"), ("free", "c")):
        out[env_name] = _prm_time_figure(
            env_name,
            pe_counts,
            f"Fig 8({panel}) — PRM {env_name} (Opteron scale)",
            verbose=verbose,
        )
    return out


def fig9_steal_distribution(pe_counts=(96, 768), verbose: bool = True):
    """Fig. 9: stolen vs locally executed tasks per PE under HYBRID WS."""
    wl = prm_workload("med-cube", num_regions=MEDCUBE_REGIONS, samples_per_region=MEDCUBE_SPR)
    out = {}
    for P in pe_counts:
        r = simulate_prm(wl, P, "hybrid")
        stolen = r.sim.stolen_per_pe()
        total = r.sim.tasks_per_pe()
        out[P] = {"stolen": stolen, "non_stolen": total - stolen}
        if verbose:
            frac_thieves = float(np.mean(stolen > 0))
            print(
                f"\nFig 9 — task distribution at {P} PEs: "
                f"{stolen.sum()} stolen / {total.sum()} total; "
                f"{frac_thieves:.0%} of PEs executed stolen work"
            )
            qs = [0, 25, 50, 75, 100]
            rows = []
            order = np.argsort(-stolen)
            for q in qs:
                i = min(int(q / 100 * (P - 1)), P - 1)
                pe = order[i]
                rows.append([f"p{q}", int(stolen[pe]), int(total[pe] - stolen[pe])])
            print(format_table(["percentile (by stolen)", "stolen", "non-stolen"], rows))
    return out


def fig10_rrt_environments(pe_counts=PE_COUNTS_RRT, verbose: bool = True):
    """Fig. 10(a,b,c): radial RRT on mixed / mixed-30 / free.

    Panel (b) additionally includes the k-rays repartitioning strategy the
    paper shows underperforming.
    """
    out = {}
    for env_name, panel in (("mixed", "a"), ("mixed-30", "b"), ("free", "c")):
        wl = rrt_workload(env_name)
        strategies = RRT_STRATEGIES + (("repartition",) if env_name == "mixed-30" else ())
        rows = rrt_scaling_table(wl, list(pe_counts), strategies)
        out[env_name] = rows
        if verbose:
            print(f"\nFig 10({panel}) — radial RRT {env_name}")
            print(
                format_table(
                    ["P", "strategy", "exec time", "speedup vs no-LB"],
                    [
                        [r.num_pes, r.strategy, f"{r.total_time:.0f}", f"{r.speedup_vs_none:.2f}x"]
                        for r in rows
                    ],
                )
            )
    return out
