"""Command-line driver for the figure benchmarks.

Usage::

    python -m repro.bench                 # list available figures
    python -m repro.bench fig5a           # regenerate one figure
    python -m repro.bench all             # regenerate everything
"""

from __future__ import annotations

import sys
import time

from . import figures

_FIGURES = {
    "fig4a": figures.fig4a_model_cov,
    "fig4b": figures.fig4b_model_improvement,
    "fig5a": figures.fig5a_prm_medcube_time,
    "fig5b": figures.fig5b_prm_cov,
    "fig5c": figures.fig5c_load_profile,
    "fig6": figures.fig6_prm_scale,
    "fig7a": figures.fig7a_phase_breakdown,
    "fig7b": figures.fig7b_remote_accesses,
    "fig8": figures.fig8_prm_environments,
    "fig9": figures.fig9_steal_distribution,
    "fig10": figures.fig10_rrt_environments,
}


def main(argv: "list[str]") -> int:
    """Dispatch to a figure benchmark; 0 on success."""
    if not argv:
        print(__doc__)
        print("Available figures:")
        for name, fn in _FIGURES.items():
            summary = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:8s} {summary}")
        return 0
    targets = list(_FIGURES) if argv == ["all"] else argv
    unknown = [t for t in targets if t not in _FIGURES]
    if unknown:
        print(f"unknown figure(s): {unknown}; known: {sorted(_FIGURES)}", file=sys.stderr)
        return 2
    for name in targets:
        t0 = time.perf_counter()
        _FIGURES[name]()
        print(f"[{name} regenerated in {time.perf_counter() - t0:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
