"""Load-imbalance metrics used throughout the evaluation.

The paper's primary measure is the coefficient of variation of per-PE
load (σ/µ, Sec. IV-B); improvement percentages compare the most-loaded
processor before and after balancing (Fig. 4b).

:func:`phases_dict` reads a :class:`~repro.core.machine.PhaseTimes` under
the canonical phase names shared by both planners and the trace spans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .machine import PhaseTimes

__all__ = [
    "coefficient_of_variation",
    "percent_improvement",
    "speedup",
    "max_load_reduction",
    "ideal_loads",
    "phases_dict",
]


def phases_dict(phases: "PhaseTimes") -> "dict[str, float]":
    """Canonical-name -> duration mapping of a phase breakdown."""
    return dict(phases.phase_items())


def coefficient_of_variation(loads: np.ndarray) -> float:
    """σ/µ of per-PE loads; 0 for a perfectly balanced machine."""
    loads = np.asarray(loads, dtype=float)
    if loads.size == 0:
        raise ValueError("loads must be non-empty")
    mu = loads.mean()
    if mu == 0.0:
        return 0.0
    return float(loads.std() / mu)


def percent_improvement(before: float, after: float) -> float:
    """Percentage reduction from ``before`` to ``after`` (positive = better)."""
    if before == 0.0:
        return 0.0
    return 100.0 * (before - after) / before


def speedup(baseline_time: float, improved_time: float) -> float:
    """How many times faster ``improved_time`` is than ``baseline_time``."""
    if improved_time <= 0.0:
        raise ValueError("improved_time must be positive")
    return baseline_time / improved_time


def max_load_reduction(loads_before: np.ndarray, loads_after: np.ndarray) -> float:
    """Percent reduction of the most-loaded PE — the paper's "potential
    improvement" metric (Fig. 4b measures it for V_free, sample counts and
    runtime)."""
    before = float(np.max(np.asarray(loads_before, dtype=float)))
    after = float(np.max(np.asarray(loads_after, dtype=float)))
    return percent_improvement(before, after)


def ideal_loads(total: float, num_pes: int) -> np.ndarray:
    """The perfectly balanced distribution of ``total`` load (Fig. 5c's
    "Ideal" line)."""
    if num_pes < 1:
        raise ValueError("num_pes must be >= 1")
    return np.full(num_pes, total / num_pes)
