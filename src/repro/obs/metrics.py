"""The one percentile rule every latency figure uses.

A run's tallies are not kept here: they are events, and
:func:`repro.obs.summarize_events` counts them from the trace.  What
remains is :func:`nearest_rank`, shared by the trace summary, the
service's latency stats and the query engine's batch results.
"""

from __future__ import annotations

__all__ = ["nearest_rank"]


def nearest_rank(values, q: float) -> float:
    """Exact nearest-rank ``q``-th percentile (``q`` in [0, 100]) of
    ``values``; 0.0 when there are none.  Raises ``ValueError`` for any
    other ``q``."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(int(q / 100 * (len(ordered) - 1) + 0.5), len(ordered) - 1)]
