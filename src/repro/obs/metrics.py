"""Counters, gauges and histograms for runtime telemetry.

A :class:`MetricRegistry` is a flat namespace of named instruments.  The
simulator and drivers record steal/migration/remote-access tallies and
per-PE busy/idle time here; benches and the ``plan()`` facade read them
back through :meth:`MetricRegistry.as_dict`.

Instruments are deliberately simple (no label sets, no time windows):
every run gets a fresh registry, so values are per-run totals.
Mutations (``inc`` / ``add`` / ``observe`` and create-on-first-use) are
thread-safe: the local pools and the serving layer record from worker
threads concurrently.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry", "nearest_rank"]


def nearest_rank(values, q: float) -> float:
    """Exact nearest-rank ``q``-th percentile (``q`` in [0, 100]) of
    ``values``; 0.0 when there are none."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(int(q / 100 * (len(ordered) - 1) + 0.5), len(ordered) - 1)]


@dataclass
class Counter:
    """Monotonically increasing tally."""

    name: str
    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the tally."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self.value += amount


@dataclass
class Gauge:
    """Last-write-wins instantaneous value."""

    name: str
    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta`` (either sign)."""
        with self._lock:
            self.value += delta


@dataclass
class Histogram:
    """Streaming distribution; keeps raw observations for exact quantiles.

    Per-run observation counts here are small (one per PE or per task), so
    storing the samples beats maintaining approximate sketches.
    """

    name: str
    values: "list[float]" = field(default_factory=list)

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.values.append(float(value))

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self.values)

    @property
    def sum(self) -> float:
        """Exact (compensated) sum of the samples."""
        return math.fsum(self.values)

    @property
    def mean(self) -> float:
        """Arithmetic mean, or 0.0 with no samples."""
        return self.sum / self.count if self.values else 0.0

    @property
    def min(self) -> float:
        """Smallest sample, or 0.0 with no samples."""
        return min(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        """Largest sample, or 0.0 with no samples."""
        return max(self.values) if self.values else 0.0

    def percentile(self, q: float) -> float:
        """Exact q-th percentile (nearest-rank, ``0 <= q <= 100``)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        return nearest_rank(self.values, q)


class MetricRegistry:
    """Flat, create-on-first-use namespace of instruments."""

    def __init__(self) -> None:
        self._counters: "dict[str, Counter]" = {}
        self._gauges: "dict[str, Gauge]" = {}
        self._histograms: "dict[str, Histogram]" = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name)
            return h

    def as_dict(self) -> "dict[str, object]":
        """Snapshot: counters/gauges as numbers, histograms as summaries."""
        out: "dict[str, object]" = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.value
        for name, h in self._histograms.items():
            out[name] = {
                "count": h.count,
                "sum": h.sum,
                "mean": h.mean,
                "min": h.min,
                "max": h.max,
            }
        return out
