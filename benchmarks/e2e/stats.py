"""Order statistics, the machine-speed calibration and the open-loop
arrival scheduler used by the harness.

Kept free of any ``repro`` import so the unit tests can exercise them
without the program under test.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Callable, Iterable, Sequence

import numpy as np

#: a percentile is only reported with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q/100 * n)``-th smallest value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def supported(n: int, q: float) -> bool:
    """Whether ``q`` may be reported from ``n`` samples."""
    return samples_beyond(n, q) >= MIN_SAMPLES_BEYOND


def summary(values: Sequence[float]) -> "dict[str, float]":
    """Median, quartiles and count of a sample (quartiles need n >= 2)."""
    vals = list(values)
    out = {"n": len(vals), "median": statistics.median(vals)}
    if len(vals) >= 2:
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        out["q1"], out["q3"] = q1, q3
    else:
        out["q1"] = out["q3"] = out["median"]
    return out


def coefficient_of_variation(values: Iterable[float]) -> float:
    """Population sigma / mu (the paper's load-imbalance measure)."""
    vals = list(values)
    if not vals:
        return 0.0
    mu = statistics.fmean(vals)
    return statistics.pstdev(vals) / mu if mu else 0.0


# -- machine speed ------------------------------------------------------------
# The reference box is a shared 2-vCPU VM.  Two things move its speed, and
# raw wall seconds of one run say as much about them as about the program:
#
# * the host keeps a vCPU off the processor (``steal`` in /proc/stat).  The
#   kernel counts it, so it is taken out directly: a timing is the wall
#   seconds of its interval minus the share of the stolen seconds that sat
#   on the operation's critical path (``Workload.steal_share``);
# * what does run, runs 1.2-2x slower in plateaus of seconds to minutes (a
#   fixed loop read 21 ms and 34 ms half a minute apart).  Every closed-loop
#   timing is therefore taken between two readings of a fixed calibration
#   kernel and rescaled to the speed at which that kernel takes
#   ``CALIBRATION_NOMINAL_S``.

#: wall seconds :func:`calibrate` takes on the reference box when nothing
#: disturbs it, so rescaled timings read as seconds on the undisturbed box.
CALIBRATION_NOMINAL_S = 0.25
#: a steal correction above this share of a reading is cut to it: steal is
#: counted in ticks over every vCPU, so over a short interval it can
#: overstate what one operation lost.
MAX_STOLEN_SHARE = 0.5
_CAL_LOOP = 2_500_000
_CAL_BLOCKS = 270
_CAL_A = np.linspace(0.0, 1.0, 64 * 3).reshape(64, 3)
_CAL_B = np.linspace(1.0, 2.0, 256 * 3).reshape(256, 3)


def steal_clock() -> float:
    """Seconds, summed over its vCPUs, for which the host has kept this
    machine off the processor since boot; a constant 0.0 where the kernel
    does not say (no ``/proc/stat``, no steal column)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def given_seconds(wall: float, stolen: float) -> float:
    """``wall`` minus the ``stolen`` seconds, at most ``MAX_STOLEN_SHARE`` of it."""
    return wall - min(max(stolen, 0.0), MAX_STOLEN_SHARE * wall)


def calibrate(clock: "Callable[[], float]" = time.perf_counter,
              steal: "Callable[[], float]" = steal_clock) -> float:
    """Seconds the machine gave to a fixed piece of work that never enters
    the program under test: half interpreter-bound, half small-array numpy,
    the mix the planners are made of.  The work is the same on every
    commit and single-threaded (all its stolen time is its own), so the
    reading moves with the machine only."""
    t0, s0 = clock(), steal()
    acc = 0
    for i in range(_CAL_LOOP):
        acc += i * i
    for _ in range(_CAL_BLOCKS):
        ((_CAL_A[:, None, :] - _CAL_B[None, :, :]) ** 2).sum(-1).argmin(1)
    return given_seconds(clock() - t0, steal() - s0)


def at_nominal_speed(seconds: float, before: float, after: float, stolen: float = 0.0) -> float:
    """``seconds``, less the ``stolen`` ones, rescaled to the nominal
    machine speed, given the calibration readings taken just before and
    just after the interval."""
    return given_seconds(seconds, stolen) * CALIBRATION_NOMINAL_S / (0.5 * (before + after))


def run_open_loop(
    offsets: Sequence[float],
    send: "Callable[[int, float], None]",
    clock: "Callable[[], float]" = time.perf_counter,
    sleep: "Callable[[float], None]" = time.sleep,
) -> "list[float]":
    """Fire ``send(i, due)`` for every arrival offset, open loop.

    ``offsets`` are seconds from the phase start, non-decreasing.  The
    generator never asks to sleep past a due time (it sleeps exactly the
    remaining gap, and not at all when already late), never skips or
    delays an arrival because earlier answers are outstanding, and hands
    ``send`` the *due* instant so latency is measured from when the
    request should have left, not from when a stalled generator got to
    it.  Returns how late (seconds, >= 0) each arrival was fired.
    """
    start = clock()
    lateness = []
    for i, off in enumerate(offsets):
        due = start + off
        remaining = due - clock()
        if remaining > 0:
            sleep(remaining)
        lateness.append(max(clock() - due, 0.0))
        send(i, due)
    return lateness
