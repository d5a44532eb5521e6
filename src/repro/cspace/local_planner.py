"""The local planner: validity checking of the path between two configurations.

Local planning is the dominant cost of roadmap construction ("the most time
consuming phase of the entire computation", Sec. III-B), so the planner
reports how many intermediate validity checks it performed; the simulated
runtime charges virtual time per check.

The batched twins (``batch_pairs_counted`` / ``batch_pairs_exact``) test a
box certificate before any point: a segment whose endpoint box, padded
well past rounding, ``ConfigurationSpace.boxes_valid`` certifies free is
valid without interpolating a point, and its checks are charged all the
same, so verdicts, check counts and every virtual time are what checking
each point gives (docs/kernels.md, "Segment certificate").  The scalar
``__call__`` checks every point: it is the oracle the batched twins are
compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import ConfigurationSpace

__all__ = ["LocalPlanResult", "StraightLinePlanner"]

#: Relative pad of a segment's endpoint box before it is certified: far
#: wider than the few ulps rounding can move an interpolated point.
_PAD = 1e-12


@dataclass(frozen=True)
class LocalPlanResult:
    """Outcome of a local-plan attempt.

    ``checks`` counts intermediate configuration validity tests — the unit
    of work the virtual-time model charges for.
    """

    valid: bool
    checks: int
    length: float


def _certified(
    cspace: ConfigurationSpace, starts: np.ndarray, ends: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """``(m,)`` bool: the space certifies segment ``i``'s endpoint box,
    padded by ``_PAD * (1 + max |coord|)`` per axis, free; its
    ``points[i]`` checks are charged, not run."""
    lo = np.minimum(starts, ends)
    hi = np.maximum(starts, ends)
    pad = _PAD * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    return cspace.boxes_valid(lo - pad, hi + pad, points)


def _check_segments(
    cspace: ConfigurationSpace, starts: np.ndarray, ends: np.ndarray, steps: np.ndarray,
    exact: bool,
) -> np.ndarray:
    """The two batched twins' shared tail: ``(m,)`` validity of the
    segments, ``steps[i]`` interior points each, in one validity call.

    A segment whose padded endpoint box ``cspace.boxes_valid``
    certifies builds no points (the space charges them).  Every check
    point is ``s + t*(e - s)`` with ``t`` in ``[0, 1]``; rounding puts
    it at most a few ulps of its coordinate outside
    ``[min(s, e), max(s, e)]`` (at ``t = 1``, ``s + (e - s)`` need not
    round to ``e``), far inside the pad.  The argument needs a finite
    ``e - s``, which a segment with checks has: its length is finite.
    """
    m = steps.shape[0]
    n = np.where(_certified(cspace, starts, ends, steps), 0, steps)
    total = int(n.sum())
    if total == 0:
        return np.ones(m, dtype=bool)
    # Segment i's check parameters are j/(n_i+1), j = 1..n_i, built all
    # at once with repeat/cumsum indexing.  The scalar path takes them
    # from ``linspace(0, 1, n+2)[1:-1]``, which numpy evaluates as
    # ``j * step`` with ``step = 1/(n+1)``: ``exact`` reproduces that
    # (asserted by the parity tests).
    seg = np.repeat(np.arange(m), n)
    offsets = np.concatenate(([0], np.cumsum(n)))
    j = np.arange(total) - offsets[seg] + 1
    t = j * (1.0 / (steps[seg] + 1)) if exact else j / (steps[seg] + 1)
    pts = cspace.interpolate_pairs(starts[seg], ends[seg], t)
    ok = cspace.valid(pts)
    return np.bincount(seg[~ok], minlength=m) == 0


class StraightLinePlanner:
    """Check the straight segment between configurations at a fixed
    resolution (C-space step length).

    Validity is whatever ``cspace.valid`` answers, on whichever
    :mod:`repro.kernels` backend the space's environment is configured
    with.  Both backends are bit-exact, and step counts and interpolation
    are float64 either way, so the backend changes neither a verdict nor
    the check budget.
    """

    def __init__(self, resolution: float = 0.1):
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution

    def __call__(self, cspace: ConfigurationSpace, a: np.ndarray, b: np.ndarray) -> LocalPlanResult:
        dist = float(cspace.distance(a, b))
        n_steps = max(int(np.ceil(dist / self.resolution)) - 1, 0)
        if n_steps == 0:
            return LocalPlanResult(True, 0, dist)
        ts = np.linspace(0.0, 1.0, n_steps + 2)[1:-1]
        pts = cspace.interpolate(a, b, ts)
        ok = cspace.valid(pts)
        return LocalPlanResult(bool(np.all(ok)), n_steps, dist)

    def batch_pairs(
        self, cspace: ConfigurationSpace, starts: np.ndarray, ends: np.ndarray
    ) -> "tuple[np.ndarray, int, np.ndarray]":
        """Validate many segments in one vectorised validity call.

        ``starts``/``ends`` are ``(m, dof)``.  Returns
        ``(valid_mask, total_checks, lengths)``, what calling the planner
        ``m`` times returns except where the vectorised norm of
        :meth:`batch_pairs_counted` is one ulp off the scalar distance and
        flips ``ceil(dist / resolution)``: there the step count, and so the
        check count, differs by one (:meth:`batch_pairs_exact` is the
        bit-exact twin).  Per-point collision work is batched into a single
        validity call.
        """
        ok, steps, lengths = self.batch_pairs_counted(cspace, starts, ends)
        return ok, int(steps.sum()), lengths

    def batch_pairs_counted(
        self, cspace: ConfigurationSpace, starts: np.ndarray, ends: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Like :meth:`batch_pairs` but returns *per-segment* check counts.

        Returns ``(valid_mask, checks_per_segment, lengths)``; consumers
        that interleave validation with other bookkeeping (the PRM's
        speculate-then-replay connection loop) need per-segment
        attribution of the check budget.
        """
        starts = np.atleast_2d(np.asarray(starts, dtype=float))
        ends = np.atleast_2d(np.asarray(ends, dtype=float))
        lengths = cspace.distance_pairs(starts, ends)
        steps = np.maximum(np.ceil(lengths / self.resolution).astype(int) - 1, 0)
        return _check_segments(cspace, starts, ends, steps, exact=False), steps, lengths

    def batch_pairs_exact(
        self, cspace: ConfigurationSpace, starts: np.ndarray, ends: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Bit-exact batched twin of ``m`` sequential planner calls.

        Returns ``(valid_mask, checks_per_segment, lengths)`` where every
        field is bit-identical to looping ``__call__`` over the segments:
        lengths come from one row-wise ``cspace.distance`` call, whose
        rows are the scalar call's bits, and check parameters from the
        same ``linspace`` the scalar path uses, so step counts agree even
        when a segment length sits exactly on a ``ceil(dist /
        resolution)`` boundary — the common case for RRT extensions,
        whose length is the planner's fixed step size.  The reduction
        norm (``np.linalg.norm(diff, axis=1)``, what
        :meth:`batch_pairs_counted` uses) is not: it sums the squares in
        another order than the scalar dot, differs in the last ulp on 8-15 %
        of random rows for d = 2..7 and can flip the ceiling there.  The
        per-point collision work — the dominant cost — is batched into a
        single validity call.
        """
        starts = np.atleast_2d(np.asarray(starts, dtype=float))
        ends = np.atleast_2d(np.asarray(ends, dtype=float))
        lengths = cspace.distance(starts, ends)
        steps = np.maximum(np.ceil(lengths / self.resolution).astype(np.int64) - 1, 0)
        return _check_segments(cspace, starts, ends, steps, exact=True), steps, lengths

    def batch_pairs_chunked(
        self,
        cspace: ConfigurationSpace,
        starts: np.ndarray,
        ends: np.ndarray,
        chunk: int = 8,
    ) -> "tuple[np.ndarray, int, np.ndarray]":
        """Fail-fast variant of :meth:`batch_pairs`.

        Checks proceed in waves of up to ``chunk`` intermediate points per
        segment; a segment that collides in one wave drops out of the
        later ones, so long invalid segments stop early.  ``checks``
        therefore counts only the points actually evaluated — typically
        far fewer than :meth:`batch_pairs` on failures, identical on
        success — so this trades exact check-count parity with the
        sequential planner for speed.
        """
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        starts = np.atleast_2d(np.asarray(starts, dtype=float))
        ends = np.atleast_2d(np.asarray(ends, dtype=float))
        m = starts.shape[0]
        lengths = cspace.distance_pairs(starts, ends)
        steps = np.maximum(np.ceil(lengths / self.resolution).astype(int) - 1, 0)
        valid = np.ones(m, dtype=bool)
        checks = 0
        max_steps = int(steps.max()) if m else 0
        for wave_start in range(0, max_steps, chunk):
            # Segments still alive with checks remaining in this wave.
            remaining = steps - wave_start
            alive = valid & (remaining > 0)
            if not alive.any():
                break
            wave = np.minimum(remaining[alive], chunk)
            seg_local = np.repeat(np.nonzero(alive)[0], wave)
            offsets = np.concatenate(([0], np.cumsum(wave)))
            j = np.arange(int(wave.sum())) - offsets[np.repeat(np.arange(wave.size), wave)]
            j = j + wave_start + 1
            t = j / (steps[seg_local] + 1)
            pts = cspace.interpolate_pairs(starts[seg_local], ends[seg_local], t)
            ok = cspace.valid(pts)
            checks += int(seg_local.size)
            if not ok.all():
                valid[np.unique(seg_local[~ok])] = False
        return valid, checks, lengths
