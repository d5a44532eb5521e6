"""Local planners: validity checking of the path between two configurations.

Local planning is the dominant cost of roadmap construction ("the most time
consuming phase of the entire computation", Sec. III-B), so the planner
reports how many intermediate validity checks it performed; the simulated
runtime charges virtual time per check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import ConfigurationSpace

__all__ = ["LocalPlanResult", "StraightLinePlanner", "BinaryLocalPlanner"]


@dataclass(frozen=True)
class LocalPlanResult:
    """Outcome of a local-plan attempt.

    ``checks`` counts intermediate configuration validity tests — the unit
    of work the virtual-time model charges for.
    """

    valid: bool
    checks: int
    length: float


class StraightLinePlanner:
    """Check the straight segment between configurations at a fixed
    resolution (C-space step length).

    Validity is whatever ``cspace.valid`` answers, on whichever
    :mod:`repro.kernels` backend the space's environment is configured
    with.  Both backends are bit-exact, and step counts and interpolation
    are float64 either way, so the backend changes neither a verdict nor
    the check budget.
    """

    name = "straight-line"

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
        ``(valid_mask, total_checks, lengths)``, with identical semantics
        to calling the planner ``m`` times (same check counts), but with
        per-point collision work batched into a single NumPy broadcast —
        the hot-path optimisation the HPC guides call for.
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
        m = starts.shape[0]
        lengths = cspace.distance_pairs(starts, ends)
        steps = np.maximum(np.ceil(lengths / self.resolution).astype(int) - 1, 0)
        total = int(steps.sum())
        if total == 0:
            return np.ones(m, dtype=bool), steps, lengths
        # For segment i the check parameters are j/(n_i+1), j = 1..n_i;
        # build them all at once with repeat/cumsum indexing.
        seg = np.repeat(np.arange(m), steps)
        offsets = np.concatenate(([0], np.cumsum(steps)))
        j = np.arange(total) - offsets[seg] + 1
        t = j / (steps[seg] + 1)
        pts = cspace.interpolate_pairs(starts[seg], ends[seg], t)
        ok = cspace.valid(pts)
        bad_counts = np.bincount(seg[~ok], minlength=m)
        return bad_counts == 0, steps, lengths

    def batch_pairs_exact(
        self, cspace: ConfigurationSpace, starts: np.ndarray, ends: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Bit-exact batched twin of ``m`` sequential planner calls.

        Returns ``(valid_mask, checks_per_segment, lengths)`` where every
        field is bit-identical to looping ``__call__`` over the segments:
        lengths come from the scalar ``cspace.distance`` and check
        parameters from the same ``linspace`` the scalar path uses, so
        step counts agree even when a segment length sits exactly on a
        ``ceil(dist / resolution)`` boundary — the common case for RRT
        extensions, whose length is the planner's fixed step size.
        :meth:`batch_pairs_counted` computes lengths with the vectorised
        norm, which may differ in the last ulp and flip the ceiling there.
        Only the per-point collision work — the dominant cost — is
        batched, into a single validity call.
        """
        starts = np.atleast_2d(np.asarray(starts, dtype=float))
        ends = np.atleast_2d(np.asarray(ends, dtype=float))
        m = starts.shape[0]
        lengths = np.empty(m)
        for i in range(m):
            lengths[i] = float(cspace.distance(starts[i], ends[i]))
        steps = np.maximum(np.ceil(lengths / self.resolution).astype(np.int64) - 1, 0)
        total = int(steps.sum())
        if total == 0:
            return np.ones(m, dtype=bool), steps, lengths
        # The scalar path takes its check parameters from
        # ``linspace(0, 1, n+2)[1:-1]``, which numpy evaluates as
        # ``i * step`` with ``step = 1/(n+1)`` — reproduced here exactly
        # for all segments at once (asserted by the parity tests).
        seg = np.repeat(np.arange(m), steps)
        offsets = np.concatenate(([0], np.cumsum(steps)))
        j = np.arange(total) - offsets[seg] + 1
        t = j * (1.0 / (steps[seg] + 1))
        pts = cspace.interpolate_pairs(starts[seg], ends[seg], t)
        ok = cspace.valid(pts)
        bad_counts = np.bincount(seg[~ok], minlength=m)
        return bad_counts == 0, steps, lengths

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
        later ones, so long invalid segments stop early (the spirit of
        :class:`BinaryLocalPlanner`, kept batched).  ``checks`` therefore
        counts only the points actually evaluated — typically far fewer
        than :meth:`batch_pairs` on failures, identical on success — so
        this trades exact check-count parity with the sequential planner
        for speed.
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


class BinaryLocalPlanner:
    """Binary-subdivision local planner: checks the midpoint first and
    recurses, failing fast on blocked segments.  Performs the same number
    of checks as :class:`StraightLinePlanner` on success but typically far
    fewer on failure."""

    name = "binary"

    def __init__(self, resolution: float = 0.1):
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution

    def __call__(self, cspace: ConfigurationSpace, a: np.ndarray, b: np.ndarray) -> LocalPlanResult:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        dist = float(cspace.distance(a, b))
        checks = 0
        stack = [(a, b, dist)]
        while stack:
            lo_cfg, hi_cfg, seg_len = stack.pop()
            if seg_len <= self.resolution:
                continue
            mid = cspace.interpolate(lo_cfg, hi_cfg, 0.5)
            checks += 1
            if not cspace.valid_single(mid):
                return LocalPlanResult(False, checks, dist)
            half = 0.5 * seg_len
            stack.append((lo_cfg, mid, half))
            stack.append((mid, hi_cfg, half))
        return LocalPlanResult(True, checks, dist)
