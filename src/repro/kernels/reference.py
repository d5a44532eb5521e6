"""Reference kernel backend: today's float64 NumPy hot paths, bit-exact.

These are the *exact* expressions that previously lived inline in
``Environment.points_in_collision`` / ``Environment._segments_hit`` and
``BruteForceNN._dist_block`` — moved here unchanged so the backend
boundary introduces zero numerical drift.  Every bit-exact parity test in
the suite (sequential-vs-batched PRM/RRT replay, canonical k-NN
cross-checks) runs through this backend and must stay green with zero
tolerance changes.

The box tests are written over the last axis (``point_in_box`` /
``segment_hits_box``): over aligned ``(k, d)`` rows they are what the
``bvh`` backend's tree evaluates on the candidate pairs it narrows each
query to; broadcast to ``(n, m, d)`` the slab test is this backend's
all-pairs segment scan (``segments_hit_boxes``).  The all-pairs point scan
(``points_hit_boxes``) applies ``point_in_box``'s two comparisons one axis
at a time as ``(n, m)`` planes instead.  Scan and tree share operators,
not a function, and stay bit-exact because a float comparison has no
layout: each ``(point, box, axis)`` entry is the same ``>=`` / ``<=``
whichever array holds it (see ``repro.kernels.bvh_backend``).
"""

from __future__ import annotations

import numpy as np

from .base import KernelBackend
from .data import EnvKernelData
from .select import select_canonical_rows

__all__ = [
    "ReferenceKernels",
    "pairwise_accumulate_exact",
    "point_in_box",
    "points_hit_boxes",
    "segment_hits_box",
    "segments_hit_boxes",
]


#: ``points x boxes`` plane elements one all-pairs point scan may hold.
_SCAN_ELEMENTS = 1 << 16


def pairwise_accumulate_exact(stored: np.ndarray, queries: np.ndarray, out: np.ndarray) -> None:
    """Write ``||stored[j] - queries[i]||`` into ``out[i, j]`` using
    per-dimension 2-D accumulation.

    np.add.reduce over the last axis sums left to right, so
    ``s = dx0²; s += dx1²; ...; sqrt(s)`` produces bit-identical values to
    ``np.linalg.norm(diff, axis=2)`` (and to the per-query scalar path)
    while never materialising the ``(m, n, d)`` temporary — about a third
    of the memory traffic on the O(n²) floor of roadmap construction.

    Leading axes stack independent problems: ``stored`` ``(..., n, d)``
    against ``queries`` ``(..., m, d)`` fills ``out`` ``(..., m, n)`` —
    how a block of regions' distance work runs as one pass.  Every entry
    is computed by the same elementwise sequence, so stacking changes no
    bit.
    """
    n = stored.shape[-2]
    if n == 0:
        return
    dim = queries.shape[-1]
    tmp = np.empty(out.shape)
    s = np.empty(out.shape)
    for j in range(dim):
        np.subtract(stored[..., None, :, j], queries[..., :, None, j], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        if j == 0:
            s, tmp = tmp, s
        else:
            np.add(s, tmp, out=s)
    np.sqrt(s, out=out)


def point_in_box(lo: np.ndarray, hi: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Point is inside (inclusively) the box — the exact containment
    expression of the historical ``points_in_collision``, reduced over the
    last axis with the leading axes broadcast."""
    return ((pts >= lo) & (pts <= hi)).all(axis=-1)


def points_hit_boxes(box_lo: np.ndarray, box_hi: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``(n,)`` bool: point ``i`` is inside some of the ``m`` boxes.

    :func:`point_in_box`'s two comparisons, evaluated one axis at a time as
    ``(n, m)`` planes and AND-ed together — never the ``(n, m, d)``
    temporary.  Each plane entry is the same float comparison, so the
    verdict is the same whatever the layout.
    """
    inside = np.empty((pts.shape[0], box_lo.shape[0]), dtype=bool)
    plane = np.empty_like(inside)
    for j in range(pts.shape[1]):
        col = pts[:, j, None]
        np.greater_equal(col, box_lo[:, j], out=plane if j else inside)
        if j:
            inside &= plane
        np.less_equal(col, box_hi[:, j], out=plane)
        inside &= plane
    return inside.any(axis=1)


def segment_hits_box(lo: np.ndarray, hi: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Slab test of the segment ``p -> q`` against the box, reduced over
    the last axis with the leading axes broadcast.

    The historical ``Environment._segments_hit`` body.
    """
    d = q - p
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(d != 0.0, 1.0 / d, np.inf)
        # 0 * inf = nan on a parallel axis whose slab face passes through
        # p — those entries are overwritten by the ``parallel`` mask.
        t_lo = (lo - p) * inv
        t_hi = (hi - p) * inv
    t_near = np.minimum(t_lo, t_hi)
    t_far = np.maximum(t_lo, t_hi)
    parallel = d == 0.0
    inside_slab = (p >= lo) & (p <= hi)
    miss_parallel = parallel & ~inside_slab
    t_near = np.where(parallel, -np.inf, t_near)
    t_far = np.where(parallel, np.inf, t_far)
    t0 = np.maximum(t_near.max(axis=-1), 0.0)
    t1 = np.minimum(t_far.min(axis=-1), 1.0)
    return (t0 <= t1) & ~miss_parallel.any(axis=-1)


def segments_hit_boxes(
    obs_lo: np.ndarray, obs_hi: np.ndarray, p: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """``(n,)`` bool: segment ``i`` hits some of the ``m`` box obstacles."""
    return segment_hits_box(
        obs_lo[None, :, :], obs_hi[None, :, :], p[:, None, :], q[:, None, :]
    ).any(axis=1)


class ReferenceKernels(KernelBackend):
    """Bit-exact float64 backend — the default everywhere."""

    name = "reference"

    def points_free(self, data: EnvKernelData, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        free = np.all((pts >= data.bounds_lo) & (pts <= data.bounds_hi), axis=-1)
        if data.num_boxes:
            # The all-pairs scan holds (points, boxes) planes; a caller that
            # batches many regions' points would otherwise push them out of
            # cache (and memory).  Verdicts are elementwise, so slicing the
            # points changes none.
            step = max(1, _SCAN_ELEMENTS // data.num_boxes)
            for lo in range(0, pts.shape[0], step):
                free[lo : lo + step] &= ~points_hit_boxes(
                    data.box_lo, data.box_hi, pts[lo : lo + step]
                )
        return free

    def segments_free(self, data: EnvKernelData, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(p, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        free = np.all((p >= data.bounds_lo) & (p <= data.bounds_hi), axis=-1) & np.all(
            (q >= data.bounds_lo) & (q <= data.bounds_hi), axis=-1
        )
        if data.num_boxes:
            free = free & ~segments_hit_boxes(data.box_lo, data.box_hi, p, q)
        return free

    def pairwise_accumulate(self, stored: np.ndarray, queries: np.ndarray, out: np.ndarray) -> None:
        pairwise_accumulate_exact(stored, queries, out)

    def knn_block_min(
        self, stored: np.ndarray, queries: np.ndarray, k: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        stored = np.atleast_2d(np.asarray(stored, dtype=float))
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        m, n = queries.shape[0], stored.shape[0]
        kk = max(k, 0)
        idx = np.full((m, kk), -1, dtype=np.int64)
        dist = np.full((m, kk), np.inf)
        if n == 0 or kk == 0 or m == 0:
            return idx, dist
        D = np.empty((m, n))
        self.pairwise_accumulate(stored, queries, D)
        k_eff = min(kk, n)
        sel, dvals = select_canonical_rows(D, k_eff)
        for i, (srow, drow) in enumerate(zip(sel, dvals)):
            idx[i, :k_eff] = srow
            dist[i, :k_eff] = drow
        return idx, dist
