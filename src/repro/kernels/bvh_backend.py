"""bvh kernel backend: BVH-culled collision queries, bit-exact leaves.

The scaling backend for obstacle-heavy scenes (10³–10⁵ primitives, see
``repro.geometry.scenarios``): instead of scanning every obstacle,
``points_free`` tests each point against the few primitives binned into
its cell of the tree's uniform grid (about one on the 20k-box warehouse,
the whole batch in one pass), and ``segments_free`` walks a packed-array
AABB tree (:class:`repro.geometry.bvh.BVH`) — ``O(log m)`` node visits
plus a handful of candidate primitives per query, the whole batch going
down the tree together, one level per NumPy pass.

**The equivalence contract is bit-exact, not statistical.**  The tree
only *culls*: node tests are conservative (inflated float64 boxes), and
every surviving ``(query, primitive)`` pair is decided by the reference
backend's own expressions (:func:`repro.kernels.reference.point_in_box` /
``segment_hits_box`` — the same comparisons and slab arithmetic its
all-pairs scans evaluate) applied to the aligned rows.  Elementwise NumPy
expressions over a subset of pairs, in any layout, produce the same bits
as over all of them, so a verdict can never differ from ``reference`` —
which is why
the differential battery in ``tests/test_bvh.py`` (up to the 20k-obstacle
warehouse the ``prm_warehouse_process`` benchmark workload plans in)
asserts exact equality.

``boxes_free`` certifies nothing (see the method for the measured reason),
so a local planner on this backend checks every point.

``pairwise_accumulate`` and ``knn_block_min`` have no obstacle structure
to accelerate; they delegate to the reference backend unchanged.

The tree is built lazily per :class:`~repro.kernels.data.EnvKernelData`
snapshot and cached *on the snapshot* — snapshots are immutable and are
themselves cached on ``Environment``, whose obstacle set is fixed at
construction, so a tree never needs invalidating.  Whoever queries a
cold snapshot first builds the tree, under a lock: threads sharing the
snapshot share one tree.  A snapshot can also arrive with its tree: a
shm-plane pool worker's gets the parent's, adopted from the published
segment (:mod:`repro.api`), and never builds one.
"""

from __future__ import annotations

import threading

import numpy as np

from .base import KernelBackend
from .data import EnvKernelData
from .reference import ReferenceKernels, point_in_box, segment_hits_box

__all__ = ["BVHKernels"]

#: Attribute name under which the tree is cached on an EnvKernelData snapshot.
_CACHE_ATTR = "_bvh_tree"

#: Serialises first builds (module-level: a snapshot must stay picklable).
_BUILD_LOCK = threading.Lock()


def _box_tree(data: EnvKernelData):
    """The snapshot's lazily-built box BVH — one per snapshot, however many
    threads find it cold at once (checked again under the lock)."""
    from ..geometry.bvh import BVH  # deferred: geometry imports kernels

    tree = getattr(data, _CACHE_ATTR, None)
    if tree is None:
        with _BUILD_LOCK:
            tree = getattr(data, _CACHE_ATTR, None)
            if tree is None:
                tree = BVH(data.box_lo, data.box_hi)
                setattr(data, _CACHE_ATTR, tree)
    return tree


class BVHKernels(KernelBackend):
    """BVH-culled collision kernels; distance primitives are reference."""

    name = "bvh"

    def __init__(self):
        self._ref = ReferenceKernels()

    def points_free(self, data: EnvKernelData, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        free = np.all((pts >= data.bounds_lo) & (pts <= data.bounds_hi), axis=-1)
        if data.num_boxes:
            free = free & ~_box_tree(data).points_hit(pts, point_in_box)
        return free

    def segments_free(self, data: EnvKernelData, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(p, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        free = np.all((p >= data.bounds_lo) & (p <= data.bounds_hi), axis=-1) & np.all(
            (q >= data.bounds_lo) & (q <= data.bounds_hi), axis=-1
        )
        if data.num_boxes:
            free = free & ~_box_tree(data).segments_hit(p, q, segment_hits_box)
        return free

    def boxes_free(self, data: EnvKernelData, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # "Not certified" for every box.  On the 20k-box warehouse a tree
        # query for the local planner's segment boxes certified 16,949 of
        # 48,600 segments (31% of their points) and cost 0.30 s, more than
        # the point checks it saved; prm_warehouse_process wall_s read
        # 1.073x with it and 0.996x without (2-vCPU VM).
        return np.zeros(np.atleast_2d(lo).shape[0], dtype=bool)

    # -- distance primitives: nothing to cull, reference verbatim ----------
    def pairwise_accumulate(self, stored: np.ndarray, queries: np.ndarray, out: np.ndarray) -> None:
        self._ref.pairwise_accumulate(stored, queries, out)

    def knn_block_min(
        self, stored: np.ndarray, queries: np.ndarray, k: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        return self._ref.knn_block_min(stored, queries, k)
