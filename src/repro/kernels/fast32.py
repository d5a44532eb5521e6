"""fast32 kernel backend: float32, blocked/tiled, structure-of-arrays.

The throughput backend.  Three layout decisions buy the speedup over the
reference kernels:

* **float32 compute** — halves memory traffic on kernels that are pure
  streaming (the collision and distance kernels run at memory bandwidth,
  not FLOP limit, on CPUs).
* **2-D planes instead of 3-D broadcasts** — the point and distance
  kernels accumulate per dimension into ``(n, tile)`` planes rather than
  reducing an ``(n, m, d)`` temporary, mirroring the trick the batched
  k-NN path introduced for float64.
* **obstacle / stored-point tiling** — obstacle arrays are processed in
  tiles sized to stay cache-resident, with a cheap early-out once every
  query in the block has hit something.

Numerically this backend is *statistically* equivalent to the reference:
verdicts may flip for queries within float32 rounding of a decision
boundary (an obstacle face, the workspace wall, a k-NN distance tie).
The equivalence gates in ``tests/test_kernels.py`` quantify exactly
that: agreement is asserted on every query whose reference verdict is
stable under ``±eps`` obstacle inflation, and k-NN distances must match
to 1e-4 relative.
"""

from __future__ import annotations

import numpy as np

from .base import KernelBackend
from .data import EnvKernelData

__all__ = ["Fast32Kernels"]

# Obstacles (or stored points) per tile: 256 float32 3-D boxes are ~12 KB
# of planes per query block — comfortably L2-resident alongside the
# queries.
_TILE = 256
# Stored-point tile for the blocked k-NN merge.
_KNN_TILE = 2048

_F32 = np.float32
_INF32 = np.float32(np.inf)


def _as_f32_2d(arr: np.ndarray) -> np.ndarray:
    out = np.atleast_2d(np.asarray(arr))
    return np.ascontiguousarray(out, dtype=_F32)


class Fast32Kernels(KernelBackend):
    """float32 blocked kernels over the SoA snapshot."""

    name = "fast32"
    dtype = np.float32

    # -- collision ---------------------------------------------------------
    def points_free(self, data: EnvKernelData, points: np.ndarray) -> np.ndarray:
        pts = _as_f32_2d(points)
        n, dim = pts.shape
        free = np.all((pts >= data.bounds_lo32) & (pts <= data.bounds_hi32), axis=1)
        if not free.any():
            return free
        hit = np.zeros(n, dtype=bool)
        # |p - center| <= half per dimension, accumulated in 2-D
        # (n, tile) planes (no (n, m, d) temporary).
        c, h = data.box_center32, data.box_half32
        for lo in range(0, data.num_boxes, _TILE):
            cc = c[lo : lo + _TILE]
            hh = h[lo : lo + _TILE]
            inside = np.abs(pts[:, 0, None] - cc[None, :, 0]) <= hh[None, :, 0]
            for j in range(1, dim):
                inside &= np.abs(pts[:, j, None] - cc[None, :, j]) <= hh[None, :, j]
            hit |= inside.any(axis=1)
            if hit.all():
                break
        return free & ~hit

    def segments_free(self, data: EnvKernelData, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        p32 = _as_f32_2d(p)
        q32 = _as_f32_2d(q)
        n, dim = p32.shape
        free = np.all((p32 >= data.bounds_lo32) & (p32 <= data.bounds_hi32), axis=1) & np.all(
            (q32 >= data.bounds_lo32) & (q32 <= data.bounds_hi32), axis=1
        )
        if not free.any() or data.num_boxes == 0:
            return free
        d = q32 - p32  # (n, dim)
        hit = np.zeros(n, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(d != 0.0, _F32(1.0) / d, _INF32)  # (n, dim)
        par = d == 0.0  # (n, dim) parallel-axis mask
        any_par = par.any()
        blo, bhi = data.box_lo32, data.box_hi32
        for lo in range(0, data.num_boxes, _TILE):
            olo = blo[lo : lo + _TILE]
            ohi = bhi[lo : lo + _TILE]
            t = olo.shape[0]
            t0 = np.zeros((n, t), dtype=_F32)
            t1 = np.ones((n, t), dtype=_F32)
            miss = np.zeros((n, t), dtype=bool)
            for j in range(dim):
                pj = p32[:, j, None]  # (n, 1)
                a = (olo[None, :, j] - pj) * inv[:, j, None]
                b = (ohi[None, :, j] - pj) * inv[:, j, None]
                tn = np.minimum(a, b)
                tf = np.maximum(a, b)
                if any_par:
                    # Parallel axes produce 0*inf = NaN above; replace
                    # with the pass-through slab and record misses for
                    # segments outside it.
                    pm = par[:, j, None]
                    inside = (pj >= olo[None, :, j]) & (pj <= ohi[None, :, j])
                    miss |= pm & ~inside
                    tn = np.where(pm, -_INF32, tn)
                    tf = np.where(pm, _INF32, tf)
                np.maximum(t0, tn, out=t0)
                np.minimum(t1, tf, out=t1)
            hit |= ((t0 <= t1) & ~miss).any(axis=1)
            if hit.all():
                break
        return free & ~hit

    # -- distances ---------------------------------------------------------
    def pairwise_accumulate(self, stored: np.ndarray, queries: np.ndarray, out: np.ndarray) -> None:
        n = stored.shape[0]
        if n == 0:
            return
        s32 = _as_f32_2d(stored)
        q32 = _as_f32_2d(queries)
        m, dim = q32.shape
        tmp = np.empty((m, n), dtype=_F32)
        acc = np.empty((m, n), dtype=_F32)
        for j in range(dim):
            np.subtract(s32[None, :, j], q32[:, j, None], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            if j == 0:
                acc, tmp = tmp, acc
            else:
                np.add(acc, tmp, out=acc)
        np.sqrt(acc, out=acc)
        out[:, :] = acc  # single float32 -> float64 cast on store

    def knn_block_min(
        self, stored: np.ndarray, queries: np.ndarray, k: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        stored = _as_f32_2d(stored)
        queries = _as_f32_2d(queries)
        m, n = queries.shape[0], stored.shape[0]
        kk = max(k, 0)
        best_i = np.full((m, kk), -1, dtype=np.int64)
        best_d = np.full((m, kk), _INF32, dtype=_F32)
        if n == 0 or kk == 0 or m == 0:
            return best_i, best_d.astype(np.float64)
        dim = queries.shape[1]
        # Running top-k over stored-point tiles: each tile is reduced to
        # its k smallest per row with argpartition, then merged with the
        # previous best via a canonical (distance, index) sort of the
        # <= 2k candidates — O(n) selection instead of an O(n log n) sort.
        # Ties at the argpartition boundary (exact float32 distance ties
        # straddling the k-th rank within one tile) may deviate from the
        # canonical tie-break; that is within this backend's statistical
        # contract and is deterministic for a given input.
        for lo in range(0, n, _KNN_TILE):
            tile = stored[lo : lo + _KNN_TILE]
            t = tile.shape[0]
            tmp = np.empty((m, t), dtype=_F32)
            acc = np.empty((m, t), dtype=_F32)
            for j in range(dim):
                np.subtract(tile[None, :, j], queries[:, j, None], out=tmp)
                np.multiply(tmp, tmp, out=tmp)
                if j == 0:
                    acc, tmp = tmp, acc
                else:
                    np.add(acc, tmp, out=acc)
            np.sqrt(acc, out=acc)
            if t > kk:
                part = np.argpartition(acc, kk - 1, axis=1)[:, :kk]
                tile_d = np.take_along_axis(acc, part, axis=1)
                tile_i = part.astype(np.int64) + lo
            else:
                tile_d = acc
                tile_i = np.broadcast_to(np.arange(lo, lo + t, dtype=np.int64), (m, t))
            cand_d = np.concatenate((best_d, tile_d), axis=1)
            cand_i = np.concatenate((best_i, tile_i), axis=1)
            # Canonical order of the candidates: stable-sort by index then
            # (stably) by distance, so equal distances keep ascending ids.
            ordi = np.argsort(cand_i, axis=1, kind="stable")
            cand_d = np.take_along_axis(cand_d, ordi, axis=1)
            cand_i = np.take_along_axis(cand_i, ordi, axis=1)
            ordd = np.argsort(cand_d, axis=1, kind="stable")[:, :kk]
            best_d = np.take_along_axis(cand_d, ordd, axis=1)
            best_i = np.take_along_axis(cand_i, ordd, axis=1)
        return best_i, best_d.astype(np.float64)
