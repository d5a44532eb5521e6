"""Canonical top-k selection shared by the k-NN backends and kernels.

Every NN backend promises the same ordering: ascending distance, ties
broken by insertion (stored) order.  argpartition alone leaves ties at the
k-th distance unspecified, so these helpers gather *all* entries tying the
k-th distance and stable-sort them — the single implementation both
``BruteForceNN`` and the kernel backends' :func:`knn_block_min` use, so
cross-backend tests can compare results exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["select_canonical", "select_canonical_block", "select_canonical_rows"]


def select_canonical(d: np.ndarray, k_eff: int) -> np.ndarray:
    """Indices of the ``k_eff`` smallest entries of ``d`` under the
    canonical (distance, index) tie-break."""
    if k_eff >= d.size:
        return np.argsort(d, kind="stable")[:k_eff]
    part = np.argpartition(d, k_eff - 1)[:k_eff]
    kth = d[part].max()
    cand = np.nonzero(d <= kth)[0]
    return cand[np.argsort(d[cand], kind="stable")][:k_eff]


def select_canonical_block(block: np.ndarray, k_eff: int) -> np.ndarray:
    """:func:`select_canonical` along the last axis of an N-d ``block``:
    ``(..., k_eff)`` column indices.

    A stable ``argsort`` *is* the canonical order; wide rows are first
    narrowed to their ``4 * k_eff`` smallest entries (columns kept
    ascending, so the stable sort still breaks ties by column).  Only a
    finite k-th distance that ties the narrowed set's largest can have an
    equal outside it; those rare rows are re-selected individually.
    ``+inf`` entries (masked columns) may come back in any order —
    callers drop them.
    """
    narrow = 4 * k_eff
    if block.shape[-1] <= 2 * narrow:
        return np.argsort(block, axis=-1, kind="stable")[..., :k_eff]
    part = np.sort(np.argpartition(block, narrow - 1, axis=-1)[..., :narrow], axis=-1)
    dpart = np.take_along_axis(block, part, axis=-1)
    order = np.take_along_axis(
        part, np.argsort(dpart, axis=-1, kind="stable")[..., :k_eff], axis=-1
    )
    kth = np.take_along_axis(block, order[..., -1:], axis=-1)[..., 0]
    for row in zip(*np.nonzero(np.isfinite(kth) & (kth == dpart.max(axis=-1)))):
        order[row] = select_canonical(block[row], k_eff)
    return order


def select_canonical_rows(
    block: np.ndarray, k_eff: int
) -> "tuple[list[list[int]], list[list[float]]]":
    """Row-wise :func:`select_canonical` of a 2-D ``block`` as lists:
    (index rows, distance rows)."""
    order = select_canonical_block(block, k_eff)
    return order.tolist(), np.take_along_axis(block, order, axis=1).tolist()
