"""The PRM's sampler: uniform rejection sampling.

:class:`UniformSampler` produces *valid* (collision-free) configurations
from a configuration space, optionally restricted to a box (the regional
planning used by uniform subdivision), and reports how many raw attempts
it consumed via the returned :class:`SampleBatch`, since attempts (not
accepted samples) are what cost collision-detection time.

It samples a *block* of independent segments — one generator, budget and
box each, e.g. a block of regions — as array passes: per round one
``rng.random`` call per segment still short of its budget, then one
mapping of every row onto its box, one ``cspace.valid`` call and one
segmented rank that keeps each segment's first valid rows.  A lone
generator is the block of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..geometry.primitives import AABB
from .space import ConfigurationSpace

__all__ = ["SampleBatch", "UniformSampler"]


@dataclass
class SampleBatch:
    """Valid configurations plus the raw attempt count that produced them."""

    configs: np.ndarray
    attempts: int

    def __len__(self) -> int:
        return self.configs.shape[0]


def _box_rows(cspace: ConfigurationSpace, within, g: int) -> "tuple[np.ndarray, np.ndarray]":
    """``(g, d)`` lower corners and extents of the segments' boxes."""
    if within is None:
        within = cspace.bounds
    if isinstance(within, np.ndarray):
        lo, hi = within[:, 0], within[:, 1]
    else:
        lo, hi = (np.broadcast_to(end, (g, within.dim)) for end in (within.lo, within.hi))
    return lo, hi - lo


class UniformSampler:
    """Uniform rejection sampler: the one every PRM samples with.

    Gives up after ``empty_round_limit`` consecutive rounds with zero
    accepted samples — regions entirely inside obstacles cost a bounded
    number of wasted attempts instead of the full round budget.
    """

    def __init__(self, max_rounds: int = 32, empty_round_limit: int = 3):
        if empty_round_limit < 1:
            raise ValueError("empty_round_limit must be >= 1")
        self.max_rounds = max_rounds
        self.empty_round_limit = empty_round_limit

    def __call__(
        self,
        cspace: ConfigurationSpace,
        rng: "np.random.Generator | Sequence[np.random.Generator]",
        n: "int | Sequence[int]",
        within: "AABB | np.ndarray | None" = None,
    ) -> "SampleBatch | list[SampleBatch]":
        """``n`` valid samples from ``rng`` inside the box ``within``
        (default: the C-space bounds), or — given a sequence of generators
        — one :class:`SampleBatch` per segment.  ``n`` is then a scalar for
        all or one per segment, and ``within`` one box for all or a
        ``(g, 2, d)`` array whose row ``s`` is segment ``s``'s ``lo`` and
        ``hi``.

        Segments advance in lock-step rounds.  Every segment still short of
        its budget draws its round's uniforms from its own generator (the
        one call made per segment); every row is mapped onto its segment's
        box by one ``lo + (hi - lo) * u`` — the arithmetic of
        :meth:`AABB.from_unit_cube` — and validated in **one**
        ``cspace.valid`` call; each segment keeps its first ``need`` valid
        rows.  A segment's draws depend only on its own generator and its
        own verdicts, so each batch is bit-identical to a one-segment call
        — which is the block of one of this loop.
        """
        single = isinstance(rng, np.random.Generator)
        rngs = [rng] if single else list(rng)
        g = len(rngs)
        need = np.array([n] * g if isinstance(n, (int, np.integer)) else n, dtype=np.int64)
        lo, span = _box_rows(cspace, within, g)
        if not need.shape == (g,) == lo.shape[:1]:
            raise ValueError("one sample budget and one box per generator")
        dim = lo.shape[1] if g else cspace.dim
        attempts = np.zeros(g, dtype=np.int64)
        empty_rounds = np.zeros(g, dtype=np.int64)
        kept_seg, kept = [], []
        for _ in range(self.max_rounds):
            live = np.flatnonzero((need > 0) & (empty_rounds < self.empty_round_limit))
            if not live.size:
                break
            sizes = np.maximum(need[live], 4)
            unit = [rngs[s].random((b, dim)) for s, b in zip(live.tolist(), sizes.tolist())]
            seg = np.repeat(live, sizes)
            cand = lo[seg] + span[seg] * (unit[0] if len(unit) == 1 else np.concatenate(unit))
            ok = cspace.valid(cand)
            # A valid row's rank among its segment's valid rows of the round.
            before = np.cumsum(ok) - ok
            rank = before - np.repeat(before[np.cumsum(sizes) - sizes], sizes)
            keep = ok & (rank < np.repeat(need[live], sizes))
            got = np.bincount(seg[keep], minlength=g)
            attempts[live] += sizes
            need -= got
            empty_rounds[live] = np.where(got[live] > 0, 0, empty_rounds[live] + 1)
            kept_seg.append(seg[keep])
            kept.append(cand[keep])
        seg = np.concatenate(kept_seg) if kept else np.empty(0, dtype=np.int64)
        rows = np.concatenate(kept) if kept else np.empty((0, dim))
        # Rounds were appended in order, so a stable sort keeps each
        # segment's rows in the order it accepted them.
        rows = rows[np.argsort(seg, kind="stable")]
        ends = np.cumsum(np.bincount(seg, minlength=g)).tolist()
        batches = [
            SampleBatch(rows[start:end], tries)
            for start, end, tries in zip([0] + ends, ends, attempts.tolist())
        ]
        return batches[0] if single else batches
