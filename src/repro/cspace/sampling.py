"""The PRM's sampler: uniform rejection sampling.

:class:`UniformSampler` produces *valid* (collision-free) configurations
from a configuration space, optionally restricted to a sub-region (the
regional planning used by uniform subdivision), and reports how many raw
attempts it consumed via the returned :class:`SampleBatch`, since attempts
(not accepted samples) are what cost collision-detection time.
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
        within: "AABB | Sequence[AABB] | None" = None,
    ) -> "SampleBatch | list[SampleBatch]":
        """``n`` valid samples from ``rng``, or — given a sequence of
        generators — one :class:`SampleBatch` per segment (``n`` and
        ``within`` a scalar for all, or one per segment).

        Segments advance in lock-step rounds: every segment still short
        of its budget draws its round from its own generator, the
        candidates are validated in **one** ``cspace.valid`` call and
        split back.  A segment's draws depend only on its own generator
        and its own verdicts, so each batch is bit-identical to a
        one-segment call — which is the one-segment case of this loop.
        """
        single = isinstance(rng, np.random.Generator)
        rngs = [rng] if single else list(rng)
        g = len(rngs)
        need = [n] * g if isinstance(n, (int, np.integer)) else [int(x) for x in n]
        boxes = list(within) if isinstance(within, (list, tuple)) else [within] * g
        if not len(need) == len(boxes) == g:
            raise ValueError("one sample budget and one box per generator")
        accepted: "list[list[np.ndarray]]" = [[] for _ in range(g)]
        attempts = [0] * g
        empty_rounds = [0] * g
        for _ in range(self.max_rounds):
            live = [
                s for s in range(g)
                if need[s] > 0 and empty_rounds[s] < self.empty_round_limit
            ]
            if not live:
                break
            sizes = [max(need[s], 4) for s in live]
            cand = [cspace.sample(rngs[s], b, within=boxes[s]) for s, b in zip(live, sizes)]
            ok = cspace.valid(cand[0] if len(cand) == 1 else np.concatenate(cand))
            lo = 0
            for s, b, c in zip(live, sizes, cand):
                attempts[s] += b
                got = c[ok[lo : lo + b]][: need[s]]
                lo += b
                if got.size:
                    accepted[s].append(got)
                    need[s] -= got.shape[0]
                    empty_rounds[s] = 0
                else:
                    empty_rounds[s] += 1
        batches = [
            SampleBatch(np.vstack(acc) if acc else np.empty((0, cspace.dim)), att)
            for acc, att in zip(accepted, attempts)
        ]
        return batches[0] if single else batches
