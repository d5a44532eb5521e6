"""Samplers for sampling-based motion planning.

Samplers produce *valid* (collision-free) configurations from a
configuration space, optionally restricted to a sub-region (the regional
planning used by uniform subdivision).  All samplers share the interface

    sampler(cspace, rng, n, within=None) -> (m, dof) array, m <= n attempts

and report how many raw attempts they consumed via the returned
:class:`SampleBatch`, since attempts (not accepted samples) are what cost
collision-detection time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..geometry.primitives import AABB
from .space import ConfigurationSpace

__all__ = [
    "SampleBatch",
    "UniformSampler",
    "GaussianSampler",
    "ObstacleBasedSampler",
    "BridgeTestSampler",
    "MixtureSampler",
]


@dataclass
class SampleBatch:
    """Valid configurations plus the raw attempt count that produced them."""

    configs: np.ndarray
    attempts: int

    def __len__(self) -> int:
        return self.configs.shape[0]


class UniformSampler:
    """Uniform rejection sampler: the PRM default.

    Gives up after ``empty_round_limit`` consecutive rounds with zero
    accepted samples — regions entirely inside obstacles cost a bounded
    number of wasted attempts instead of the full round budget.
    """

    name = "uniform"

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


class GaussianSampler:
    """Gaussian sampler (Boor et al.): keeps a valid sample whose Gaussian
    neighbour is invalid — biases samples toward obstacle boundaries, which
    helps narrow passages."""

    name = "gaussian"

    def __init__(self, sigma: float = 0.5, max_rounds: int = 64, empty_round_limit: int = 3):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if empty_round_limit < 1:
            raise ValueError("empty_round_limit must be >= 1")
        self.sigma = sigma
        self.max_rounds = max_rounds
        self.empty_round_limit = empty_round_limit

    def __call__(
        self,
        cspace: ConfigurationSpace,
        rng: np.random.Generator,
        n: int,
        within: AABB | None = None,
    ) -> SampleBatch:
        region = within if within is not None else cspace.bounds
        accepted: list[np.ndarray] = []
        attempts = 0
        need = n
        empty_rounds = 0
        for _ in range(self.max_rounds):
            if need <= 0 or empty_rounds >= self.empty_round_limit:
                break
            batch = max(need * 2, 8)
            q1 = cspace.sample(rng, batch, within=within)
            q2 = region.clamp(q1 + rng.normal(scale=self.sigma, size=q1.shape))
            attempts += 2 * batch
            v1 = cspace.valid(q1)
            v2 = cspace.valid(q2)
            keep = v1 & ~v2
            got = q1[keep][:need]
            if got.size:
                accepted.append(got)
                need -= got.shape[0]
                empty_rounds = 0
            else:
                empty_rounds += 1
        configs = np.vstack(accepted) if accepted else np.empty((0, cspace.dim))
        return SampleBatch(configs, attempts)


class ObstacleBasedSampler:
    """OBPRM-style sampler: shoot from an invalid sample toward a valid one
    and keep the valid configuration nearest the obstacle boundary."""

    name = "obstacle"

    def __init__(self, steps: int = 8, max_rounds: int = 64):
        self.steps = steps
        self.max_rounds = max_rounds

    def __call__(
        self,
        cspace: ConfigurationSpace,
        rng: np.random.Generator,
        n: int,
        within: AABB | None = None,
    ) -> SampleBatch:
        accepted: list[np.ndarray] = []
        attempts = 0
        need = n
        for _ in range(self.max_rounds):
            if need <= 0:
                break
            q_in = cspace.sample(rng, within=within)
            q_out = cspace.sample(rng, within=within)
            attempts += 2
            if not cspace.valid_single(q_in) and cspace.valid_single(q_out):
                # Binary search for the boundary from the free side.
                lo_cfg, hi_cfg = q_out, q_in
                for _ in range(self.steps):
                    mid = cspace.interpolate(lo_cfg, hi_cfg, 0.5)
                    attempts += 1
                    if cspace.valid_single(mid):
                        lo_cfg = mid
                    else:
                        hi_cfg = mid
                accepted.append(np.atleast_2d(lo_cfg))
                need -= 1
        configs = np.vstack(accepted) if accepted else np.empty((0, cspace.dim))
        return SampleBatch(configs, attempts)


class BridgeTestSampler:
    """Bridge-test sampler (Hsu et al.): keep the midpoint of two invalid
    endpoints when it is valid — strongly biased to narrow passages."""

    name = "bridge"

    def __init__(self, sigma: float = 1.5, max_rounds: int = 96, empty_round_limit: int = 3):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if empty_round_limit < 1:
            raise ValueError("empty_round_limit must be >= 1")
        self.sigma = sigma
        self.max_rounds = max_rounds
        self.empty_round_limit = empty_round_limit

    def __call__(
        self,
        cspace: ConfigurationSpace,
        rng: np.random.Generator,
        n: int,
        within: AABB | None = None,
    ) -> SampleBatch:
        region = within if within is not None else cspace.bounds
        accepted: list[np.ndarray] = []
        attempts = 0
        need = n
        empty_rounds = 0
        for _ in range(self.max_rounds):
            if need <= 0 or empty_rounds >= self.empty_round_limit:
                break
            batch = max(need * 4, 16)
            q1 = cspace.sample(rng, batch, within=within)
            q2 = region.clamp(q1 + rng.normal(scale=self.sigma, size=q1.shape))
            mid = 0.5 * (q1 + q2)
            attempts += 3 * batch
            keep = ~cspace.valid(q1) & ~cspace.valid(q2) & cspace.valid(mid)
            got = mid[keep][:need]
            if got.size:
                accepted.append(got)
                need -= got.shape[0]
                empty_rounds = 0
            else:
                empty_rounds += 1
        configs = np.vstack(accepted) if accepted else np.empty((0, cspace.dim))
        return SampleBatch(configs, attempts)


class MixtureSampler:
    """Split the sample budget across component samplers.

    Narrow-passage planning in practice mixes uniform sampling with an
    obstacle-biased sampler (Gaussian / OBPRM / bridge).  The mixture
    concentrates samples — and therefore connection work — in regions near
    obstacle surfaces, which is the load heterogeneity the paper's
    narrow-passage environments exhibit.  In obstacle-free space the
    biased components accept nothing, so the mixture degrades gracefully
    to (a fraction of) uniform sampling and the workload stays balanced.
    """

    def __init__(self, samplers, proportions=None):
        self.samplers = list(samplers)
        if not self.samplers:
            raise ValueError("MixtureSampler needs at least one component")
        if proportions is None:
            proportions = [1.0 / len(self.samplers)] * len(self.samplers)
        proportions = [float(p) for p in proportions]
        if len(proportions) != len(self.samplers):
            raise ValueError("proportions length mismatch")
        if any(p < 0 for p in proportions) or sum(proportions) <= 0:
            raise ValueError("proportions must be non-negative and sum > 0")
        total = sum(proportions)
        self.proportions = [p / total for p in proportions]
        self.name = "mix(" + "+".join(s.name for s in self.samplers) + ")"

    def __call__(
        self,
        cspace: ConfigurationSpace,
        rng: np.random.Generator,
        n: int,
        within: AABB | None = None,
    ) -> SampleBatch:
        parts: "list[np.ndarray]" = []
        attempts = 0
        remaining = n
        for i, (sampler, frac) in enumerate(zip(self.samplers, self.proportions)):
            quota = round(n * frac) if i < len(self.samplers) - 1 else remaining
            quota = min(quota, remaining)
            if quota <= 0:
                continue
            batch = sampler(cspace, rng, quota, within=within)
            attempts += batch.attempts
            if len(batch):
                parts.append(batch.configs)
            remaining -= len(batch)
        configs = np.vstack(parts) if parts else np.empty((0, cspace.dim))
        return SampleBatch(configs, attempts)
