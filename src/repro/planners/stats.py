"""Work accounting shared by the sequential planners.

The simulated distributed runtime charges virtual time per unit of planner
work.  :class:`PlannerStats` is the ledger: every sampler attempt, local
plan resolution step and NN distance evaluation a sequential planner
performs inside a region is recorded here and later converted to virtual
seconds by :class:`WorkModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import add, attrgetter
from typing import Iterable

__all__ = ["PlannerStats", "WorkModel"]


@dataclass
class PlannerStats:
    """Operation counts for one (regional) planner invocation."""

    sample_attempts: int = 0
    samples_accepted: int = 0
    nn_queries: int = 0
    nn_distance_evals: int = 0
    lp_calls: int = 0
    lp_checks: int = 0
    lp_successes: int = 0
    edges_added: int = 0
    #: NN-structure maintenance (nonzero only with the ``incremental``
    #: backend): rung merge-rebuilds, queries answered from the brute
    #: buffer, and distance evaluations saved versus a flat scan.
    nn_rebuilds: int = 0
    nn_buffer_hits: int = 0
    nn_evals_saved: int = 0

    def merge(self, other: "PlannerStats") -> "PlannerStats":
        return PlannerStats(*map(add, _counts(self), _counts(other)))

    def __iadd__(self, other: "PlannerStats") -> "PlannerStats":
        for name, total in zip(_NAMES, map(add, _counts(self), _counts(other))):
            setattr(self, name, total)
        return self

    @classmethod
    def total(cls, ledgers: "Iterable[PlannerStats]") -> "PlannerStats":
        """The field-wise sum of ``ledgers`` (zeros for none), in one pass."""
        return cls(*map(sum, zip(*map(_counts, ledgers))))


#: The ledger's fields in declaration order, and a getter of all their values.
_NAMES = tuple(f.name for f in fields(PlannerStats))
_counts = attrgetter(*_NAMES)


@dataclass(frozen=True)
class WorkModel:
    """Converts operation counts into virtual time.

    Coefficients are per-operation costs in abstract seconds.  Defaults
    reflect the paper's observation that local planning (edge validation)
    dominates: an LP resolution step costs the same as a validity check of
    one sample attempt, and NN distance evaluations are an order of
    magnitude cheaper.
    """

    cost_sample_attempt: float = 1.0
    cost_lp_check: float = 1.0
    cost_nn_eval: float = 0.1
    cost_fixed_per_call: float = 0.0

    def time_of(self, stats: PlannerStats) -> float:
        return (
            self.cost_sample_attempt * stats.sample_attempts
            + self.cost_lp_check * stats.lp_checks
            + self.cost_nn_eval * stats.nn_distance_evals
            + self.cost_fixed_per_call * stats.lp_calls
        )
