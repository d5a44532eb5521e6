"""Victim-selection policies for work-stealing parallel motion planning.

Section III-A of the paper defines three strategies:

* ``RAND-K`` — "a thief requests additional regions from k random
  processors, but not necessarily the same k processors for each
  request"; the paper fixes ``k = 8``.
* ``DIFFUSIVE`` — "processors are assumed to be arranged in a 2D mesh and
  underloaded processors will request neighboring processors for work".
* ``HYBRID`` — "first execute DIFFUSIVE stealing and in the event that no
  request could be serviced, requests are sent to random processors".

Policies plug into
:class:`~repro.runtime.simulator.WorkStealingSimulator`; the round index
it passes distinguishes a first attempt from retries after a fully
failed round, which is what HYBRID keys its fallback on.
A strategy name becomes a simulated phase in one place,
:func:`repro.core.machine.replay`, which both planners' drivers call:
``"none"`` and ``"repartition"`` run :func:`~repro.runtime.simulator.run_static_phase`,
and a steal policy runs the simulator with :func:`policy_by_name`'s policy.

The steal strategy names are ``repro.core.machine.STRATEGIES[2:]``.
"""

from __future__ import annotations

import numpy as np

from ..runtime.topology import ClusterTopology

__all__ = [
    "K",
    "RandKPolicy",
    "DiffusivePolicy",
    "HybridPolicy",
    "policy_by_name",
]

#: The paper's RAND-K victim count.
K = 8


class RandKPolicy:
    """Steal from ``K`` uniformly random distinct victims each round.

    Stream contract: a round draws
    ``rng.choice(P - 1, min(K, P - 1), replace=False)`` and shifts the
    indices at or past the thief up by one.  That consumes the generator
    exactly as choosing from the explicit array of the other ``P - 1``
    PEs does, so victim sequences — and every virtual time downstream of
    them — are a function of the seed alone, not of how the candidate set
    is spelt.
    """

    name = f"rand-{K}"

    def select_victims(
        self,
        thief: int,
        round_index: int,
        topology: ClusterTopology,
        rng: np.random.Generator,
    ) -> "list[int]":
        P = topology.num_pes
        if P <= 1:
            return []
        picks = rng.choice(P - 1, size=min(K, P - 1), replace=False).tolist()
        return [v + 1 if v >= thief else v for v in picks]


class DiffusivePolicy:
    """Steal only from 2D-mesh neighbours, every round."""

    name = "diffusive"

    def select_victims(
        self,
        thief: int,
        round_index: int,
        topology: ClusterTopology,
        rng: np.random.Generator,
    ) -> "list[int]":
        return topology.mesh_neighbors(thief)


class HybridPolicy:
    """Diffusive first; random fallback once a whole round fails."""

    name = f"hybrid(rand-{K})"
    _diffusive = DiffusivePolicy()
    _random = RandKPolicy()

    def select_victims(
        self,
        thief: int,
        round_index: int,
        topology: ClusterTopology,
        rng: np.random.Generator,
    ) -> "list[int]":
        if round_index == 0:
            return self._diffusive.select_victims(thief, round_index, topology, rng)
        return self._random.select_victims(thief, round_index, topology, rng)


def policy_by_name(name: str):
    """The steal policy of a strategy name (``STRATEGIES[2:]`` of
    :mod:`repro.core.machine`); names follow the paper."""
    table = {"rand-8": RandKPolicy, "diffusive": DiffusivePolicy, "hybrid": HybridPolicy}
    try:
        return table[name]()
    except KeyError:
        raise KeyError(f"unknown steal policy {name!r}; known: {sorted(table)}") from None
