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
:func:`run_balanced_phase` is the one place a strategy name becomes a
simulated phase, shared by the PRM and RRT drivers.

Policies are fault-oblivious by design: under fault injection the
simulator lets a thief pick a dead PE as victim and answers with an
immediate failure reply (death detection), so selection statistics stay
comparable between healthy and degraded machines — DIFFUSIVE pays for a
dead mesh neighbour every round, while RAND-K merely wastes one of its
``k`` probes, which is exactly the policy difference worth studying.
"""

from __future__ import annotations

import numpy as np

from ..runtime.simulator import WorkStealingSimulator, run_static_phase
from ..runtime.stats import SimResult
from ..runtime.termination import detection_delay_tree
from ..runtime.topology import ClusterTopology

__all__ = [
    "POLICY_NAMES",
    "run_balanced_phase",
    "RandKPolicy",
    "DiffusivePolicy",
    "HybridPolicy",
    "policy_by_name",
]

#: Canonical strategy names accepted by :func:`policy_by_name`, in the
#: paper's order — the iteration set for policy-comparison studies.
POLICY_NAMES = ("rand-k", "rand-8", "diffusive", "hybrid")


class RandKPolicy:
    """Steal from ``k`` uniformly random distinct victims each round.

    Stream contract: a round draws ``rng.choice(P - 1, k, replace=False)``
    and shifts the indices at or past the thief up by one.  That consumes
    the generator exactly as choosing from the explicit array of the other
    ``P - 1`` PEs does, so victim sequences — and every virtual time
    downstream of them — are a function of the seed alone, not of how the
    candidate set is spelt.
    """

    def __init__(self, k: int = 8):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.name = f"rand-{k}"

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
        picks = rng.choice(P - 1, size=min(self.k, P - 1), replace=False).tolist()
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

    def __init__(self, k: int = 8):
        self.k = k
        self.name = f"hybrid(rand-{k})"
        self._diffusive = DiffusivePolicy()
        self._random = RandKPolicy(k)

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


def policy_by_name(name: str, k: int = 8):
    """Factory used by the benchmark drivers; names follow the paper."""
    table = {
        "rand-k": lambda: RandKPolicy(k),
        "rand-8": lambda: RandKPolicy(8),
        "diffusive": DiffusivePolicy,
        "hybrid": lambda: HybridPolicy(k),
    }
    try:
        return table[name]()
    except KeyError:
        raise KeyError(f"unknown steal policy {name!r}; known: {sorted(table)}") from None


def run_balanced_phase(
    topology: ClusterTopology,
    costs: "dict[int, float]",
    assignment: "dict[int, int]",
    strategy: str,
    steal_chunk: "str | int",
    rng_seed: int,
    **sim_options,
) -> "tuple[SimResult, float, dict[int, int]]":
    """Run the load-balanced phase of a simulated planner (PRM node
    connection, RRT branch growth) over ``assignment``.

    ``"none"`` and ``"repartition"`` execute statically (the assignment
    already is the balancing decision); any other ``strategy`` names a
    steal policy and pays termination detection afterwards.  Returns the
    simulator result, the termination delay and the post-phase ownership:
    a stolen region lives on its thief, an abandoned one (fault injection)
    keeps its pre-phase owner.  ``sim_options`` reach the simulator.
    """

    def executor(task: int, pe: int) -> float:
        return costs[task]

    if strategy in ("none", "repartition"):
        sim = run_static_phase(topology, executor, assignment, **sim_options)
        termination = 0.0
    else:
        sim = WorkStealingSimulator(
            topology,
            executor,
            steal_policy=policy_by_name(strategy),
            steal_chunk=steal_chunk,
            rng=np.random.default_rng(rng_seed),
            **sim_options,
        ).run(assignment)
        termination = detection_delay_tree(topology)
    return sim, termination, {**assignment, **sim.executed_by}
