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
:class:`~repro.runtime.simulator.WorkStealingSimulator`: a run binds the
policy's :meth:`victim_source` once, calls the source once per steal
round with the thief and the round index — which distinguishes a first
attempt from retries after a fully failed round, what HYBRID keys its
fallback on — and closes it when the run ends.  Per-run state (the
diffusive neighbour table, the RAND-K block and its generator position)
lives on the source, never on the policy: ``HybridPolicy`` shares
class-level policy instances.  ``select_victims`` is one round on its own
(the one-round-at-a-time oracle of ``tests/oracle.py`` calls it), drawn
by the same code as a block of one.
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
#: Rounds one RAND-K generator call draws ahead for a run.
BLOCK_ROUNDS = 256


def draw_rounds(rng: np.random.Generator, n: int, k: int, rounds: int) -> np.ndarray:
    """``rounds`` successive ``rng.choice(n, k, replace=False)`` rows, as
    one ``(rounds, k)`` array from one generator call.

    ``choice`` runs Floyd's algorithm — the ``i``-th pick is a bounded
    draw in ``[0, n - k + i]``, replaced by that bound when the row holds
    it already — then a swap pass whose ``k - 1`` bounded draws lie in
    ``[0, k - 1]`` down to ``[0, 1]``.  Here one ``rng.integers`` call
    draws every round's ``2k - 1`` bounded values (array bounds draw one
    element at a time, as ``choice`` does), and the collision fix-up and
    the swap pass run column by column over the block: the same rows and
    the same generator state as ``rounds`` calls of ``choice``.

    ``choice`` takes another algorithm (a tail shuffle) only when
    ``n > 10000`` and ``k > n // 50``, i.e. never for ``k <= K``: at
    ``k = 8`` the second test needs ``n < 450``.
    """
    bounds = np.concatenate((np.arange(n - k, n), np.arange(k - 1, 0, -1)))
    draws = rng.integers(0, np.tile(bounds + 1, rounds)).reshape(rounds, 2 * k - 1)
    picks = draws[:, :k].copy()
    for i in range(1, k):
        col = picks[:, i]
        col[(picks[:, :i] == col[:, None]).any(axis=1)] = n - k + i
    rows = np.arange(rounds)
    for c, i in enumerate(range(k - 1, 0, -1), start=k):
        j = draws[:, c]
        swapped = picks[rows, j]
        picks[rows, j] = picks[:, i]
        picks[:, i] = swapped
    return picks


class _RandKStream:
    """One run's RAND-K victims, drawn :data:`BLOCK_ROUNDS` rounds at a
    time.  :meth:`close` rewinds the generator to the current block's
    start and redraws the rounds the run used, so it ends where one
    ``choice`` call per round leaves it."""

    def __init__(self, num_pes: int, rng: np.random.Generator):
        self._rng, self._n = rng, num_pes - 1
        self._k = min(K, self._n)
        self._rows: "list[list[int]]" = []
        self._used = 0
        #: generator state before the current block; ``None`` before the first.
        self._start: "dict | None" = None

    def __call__(self, thief: int, round_index: int) -> "list[int]":
        if self._n < 1:
            return []
        if self._used == len(self._rows):
            self._start = self._rng.bit_generator.state
            self._rows = draw_rounds(self._rng, self._n, self._k, BLOCK_ROUNDS).tolist()
            self._used = 0
        row = self._rows[self._used]
        self._used += 1
        return [v + 1 if v >= thief else v for v in row]

    def close(self) -> None:
        if self._start is not None:
            self._rng.bit_generator.state = self._start
            draw_rounds(self._rng, self._n, self._k, self._used)
            self._start = None


class _NeighbourTable:
    """One run's diffusive victims: every PE's mesh neighbours, listed
    once.  It draws nothing, so closing it is a no-op."""

    def __init__(self, topology: ClusterTopology):
        self._table = [topology.mesh_neighbors(p) for p in range(topology.num_pes)]

    def __call__(self, thief: int, round_index: int) -> "list[int]":
        return self._table[thief]

    def close(self) -> None:
        pass


class _HybridStream:
    """Round 0 from the neighbour table, every retry from RAND-K."""

    def __init__(self, first: _NeighbourTable, then: _RandKStream):
        self._first, self._then = first, then

    def __call__(self, thief: int, round_index: int) -> "list[int]":
        return (self._then if round_index else self._first)(thief, round_index)

    def close(self) -> None:
        self._then.close()


class RandKPolicy:
    """Steal from ``K`` uniformly random distinct victims each round.

    Stream contract: a round draws
    ``rng.choice(P - 1, min(K, P - 1), replace=False)`` and shifts the
    indices at or past the thief up by one.  That consumes the generator
    exactly as choosing from the explicit array of the other ``P - 1``
    PEs does, so victim sequences — and every virtual time downstream of
    them — are a function of the seed alone, not of how the candidate set
    is spelt.  A run draws that stream :data:`BLOCK_ROUNDS` rounds per
    generator call (:func:`draw_rounds`); the rounds depend on the seed
    alone, not on the thieves, and closing the run's source rewinds the
    generator to where one draw per round leaves it.
    """

    name = f"rand-{K}"

    def victim_source(self, topology: ClusterTopology, rng: np.random.Generator) -> _RandKStream:
        return _RandKStream(topology.num_pes, rng)

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
        picks = draw_rounds(rng, P - 1, min(K, P - 1), 1)[0].tolist()
        return [v + 1 if v >= thief else v for v in picks]


class DiffusivePolicy:
    """Steal only from 2D-mesh neighbours, every round."""

    name = "diffusive"

    def victim_source(
        self, topology: ClusterTopology, rng: np.random.Generator
    ) -> _NeighbourTable:
        return _NeighbourTable(topology)

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

    def victim_source(self, topology: ClusterTopology, rng: np.random.Generator) -> _HybridStream:
        return _HybridStream(
            self._diffusive.victim_source(topology, rng),
            self._random.victim_source(topology, rng),
        )

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
