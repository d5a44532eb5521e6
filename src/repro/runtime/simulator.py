"""Event-driven simulator of a distributed-memory work-stealing machine.

This is the repository's stand-in for the STAPL runtime on the paper's
Cray XE6 / Opteron clusters.  Each processing element (PE) owns a deque of
tasks (regions) and a virtual clock.  Executing a task charges its cost —
obtained from the *real* sequential planner's operation counts — to the
PE's clock.  When a PE's deque runs dry it issues steal requests according
to a pluggable victim-selection policy; requests, replies and task
transfers pay topology-dependent latency (ownership transfer, Sec. II-A).

The simulation is deterministic: all randomness flows from an explicit
generator, and events are plain ``(time, seq, kind, pe, payload)`` tuples
on a binary heap.  ``seq`` is a per-run monotone counter, so ``(time,
seq)`` alone decides the order — ``heapq`` compares the tuples in C and
never looks past ``seq`` — and simultaneous events fire in the order they
were scheduled.  ``payload`` is the task, the stolen task list or — for a
steal request, whose ``pe`` is the thief — the victims.

**One event per arrival, not per message.**  At scale ~99 % of steal
requests fail, so a run is mostly message traffic.  A round's requests
therefore travel as one ``_STEAL_REQUEST`` event per distinct arrival
time ``now + latency(thief, victim)`` (at most two: intra- and
inter-node); it lists those victims in the order the policy named them,
and the loop serves them in that order.  That is exactly the order one
event per victim fires in:

* one event per victim takes consecutive ``seq`` values, so no other
  event sorts between two victims that arrive at the same time;
* whatever serving a victim schedules gets a larger ``seq`` and a time
  ``>= now`` (every delay is non-negative), so it sorts after the
  remaining victims — where it sorted when each was its own event.

The failed replies of one request bundle travel the same way: one
``_EMPTY_REPLIES`` event carries a mutable count cell.  It is pushed at
the bundle's first failure, so it takes the ``seq`` that reply would
have taken; each later failure that lands at the same time increments
the cell instead of pushing.  Serving a bundle pushes nothing else (a
request never causes a transfer, by the invariant below), so the merged
replies would have taken consecutive ``seq`` values, and what the thief
schedules on the last one sorts after them, by the two steps above: the
thief's handler — ``pending -= count``, then the per-message logic for
the last reply — replays them exactly.  Replies sent as a task ends go
to distinct thieves (a thief has at most one request per victim in
flight) and stay one event each.

Neither rule depends on the latencies' values: they hold when
``latency_local == 0`` (replies land at ``now``) and when
``latency_local == latency_remote`` (the whole round is one event).
Every per-message path — a request queued or failed, an empty reply, a
retry — runs inline in :meth:`WorkStealingSimulator.run`'s loop on
per-PE state held in Python lists (scalar reads are NumPy's slow path),
and a zero-payload message reads its latency from the topology's node
table; the rare transfer is a method.

**One victim stream per run.**  ``run`` binds the policy's
:meth:`StealPolicy.victim_source` once and asks it once per round; the
source, not the policy, holds what the run needs (a neighbour table, a
drawn block).  RAND-K draws its stream in blocks of rounds — a round's
victims depend on the seed alone, and the thief only shifts the indices
— and the run closes the source at its end, which rewinds the generator
to where one draw per round leaves it.

Protocol summary
----------------
One protocol, the paper's (Alg. 3, Sec. III-A), with fixed constants:

* A PE executes tasks from the *front* of its deque, one at a time and
  without preemption.
* A thief sends one steal request per victim per round.  A victim busy
  with a task queues the requests and answers them in arrival order as
  the task ends, as a single-threaded SPMD runtime does: it hands over
  the *back* half of its deque (``steal_chunk``), keeping at least
  ``MIN_KEEP`` tasks, or replies with a failure.  A transfer pays
  ``TRANSFER_COST`` per task on top of the message latency.
* A victim that is not busy fails a request at arrival.
* Failed rounds retry with exponential backoff, ``BACKOFF_BASE * 2**k``
  after ``k`` failed rounds with ``k`` capped at ``MAX_IDLE_ROUNDS``,
  until global work is exhausted; retries model the "few processors are
  able to find work" behaviour at scale (Fig. 9b).

**Invariant: a PE that is not busy has an empty deque.**  It holds at
every event boundary: ``_activate`` sets ``busy`` whenever it pops a
task, and both paths that fill a PE's deque — the start of a run and a
steal reply — call ``_activate`` before the next event is popped.  So a
request that meets a victim which is not busy finds nothing to steal,
and tasks leave a victim in one place only: as its task ends.

The machine is the paper's: it never fails.  Injected faults belong to
the local pool (:mod:`repro.runtime.local_pool`), which runs real tasks.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import deque
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

import numpy as np

from ..obs.events import (
    EV_STEAL_FAIL,
    EV_STEAL_REPLY,
    EV_STEAL_REQUEST,
    EV_STEAL_TRANSFER,
    EV_TASK_END,
    EV_TASK_START,
)
from .stats import PEStats, SimResult
from .topology import ClusterTopology

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = [
    "StealPolicy",
    "VictimSource",
    "WorkStealingSimulator",
    "run_static_phase",
    "validate_steal_chunk",
]

#: A victim never gives away its last ``MIN_KEEP`` queued tasks.
MIN_KEEP = 1
#: Extra latency per transferred task (ownership-transfer overhead).
TRANSFER_COST = 2.0
#: A thief waits ``BACKOFF_BASE * 2**k`` after ``k`` failed rounds, with
#: ``k`` capped at ``MAX_IDLE_ROUNDS``: 1, 2, 4, ..., 64 virtual seconds.
#: It never stops retrying before global exhaustion.
BACKOFF_BASE = 1.0
MAX_IDLE_ROUNDS = 6
#: ``_WAITS[k]`` is the wait after ``k`` failed rounds.
_WAITS = tuple(BACKOFF_BASE * 2.0 ** k for k in range(MAX_IDLE_ROUNDS + 1))


def validate_steal_chunk(steal_chunk: "str | int") -> None:
    """Raise ``ValueError`` unless ``steal_chunk`` is ``"half"`` or an
    int >= 1 (a bool is refused, not read as 0 or 1)."""
    if isinstance(steal_chunk, str) and steal_chunk == "half":
        return
    if isinstance(steal_chunk, bool) or not isinstance(steal_chunk, int) or steal_chunk < 1:
        raise ValueError(f'steal_chunk must be "half" or an int >= 1, got {steal_chunk!r}')


class VictimSource(Protocol):
    """One run's victim stream, bound once per run by
    :meth:`StealPolicy.victim_source`; it holds the run's state (tables,
    drawn blocks), so a policy object holds none."""

    def __call__(self, thief: int, round_index: int) -> "Sequence[int]":
        """PEs to request work from in this round (may be empty; the
        simulator drops the thief if it is listed)."""
        ...

    def close(self) -> None:
        """End of the run: leave the generator where one draw per round
        leaves it."""
        ...


class StealPolicy(Protocol):
    """Victim-selection strategy (RAND-K / DIFFUSIVE / HYBRID live in
    :mod:`repro.core.work_stealing`)."""

    name: str

    def victim_source(
        self, topology: ClusterTopology, rng: np.random.Generator
    ) -> VictimSource:
        """A fresh source for one run on ``topology`` drawing from ``rng``."""
        ...


# Event kinds.  A ``_STEAL_REPLY`` carries stolen tasks, an
# ``_EMPTY_REPLIES`` the count cell of a bundle's failed replies.
_TASK_DONE, _STEAL_REQUEST, _STEAL_REPLY, _RETRY, _EMPTY_REPLIES = range(5)


class WorkStealingSimulator:
    """Simulate one bulk phase of task execution with optional stealing.

    It runs the module's one protocol: ``MIN_KEEP``, ``TRANSFER_COST``,
    ``BACKOFF_BASE`` and ``MAX_IDLE_ROUNDS`` are module constants, and a
    PE that is not busy has an empty deque at every event boundary.

    Parameters
    ----------
    topology:
        Machine model (latencies, mesh, nodes).
    executor:
        ``executor(task_id, pe) -> float`` returns the virtual cost of the
        task; side effects (building the actual roadmap) happen inside.
    steal_policy:
        ``None`` disables stealing (static execution).
    steal_chunk:
        ``"half"`` (default) transfers half the victim's stealable deque
        (all but its last ``MIN_KEEP`` tasks); an int transfers at most
        that many tasks.
    tracer:
        Optional :class:`repro.obs.Tracer`.  Emits ``task_start`` /
        ``task_end`` and the steal protocol (``steal_request`` /
        ``steal_transfer`` / ``steal_fail`` / ``steal_reply``) as point
        events stamped with the simulator's virtual clock; the trace
        summariser recounts every steal, migration and per-PE busy time
        from them.  The default ``None`` emits nothing (zero overhead).
    """

    def __init__(
        self,
        topology: ClusterTopology,
        executor: Callable[[int, int], float],
        steal_policy: "StealPolicy | None" = None,
        steal_chunk: "str | int" = "half",
        rng: np.random.Generator | None = None,
        tracer: "Tracer | None" = None,
    ):
        validate_steal_chunk(steal_chunk)
        self.topology = topology
        self.executor = executor
        self.steal_policy = steal_policy
        self.steal_chunk = steal_chunk
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: ``None`` means every emission site is one branch.
        self._tr = tracer

    # -- public API ---------------------------------------------------------
    def run(self, assignment: "dict[int, int]") -> SimResult:
        """Execute all tasks given the initial ``task -> PE`` assignment."""
        P = self.topology.num_pes
        self._deques: "list[deque[int]]" = [deque() for _ in range(P)]
        # Stable initial order: sorted task ids per PE.
        for task in sorted(assignment):
            pe = assignment[task]
            if not 0 <= pe < P:
                raise ValueError(f"task {task} assigned to invalid PE {pe}")
            self._deques[pe].append(task)

        self._stats = [PEStats(pe=p) for p in range(P)]
        self._busy = [False] * P
        self._stolen_marks: "set[int]" = set()
        self._executed_by: "dict[int, int]" = {}
        self._task_costs: "dict[int, float]" = {}
        self._remaining = len(assignment)
        self._queued_requests: "list[list[int]]" = [[] for _ in range(P)]
        self._pending_replies = [0] * P
        self._round_found = [False] * P
        self._idle_rounds = [0] * P
        #: the heap of ``(time, seq, kind, pe, payload)`` events; ``_push``
        #: takes one such tuple, ``_seq()`` hands out the next tie-breaker.
        self._events: "list[tuple[float, int, int, int, object]]" = []
        self._push = functools.partial(heapq.heappush, self._events)
        self._seq = itertools.count(1).__next__
        self._makespan = 0.0
        policy = self.steal_policy
        #: the run's one victim stream; ``None`` in a static phase.
        self._victims = None if policy is None else policy.victim_source(self.topology, self.rng)

        for p in range(P):
            self._activate(p, 0.0)

        events, pop, push, seq = self._events, heapq.heappop, self._push, self._seq
        stats, deques, busy = self._stats, self._deques, self._busy
        queues, pending, found = self._queued_requests, self._pending_replies, self._round_found
        idle_rounds = self._idle_rounds
        tr, activate, hand_over = self._tr, self._activate, self._hand_over
        task_done = self._on_task_done
        topo = self.topology
        node, local, remote = topo.pe_node, topo.latency_local, topo.latency_remote
        end_time = 0.0
        while events:
            now, _seq, kind, pe, payload = pop(events)
            if now > end_time:
                end_time = now
            if kind == _EMPTY_REPLIES:
                # ``payload[0]`` failed replies to thief ``pe``, back to back.
                count = payload[0]
                pending[pe] -= count
                if tr is not None:
                    for _ in range(count):
                        tr.point(EV_STEAL_REPLY, ts=now, pe=pe, tasks=0)
                if pending[pe] == 0 and not found[pe]:
                    # Whole round failed: back off and retry while work remains.
                    idle_rounds[pe] += 1
                    self._schedule_retry(pe, now)
                continue
            if kind == _STEAL_REQUEST:
                # Thief ``pe``'s requests to every victim in ``payload``.  A
                # busy victim queues one; any other has an empty deque (the
                # invariant), so it fails the request at once.  The failed
                # replies gather in the open count cell ``fails``.
                here, fails, fails_at = node[pe], None, 0.0
                for victim in payload:
                    vst = stats[victim]
                    vst.steal_requests_received += 1
                    if busy[victim]:
                        queues[victim].append(pe)  # non-preemptive service
                        continue
                    vst.steals_failed += 1
                    if tr is not None:
                        tr.point(EV_STEAL_FAIL, ts=now, pe=victim, thief=pe)
                    # One time per bundle, unless the near and far arrival
                    # times rounded to one float and merged the two bundles.
                    at = now + (local if node[victim] == here else remote)
                    if fails is not None and at == fails_at:
                        fails[0] += 1
                    else:
                        fails, fails_at = [1], at
                        push((at, seq(), _EMPTY_REPLIES, pe, fails))
                continue
            if kind == _STEAL_REPLY:
                # A transfer: the thief owns ``payload`` now.
                pending[pe] -= 1
                if tr is not None:
                    tr.point(EV_STEAL_REPLY, ts=now, pe=pe, tasks=len(payload))
                found[pe] = True
                idle_rounds[pe] = 0
                self._stolen_marks.update(payload)
                deques[pe].extend(payload)
                activate(pe, now)
                continue
            if kind == _RETRY:
                if busy[pe] or deques[pe]:
                    activate(pe, now)
                elif self._remaining > 0 and pending[pe] == 0:
                    self._start_steal_round(pe, now)
                continue
            # A task ended: ``pe`` is free, and answers the thieves that
            # knocked while it worked, in arrival order; each thief is a
            # distinct PE.
            task_done(pe, now, payload)
            busy[pe] = False
            thieves = queues[pe]
            if thieves:
                queues[pe] = []
                here = node[pe]
                for thief in thieves:
                    stealable = len(deques[pe]) - MIN_KEEP
                    if stealable > 0:
                        hand_over(pe, thief, stealable, now)
                        continue
                    stats[pe].steals_failed += 1
                    if tr is not None:
                        tr.point(EV_STEAL_FAIL, ts=now, pe=pe, thief=thief)
                    at = now + (local if node[thief] == here else remote)
                    push((at, seq(), _EMPTY_REPLIES, thief, [1]))
            activate(pe, now)
        if self._victims is not None:
            self._victims.close()

        # Steal traffic is tallied from the per-PE request / transfer /
        # failure counters once the run is over.
        messages = 0
        for st in stats:
            sent = st.steal_requests_sent + st.steals_serviced + st.steals_failed
            st.messages_sent += sent
            messages += sent
        return SimResult(
            pe_stats=stats,
            executed_by=self._executed_by,
            task_costs=self._task_costs,
            makespan=self._makespan,
            end_time=end_time,
            total_messages=messages,
        )

    # -- internals ---------------------------------------------------------
    def _activate(self, pe: int, now: float) -> None:
        """Give PE its next unit of work, or start stealing, or go idle."""
        if self._busy[pe]:
            return
        dq = self._deques[pe]
        if dq:
            task = dq.popleft()
            cost = float(self.executor(task, pe))
            if cost < 0:
                raise ValueError(f"executor returned negative cost for task {task}")
            st = self._stats[pe]
            self._busy[pe] = True
            self._executed_by[task] = pe
            self._task_costs[task] = cost
            st.tasks_executed += 1
            st.work_time += cost
            stolen = task in self._stolen_marks
            if stolen:
                st.tasks_stolen_executed += 1
            if self._tr is not None:
                self._tr.point(
                    EV_TASK_START, ts=now, pe=pe, task=task, cost=cost, stolen=stolen
                )
            self._push((now + cost, self._seq(), _TASK_DONE, pe, task))
        elif (
            self.steal_policy is not None
            and self._remaining > 0
            and self._pending_replies[pe] == 0
        ):
            self._start_steal_round(pe, now)
        # Otherwise: idle; will be woken by a steal reply or stay idle at end.

    def _on_task_done(self, pe: int, now: float, task: int) -> None:
        """Bookkeeping of a finished task; ``run`` then frees the PE,
        answers the thieves queued at it and activates it."""
        self._remaining -= 1
        if now > self._makespan:
            self._makespan = now
        self._stats[pe].finish_time = now
        if self._tr is not None:
            self._tr.point(
                EV_TASK_END,
                ts=now,
                pe=pe,
                task=task,
                cost=self._task_costs[task],
                stolen=task in self._stolen_marks,
            )

    def _hand_over(self, victim: int, thief: int, stealable: int, now: float) -> None:
        """``victim`` serves ``thief`` from the back of its deque: one
        transfer reply carrying the stolen tasks."""
        chunk = self.steal_chunk
        n = max(stealable // 2, 1) if chunk == "half" else min(chunk, stealable)
        dq = self._deques[victim]
        tasks = [dq.pop() for _ in range(n)]
        vst = self._stats[victim]
        vst.steals_serviced += 1
        vst.tasks_lost += n
        if self._tr is not None:
            self._tr.point(EV_STEAL_TRANSFER, ts=now, pe=victim, thief=thief, tasks=n)
        delay = self.topology.latency(victim, thief, payload=n) + TRANSFER_COST * n
        self._push((now + delay, self._seq(), _STEAL_REPLY, thief, tasks))

    def _start_steal_round(self, pe: int, now: float) -> None:
        victims = self._victims(pe, self._idle_rounds[pe])
        if pe in victims:
            victims = [v for v in victims if v != pe]
        if not victims:
            self._schedule_retry(pe, now)
            return
        topo = self.topology
        # A negative PE would wrap in the per-PE lists, so both ends are
        # refused here, before any request is counted.
        lo, hi = min(victims), max(victims)
        if lo < 0 or hi >= topo.num_pes:
            raise IndexError(f"PE {lo if lo < 0 else hi} out of range [0, {topo.num_pes})")
        self._round_found[pe] = False
        self._pending_replies[pe] = len(victims)
        self._stats[pe].steal_requests_sent += len(victims)
        if self._tr is not None:
            for v in victims:
                self._tr.point(EV_STEAL_REQUEST, ts=now, pe=pe, victim=v)
        # One event per arrival time, members in policy order, bundles in
        # order of first appearance (module docstring).
        at, far_at = now + topo.latency_local, now + topo.latency_remote
        if at != far_at:
            node, here = topo.pe_node, topo.pe_node[pe]
            near = [v for v in victims if node[v] == here]
            if not near:
                at = far_at
            elif len(near) < len(victims):
                far = [v for v in victims if node[v] != here]
                bundles = ((at, near), (far_at, far))
                for t, bundle in bundles if near[0] == victims[0] else bundles[::-1]:
                    self._push((t, self._seq(), _STEAL_REQUEST, pe, bundle))
                return
        self._push((at, self._seq(), _STEAL_REQUEST, pe, victims))

    def _schedule_retry(self, pe: int, now: float) -> None:
        if self._remaining <= 0:
            return
        wait = _WAITS[min(self._idle_rounds[pe], MAX_IDLE_ROUNDS)]
        self._push((now + wait, self._seq(), _RETRY, pe, None))


def run_static_phase(
    topology: ClusterTopology,
    executor: Callable[[int, int], float],
    assignment: "dict[int, int]",
    tracer: "Tracer | None" = None,
) -> SimResult:
    """Execute a phase with no load balancing (the paper's baseline)."""
    return WorkStealingSimulator(topology, executor, tracer=tracer).run(assignment)
