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
were scheduled.  ``kind`` indexes the table of bound handlers
:meth:`WorkStealingSimulator.run` builds once per run; ``payload`` is the
task, the thief or the stolen task list.  At scale ~99 % of steal requests
fail, so a run is mostly message traffic and the loop is kept flat:
per-PE state lives in Python lists (scalar reads are NumPy's slow path),
``ClusterTopology.latency`` is O(1) arithmetic, and an event costs one
tuple.

Protocol summary
----------------
* A PE executes tasks from the *front* of its deque.
* A thief sends one steal request per victim per round; a victim services
  requests at arrival (communication is offloaded, as in an RDMA-capable
  runtime) by handing over the *back* half of its deque (configurable),
  keeping at least ``min_keep`` tasks.
* Failed rounds retry with exponential backoff until global work is
  exhausted; retries model the "few processors are able to find work"
  behaviour at scale (Fig. 9b).
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
    EV_TASK_ABANDONED,
    EV_TASK_END,
    EV_TASK_RETRY,
    EV_TASK_START,
    EV_WORKER_DEATH,
)
from ..obs.tracer import active
from .faults import FAULT_CRASH, FAULT_HANG, FaultInjector
from .stats import PEStats, SimResult
from .topology import ClusterTopology

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = ["StealPolicy", "WorkStealingSimulator", "run_static_phase"]


class StealPolicy(Protocol):
    """Victim-selection strategy (RAND-K / DIFFUSIVE / HYBRID live in
    :mod:`repro.core.work_stealing`)."""

    name: str

    def select_victims(
        self,
        thief: int,
        round_index: int,
        topology: ClusterTopology,
        rng: np.random.Generator,
    ) -> "list[int]":
        """PEs to request work from in this round (may be empty)."""
        ...


# Event kinds: positions in the handler table ``run`` dispatches through.
_TASK_DONE, _TASK_FAILED, _REDISPATCH, _STEAL_REQUEST, _STEAL_REPLY, _RETRY = range(6)


class WorkStealingSimulator:
    """Simulate one bulk phase of task execution with optional stealing.

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
        ``"half"`` (default) transfers half the victim's stealable deque;
        an int transfers at most that many tasks.
    min_keep:
        Victim never gives away its last ``min_keep`` queued tasks.
    transfer_cost:
        Extra latency per transferred task (ownership-transfer overhead).
    max_idle_rounds:
        Backoff cap; a thief never stops retrying before global
        exhaustion, but waits at most ``backoff_base * 2**cap`` between
        rounds.
    offload_service:
        When True, steal requests are serviced the instant they arrive
        (an RDMA-style communication thread).  The default (False) is the
        non-preemptive model: a busy victim replies only between tasks,
        which is how a single-threaded SPMD runtime behaves.
    tracer:
        Optional :class:`repro.obs.Tracer`.  Emits ``task_start`` /
        ``task_end`` and the steal protocol (``steal_request`` /
        ``steal_transfer`` / ``steal_fail`` / ``steal_reply``) as point
        events stamped with the simulator's virtual clock, and tallies
        steal/migration counters plus per-PE busy/idle histograms.  The
        default ``None`` emits nothing (zero overhead).
    fault_injector:
        Optional :class:`~repro.runtime.faults.FaultInjector`, polled
        with ``(task, attempt, worker=pe)`` each time a PE starts a task.
        ``"raise"`` burns the task's cost as ``wasted_time`` and retries
        it (back of the same deque, so it stays stealable); ``"hang"``
        adds ``fault.hang`` virtual seconds of cost; ``"crash"`` kills
        the PE — its queued regions are re-dispatched round-robin to the
        surviving PEs, paying per-task transfer latency, the exact
        failure analogue of steal-driven ownership transfer.  Tasks
        exceeding ``max_retries`` are abandoned (the simulator always
        degrades — it exists to *study* failures, not to die of them)
        and reported in ``SimResult.abandoned``.  Dead PEs answer steal
        requests with an immediate failure reply.  ``None`` (default)
        costs nothing.
    max_retries:
        Per-task retry budget when ``fault_injector`` is set.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        executor: Callable[[int, int], float],
        steal_policy: "StealPolicy | None" = None,
        steal_chunk: "str | int" = "half",
        min_keep: int = 1,
        transfer_cost: float = 2.0,
        backoff_base: float = 1.0,
        max_idle_rounds: int = 6,
        offload_service: bool = False,
        rng: np.random.Generator | None = None,
        tracer: "Tracer | None" = None,
        fault_injector: "FaultInjector | None" = None,
        max_retries: int = 2,
    ):
        if isinstance(steal_chunk, int) and steal_chunk < 1:
            raise ValueError("integer steal_chunk must be >= 1")
        if min_keep < 0:
            raise ValueError("min_keep must be >= 0")
        self.topology = topology
        self.executor = executor
        self.steal_policy = steal_policy
        self.steal_chunk = steal_chunk
        self.min_keep = min_keep
        self.transfer_cost = transfer_cost
        self.backoff_base = backoff_base
        self.max_idle_rounds = max_idle_rounds
        self.offload_service = offload_service
        self.rng = rng if rng is not None else np.random.default_rng(0)
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.fault_injector = fault_injector
        self.max_retries = max_retries
        #: normalised once: ``None`` means every emission site is one branch.
        self._tr = active(tracer)

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
        self._dead = [False] * P
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
        self._messages = 0
        self._deaths = 0
        self._attempts: "dict[int, int]" = {}
        self._abandoned: "list[int]" = []

        for p in range(P):
            self._activate(p, 0.0)

        # Indexed by event kind (the ``_TASK_DONE`` ... ``_RETRY`` constants).
        handlers = (
            self._on_task_done,
            self._on_task_failed,
            self._on_redispatch,
            self._on_steal_request,
            self._on_steal_reply,
            self._on_retry,
        )
        events, pop = self._events, heapq.heappop
        end_time = 0.0
        while events:
            now, _seq, kind, pe, payload = pop(events)
            if now > end_time:
                end_time = now
            handlers[kind](pe, now, payload)

        if self._tr is not None:
            self._record_metrics()
        return SimResult(
            pe_stats=self._stats,
            executed_by=self._executed_by,
            task_costs=self._task_costs,
            makespan=self._makespan,
            end_time=end_time,
            total_messages=self._messages,
            task_attempts=self._attempts,
            abandoned=sorted(self._abandoned),
            worker_deaths=self._deaths,
        )

    # -- internals ---------------------------------------------------------
    def _record_metrics(self) -> None:
        m = self._tr.metrics
        m.counter("steals_attempted").inc(
            sum(s.steal_requests_sent for s in self._stats)
        )
        m.counter("steals_succeeded").inc(sum(s.steals_serviced for s in self._stats))
        m.counter("steals_failed").inc(sum(s.steals_failed for s in self._stats))
        m.counter("tasks_migrated").inc(sum(s.tasks_lost for s in self._stats))
        busy = m.histogram("pe_busy_time")
        idle = m.histogram("pe_idle_time")
        for s in self._stats:
            busy.observe(s.work_time)
            idle.observe(max(self._makespan - s.work_time, 0.0))
        if self.fault_injector is not None:
            failed = sum(s.attempts_failed for s in self._stats)
            if failed:
                m.counter("task_attempts_failed").inc(failed)
            if self._abandoned:
                m.counter("tasks_abandoned").inc(len(self._abandoned))
            if self._deaths:
                m.counter("worker_deaths").inc(self._deaths)

    def _activate(self, pe: int, now: float) -> None:
        """Give PE its next unit of work, or start stealing, or go idle."""
        if self._busy[pe] or self._dead[pe]:
            return
        dq = self._deques[pe]
        if dq:
            task = dq.popleft()
            fault = None
            if self.fault_injector is not None:
                attempt = self._attempts.get(task, 0)
                self._attempts[task] = attempt + 1
                fault = self.fault_injector.poll(task, attempt, worker=pe)
                if fault is not None and fault.kind == FAULT_CRASH:
                    self._kill_pe(pe, now, task)
                    return
            cost = float(self.executor(task, pe))
            if cost < 0:
                raise ValueError(f"executor returned negative cost for task {task}")
            st = self._stats[pe]
            self._busy[pe] = True
            if fault is not None and fault.kind == FAULT_HANG:
                cost += fault.hang
            elif fault is not None:  # "raise": burn the cost, then fail
                st.wasted_time += cost
                st.attempts_failed += 1
                self._push((now + cost, self._seq(), _TASK_FAILED, pe, task))
                return
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
        self._busy[pe] = False
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
        # Non-preemptive service: reply to thieves that knocked while we
        # were executing, before picking up the next task.
        self._drain_requests(pe, now, self._service_steal)
        self._activate(pe, now)

    def _drain_requests(self, pe: int, now: float, answer) -> None:
        """Answer, in arrival order, every thief queued at ``pe``.  Answers
        only schedule events, so nothing joins the queue while it drains."""
        queued = self._queued_requests[pe]
        if queued:
            self._queued_requests[pe] = []
            for thief in queued:
                answer(pe, thief, now)

    # -- fault handling -----------------------------------------------------
    def _on_task_failed(self, pe: int, now: float, task: int) -> None:
        """A ``"raise"`` fault fired: the attempt burned its cost for
        nothing.  Retry goes to the *back* of the PE's own deque — natural
        backoff behind its queued work, and still stealable by others."""
        self._busy[pe] = False
        if self._may_retry(pe, task, now, "fault", "retries_exhausted"):
            self._deques[pe].append(task)
        self._drain_requests(pe, now, self._service_steal)
        self._activate(pe, now)

    def _kill_pe(self, pe: int, now: float, pending_task: int) -> None:
        """Crash fault: the PE dies as it picks up ``pending_task``.

        Its queued regions move to the surviving PEs round-robin, paying
        per-task transfer latency — involuntary ownership transfer, the
        failure analogue of a steal.  The in-flight task consumed its
        attempt; queued tasks migrate attempt-intact.
        """
        self._dead[pe] = True
        self._deaths += 1
        st = self._stats[pe]
        if self._tr is not None:
            self._tr.point(EV_WORKER_DEATH, ts=now, pe=pe, task=pending_task)
        lost = list(self._deques[pe])
        self._deques[pe].clear()
        if self._may_retry(pe, pending_task, now, "worker_death", "worker_death"):
            lost.append(pending_task)
        # Thieves queued at the dead PE get an immediate failure reply
        # (death detection), so their rounds complete instead of hanging.
        self._drain_requests(pe, now, self._reply_fail)
        st.tasks_lost += len(lost)
        st.messages_sent += len(lost)
        self._redispatch_tasks(lost, pe, now)

    def _redispatch_tasks(self, tasks: "list[int]", from_pe: int, now: float) -> None:
        """Round-robin tasks over surviving PEs, paying transfer latency."""
        survivors = [p for p, dead in enumerate(self._dead) if not dead]
        if not survivors:
            for t in tasks:
                self._abandon(t, now, "no_survivors")
            return
        for i, t in enumerate(tasks):
            target = survivors[i % len(survivors)]
            self._messages += 1
            delay = self.topology.latency(from_pe, target, payload=1) + self.transfer_cost
            self._push((now + delay, self._seq(), _REDISPATCH, target, t))

    def _on_redispatch(self, pe: int, now: float, task: int) -> None:
        if self._dead[pe]:
            # The chosen survivor died in transit; bounce onward.
            self._redispatch_tasks([task], pe, now)
            return
        self._stolen_marks.add(task)
        self._deques[pe].append(task)
        self._activate(pe, now)

    def _may_retry(self, pe: int, task: int, now: float, reason: str, if_spent: str) -> bool:
        """True (and a retry event) while ``task`` has retry budget left;
        otherwise abandon it for the reason ``if_spent``."""
        if self._attempts[task] > self.max_retries:
            self._abandon(task, now, if_spent)
            return False
        if self._tr is not None:
            self._tr.point(
                EV_TASK_RETRY, ts=now, pe=pe, task=task, attempt=self._attempts[task], reason=reason
            )
        return True

    def _abandon(self, task: int, now: float, reason: str) -> None:
        self._abandoned.append(task)
        self._remaining -= 1
        if self._tr is not None:
            self._tr.point(
                EV_TASK_ABANDONED,
                ts=now,
                task=task,
                attempts=self._attempts.get(task, 0),
                reason=reason,
            )

    def _start_steal_round(self, pe: int, now: float) -> None:
        victims = self.steal_policy.select_victims(
            pe, self._idle_rounds[pe], self.topology, self.rng
        )
        victims = [v for v in victims if v != pe]
        if not victims:
            self._schedule_retry(pe, now)
            return
        self._round_found[pe] = False
        self._pending_replies[pe] = len(victims)
        st = self._stats[pe]
        # ``latency`` range-checks each victim, so a policy that names a PE
        # outside the machine fails here with IndexError.
        latency, push, seq, tr = self.topology.latency, self._push, self._seq, self._tr
        for v in victims:
            st.steal_requests_sent += 1
            st.messages_sent += 1
            self._messages += 1
            if tr is not None:
                tr.point(EV_STEAL_REQUEST, ts=now, pe=pe, victim=v)
            push((now + latency(pe, v), seq(), _STEAL_REQUEST, v, pe))

    def _on_steal_request(self, victim: int, now: float, thief: int) -> None:
        self._stats[victim].steal_requests_received += 1
        if self._dead[victim]:
            self._reply_fail(victim, thief, now)
        elif self._busy[victim] and not self.offload_service:
            self._queued_requests[victim].append(thief)
        else:
            self._service_steal(victim, thief, now)

    def _service_steal(self, victim: int, thief: int, now: float) -> None:
        dq = self._deques[victim]
        stealable = len(dq) - self.min_keep
        if stealable <= 0:
            self._reply_fail(victim, thief, now)
            return
        if self.steal_chunk == "half":
            n = max(stealable // 2, 1)
        else:
            n = min(int(self.steal_chunk), stealable)
        tasks = [dq.pop() for _ in range(n)]  # steal from the back
        vst = self._stats[victim]
        vst.steals_serviced += 1
        vst.tasks_lost += n
        vst.messages_sent += 1
        self._messages += 1
        if self._tr is not None:
            self._tr.point(EV_STEAL_TRANSFER, ts=now, pe=victim, thief=thief, tasks=n)
        delay = self.topology.latency(victim, thief, payload=n) + self.transfer_cost * n
        self._push((now + delay, self._seq(), _STEAL_REPLY, thief, tasks))

    def _reply_fail(self, victim: int, thief: int, now: float) -> None:
        vst = self._stats[victim]
        vst.steals_failed += 1
        vst.messages_sent += 1
        self._messages += 1
        if self._tr is not None:
            self._tr.point(EV_STEAL_FAIL, ts=now, pe=victim, thief=thief)
        delay = self.topology.latency(victim, thief)
        self._push((now + delay, self._seq(), _STEAL_REPLY, thief, ()))

    def _on_steal_reply(self, thief: int, now: float, tasks: "Sequence[int]") -> None:
        self._pending_replies[thief] -= 1
        if self._tr is not None:
            self._tr.point(EV_STEAL_REPLY, ts=now, pe=thief, tasks=len(tasks))
        if self._dead[thief]:
            # The thief died while its request was in flight; the runtime
            # reclaims the transfer instead of stranding the tasks.
            if tasks:
                self._redispatch_tasks(tasks, thief, now)
        elif tasks:
            self._round_found[thief] = True
            self._idle_rounds[thief] = 0
            self._stolen_marks.update(tasks)
            self._deques[thief].extend(tasks)
            self._activate(thief, now)
        elif self._pending_replies[thief] == 0 and not self._round_found[thief]:
            # Whole round failed: back off and retry while work remains.
            self._idle_rounds[thief] += 1
            self._schedule_retry(thief, now)

    def _schedule_retry(self, pe: int, now: float) -> None:
        if self._remaining <= 0:
            return
        wait = self.backoff_base * (2.0 ** min(self._idle_rounds[pe], self.max_idle_rounds))
        self._push((now + wait, self._seq(), _RETRY, pe, None))

    def _on_retry(self, pe: int, now: float, _payload: None) -> None:
        if self._busy[pe] or self._deques[pe]:
            self._activate(pe, now)
        elif self._remaining > 0 and self._pending_replies[pe] == 0:
            self._start_steal_round(pe, now)


def run_static_phase(
    topology: ClusterTopology,
    executor: Callable[[int, int], float],
    assignment: "dict[int, int]",
    tracer: "Tracer | None" = None,
    fault_injector: "FaultInjector | None" = None,
    max_retries: int = 2,
) -> SimResult:
    """Execute a phase with no load balancing (the paper's baseline)."""
    return WorkStealingSimulator(
        topology, executor, tracer=tracer, fault_injector=fault_injector, max_retries=max_retries
    ).run(assignment)
