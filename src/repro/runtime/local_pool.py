"""True-parallel execution of regional planners on the local machine.

The simulator answers "how would this behave on 3,072 cores?"; this module
answers "make it actually faster on my laptop".  Regions are executed by a
``concurrent.futures`` pool, with a greedy dynamic dispatcher that is the
shared-memory analogue of work stealing: workers pull the next unstarted
chunk of regions as they finish, so imbalance is absorbed automatically.

On the ``"process"`` backend the task callable is shipped to each worker
exactly once, through the pool initializer, instead of being pickled into
every submission — the callable closes over the whole planning context
(configuration space, decomposition, samplers), so per-submit pickling
used to dominate dispatch for small regions.  Each submission then carries
only a tuple of integer task ids.  The callable must still be picklable
(a module-level function or a functools partial of one), but it crosses
the process boundary once per worker rather than once per task.

For convenience a threads backend is also provided — with NumPy doing the
heavy lifting inside collision checks, threads get real speedups despite
the GIL.

Dispatch granularity is a pluggable policy (:mod:`repro.runtime.chunking`):
``chunksize`` accepts the historical fixed int, ``"guided"``
self-scheduling (chunks decay as ``remaining / (2 * workers)``), or
``"weighted"`` (equal-*weight* chunks from ``task_weights``).  A chunk is
also the block its worker may run in one call: a chunk of two or more
fresh tasks is offered to ``fn.run_block`` when the task callable has one
and no fault injector is installed (:func:`_run_block`); everything else
— one-task chunks, retries, injected runs, callables without the entry
point, a block that declines or raises — goes through the per-task loop.
Workers stamp true start times (``time.perf_counter`` is a shared
monotonic clock across fork on Linux), so traced ``task_start`` events are
measured, not reconstructed: per task in the loop, per chunk for a block,
whose tasks share its measured time in proportion to their work.  Every
run returns a :class:`DispatchStats`
on ``PoolResult.dispatch`` accounting chunks issued, bytes shipped,
ser-de time and shared-memory attaches — the observable cost of the data
plane that :mod:`repro.runtime.shm` exists to shrink.

Fault tolerance
---------------
Regions are independent subproblems, so a failed or lost regional planner
can be re-run anywhere without perturbing the others — the shared-memory
analogue of the paper's ownership transfer on steal.  The dispatcher
supports three failure policies:

* ``"fail_fast"`` (default) — the first failure propagates.
* ``"retry"`` — failed tasks are retried up to ``max_retries`` times with
  exponential backoff plus deterministic per-task jitter; exhaustion
  raises :class:`~repro.runtime.faults.TaskFailedError`.
* ``"degrade"`` — like ``"retry"``, but exhausted tasks are *abandoned*:
  the run completes and :class:`PoolResult` lists them in ``abandoned``.

Per-task timeouts (``task_timeout``) bound hung tasks: an expired
submission counts as a failed attempt for every unfinished task it
carried and is re-dispatched under the active policy.  Dead workers are
detected (a broken process pool, or a :class:`WorkerCrash` on the thread
backend); the pool is rebuilt and the in-flight regions re-dispatched to
surviving workers.  A deterministic
:class:`~repro.runtime.faults.FaultInjector` can inject failures for
testing.  Every run goes through the one dispatch loop; with no injector,
no timeout and ``fail_fast`` a failing task's own exception propagates
unwrapped.
"""

from __future__ import annotations

import heapq
import itertools
import os
import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..obs.events import (
    EV_POOL_DISPATCH,
    EV_SHM_ATTACH,
    EV_TASK_ABANDONED,
    EV_TASK_END,
    EV_TASK_RETRY,
    EV_TASK_START,
    EV_WORKER_DEATH,
)
from ..obs.tracer import active
from . import shm as _shm
from .chunking import policy_label, resolve_chunks, validate_chunksize
from .faults import (
    FAULT_CRASH,
    FAULT_HANG,
    FAULT_RAISE,
    FaultInjector,
    InjectedFault,
    TaskFailedError,
    WorkerCrash,
)

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = [
    "FAILURE_POLICIES",
    "DispatchStats",
    "PoolResult",
    "resolve_workers",
    "run_tasks_parallel",
]

FAILURE_POLICIES = ("fail_fast", "retry", "degrade")


def resolve_workers(workers: "int | None") -> int:
    """Resolve a worker count: ``None`` means every core on this machine.

    ``os.cpu_count()`` can itself return ``None`` on exotic platforms,
    in which case one worker is the only safe answer.
    """
    if workers is None:
        return os.cpu_count() or 1
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"workers must be an int >= 1 or None, got {workers!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


@dataclass
class DispatchStats:
    """What one pool run shipped to its workers, and how.

    ``context_bytes`` / ``task_bytes`` / ``serde_s`` are measured on the
    process backend (threads ship nothing).  The shm fields aggregate the
    worker-side attach records piggybacked on chunk results.
    """

    #: effective policy label: ``fixed-N``, ``guided`` or ``weighted``.
    chunk_policy: str = "fixed-1"
    chunks_issued: int = 0
    #: pickled size of the task callable (the shipped context), bytes.
    context_bytes: int = 0
    #: pickled size of all task-id submissions, bytes.
    task_bytes: int = 0
    #: dispatcher-side serialization time, seconds.
    serde_s: float = 0.0
    #: shm segments published for this run (filled by the caller).
    shm_segments: int = 0
    #: total bytes of those segments (filled by the caller).
    shm_bytes: int = 0
    #: worker-side segment mappings observed (first attach per worker).
    shm_attaches: int = 0
    #: worker-side attach-cache hits (segment already mapped).
    shm_attach_cached: int = 0
    #: cumulative worker-side attach time, seconds.
    shm_attach_s: float = 0.0


@dataclass
class PoolResult:
    """Results plus wall-clock and failure accounting of a parallel run."""

    results: "dict[int, object]"
    wall_time: float
    #: duration of the *successful* attempt only — failed attempts never
    #: pollute bench numbers (they are visible via ``attempts``).  Measured
    #: per task, except inside a chunk run as a block, whose measured time
    #: is apportioned by each task's share of the block's work.
    per_task_time: "dict[int, float]"
    workers: int
    #: task id -> number of attempts consumed (1 = first try succeeded).
    attempts: "dict[int, int]" = field(default_factory=dict)
    #: tasks given up on under the ``"degrade"`` policy, sorted.
    abandoned: "list[int]" = field(default_factory=list)
    #: failed attempts that were rescheduled.
    retries: int = 0
    #: dead workers detected (process deaths, or modelled thread crashes).
    worker_deaths: int = 0
    #: dispatch accounting: chunk policy, bytes shipped, shm attaches.
    dispatch: DispatchStats = field(default_factory=DispatchStats)

    @property
    def complete(self) -> bool:
        """True when no task was abandoned."""
        return not self.abandoned

    def slowest_task(self) -> "tuple[int, float] | None":
        """The (task id, duration) that took longest; ``None`` if no tasks ran."""
        if not self.per_task_time:
            return None
        task = max(self.per_task_time, key=self.per_task_time.get)
        return task, self.per_task_time[task]


# The worker-side task callable and fault plan, installed once per process
# by _pool_init.
_WORKER_FN: "Callable[[int], object] | None" = None
_WORKER_INJECTOR: "FaultInjector | None" = None


def _pool_init(fn: Callable[[int], object], injector: "FaultInjector | None" = None) -> None:
    global _WORKER_FN, _WORKER_INJECTOR
    _WORKER_FN = fn
    _WORKER_INJECTOR = injector


def _run_attempts(
    fn: Callable[[int], object],
    entries: "tuple[tuple[int, int], ...]",
    injector: "FaultInjector | None",
    process_worker: bool,
    propagate: bool,
) -> "tuple[list[tuple[int, int, bool, object, float, float]], dict | None]":
    """Run ``(task, attempt)`` entries, reporting per-task outcomes.

    Returns ``(task, attempt, ok, payload, duration, start_stamp)`` rows
    (plus the worker's drained shm attach log) where ``payload`` is the
    result on success or a ``repr`` of the failure and ``start_stamp``
    is the worker-side ``perf_counter`` at attempt start — a true
    measurement (the clock is system-wide monotonic, shared with the
    dispatcher), not a reconstruction.  With ``propagate`` a task's
    exception is raised out of the chunk instead of reported, so the
    dispatcher re-raises it as is (plain ``fail_fast``).  A crash fault
    kills the worker process outright (process backend) or raises
    :class:`WorkerCrash` out of the chunk (thread backend) — in both
    cases the dispatcher loses the whole chunk, exactly as it would to
    a real worker death.  A chunk of fresh tasks with no injector to poll
    is first offered to :func:`_run_block`.
    """
    if injector is None and len(entries) > 1 and not any(a for _tid, a in entries):
        rows = _run_block(fn, [tid for tid, _a in entries])
        if rows is not None:
            return rows, _shm.drain_attach_records()
    out: "list[tuple[int, int, bool, object, float, float]]" = []
    for tid, attempt in entries:
        t0 = time.perf_counter()
        try:
            if injector is not None:
                fault = injector.poll(tid, attempt)
                if fault is not None:
                    if fault.kind == FAULT_CRASH:
                        if process_worker:
                            os._exit(3)
                        raise WorkerCrash(
                            f"injected crash at task {tid} attempt {attempt}"
                        )
                    if fault.kind == FAULT_HANG:
                        time.sleep(fault.hang)
                    elif fault.kind == FAULT_RAISE:
                        raise InjectedFault(
                            f"injected fault: task {tid} attempt {attempt}"
                        )
            value = fn(tid)
        except WorkerCrash:
            raise
        except Exception as exc:  # transient task failure: report, move on
            if propagate:
                raise
            out.append((tid, attempt, False, repr(exc), time.perf_counter() - t0, t0))
            continue
        out.append((tid, attempt, True, value, time.perf_counter() - t0, t0))
    return out, _shm.drain_attach_records()


def _run_block(
    fn: Callable[[int], object], tids: "list[int]"
) -> "list[tuple[int, int, bool, object, float, float]] | None":
    """A chunk of fresh tasks as one ``fn.run_block(tids)`` call, when
    ``fn`` offers one: it returns ``(values, work)``, one of each per task,
    or ``None`` to decline.  The rows are :func:`_run_attempts`'s; the one
    measured duration is apportioned by ``work`` (equal shares when it is
    all zero) and the start stamps are the cumulative offsets inside it,
    so per-task times still sum to measured time and keep the tasks' skew.
    ``None`` — no block entry point, declined, or the block raised — sends
    the chunk through the per-task loop, which alone decides what failed.
    """
    run_block = getattr(fn, "run_block", None)
    if run_block is None:
        return None
    t0 = time.perf_counter()
    try:
        planned = run_block(tids)
    except Exception:  # whichever task it was fails again, alone, in the loop
        return None
    dt = time.perf_counter() - t0
    if planned is None:
        return None
    values, work = planned
    upto = np.cumsum(work, dtype=float)
    if upto[-1] <= 0.0:
        upto = np.arange(1.0, len(tids) + 1.0)
    ends = (dt * (upto / upto[-1])).tolist()
    return [
        (tid, 0, True, value, end - start, t0 + start)
        for tid, value, start, end in zip(tids, values, [0.0] + ends, ends)
    ]


def _run_attempts_shipped(
    entries: "tuple[tuple[int, int], ...]", propagate: bool
) -> "tuple[list[tuple[int, int, bool, object, float, float]], dict | None]":
    assert _WORKER_FN is not None, "worker initializer did not run"
    return _run_attempts(
        _WORKER_FN, entries, _WORKER_INJECTOR, process_worker=True, propagate=propagate
    )


def run_tasks_parallel(
    fn: Callable[[int], object],
    task_ids: "list[int]",
    workers: "int | None" = None,
    backend: str = "thread",
    window: int | None = None,
    chunksize: "int | str" = 1,
    tracer: "Tracer | None" = None,
    failure_policy: str = "fail_fast",
    max_retries: int = 2,
    task_timeout: "float | None" = None,
    backoff_base: float = 0.05,
    backoff_jitter: float = 0.5,
    fault_injector: "FaultInjector | None" = None,
    retry_seed: int = 0,
    task_weights: "dict[int, float] | None" = None,
) -> PoolResult:
    """Execute ``fn(task_id)`` for every task with dynamic dispatch.

    On the process backend the pickled context and task submissions are
    weighed and the pickling timed, reported on ``PoolResult.dispatch``.

    Parameters
    ----------
    fn:
        The regional work; must be picklable for the ``"process"`` backend
        (it is shipped once per worker via the pool initializer).  It may
        also offer ``run_block(task_ids) -> (values, work) | None``: a
        chunk of two or more fresh tasks is then run through that one call
        (``work`` is each task's share of the call, used to apportion its
        measured time), unless a ``fault_injector`` is installed.
    workers:
        Pool size; ``None`` (default) resolves to ``os.cpu_count()``.
        The resolved value is surfaced on ``PoolResult.workers``.
    backend:
        ``"thread"`` (default; fine for NumPy-heavy work) or ``"process"``.
    window:
        Max in-flight submissions (default ``2 * workers``); bounds memory
        for huge task lists.
    chunksize:
        Tasks per submission: a fixed int (default 1), or a policy name —
        ``"guided"`` (self-scheduling decay: big chunks early to amortise
        dispatch, single tasks at the tail for balance) or ``"weighted"``
        (equal-weight chunks from ``task_weights``).  Larger chunks
        amortise dispatch overhead when individual tasks are tiny, at the
        price of coarser load balancing — the same trade the paper's
        distributed schedulers make with region granularity; the policies
        make it adaptive.  See :mod:`repro.runtime.chunking`.
    tracer:
        Optional :class:`repro.obs.Tracer`; emits wall-clock ``task_start``
        / ``task_end`` point events (timestamps relative to pool start,
        measured from worker-side start stamps) and a ``task_time``
        histogram, plus ``shm_attach`` points for worker segment mappings
        and one ``pool_dispatch`` summary point.  Under fault tolerance it
        additionally emits ``task_retry`` / ``task_abandoned`` /
        ``worker_death`` points.  ``None`` (default) emits nothing.
    failure_policy:
        ``"fail_fast"`` (default), ``"retry"`` or ``"degrade"`` — see the
        module docstring.  With the default policy, no timeout and no
        injector, failures propagate as the task's original exception;
        otherwise exhausted tasks raise :class:`TaskFailedError`.
    max_retries:
        Retry budget per task for ``"retry"`` / ``"degrade"``.
    task_timeout:
        Seconds allowed per task; a submission of *k* tasks expires after
        ``k * task_timeout`` and every unfinished task in it counts one
        failed attempt.  ``None`` (default) disables timeouts.
    backoff_base, backoff_jitter:
        Retry *n* waits ``backoff_base * 2**(n-1) * (1 + jitter * u)``
        where ``u`` is a deterministic per-``(task, attempt)`` uniform
        draw seeded by ``retry_seed`` — runs with the same seed back off
        identically regardless of scheduling order.
    fault_injector:
        Optional :class:`~repro.runtime.faults.FaultInjector` for chaos
        testing; ``None`` (default) costs nothing.
    task_weights:
        Optional per-task relative cost estimates (the partitioner's
        region weights) consumed by the ``"weighted"`` chunk policy.
    """
    workers = resolve_workers(workers)
    validate_chunksize(chunksize)
    if backend not in ("thread", "process"):
        raise ValueError("backend must be 'thread' or 'process'")
    if failure_policy not in FAILURE_POLICIES:
        raise ValueError(
            f"failure_policy must be one of {FAILURE_POLICIES}, got {failure_policy!r}"
        )
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError("task_timeout must be positive")
    window = window if window is not None else 2 * workers
    if window < 1:
        raise ValueError("window must be >= 1")
    tasks = list(task_ids)
    tr = active(tracer)
    # Plain fail_fast: nothing can retry, time out or be injected, so a
    # task's own exception travels back through its future unwrapped.
    propagate = (
        fault_injector is None and failure_policy == "fail_fast" and task_timeout is None
    )
    allowed_retries = max_retries if failure_policy in ("retry", "degrade") else 0
    results: "dict[int, object]" = {}
    per_task: "dict[int, float]" = {}
    attempts: "dict[int, int]" = {}
    abandoned: "list[int]" = []
    unresolved = set(tasks)
    retries = 0
    deaths = 0
    seq = itertools.count()
    # Min-heap of (ready_time, seq, task, attempt) waiting out their backoff.
    retry_heap: "list[tuple[float, int, int, int]]" = []
    # Entries displaced by a worker death, re-dispatched attempt-intact.
    requeue: "list[tuple[int, int]]" = []
    in_flight: "dict[object, _Submission]" = {}

    fresh = iter(resolve_chunks(tasks, chunksize, workers, task_weights))
    dispatch = DispatchStats(chunk_policy=policy_label(chunksize))

    process = backend == "process"
    pool: "ProcessPoolExecutor | ThreadPoolExecutor"

    def make_pool():
        """Fresh executor of the configured backend (also used on respawn)."""
        if process:
            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=_pool_init,
                initargs=(fn, fault_injector),
            )
        return ThreadPoolExecutor(max_workers=workers)

    pool = make_pool()
    if process:
        dispatch.context_bytes = _weigh((fn, fault_injector), dispatch)
    t0 = time.perf_counter()

    def now() -> float:
        """Wall seconds since the run started."""
        return time.perf_counter() - t0

    def submit(entries: "tuple[tuple[int, int], ...]") -> None:
        """Dispatch (task, attempt) entries to the pool and track them."""
        deadline = None if task_timeout is None else now() + task_timeout * len(entries)
        dispatch.chunks_issued += 1
        if process:
            dispatch.task_bytes += _weigh(entries, dispatch)
            fut = pool.submit(_run_attempts_shipped, entries, propagate)
        else:
            fut = pool.submit(_run_attempts, fn, entries, fault_injector, False, propagate)
        in_flight[fut] = _Submission(entries, deadline)

    def fail_attempt(tid: int, attempt: int, reason: object) -> None:
        """One attempt of ``tid`` failed; retry, abandon, or raise."""
        nonlocal retries
        if tid not in unresolved:
            return  # already resolved by a competing attempt
        attempts[tid] = attempt + 1
        nxt = attempt + 1
        if nxt <= allowed_retries:
            retries += 1
            delay = backoff_base * (2.0 ** (nxt - 1)) * (
                1.0 + backoff_jitter * _retry_jitter(tid, nxt, retry_seed)
            )
            heapq.heappush(retry_heap, (now() + delay, next(seq), tid, nxt))
            if tr is not None:
                tr.point(
                    EV_TASK_RETRY, ts=now(), task=tid, attempt=nxt, reason=str(reason)[:120]
                )
        elif failure_policy == "degrade":
            unresolved.discard(tid)
            abandoned.append(tid)
            if tr is not None:
                tr.point(
                    EV_TASK_ABANDONED,
                    ts=now(),
                    task=tid,
                    attempts=nxt,
                    reason=str(reason)[:120],
                )
        else:
            raise TaskFailedError(tid, nxt, reason)

    def on_worker_death(first: _Submission, reason: str) -> None:
        """Re-dispatch work lost to a dead worker — ownership transfer.

        When the injector's plan identifies the crash culprits, only they
        consume an attempt and innocent bystanders re-enter dispatch
        attempt-intact.  A real (un-injected) death has no identifiable
        culprit, so every lost task is charged — that bounds repeated
        deaths by the retry budget instead of looping forever.
        """
        nonlocal pool, deaths
        deaths += 1
        if tr is not None:
            tr.point(
                EV_WORKER_DEATH,
                ts=now(),
                backend=backend,
                in_flight=len(in_flight) + 1,
                reason=reason,
            )
        lost = list(first.entries)
        if process:
            # A dead process breaks the whole executor: every other
            # in-flight future is lost too.  Rebuild and re-dispatch.
            for sub in in_flight.values():
                lost.extend(sub.entries)
            in_flight.clear()
            pool.shutdown(wait=False, cancel_futures=True)
            pool = make_pool()
        lost = [(tid, a) for tid, a in lost if tid in unresolved]
        culprits = {
            (tid, a)
            for tid, a in lost
            if fault_injector is not None
            and (f := fault_injector.poll(tid, a)) is not None
            and f.kind == FAULT_CRASH
        }
        for tid, a in lost:
            if (tid, a) in culprits or not culprits:
                fail_attempt(tid, a, "worker_death")
            else:
                requeue.append((tid, a))

    def next_entries() -> "tuple[tuple[int, int], ...] | None":
        """Next submission: displaced work first, then due retries, then
        fresh chunks — the priority order that drains failure fastest."""
        while requeue:
            tid, attempt = requeue.pop(0)
            if tid in unresolved:
                return ((tid, attempt),)
        while retry_heap and retry_heap[0][0] <= now():
            _, _, tid, attempt = heapq.heappop(retry_heap)
            if tid in unresolved:
                return ((tid, attempt),)
        while True:
            chunk = next(fresh, None)
            if chunk is None:
                return None
            live = tuple((tid, 0) for tid in chunk if tid in unresolved)
            if live:
                return live

    def handle(fut, sub: _Submission) -> None:
        """Absorb one finished future: record results, requeue failures."""
        try:
            rows, shm_info = fut.result()
        except BrokenExecutor:
            on_worker_death(sub, "process_died")
            return
        except WorkerCrash as exc:
            on_worker_death(sub, str(exc))
            return
        end_ts = now()
        ok_rows = []
        for tid, attempt, ok, payload, dt, start in rows:
            if tid not in unresolved:
                continue
            if ok:
                unresolved.discard(tid)
                attempts[tid] = attempt + 1
                ok_rows.append((tid, payload, dt, start))
            else:
                fail_attempt(tid, attempt, payload)
        if ok_rows:
            _record_chunk(ok_rows, t0, results, per_task, tr)
        _absorb_shm(shm_info, dispatch, tr, end_ts)

    try:
        while unresolved:
            # Keep the window full.
            while len(in_flight) < window:
                entries = next_entries()
                if entries is None:
                    break
                submit(entries)
            if not in_flight:
                if retry_heap:
                    # Nothing running; sleep until the next retry is due.
                    time.sleep(max(retry_heap[0][0] - now(), 0.0) + 1e-4)
                    continue
                break  # nothing running, nothing scheduled: all failed paths taken
            timeout = None
            if task_timeout is not None:
                deadlines = [s.deadline for s in in_flight.values() if s.deadline is not None]
                if deadlines:
                    timeout = max(min(deadlines) - now(), 0.0)
            if retry_heap:
                until_retry = max(retry_heap[0][0] - now(), 0.0)
                timeout = until_retry if timeout is None else min(timeout, until_retry)
            done, _ = wait(in_flight.keys(), timeout=timeout, return_when=FIRST_COMPLETED)
            for fut in done:
                sub = in_flight.pop(fut, None)
                if sub is not None:
                    handle(fut, sub)
            # Expire overdue submissions: each unfinished task in one
            # counts a failed ("timeout") attempt and re-enters dispatch.
            if task_timeout is not None:
                t = now()
                for fut, sub in list(in_flight.items()):
                    if sub.deadline is not None and t > sub.deadline:
                        del in_flight[fut]
                        fut.cancel()
                        for tid, attempt in sub.entries:
                            fail_attempt(tid, attempt, "timeout")
    finally:
        # Never block on hung workers; cancel whatever never started.
        pool.shutdown(wait=False, cancel_futures=True)

    wall = now()
    _finish_dispatch(dispatch, tr, len(results), wall)
    if tr is not None:
        tr.metrics.gauge("pool_wall_time").set(wall)
        tr.metrics.counter("pool_tasks").inc(len(results))
        if retries:
            tr.metrics.counter("pool_retries").inc(retries)
        if abandoned:
            tr.metrics.counter("pool_abandoned").inc(len(abandoned))
        if deaths:
            tr.metrics.counter("pool_worker_deaths").inc(deaths)
    return PoolResult(
        results,
        wall,
        per_task,
        workers,
        attempts=attempts,
        abandoned=sorted(abandoned),
        retries=retries,
        worker_deaths=deaths,
        dispatch=dispatch,
    )
def _weigh(obj: object, dispatch: DispatchStats) -> int:
    """Pickle ``obj`` purely to weigh it, charging the time to ser-de."""
    t0 = time.perf_counter()
    n = len(pickle.dumps(obj))
    dispatch.serde_s += time.perf_counter() - t0
    return n


def _absorb_shm(info: "dict | None", dispatch: DispatchStats, tr, ts: float) -> None:
    """Fold one worker's piggybacked attach log into the run's accounting."""
    if not info:
        return
    dispatch.shm_attach_cached += info.get("cached", 0)
    for rec in info.get("attaches", ()):
        dispatch.shm_attaches += 1
        dispatch.shm_attach_s += rec.get("seconds", 0.0)
        if tr is not None:
            tr.point(
                EV_SHM_ATTACH,
                ts=ts,
                label=rec.get("label"),
                segment=rec.get("segment"),
                bytes=rec.get("bytes", 0),
                seconds=rec.get("seconds", 0.0),
                pid=rec.get("pid"),
            )


def _finish_dispatch(dispatch: DispatchStats, tr, n_tasks: int, ts: float) -> None:
    """Emit the run's one ``pool_dispatch`` summary point."""
    if tr is not None:
        tr.point(
            EV_POOL_DISPATCH,
            ts=ts,
            policy=dispatch.chunk_policy,
            chunks=dispatch.chunks_issued,
            tasks=n_tasks,
            context_bytes=dispatch.context_bytes,
            task_bytes=dispatch.task_bytes,
            shm_attaches=dispatch.shm_attaches,
        )


def _record_chunk(chunk_out, t0, results, per_task, tr) -> None:
    """Store a completed chunk's ``(task, value, duration, start_stamp)``
    rows and emit task events from the worker-measured start stamps —
    ``perf_counter`` is a shared monotonic clock across dispatcher and
    workers, so stamps translate to run-relative time by subtracting the
    dispatcher's ``t0``."""
    for task_id, out, dt, _start in chunk_out:
        results[task_id] = out
        per_task[task_id] = dt
    if tr is not None:
        for task_id, _out, dt, start in chunk_out:
            start_ts = max(start - t0, 0.0)
            tr.point(EV_TASK_START, ts=start_ts, task=task_id, cost=dt)
            tr.point(EV_TASK_END, ts=start_ts + dt, task=task_id, cost=dt)
            tr.metrics.histogram("task_time").observe(dt)


@dataclass
class _Submission:
    """One in-flight future's bookkeeping."""

    entries: "tuple[tuple[int, int], ...]"  # (task, attempt) pairs
    deadline: "float | None"  # dispatcher-clock expiry, None = never


def _retry_jitter(task: int, attempt: int, seed: int) -> float:
    """Deterministic uniform draw in [0, 1) — a pure function of its args."""
    return float(
        np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(task, attempt))
        ).random()
    )


