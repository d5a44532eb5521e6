"""Deterministic fault injection for the parallel runtime.

The paper's work-stealing protocol already treats regions as transferable
units of work whose ownership moves between processors; fault tolerance
is the same idea applied to *involuntary* transfers.  This module defines
the local pool's fault vocabulary (the simulated machine is the paper's
reliable one):

* :class:`Fault` — one planned failure, keyed by task id and attempt
  number.  Three kinds: ``"raise"`` (the task raises mid-execution,
  modelling a transient regional-planner failure), ``"hang"`` (the task
  stalls, past its timeout on the process backend), and ``"crash"`` (the
  worker process dies).
* :class:`FaultInjector` — a deterministic, seedable plan of faults.
  Explicit :class:`Fault` entries fire exactly when their key matches;
  an optional Bernoulli ``rate`` adds seeded pseudo-random transient
  failures that are a pure function of ``(seed, task, attempt)``, so two
  runs with the same injector see identical faults regardless of
  scheduling order.

The pool takes ``fault_injector=None`` and short-circuits every
injection site on the default path — the same zero-overhead contract as
``repro.obs`` tracers.  Injectors are picklable so the process backend
can ship them to workers through the pool initializer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "FAULT_RAISE",
    "FAULT_HANG",
    "FAULT_CRASH",
    "FAULT_KINDS",
    "Fault",
    "FaultInjector",
    "InjectedFault",
    "WorkerCrash",
    "TaskFailedError",
]

FAULT_RAISE = "raise"
FAULT_HANG = "hang"
FAULT_CRASH = "crash"
FAULT_KINDS = (FAULT_RAISE, FAULT_HANG, FAULT_CRASH)


class InjectedFault(RuntimeError):
    """Raised inside a task when a ``"raise"`` fault fires."""


class WorkerCrash(RuntimeError):
    """A worker died (or simulated dying) while holding tasks.

    On the inline backend a ``"crash"`` fault raises this instead of
    killing the process — the worker is the caller, so the crash is
    *modelled*: the dispatcher treats it exactly like a dead worker
    (attempt consumed for every task in the chunk, worker-death counted).
    """


class TaskFailedError(RuntimeError):
    """A task exhausted its retry budget (or failed under ``fail_fast``)."""

    def __init__(self, task: int, attempts: int, cause: "BaseException | str"):
        self.task = task
        self.attempts = attempts
        self.cause = cause
        super().__init__(
            f"task {task} failed after {attempts} attempt(s): {cause!r}"
        )


@dataclass(frozen=True)
class Fault:
    """One planned failure.

    ``task`` of ``None`` acts as a wildcard; ``attempt`` is exact (0 =
    first execution), so a transient fault is expressed as
    ``Fault("raise", task=7, attempt=0)`` — attempt 1 then succeeds.
    ``hang`` is the stall duration in wall seconds.
    """

    kind: str
    task: "int | None" = None
    attempt: int = 0
    hang: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.attempt < 0:
            raise ValueError("attempt must be >= 0")
        if self.hang < 0:
            raise ValueError("hang must be >= 0")

    def matches(self, task: "int | None", attempt: int) -> bool:
        """True when this fault targets the given (task, attempt)."""
        if self.attempt != attempt:
            return False
        return self.task is None or self.task == task


class FaultInjector:
    """A deterministic fault plan for the local pool.

    Parameters
    ----------
    faults:
        Explicit :class:`Fault` entries; the first match wins.
    rate:
        Probability in ``[0, 1)`` of a seeded pseudo-random ``"raise"``
        fault on a task's first attempt (attempt 0), so a single retry
        always recovers.  The draw is a pure function of ``(seed, task)``
        — no shared RNG state, so outcomes are independent of execution
        order.
    seed:
        Entropy for the Bernoulli draws.
    """

    def __init__(
        self,
        faults: "Iterable[Fault] | None" = None,
        rate: float = 0.0,
        seed: int = 0,
    ):
        self.faults = tuple(faults or ())
        if not 0.0 <= rate < 1.0:
            raise ValueError("rate must be in [0, 1)")
        self.rate = float(rate)
        self.seed = int(seed)

    def poll(self, task: "int | None", attempt: int) -> "Fault | None":
        """The fault (if any) that fires for this execution attempt."""
        for f in self.faults:
            if f.matches(task, attempt):
                return f
        if self.rate > 0.0 and attempt == 0 and task is not None:
            u = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(task, attempt))
            ).random()
            if u < self.rate:
                return Fault(FAULT_RAISE, task=task, attempt=attempt)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector({len(self.faults)} planned, rate={self.rate}, "
            f"seed={self.seed})"
        )
