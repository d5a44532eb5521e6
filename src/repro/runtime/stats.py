"""Per-PE and machine-wide statistics collected by the simulator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PEStats", "SimResult"]


@dataclass(slots=True)
class PEStats:
    """One processing element's ledger for a simulated phase (slotted:
    the simulator bumps these fields once or twice per message)."""

    pe: int
    work_time: float = 0.0
    finish_time: float = 0.0
    tasks_executed: int = 0
    tasks_stolen_executed: int = 0
    steal_requests_sent: int = 0
    steal_requests_received: int = 0
    steals_serviced: int = 0
    steals_failed: int = 0
    tasks_lost: int = 0
    messages_sent: int = 0


@dataclass
class SimResult:
    """Outcome of one simulated phase across the whole machine."""

    pe_stats: "list[PEStats]"
    #: task id -> PE that executed it.
    executed_by: "dict[int, int]"
    #: task id -> virtual cost charged for it.
    task_costs: "dict[int, float]"
    #: virtual time when the last task completed.
    makespan: float
    #: virtual time when the last event (incl. messages) was processed.
    end_time: float
    total_messages: int

    @property
    def num_pes(self) -> int:
        """Number of PEs that participated in the phase."""
        return len(self.pe_stats)

    def work_times(self) -> np.ndarray:
        """Per-PE useful-work time, indexed by PE."""
        return np.array([s.work_time for s in self.pe_stats])

    def tasks_per_pe(self) -> np.ndarray:
        """Per-PE executed-task counts, indexed by PE."""
        return np.array([s.tasks_executed for s in self.pe_stats])

    def stolen_per_pe(self) -> np.ndarray:
        """Per-PE counts of executed tasks that were stolen."""
        return np.array([s.tasks_stolen_executed for s in self.pe_stats])

    def total_work(self) -> float:
        """Machine-wide useful work (sum of per-PE work times)."""
        return float(self.work_times().sum())

    def efficiency(self) -> float:
        """Fraction of the machine's time spent doing useful work."""
        if self.makespan == 0.0:
            return 1.0
        return self.total_work() / (self.makespan * self.num_pes)
