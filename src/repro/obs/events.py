"""Typed trace events.

A trace is a flat stream of :class:`Event` records.  Spans (phases with a
duration) are encoded as a ``span_begin`` / ``span_end`` pair sharing a
name; everything else is a ``point`` event.  Timestamps come from whatever
clock the emitting :class:`~repro.obs.tracer.Tracer` was built with — the
simulator's virtual clock for replayed machines, ``time.perf_counter``
for true-parallel runs — so one summariser serves both worlds.

Canonical names are defined here so emitters and the summariser never
drift: the phase vocabulary (``subdivide`` … ``connect``) is shared by the
PRM and RRT drivers (see ``PhaseTimes`` in :mod:`repro.core.machine`),
and the point vocabulary covers the work-stealing protocol, task
execution, and repartition decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "Event",
    "SPAN_BEGIN",
    "SPAN_END",
    "POINT",
    "PHASE_SUBDIVIDE",
    "PHASE_GENERATE",
    "PHASE_WEIGH",
    "PHASE_REPARTITION",
    "PHASE_CONSTRUCT",
    "PHASE_CONNECT",
    "PHASE_TERMINATE",
    "PHASE_SERVE",
    "PHASE_NAMES",
    "EV_TASK_START",
    "EV_TASK_END",
    "EV_TASK_RETRY",
    "EV_TASK_ABANDONED",
    "EV_WORKER_DEATH",
    "EV_STEAL_REQUEST",
    "EV_STEAL_REPLY",
    "EV_STEAL_TRANSFER",
    "EV_STEAL_FAIL",
    "EV_REPARTITION_DECISION",
    "EV_REMOTE_ACCESS",
    "EV_QUERY_START",
    "EV_QUERY_END",
    "EV_CACHE_HIT",
    "EV_CACHE_MISS",
    "EV_CACHE_EVICT",
    "EV_BATCH_FLUSH",
    "EV_REQUEST_REJECTED",
    "EV_SHM_PUBLISH",
    "EV_SHM_ATTACH",
    "EV_POOL_DISPATCH",
]

# -- event kinds -------------------------------------------------------------
SPAN_BEGIN = "span_begin"
SPAN_END = "span_end"
POINT = "point"

# -- canonical phase (span) names -------------------------------------------
PHASE_SUBDIVIDE = "subdivide"        # region construction
PHASE_GENERATE = "generate"          # PRM node generation
PHASE_WEIGH = "weigh"                # LB weight probe (k-rays etc.)
PHASE_REPARTITION = "repartition"    # installing the new partition
PHASE_CONSTRUCT = "construct"        # the load-balanced bulk phase
PHASE_CONNECT = "connect"            # inter-region connection
PHASE_TERMINATE = "terminate"        # termination detection
PHASE_SERVE = "serve"                # batched query serving (post-build)

#: Every phase, in canonical timeline order.
PHASE_NAMES = (
    PHASE_SUBDIVIDE,
    PHASE_GENERATE,
    PHASE_WEIGH,
    PHASE_REPARTITION,
    PHASE_CONSTRUCT,
    PHASE_TERMINATE,
    PHASE_CONNECT,
    PHASE_SERVE,
)

# -- canonical point names ---------------------------------------------------
EV_TASK_START = "task_start"
EV_TASK_END = "task_end"
EV_TASK_RETRY = "task_retry"          # failed attempt rescheduled (attrs: task, attempt, reason)
EV_TASK_ABANDONED = "task_abandoned"  # retry budget exhausted under "degrade"
EV_WORKER_DEATH = "worker_death"      # a local pool worker died
EV_STEAL_REQUEST = "steal_request"    # thief -> victim request sent
EV_STEAL_REPLY = "steal_reply"        # thief received a reply
EV_STEAL_TRANSFER = "steal_transfer"  # victim handed tasks over
EV_STEAL_FAIL = "steal_fail"          # victim had nothing to give
EV_REPARTITION_DECISION = "repartition_decision"
EV_REMOTE_ACCESS = "remote_access"
EV_QUERY_START = "query_start"        # one planning query begins (attrs: query)
EV_QUERY_END = "query_end"            # one planning query ends (attrs: query, latency, solved)
EV_CACHE_HIT = "cache_hit"            # snapshot served from cache (attrs: key)
EV_CACHE_MISS = "cache_miss"          # snapshot had to be built (attrs: key, coalesced)
EV_CACHE_EVICT = "cache_evict"        # LRU eviction under memory budget (attrs: key, bytes)
EV_BATCH_FLUSH = "batch_flush"        # coalescer flushed a batch (attrs: key, size, reason, waited)
EV_REQUEST_REJECTED = "request_rejected"  # admission control turned a request away (attrs: queued)
EV_SHM_PUBLISH = "shm_publish"        # snapshot published (attrs: label, segment, bytes, reused)
EV_SHM_ATTACH = "shm_attach"          # worker mapped a segment (attrs: label, bytes, seconds, pid)
EV_POOL_DISPATCH = "pool_dispatch"    # pool dispatch accounting (attrs: policy, chunks, tasks)


@dataclass(frozen=True, slots=True)
class Event:
    """One trace record.

    ``ts`` is in the emitting tracer's clock domain (virtual seconds for
    simulated runs, wall seconds for real ones).  ``pe`` is the processing
    element the event belongs to, when there is one.  ``attrs`` carries
    event-specific payload and must stay JSON-serialisable.
    """

    ts: float
    kind: str
    name: str
    pe: "int | None" = None
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> "dict[str, Any]":
        """Compact dict form; ``pe``/``attrs`` omitted when empty."""
        d: "dict[str, Any]" = {"ts": self.ts, "kind": self.kind, "name": self.name}
        if self.pe is not None:
            d["pe"] = self.pe
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        return d

    @classmethod
    def from_json(cls, d: "Mapping[str, Any]") -> "Event":
        """Inverse of :meth:`to_json`, coercing field types."""
        return cls(
            ts=float(d["ts"]),
            kind=str(d["kind"]),
            name=str(d["name"]),
            pe=d.get("pe"),
            attrs=dict(d.get("attrs", {})),
        )
