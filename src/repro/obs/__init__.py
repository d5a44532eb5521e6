"""repro.obs — structured tracing for the runtime.

The observability substrate every figure and perf report builds on.  A
run keeps one record, its event trace:

* :class:`Tracer` emits typed :class:`Event` records — spans for the
  planner phases, points for steal protocol traffic, task execution,
  retries, worker deaths, cache and service traffic, repartition
  decisions and remote accesses — stamped by the simulator's virtual
  clock or the wall clock.
* Sinks route events to memory (:class:`MemorySink`) or JSON-lines files
  (:class:`JsonlSink`); :func:`summarize_events` reconstructs every tally
  of a run from its trace — the paper's Fig. 7a phase breakdown, the
  Fig. 9 steal distribution, retries, deaths, cache and batch counts —
  and ``python -m repro.obs summarize trace.jsonl`` does so from the
  shell.

Instrumented code treats ``tracer=None`` as "emit nothing", keeping the
default path at zero overhead.
"""

from .events import (
    EV_QUERY_END,
    EV_QUERY_START,
    EV_REMOTE_ACCESS,
    EV_REPARTITION_DECISION,
    EV_STEAL_FAIL,
    EV_STEAL_REPLY,
    EV_STEAL_REQUEST,
    EV_STEAL_TRANSFER,
    EV_TASK_ABANDONED,
    EV_TASK_END,
    EV_TASK_RETRY,
    EV_TASK_START,
    EV_WORKER_DEATH,
    PHASE_CONNECT,
    PHASE_CONSTRUCT,
    PHASE_GENERATE,
    PHASE_NAMES,
    PHASE_REPARTITION,
    PHASE_SERVE,
    PHASE_SUBDIVIDE,
    PHASE_TERMINATE,
    PHASE_WEIGH,
    POINT,
    SPAN_BEGIN,
    SPAN_END,
    Event,
)
from .sinks import JsonlSink, MemorySink, Sink, parse_jsonl, read_jsonl
from .summary import TraceSummary, format_summary, summarize_events
from .tracer import Tracer

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
    "EV_QUERY_START",
    "EV_QUERY_END",
    "EV_STEAL_REQUEST",
    "EV_STEAL_REPLY",
    "EV_STEAL_TRANSFER",
    "EV_STEAL_FAIL",
    "EV_REPARTITION_DECISION",
    "EV_REMOTE_ACCESS",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "read_jsonl",
    "parse_jsonl",
    "TraceSummary",
    "summarize_events",
    "format_summary",
    "Tracer",
]
