"""The Tracer: structured event emission, the one record of a run.

One tracer serves both execution worlds:

* **Virtual time** — the simulator and the parallel drivers pass explicit
  ``ts`` values from the replayed machine's clock.  Nested components run
  on phase-local clocks, so a driver hands them ``tracer.offset(t0)``,
  a view of the same tracer that shifts every timestamp by ``t0``.
* **Wall clock** — when ``ts`` is omitted the tracer stamps events with
  its ``clock`` (``time.perf_counter`` seconds since creation), and
  ``with tracer.span("connect"):`` times real code.

Instrumented code takes ``tracer: Tracer | None = None`` and guards every
emission with ``if tracer is not None``, so the default path adds a
single predictable branch — that is the zero-overhead contract.  ``None``
is the only way to say "no tracer".  A run keeps no tallies beside its
events: :func:`repro.obs.summarize_events` counts them from the trace.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from .events import POINT, SPAN_BEGIN, SPAN_END, Event
from .sinks import MemorySink, Sink

__all__ = ["Tracer"]


class Tracer:
    """Emit typed events to one or more sinks.

    Parameters
    ----------
    sinks:
        Destinations for events; defaults to a single in-memory sink
        (reachable as ``tracer.memory``).

    An event emitted without ``ts`` is stamped with ``clock()``: seconds
    since the tracer was created (``perf_counter`` based).
    """

    def __init__(self, sinks: "Iterable[Sink] | None" = None):
        if sinks is None:
            self.memory: "MemorySink | None" = MemorySink()
            self.sinks: "list[Sink]" = [self.memory]
        else:
            self.sinks = list(sinks)
            self.memory = next(
                (s for s in self.sinks if isinstance(s, MemorySink)), None
            )
        t0 = time.perf_counter()
        self.clock: "Callable[[], float]" = lambda: time.perf_counter() - t0

    # -- emission -----------------------------------------------------------
    def emit(
        self,
        kind: str,
        name: str,
        ts: "float | None" = None,
        pe: "int | None" = None,
        **attrs,
    ) -> Event:
        """Build an event (clock-stamped unless ``ts`` given) and fan it out."""
        event = Event(
            ts=self.clock() if ts is None else float(ts),
            kind=kind,
            name=name,
            pe=pe,
            attrs=attrs,
        )
        for sink in self.sinks:
            sink.emit(event)
        return event

    def point(
        self, name: str, ts: "float | None" = None, pe: "int | None" = None, **attrs
    ) -> Event:
        """Emit an instantaneous event."""
        return self.emit(POINT, name, ts=ts, pe=pe, **attrs)

    def begin(
        self, name: str, ts: "float | None" = None, pe: "int | None" = None, **attrs
    ) -> Event:
        """Open a span (pair with :meth:`end`)."""
        return self.emit(SPAN_BEGIN, name, ts=ts, pe=pe, **attrs)

    def end(
        self, name: str, ts: "float | None" = None, pe: "int | None" = None, **attrs
    ) -> Event:
        """Close the innermost span opened under ``name``."""
        return self.emit(SPAN_END, name, ts=ts, pe=pe, **attrs)

    def span_at(
        self, name: str, begin: float, end: float, pe: "int | None" = None, **attrs
    ) -> None:
        """Emit a completed span with explicit (virtual) endpoints."""
        if end < begin:
            raise ValueError(f"span {name!r} ends before it begins")
        self.begin(name, ts=begin, pe=pe, **attrs)
        self.end(name, ts=end, pe=pe, **attrs)

    @contextmanager
    def span(self, name: str, pe: "int | None" = None, **attrs) -> Iterator[None]:
        """Wall-clock span around a code block."""
        self.begin(name, pe=pe, **attrs)
        try:
            yield
        finally:
            self.end(name, pe=pe, **attrs)

    # -- composition --------------------------------------------------------
    def offset(self, dt: float) -> "Tracer":
        """A view of this tracer shifting every timestamp by ``dt``.

        Sinks are shared; only the clock domain changes.  Used
        to embed a component running on a phase-local clock (the simulator
        starts every phase at t=0) into the run's global timeline.
        """
        if dt == 0.0:
            return self
        return _OffsetTracer(self, dt)

    def close(self) -> None:
        """Close every attached sink."""
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _OffsetTracer(Tracer):
    """Shares a parent tracer's sinks, shifting timestamps."""

    def __init__(self, parent: Tracer, dt: float):
        self._parent = parent
        self._dt = float(dt)
        self.sinks = parent.sinks
        self.memory = parent.memory
        self.clock = lambda: parent.clock() + self._dt

    def emit(self, kind, name, ts=None, pe=None, **attrs) -> Event:
        """Shift an explicit timestamp into the parent clock and forward."""
        shifted = None if ts is None else float(ts) + self._dt
        return self._parent.emit(kind, name, ts=shifted, pe=pe, **attrs)

    def offset(self, dt: float) -> Tracer:
        """Compose offsets instead of stacking wrapper objects."""
        return self._parent.offset(self._dt + dt)

    def close(self) -> None:  # the parent owns the sinks
        """No-op: closing is the parent tracer's responsibility."""
