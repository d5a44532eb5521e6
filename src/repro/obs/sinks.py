"""Trace sinks: where emitted events go.

Two sinks cover the repo's needs: :class:`MemorySink` (a list of every
event, for tests and interactive inspection) and :class:`JsonlSink` (one
JSON object per line, the interchange format of the ``python -m repro.obs
summarize`` CLI).  Sinks are deliberately dumb — ordering, pairing of
span begin/end, and aggregation all live in :mod:`repro.obs.summary`.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import IO, Iterable, Protocol, runtime_checkable

from .events import Event

__all__ = ["Sink", "MemorySink", "JsonlSink", "read_jsonl", "parse_jsonl"]


@runtime_checkable
class Sink(Protocol):
    """Structural interface every sink satisfies."""

    def emit(self, event: Event) -> None:
        """Accept one event."""
        ...

    def close(self) -> None:
        """Flush and release any underlying resource."""
        ...


class MemorySink:
    """Keep every event in memory."""

    def __init__(self):
        self._buf: "list[Event]" = []

    @property
    def events(self) -> "list[Event]":
        """Buffered events, oldest first."""
        return list(self._buf)

    def emit(self, event: Event) -> None:
        """Append one event."""
        self._buf.append(event)

    def clear(self) -> None:
        """Drop all buffered events."""
        self._buf.clear()

    def close(self) -> None:  # nothing to release
        """No-op: memory sinks hold no external resource."""

    def __len__(self) -> int:
        return len(self._buf)


class JsonlSink:
    """Append events to a JSON-lines file (or any open text handle).

    ``emit`` is thread-safe: the service layer traces from its dispatcher
    thread and pool workers concurrently, and ``TextIOWrapper`` offers no
    atomicity across writes, so each line is serialised under a lock.
    """

    def __init__(self, path_or_file: "str | Path | IO[str]"):
        if hasattr(path_or_file, "write"):
            self._fh: IO[str] = path_or_file  # type: ignore[assignment]
            self._owns = False
        else:
            self._fh = open(path_or_file, "w", encoding="utf-8")
            self._owns = True
        self._lock = threading.Lock()
        self._closed = False

    def emit(self, event: Event) -> None:
        """Write the event as one compact JSON line."""
        line = json.dumps(event.to_json(), separators=(",", ":")) + "\n"
        with self._lock:
            self._fh.write(line)

    def close(self) -> None:
        """Flush, and close the handle if this sink opened it.  Idempotent:
        a second call (``with tracer:`` then ``tracer.close()``) is a no-op."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.flush()
            if self._owns:
                self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parse_jsonl(lines: "Iterable[str]") -> "list[Event]":
    """Decode an iterable of JSON lines into events (blank lines skipped)."""
    events = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(Event.from_json(json.loads(line)))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"bad trace record on line {lineno}: {exc}") from exc
    return events


def read_jsonl(path: "str | Path") -> "list[Event]":
    """Load a JSON-lines trace file written by :class:`JsonlSink`."""
    with open(path, encoding="utf-8") as fh:
        return parse_jsonl(fh)
