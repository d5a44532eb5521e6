"""Span tracing installed from the benchmark's own files.

A :class:`Recorder` swaps class attributes and module functions of the
program's *public* surface for thin wrappers that append one span per
call — ``(id, parent, name, start, end, op, attrs)`` — to an in-memory
list.  Nothing under ``src/`` is edited; :meth:`Recorder.uninstall` puts
every original back.  Span names are ``"<layer>.<what>"`` where the layer
is the ``repro`` subpackage the ledger charges the time to.

Parenting is a per-thread stack.  A thread whose stack is empty (a
serve-worker thread, a pool thread) parents its first span to the
benchmark operation that is open at that moment; pool *thread* workers
are more specific: the wrapper around ``run_tasks_parallel`` hands every
task the pool span as its parent, so two concurrent pools never mix.
Process-pool workers inherit the wrappers through ``fork`` but their
spans die with them — see the README for how that gap is filled.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

#: spans written per file; the earliest are kept so the first operations
#: are complete, and the file's last line says how many were dropped.
MAX_SPANS_WRITTEN = 150_000


class Span(NamedTuple):
    """One recorded call."""

    id: int
    parent: "int | None"
    name: str
    start: float
    end: float
    op: "str | None"
    attrs: "dict | None"

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    ``owner`` is the dotted path of the module or class whose namespace
    defines ``attr``.  ``hook(args, kwargs, result)`` may return a dict of
    counts read off the call's public result, stored on the span.
    ``adopts_threads`` marks a pool entry point whose first argument is
    the task callable: on the thread backend the tasks' spans are
    parented to the pool span.
    """

    span: str
    owner: str
    attr: str
    hook: "Callable | None" = None
    adopts_threads: bool = False


def resolve(path: str):
    """Import the longest module prefix of ``path`` and walk the rest."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(f"cannot resolve {path!r}")


class Recorder:
    """Owns the span list, the per-thread stacks and the installed patches."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        #: id of the open benchmark-operation span (adopts orphan threads).
        self.root: "int | None" = None
        #: label of the open benchmark operation, stamped on every span.
        self.op: "str | None" = None
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._undo: "list[tuple[object, str, object]]" = []

    # -- patching -----------------------------------------------------------
    def install(self, targets: "Iterable[Target]") -> None:
        """Wrap every target; a missing attribute raises ``AttributeError``
        so a renamed or inlined function fails loudly."""
        for t in targets:
            owner = resolve(t.owner)
            if isinstance(owner, type):
                if t.attr not in owner.__dict__:
                    raise AttributeError(f"{t.owner} does not define {t.attr!r}")
                raw = owner.__dict__[t.attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(t, raw.__func__))
                else:
                    wrapped = self._wrap(t, raw)
                self._swap(owner, t.attr, raw, wrapped)
            else:
                raw = getattr(owner, t.attr)
                wrapped = self._wrap(t, raw)
                # ``from x import f`` copies the function object into the
                # importer's namespace: swap every copy inside the program.
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name == "repro" or name.startswith("repro."):
                        for key, val in list(vars(mod).items()):
                            if val is raw:
                                self._swap(mod, key, raw, wrapped)

    def _swap(self, namespace, attr: str, original, wrapped) -> None:
        setattr(namespace, attr, wrapped)
        self._undo.append((namespace, attr, original))

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._undo:
            namespace, attr, original = self._undo.pop()
            setattr(namespace, attr, original)

    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            return stack

    def _wrap(self, target: Target, fn):
        name, hook, adopts = target.span, target.hook, target.adopts_threads
        spans, ids, now, get_stack = self.spans, self._ids, time.perf_counter, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = get_stack()
            parent = stack[-1] if stack else self.root
            sid = next(ids)
            if adopts and _backend_of(args, kwargs) == "thread":
                args = (self._adopting(args[0], sid),) + args[1:]
            stack.append(sid)
            done = False
            start = now()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                end = now()
                stack.pop()
                attrs = hook(args, kwargs, out) if done and hook is not None else None
                spans.append(Span(sid, parent, name, start, end, self.op, attrs))

        return traced

    def _adopting(self, task, pool_span: int):
        """``task`` with the pool span as the base of its thread's stack."""
        get_stack = self._stack

        def adopted(tid):
            stack = get_stack()
            stack.append(pool_span)
            try:
                return task(tid)
            finally:
                stack.pop()

        return adopted

    # -- benchmark-side spans -------------------------------------------------
    @contextmanager
    def operation(self, op: str):
        """One benchmark operation: the root span every layer span of the
        operation descends from, on whichever thread it runs."""
        stack = self._stack()
        sid = next(self._ids)
        self.root, self.op = sid, op
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.root = self.op = None
            self.spans.append(Span(sid, None, "bench.op", start, end, op, None))


def _backend_of(args, kwargs) -> str:
    """The ``backend`` argument of a ``run_tasks_parallel`` call."""
    if "backend" in kwargs:
        return kwargs["backend"]
    return args[3] if len(args) > 3 else "thread"


# -- analysis ---------------------------------------------------------------

def union_length(intervals: "Iterable[tuple[float, float]]") -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: "Iterable[Span]") -> "dict[int, float]":
    """Self time per span id: its duration minus the part of its interval
    that its child spans cover (children may overlap one another when they
    ran on different threads, and are clipped to the parent)."""
    spans = list(spans)
    children: "dict[int, list[tuple[float, float]]]" = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        kids = children.get(s.id)
        covered = 0.0
        if kids:
            covered = union_length(
                (max(lo, s.start), min(hi, s.end)) for lo, hi in kids
            )
        out[s.id] = (s.end - s.start) - covered
    return out


def write_spans(path, spans: "list[Span]", workload: str) -> None:
    """Dump spans as JSON lines (call only after timing has ended)."""
    with open(path, "w") as fh:
        for s in spans[:MAX_SPANS_WRITTEN]:
            rec = {
                "id": s.id, "parent": s.parent, "layer": s.layer, "name": s.name,
                "start": s.start, "end": s.end, "workload": workload, "op": s.op,
            }
            if s.attrs:
                rec["attrs"] = s.attrs
            fh.write(json.dumps(rec) + "\n")
        if len(spans) > MAX_SPANS_WRITTEN:
            fh.write(json.dumps({"dropped": len(spans) - MAX_SPANS_WRITTEN}) + "\n")
