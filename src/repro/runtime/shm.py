"""Zero-copy shared-memory data plane for the true-parallel pool.

The process backend historically shipped the whole planning context
(environment SoA arrays, BVH nodes, frozen-roadmap CSR blocks) to workers
by pickle — a serialization tax the paper's distributed schedulers never
pay.  This module is the arena that removes it: a publisher packs named
immutable numpy arrays into one ``multiprocessing.shared_memory`` segment
and hands out a tiny picklable :class:`SharedArrayManifest` (names,
dtypes, shapes, offsets, sha256 fingerprint).  Workers attach lazily and
cache the mapping **by fingerprint**, so a segment is mapped once per
worker process and reused across tasks and across ``PlanService``
requests; attached views are read-only, so the snapshot is immutable by
construction.

Lifecycle:

* :func:`publish_arrays` deduplicates by fingerprint and refcounts —
  publishing identical content twice reuses the live segment.
* :func:`release` decrements; the last release closes and unlinks.  If
  same-process numpy views still pin the mapping (inline backend), the
  segment is still *unlinked* (nothing left in ``/dev/shm``) and the
  close is retried at interpreter exit — memory is reclaimed when the
  last mapping dies, the name never leaks.
* An ``atexit`` sweep unlinks anything still published, so a crashed run
  cannot orphan segments; :func:`cleanup_stale` reclaims segments whose
  owning pid is gone (the crash-safe backstop for ``SIGKILL``), and
  :func:`leaked_segments` is the audit hook the tests and CI gate on.

When shared memory is unavailable the manifest transparently carries the
packed bytes inline (``segment=None``) and :func:`attach_arrays` rebuilds
identical read-only arrays from them — results are bit-identical either
way, only the transport differs.

This module is deliberately planner-agnostic (numpy + stdlib only): the
adapters that know what an ``Environment`` or ``FrozenRoadmap`` looks
like live with their consumers in :mod:`repro.api` and
:mod:`repro.planners.engine`, which keeps the import graph acyclic.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..obs.events import EV_SHM_PUBLISH

__all__ = [
    "SEGMENT_PREFIX",
    "ArraySpec",
    "SharedArrayManifest",
    "attach_arrays",
    "cleanup_stale",
    "drain_attach_records",
    "leaked_segments",
    "publish_arrays",
    "published_segments",
    "release",
    "shm_available",
]

#: Every segment this module creates is named ``repro-shm-<pid>-<seq>-<fp12>``
#: — the pid makes stale segments attributable, the fingerprint prefix makes
#: them identifiable, and the prefix is what the leak audits scan for.
SEGMENT_PREFIX = "repro-shm"

#: Array offsets are aligned so every attached view is cache-line aligned.
_ALIGN = 64


@dataclass(frozen=True)
class ArraySpec:
    """One array's layout inside a published segment."""

    name: str
    dtype: str
    shape: "tuple[int, ...]"
    offset: int
    nbytes: int


@dataclass(frozen=True)
class SharedArrayManifest:
    """Picklable description of one published snapshot.

    ``segment`` names the shared-memory block; ``None`` means shared
    memory was unavailable and ``inline`` carries the packed bytes
    instead (the transparent fallback — attach is bit-identical).
    """

    fingerprint: str
    segment: "str | None"
    total_bytes: int
    arrays: "tuple[ArraySpec, ...]"
    label: str = "arrays"
    inline: "bytes | None" = field(default=None, repr=False)


@dataclass
class _Published:
    """Publisher-side bookkeeping for one live segment."""

    shm: object
    manifest: SharedArrayManifest
    refs: int


# fingerprint -> live publication (publisher side, refcounted).
_PUBLISHED: "dict[str, _Published]" = {}
# fingerprint -> (SharedMemory | None, {name: read-only view}) (attach side).
_ATTACHED: "dict[str, tuple[object, dict]]" = {}
# Segments whose close() was pinned by exported views; retried at exit.
_ZOMBIES: "list[object]" = []
# Worker-side attach log, drained by the pool dispatcher with each chunk.
_ATTACH_RECORDS: "list[dict]" = []
_ATTACH_CACHE_HITS = 0
_SEQ = iter(range(1, 1 << 62))
_ATEXIT_REGISTERED = False
_SHM_OK: "bool | None" = None


def shm_available() -> bool:
    """True when named shared memory actually works on this platform."""
    global _SHM_OK
    if _SHM_OK is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=16)
            probe.close()
            probe.unlink()
            _SHM_OK = True
        except Exception:
            _SHM_OK = False
    return _SHM_OK


def _canonical(arrays: "dict[str, np.ndarray]") -> "list[tuple[str, np.ndarray]]":
    out = []
    for name, arr in arrays.items():
        a = np.ascontiguousarray(np.asarray(arr))
        if a.dtype == object:
            raise ValueError(f"array {name!r} has dtype=object; only plain dtypes ship")
        out.append((name, a))
    return out


def _layout(items: "list[tuple[str, np.ndarray]]") -> "tuple[tuple[ArraySpec, ...], int, str]":
    """Compute specs, total packed size, and the content fingerprint."""
    specs = []
    offset = 0
    h = hashlib.sha256()
    header = [(n, a.dtype.str, a.shape) for n, a in items]
    h.update(json.dumps(header).encode())
    for name, a in items:
        offset = -(-offset // _ALIGN) * _ALIGN  # round up
        specs.append(ArraySpec(name, a.dtype.str, tuple(a.shape), offset, a.nbytes))
        offset += a.nbytes
        h.update(a.data)
    return tuple(specs), offset, h.hexdigest()


def _pack_into(buf, items, specs) -> None:
    for (name, a), spec in zip(items, specs):
        if a.nbytes:
            buf[spec.offset : spec.offset + spec.nbytes] = a.tobytes()


def _ensure_atexit() -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(_atexit_sweep)
        _ATEXIT_REGISTERED = True


def publish_arrays(
    arrays: "dict[str, np.ndarray]",
    label: str = "arrays",
    tracer=None,
) -> SharedArrayManifest:
    """Publish named arrays as one shared segment; returns the manifest.

    Identical content (same names, dtypes, shapes, bytes) republished
    while still live reuses the existing segment and bumps its refcount
    — :func:`release` must be called once per successful publish.  When
    shared memory is unavailable the manifest ships the bytes inline.
    """
    items = _canonical(arrays)
    specs, total, fingerprint = _layout(items)

    live = _PUBLISHED.get(fingerprint)
    if live is not None:
        live.refs += 1
        if tracer is not None:
            tracer.point(
                EV_SHM_PUBLISH,
                label=label,
                segment=live.manifest.segment,
                bytes=total,
                arrays=len(specs),
                reused=True,
            )
        return live.manifest

    shm = None
    if shm_available():
        from multiprocessing import shared_memory

        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_SEQ)}-{fingerprint[:12]}"
        try:
            shm = shared_memory.SharedMemory(create=True, size=max(total, 1), name=name)
        except Exception:
            shm = None

    if shm is None:
        packed = bytearray(total)
        _pack_into(packed, items, specs)
        manifest = SharedArrayManifest(
            fingerprint, None, total, specs, label=label, inline=bytes(packed)
        )
        if tracer is not None:
            tracer.point(
                EV_SHM_PUBLISH, label=label, segment=None, bytes=total,
                arrays=len(specs), reused=False,
            )
        return manifest

    _pack_into(shm.buf, items, specs)
    manifest = SharedArrayManifest(fingerprint, shm.name, total, specs, label=label)
    _PUBLISHED[fingerprint] = _Published(shm, manifest, refs=1)
    _ensure_atexit()
    if tracer is not None:
        tracer.point(
            EV_SHM_PUBLISH, label=label, segment=shm.name, bytes=total,
            arrays=len(specs), reused=False,
        )
    return manifest


def release(manifest: SharedArrayManifest) -> None:
    """Drop one reference; the last reference closes and unlinks.

    Safe to call with an inline-fallback manifest (no-op) and idempotent
    past zero.  Unlink always happens on the last release even if local
    numpy views still pin the mapping — the name is gone immediately,
    the memory when the last mapping dies.
    """
    if manifest.segment is None:
        return
    live = _PUBLISHED.get(manifest.fingerprint)
    if live is None:
        return
    live.refs -= 1
    if live.refs > 0:
        return
    del _PUBLISHED[manifest.fingerprint]
    _ATTACHED.pop(manifest.fingerprint, None)
    try:
        live.shm.close()
    except BufferError:
        # Same-process views (inline backend) still pin the mapping:
        # unlink now, retry the close at exit.
        _ZOMBIES.append(live.shm)
    try:
        live.shm.unlink()
    except FileNotFoundError:
        pass


def attach_arrays(manifest: SharedArrayManifest) -> "dict[str, np.ndarray]":
    """Map a published snapshot; returns ``{name: read-only array}``.

    Cached by fingerprint: one ``mmap`` per segment per process, reused
    across tasks.  In the publishing process itself the views alias the
    publisher's buffer directly (no second mapping).  Each *real* attach
    is logged; :func:`drain_attach_records` hands the log to the pool
    dispatcher for accounting.
    """
    global _ATTACH_CACHE_HITS
    cached = _ATTACHED.get(manifest.fingerprint)
    if cached is not None:
        _ATTACH_CACHE_HITS += 1
        return cached[1]

    t0 = time.perf_counter()
    if manifest.segment is None:
        if manifest.inline is None:
            raise ValueError("manifest has neither a segment nor inline bytes")
        buf: "object" = manifest.inline
        shm = None
    else:
        live = _PUBLISHED.get(manifest.fingerprint)
        if live is not None:
            buf = live.shm.buf
            shm = None  # publisher owns the mapping
        else:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(name=manifest.segment)
            buf = shm.buf
    views = {}
    for spec in manifest.arrays:
        n = int(np.prod(spec.shape, dtype=np.int64)) if spec.shape else 1
        a = np.frombuffer(buf, dtype=np.dtype(spec.dtype), count=n, offset=spec.offset)
        a = a.reshape(spec.shape)
        a.flags.writeable = False
        views[spec.name] = a
    _ATTACHED[manifest.fingerprint] = (shm, views)
    _ATTACH_RECORDS.append(
        {
            "fingerprint": manifest.fingerprint,
            "segment": manifest.segment,
            "label": manifest.label,
            "bytes": manifest.total_bytes,
            "seconds": time.perf_counter() - t0,
            "pid": os.getpid(),
        }
    )
    _ensure_atexit()
    return views


def drain_attach_records() -> "dict | None":
    """Return and clear this process's attach log (``None`` when empty).

    The pool worker piggybacks this on each chunk result so the
    dispatcher can account attaches and cache hits without extra IPC.
    """
    global _ATTACH_CACHE_HITS
    if not _ATTACH_RECORDS and not _ATTACH_CACHE_HITS:
        return None
    out = {"attaches": list(_ATTACH_RECORDS), "cached": _ATTACH_CACHE_HITS}
    _ATTACH_RECORDS.clear()
    _ATTACH_CACHE_HITS = 0
    return out


def published_segments() -> "list[str]":
    """Names of segments this process currently has published (live refs)."""
    return sorted(p.manifest.segment for p in _PUBLISHED.values())


def _shm_dir() -> "Path | None":
    d = Path("/dev/shm")
    return d if d.is_dir() else None


def leaked_segments() -> "list[str]":
    """All ``repro-shm-*`` names visible in ``/dev/shm`` — the leak audit.

    After every run has released its publications this must be empty;
    the chaos tests and the CI smoke job assert exactly that.  Returns
    ``[]`` on platforms without a visible shm filesystem.
    """
    d = _shm_dir()
    if d is None:
        return []
    return sorted(p.name for p in d.glob(f"{SEGMENT_PREFIX}-*"))


def cleanup_stale() -> "list[str]":
    """Unlink segments whose owning pid is dead; returns what was removed.

    The crash-safe backstop: segment names embed the creating pid, so a
    segment whose owner no longer exists is orphaned by definition
    (normal exits release via ``atexit``).  Live owners' segments are
    never touched.
    """
    removed = []
    d = _shm_dir()
    if d is None:
        return removed
    for p in d.glob(f"{SEGMENT_PREFIX}-*"):
        parts = p.name.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
            continue  # owner alive
        except ProcessLookupError:
            pass
        except PermissionError:
            continue  # owner alive under another uid
        try:
            p.unlink()
            removed.append(p.name)
        except OSError:
            pass
    return removed


def _close_or_disarm(seg) -> None:
    """Close a mapping; if live views still pin it, disarm ``__del__``.

    At this point the process is exiting (or the segment is already
    unlinked), so dropping the private ``_buf`` / ``_mmap`` references
    instead of closing merely defers reclamation to process teardown —
    the alternative is a ``BufferError`` traceback spat from ``__del__``
    during interpreter shutdown.
    """
    try:
        seg.close()
    except BufferError:
        try:
            seg._buf = None
            seg._mmap = None
        except AttributeError:
            pass


def _atexit_sweep() -> None:
    """Last-chance cleanup: unlink every live publication, close mappings."""
    for live in list(_PUBLISHED.values()):
        _close_or_disarm(live.shm)
        try:
            live.shm.unlink()
        except (FileNotFoundError, OSError):
            pass
    _PUBLISHED.clear()
    for seg, _views in list(_ATTACHED.values()):
        if seg is not None:
            _close_or_disarm(seg)
    _ATTACHED.clear()
    for seg in _ZOMBIES:
        _close_or_disarm(seg)
    _ZOMBIES.clear()
