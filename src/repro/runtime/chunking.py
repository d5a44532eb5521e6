"""Chunk policies for the true-parallel pool: granularity made adaptive.

``run_tasks_parallel`` historically took ``chunksize`` as a fixed integer
the caller had to guess: too small and dispatch overhead dominates tiny
tasks, too large and a slow region clusters with others behind one worker
— exactly the granularity trade the paper's distributed schedulers make
with region size.  This module adds one adaptive policy beside the
fixed int, both resolved up front into a deterministic chunk list:

* an ``int`` keeps the historical fixed slicing (``"fixed-N"``),
* ``"guided"`` is OpenMP-style guided self-scheduling: each chunk takes
  ``remaining / (k * workers)`` tasks (``k = 2``), so early chunks are
  large (amortising dispatch) and the tail decays to single tasks (fine
  load balancing exactly where stragglers hurt).

Resolution is a pure function of ``(tasks, chunksize, workers)``
— the same inputs always produce the same chunk list, so policy runs are
bit-identical to the ``chunksize=1`` oracle (only grouping changes, never
task identity or order of first dispatch).
"""

from __future__ import annotations

__all__ = ["CHUNK_POLICIES", "policy_label", "resolve_chunks", "validate_chunksize"]

#: Named adaptive policies accepted anywhere a ``chunksize`` int is.
CHUNK_POLICIES = ("guided",)

#: Guided decay factor ``k``: chunk size is ``remaining // (k * workers)``.
_GUIDED_K = 2


def validate_chunksize(chunksize: "int | str") -> None:
    """Raise ``ValueError`` unless ``chunksize`` is a valid int or policy."""
    if isinstance(chunksize, str):
        if chunksize not in CHUNK_POLICIES:
            raise ValueError(
                f"chunksize must be an int >= 1 or one of {CHUNK_POLICIES}, "
                f"got {chunksize!r}"
            )
        return
    if isinstance(chunksize, bool) or not isinstance(chunksize, int):
        raise ValueError(
            f"chunksize must be an int >= 1 or one of {CHUNK_POLICIES}, "
            f"got {chunksize!r}"
        )
    if chunksize < 1:
        raise ValueError("chunksize must be >= 1")


def policy_label(chunksize: "int | str") -> str:
    """Human/meta label for the effective policy: ``fixed-N`` or the name."""
    return chunksize if isinstance(chunksize, str) else f"fixed-{chunksize}"


def _fixed(tasks: "list[int]", size: int) -> "list[tuple[int, ...]]":
    return [tuple(tasks[i : i + size]) for i in range(0, len(tasks), size)]


def _guided(tasks: "list[int]", workers: int) -> "list[tuple[int, ...]]":
    chunks: "list[tuple[int, ...]]" = []
    i, n = 0, len(tasks)
    while i < n:
        size = max(1, (n - i) // (_GUIDED_K * workers))
        chunks.append(tuple(tasks[i : i + size]))
        i += size
    return chunks


def resolve_chunks(
    tasks: "list[int]", chunksize: "int | str", workers: int
) -> "list[tuple[int, ...]]":
    """Resolve a chunksize (int or policy name) into the chunk list.

    Deterministic: tasks keep their order, every task appears exactly
    once, and the same inputs always produce the same grouping.
    """
    validate_chunksize(chunksize)
    if not tasks:
        return []
    if isinstance(chunksize, int):
        return _fixed(tasks, chunksize)
    return _guided(tasks, workers)
