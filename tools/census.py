#!/usr/bin/env python
"""Path census: what of ``src/repro`` no documented entry point runs.

A path with no end-to-end row and no parity role is deleted (ROADMAP
aim 2).  This answers "which of it does no entry point use" by
execution, not by grep: a hook installed as ``sitecustomize`` in every
Python process records what runs in a ``repro`` frame — in every thread
and in forked pool workers — while each entry point of ``docs/index.md``
runs once (:data:`ENTRY_POINTS`).  Three modes:

``functions``
    every ``repro`` function no process entered, with its length.
``statements``
    every statement no process ran inside the functions some process
    entered (a trace function instead of a profile hook; slower).
``options``
    every defaulted parameter no entry point passed a non-default value:
    per function the parameters with a default (and a ``**kwargs``)
    whose value, at every call, was the default itself or equal to it
    (a ``**kwargs`` counts as set when it was non-empty).  Each is a
    candidate for a module constant.  Dataclass fields are not covered
    (the generated ``__init__`` has no source file under ``repro``).

What a listing holds is a candidate, not a verdict: the oracles that
replay a fast path live in ``tests/oracle.py``, names
``benchmarks/e2e/layers.py`` ``TARGETS`` wraps stay, and so do error
checks, fault paths, public API and small accessors.

Run from anywhere (about 4 min in ``functions`` and ``options`` mode,
about 15 min in ``statements`` mode on a 2-vCPU box):

    python tools/census.py --mode options --out census-options.txt

The report goes to stdout and, with ``--out``, to that file.  The
entry points' own files (traces, the e2e harness's ``out/``) land in a
temporary directory or where they always do; nothing in the tree is
edited.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
MODES = ("functions", "statements", "options")

#: Every entry point of ``docs/index.md``, as ``(argv, run in the
#: repository root)``; the others run in a scratch directory because they
#: write their traces into the working directory.  The ablations run
#: under ``--benchmark-disable``: pytest-benchmark's ``pedantic`` wraps
#: each benched call in an instrumentation pause that clears
#: ``sys.setprofile`` / ``sys.settrace``, and the census would not see
#: inside them.
E2E_WORKLOADS = [
    w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]
ENTRY_POINTS = (
    *(([sys.executable, "benchmarks/e2e/run.py", "--workload", w, "--seed", "1",
        "--trace", "0"], True) for w in E2E_WORKLOADS),
    ([sys.executable, "-m", "repro.bench", "all"], True),
    ([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
      *sorted(str(p.relative_to(ROOT)) for p in (ROOT / "benchmarks").glob("test_ablation_*.py"))],
     True),
    *(([sys.executable, str(e), "--quick"], False)
      for e in sorted((ROOT / "examples").glob("*.py"))),
    ([sys.executable, str(ROOT / "tools" / "chaos_smoke.py"), "chaos.jsonl"], False),
    ([sys.executable, "-m", "repro.obs", "summarize", "chaos.jsonl"], False),
)

#: The hook, saved as ``sitecustomize.py`` in a directory put first on
#: ``PYTHONPATH``.  ``REPRO_CENSUS`` names the directory each process
#: appends its records to, ``REPRO_CENSUS_MODE`` one of :data:`MODES`.
HOOK = r'''
import atexit
import dis
import gc
import os
import sys
import threading

OUT = os.environ.get("REPRO_CENSUS")
MODE = os.environ.get("REPRO_CENSUS_MODE", "functions")
seen = set()  # functions entered, as "file:first line"
ran = set()  # lines run in statement mode, as "file:line"
passed = set()  # options mode: "file:first line:parameter" given a non-default value
_defaults = {}  # code object -> ((parameter, default), ...)
_starts = {}  # generator code object -> offset of its first RESUME
_VARKW = object()  # the "default" of a **kwargs parameter: empty
_RESUMABLE = 0x20 | 0x80 | 0x200  # CO_GENERATOR | CO_COROUTINE | CO_ASYNC_GENERATOR


def ours(code):
    return f"{os.sep}repro{os.sep}" in code.co_filename


def function_of(frame):
    """The function object running ``frame``: its qualified name looked up
    from the module's globals, else (nested functions) the garbage
    collector's referrers of its code."""
    code = frame.f_code
    parts = getattr(code, "co_qualname", code.co_name).split(".")
    if "<locals>" not in parts:
        obj = frame.f_globals.get(parts[0])
        for part in parts[1:]:
            obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
        for attr in ("__func__", "fget", "func"):
            obj = getattr(obj, attr, obj)
        while getattr(obj, "__code__", None) is not code and hasattr(obj, "__wrapped__"):
            obj = obj.__wrapped__
        if getattr(obj, "__code__", None) is code:
            return obj
    for ref in gc.get_referrers(code):
        if getattr(ref, "__code__", None) is code:
            return ref
    return None


def defaults_of(code, fn):
    """``((parameter, default), ...)`` of ``fn``, ``**kwargs`` included."""
    if fn is None:
        return ()
    positional = code.co_varnames[: code.co_argcount]
    found = []
    if fn.__defaults__:
        found += zip(positional[len(positional) - len(fn.__defaults__):], fn.__defaults__)
    found += (fn.__kwdefaults__ or {}).items()
    if code.co_flags & 0x08:  # CO_VARKEYWORDS
        index = code.co_argcount + code.co_kwonlyargcount + bool(code.co_flags & 0x04)
        found.append((code.co_varnames[index], _VARKW))
    return tuple(found)


def is_default(value, default):
    if default is _VARKW:
        return not value
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except Exception:  # e.g. an array against an array
        return False


def first_entry(frame):
    """False when ``frame`` is a generator resumed after its first entry:
    its parameters may have been rebound since the call."""
    code = frame.f_code
    if not code.co_flags & _RESUMABLE:
        return True
    start = _starts.get(code)
    if start is None:
        start = _starts[code] = next(
            (i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"), 0)
    return frame.f_lasti <= start


def non_defaults(frame):
    """The parameters of ``frame``'s call that did not get their default."""
    code = frame.f_code
    if not first_entry(frame):
        return []
    table = _defaults.get(code)
    if table is None:
        table = _defaults[code] = defaults_of(code, function_of(frame))
    if not table:
        return []
    values = frame.f_locals
    return [name for name, default in table if not is_default(values.get(name), default)]


def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and ours(code):
        key = f"{code.co_filename}:{code.co_firstlineno}"
        seen.add(key)
        if MODE == "options":
            passed.update(f"{key}:{name}" for name in non_defaults(frame))


def line(frame, event, arg):
    if event == "line":
        ran.add(f"{frame.f_code.co_filename}:{frame.f_lineno}")
    return line


def trace(frame, event, arg):
    # Called on every new frame: record the entry, trace repro lines only.
    if not ours(frame.f_code):
        return None
    hook(frame, event, arg)
    return line


def report():
    for suffix, found in ((".calls", seen), (".lines", ran), (".options", passed)):
        with open(os.path.join(OUT, f"{os.getpid()}{suffix}"), "a") as f:
            f.write("\n".join(sorted(found)) + "\n")


def start():
    if MODE == "statements":
        sys.settrace(trace)
        threading.settrace(trace)
    else:
        sys.setprofile(hook)
        threading.setprofile(hook)


if OUT:
    start()
    atexit.register(report)
    # Forked pool workers leave through os._exit, so atexit never runs
    # there: wrap the pool initializer so each worker restarts the hook
    # and reports through multiprocessing's exit finalizers.
    from multiprocessing import util

    from repro.runtime import local_pool

    init = local_pool._pool_init

    def pool_init(*args):
        util.Finalize(None, report, exitpriority=0)
        start()
        init(*args)

    local_pool._pool_init = pool_init
'''


def run_entry_points(mode: str, records: Path) -> None:
    """Run every entry point with the hook installed; records go to ``records``."""
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        hook_dir = Path(scratch) / "hook"
        work = Path(scratch) / "work"
        hook_dir.mkdir()
        work.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, REPRO_CENSUS=str(records), REPRO_CENSUS_MODE=mode,
                   PYTHONPATH=os.pathsep.join([str(hook_dir), str(ROOT / "src")]))
        for argv, in_root in ENTRY_POINTS:
            print("census:", *argv[1:], file=sys.stderr, flush=True)
            subprocess.run(argv, cwd=ROOT if in_root else work, env=env, check=True,
                           stdout=subprocess.DEVNULL)


def _read(records: Path, suffix: str) -> "set[str]":
    found: "set[str]" = set()
    for f in records.glob(f"*{suffix}"):
        found.update(f.read_text().split())
    return found


def _functions(tree: ast.AST):
    """``(first line, node)`` of every function in line order; the first
    line is the first decorator's, as a code object's ``co_firstlineno``
    is."""
    found = [(min([node.lineno] + [d.lineno for d in node.decorator_list]), node)
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted(found, key=lambda item: item[0])


def _qualnames(tree: ast.Module) -> "dict[int, str]":
    """``Class.method`` / ``function`` by a function node's ``id``."""
    names: "dict[int, str]" = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names[id(node)] = prefix + node.name
                visit(node.body, f"{prefix}{node.name}.<locals>.")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")

    visit(tree.body, "")
    return names


def defaulted_parameters(node: "ast.FunctionDef | ast.AsyncFunctionDef"):
    """``(parameter, default source)`` of every parameter of ``node`` with a
    default, plus its ``**kwargs`` as ``(name, None)``."""
    a = node.args
    positional = a.posonlyargs + a.args
    found = [(arg.arg, ast.unparse(d))
             for arg, d in zip(positional[len(positional) - len(a.defaults):], a.defaults)]
    found += [(arg.arg, ast.unparse(d)) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
              if d is not None]
    if a.kwarg is not None:
        found.append((a.kwarg.arg, None))
    return found


def unused_functions(called: "set[str]"):
    for path in sorted(SRC.resolve().rglob("*.py")):
        for first, node in _functions(ast.parse(path.read_text())):
            if f"{path}:{first}" not in called:
                yield f"{path.relative_to(ROOT)}:{first} {node.name} {node.end_lineno - first + 1}"


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_CLAUSES = (ast.excepthandler, ast.match_case)


def _statements(body):
    """Every statement of a body, nested blocks included, nested scopes not
    (a nested ``def`` is one statement; its body is a function of its own).
    ``global`` / ``nonlocal`` carry no code, so no line event."""
    for node in body:
        if not isinstance(node, (ast.Global, ast.Nonlocal)):
            yield node
        if isinstance(node, _SCOPES):
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                yield from _statements([child])
            elif isinstance(child, _CLAUSES):
                yield from _statements(child.body)


def _header(node):
    """Lines of ``node`` before its first nested statement or clause; a
    statement ran if any of them ran."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    inner = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, (ast.stmt, *_CLAUSES))]
    return range(first, min(inner, default=node.end_lineno + 1))


def unrun_statements(called: "set[str]", ran: "set[str]"):
    """Statements no process ran inside the functions some process entered
    (by its own call record, never by its ``def`` line, which runs when
    the module loads; a docstring is not a statement)."""
    for path in sorted(SRC.resolve().rglob("*.py")):
        for first, fn in _functions(ast.parse(path.read_text())):
            if f"{path}:{first}" not in called:
                continue
            body = fn.body
            if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            for stmt in _statements(body):
                if not any(f"{path}:{n}" in ran for n in _header(stmt)):
                    yield f"{path.relative_to(ROOT)}:{stmt.lineno} {fn.name} {type(stmt).__name__}"


def unset_options(called: "set[str]", passed: "set[str]"):
    """Per function, its defaulted parameters that no call gave a
    non-default value, one line each function; a function no process
    entered is marked ``never entered``."""
    for path in sorted(SRC.resolve().rglob("*.py")):
        tree = ast.parse(path.read_text())
        names = _qualnames(tree)
        for first, fn in _functions(tree):
            key = f"{path}:{first}"
            unset = [(name, default) for name, default in defaulted_parameters(fn)
                     if f"{key}:{name}" not in passed]
            if not unset:
                continue
            where = "" if key in called else "  (never entered)"
            listing = ", ".join(f"**{name}" if default is None else f"{name}={default}"
                                for name, default in unset)
            yield f"{path.relative_to(ROOT)}:{first} {names.get(id(fn), fn.name)}({listing}){where}"


def report(mode: str, records: Path) -> "list[str]":
    called = _read(records, ".calls")
    if mode == "functions":
        return list(unused_functions(called))
    if mode == "statements":
        return list(unrun_statements(called, _read(records, ".lines")))
    return list(unset_options(called, _read(records, ".options")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mode", choices=MODES, default="functions")
    ap.add_argument("--out", type=Path, help="also write the report to this file")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="census-records-") as records:
        run_entry_points(args.mode, Path(records))
        lines = report(args.mode, Path(records))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        args.out.write_text(text)
    print(f"census ({args.mode}): {len(lines)} entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
