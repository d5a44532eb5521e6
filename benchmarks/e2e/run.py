#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the planning stack.

Two ways in:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` — one run of
  one workload in this process (what ``BENCHMARK.json`` declares).  Prints
  every metric by name with its unit, then one JSON object as the last
  line: the end-to-end metrics with tracing off (``--trace 0``) or the
  per-layer metrics from a traced run (``--trace 1``).
* ``run.py [--seed N] [--workload NAME] [--repeat-check]`` — the whole
  set: each workload in its own subprocess, an untraced run then a traced
  one, summarised in ``out/results.json``.  ``--repeat-check`` instead
  takes two untraced sets of ``REPEAT_RUNS`` interleaved runs per workload
  and fails when the two medians of any end-to-end metric differ by more
  than its bound.

Exit status is non-zero when any output disagrees with its oracle, when
the wrapper-coverage guard trips, or when the program cannot be found.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 20140519
#: full set-ups per run; ``setup_s`` is the median of import + set-up.
SETUP_REPEATS = 3
#: runs per workload in each of the two sets ``--repeat-check`` compares.
REPEAT_RUNS = 3
WORKLOAD_NAMES = ("prm_medcube_sim", "rrt_mixed30_local", "prm_warehouse_process",
                  "serve_mixed", "sim_strategy_sweep")
#: diagnostics printed beside the metrics: the clock's own readings and the
#: median calibration reading over its nominal value.
RAW_UNITS = {"setup_raw_s": "s", "wall_raw_s": "s", "wall_stolen_s": "s",
             "machine_slowdown": "ratio"}


def benchmark_decl() -> dict:
    """The checked-in ``BENCHMARK.json`` (bounds, run length, metric names)."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def end_to_end_decl() -> "list[dict]":
    """Every end-to-end metric with its unit, direction and bound: the
    ones every workload reports (``BENCHMARK.json``) and the ones only
    some do (``extra_metrics.json``; the README says why there are two)."""
    with open(HERE / "extra_metrics.json") as fh:
        return benchmark_decl()["end_to_end"] + json.load(fh)["end_to_end"]


def load_program():
    """Put the program and the harness on ``sys.path`` and import the
    workloads, timing the import: it is the first part of every set-up."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: the program under test is missing ({SRC / 'repro'})")
    for p in (str(HERE), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)
    t0 = time.perf_counter()
    import workloads

    return workloads, time.perf_counter() - t0


def _children() -> "list[int]":
    """Pids of this process's live or unreaped children, from ``/proc``."""
    me, pids = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    # "pid (comm) state ppid ...": comm may hold spaces.
                    ppid = fh.read().rsplit(")", 1)[1].split()[1]
            except (OSError, IndexError):
                continue
            if ppid == me:
                pids.append(int(entry))
    return pids


def stop_children(patience_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Pool workers are joined by ``concurrent.futures`` itself; what outlives
    ``main`` is multiprocessing's resource tracker, started with the first
    shared-memory segment, which only exits once its pipe closes — normally
    when this process is already gone.  Registered with ``atexit`` before
    the program is imported, so it runs after the program's own exit hooks
    (the shm sweep still needs the tracker) on every way out.
    """
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if hasattr(tracker, "_stop"):
        tracker._stop()  # closes the pipe and waits for the tracker's pid
    deadline = time.monotonic() + patience_s
    killed = False
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid == 0:
            if not killed and time.monotonic() > deadline:
                for child in _children():
                    os.kill(child, 9)
                killed = True
            time.sleep(0.01)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_single(wl, seed: int, seconds: float, trace: bool, import_s: float = 0.0,
               corrupt_oracle: bool = False) -> "tuple[int, dict, dict]":
    """One measured run of ``wl``: set-up (repeated), timed operations,
    oracle.  Returns ``(exit code, contract result, detail)``."""
    from layers import TARGETS, per_layer_names
    from spans import Recorder, write_spans
    from stats import at_nominal_speed, calibrate, steal_clock, summary

    rec = Recorder() if trace else None
    setups_raw, setups = [], []
    before = calibrate()
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        # The traced run keeps its last set-up's spans (scene generation).
        traced_setup = rec is not None and last
        if traced_setup:
            rec.install(TARGETS)
        try:
            with rec.operation("setup") if traced_setup else nullcontext():
                s0 = steal_clock()
                t0 = time.perf_counter()
                state = wl.setup(wl.generate(seed, seconds))
                setups_raw.append(import_s + time.perf_counter() - t0)
                stolen = wl.steal_share * (steal_clock() - s0)
        finally:
            if traced_setup:
                rec.uninstall()
        after = calibrate()
        setups.append(at_nominal_speed(setups_raw[-1], before, after, stolen))
        before = after
        if not last:
            wl.teardown(state)
    try:
        m = wl.measure(state, seconds, rec)
        # Before the oracle runs: its memory is the harness's, not the program's.
        rss = peak_rss_mb()
        errors = list(m.failures)
        if not errors:
            errors += wl.verify(state, m, corrupt_oracle)
        detail = {
            "workload": wl.name, "note": wl.note, "seed": seed, "seconds": seconds,
            "trace": int(trace),
            "setup_samples_s": setups, "import_s": import_s,
            "wall": summary(m.nominal_walls) if m.nominal_walls else None, "extra": m.extra,
        }
        if trace:
            metrics, guard = _per_layer(wl, state, m, rec)
            errors += guard
            write_spans(OUT / f"spans-{wl.name}.jsonl", rec.spans, wl.name)
            detail["spans"] = len(rec.spans)
            names = per_layer_names()
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(m.nominal_walls) if m.walls else 0.0,
                "peak_rss_mb": rss,
            }
            names = list(metrics)
            if m.walls:
                m.extra.update(
                    setup_raw_s=statistics.median(setups_raw),
                    wall_raw_s=statistics.median(m.walls),
                    wall_stolen_s=statistics.median(m.stolen),
                    machine_slowdown=statistics.median(
                        raw / nominal for raw, nominal in zip(m.walls, m.nominal_walls)),
                )
    finally:
        wl.teardown(state)
    failed = min(len(errors), m.attempted)
    units = _units()
    metrics["bench.fail_frac" if trace else "fail_frac"] = failed / max(m.attempted, 1)
    result = {
        "correct": not errors,
        "attempted": max(m.attempted, 1),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    detail.update(errors=errors[:20], metrics=metrics)
    return (1 if errors else 0), result, detail


def _per_layer(wl, state, m, rec) -> "tuple[dict, list[str]]":
    """Per-layer metrics and coverage-guard errors of a traced run."""
    from layers import Ledger, per_layer_names

    ops, n_ops = wl.ledger_ops(m)
    ledger = Ledger(rec.spans, ops)
    metrics = dict.fromkeys(per_layer_names(), 0.0)
    metrics.update(ledger.time_metrics(n_ops))
    metrics.update(m.counts)
    metrics.update(wl.count_metrics(state, m, ledger))
    metrics["geometry.scene_gen_s"] = ledger.over({"setup"}).self_s.get("geometry.scene_gen", 0.0)
    # Attribution is judged on the closed-loop operations only: an open
    # loop is idle between arrivals by construction.
    metrics["bench.unattributed_frac"] = ledger.over(set(m.traced_ops)).unattributed_frac()
    if m.walls and m.traced_walls:
        metrics["bench.trace_overhead_frac"] = (
            statistics.median(m.traced_walls) / statistics.median(m.walls) - 1.0)
    return metrics, wl.coverage(ledger)


def _units() -> "dict[str, str]":
    from layers import per_layer_decl

    units = {d["name"]: d["unit"] for d in per_layer_decl() + end_to_end_decl()}
    units.update(RAW_UNITS)
    return units


def print_metrics(detail: dict) -> None:
    """Every metric by name with its unit, one per line."""
    units = _units()
    if detail["note"]:
        print(f"# {detail['workload']}: {detail['note']}")
    wall = detail.get("wall")
    if wall:
        print(f"# {detail['workload']}: {wall['n']} timed operations, wall_s quartiles "
              f"{wall['q1']:.4f} / {wall['median']:.4f} / {wall['q3']:.4f}")
    for name, value in {**detail["metrics"], **detail["extra"]}.items():
        print(f"{name:36s} {value:14.6g} {units.get(name, 'count')}")
    for err in detail["errors"]:
        print(f"MISMATCH {err}")


def main_single(args) -> int:
    workloads, import_s = load_program()
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    code, result, detail = run_single(wl, args.seed, args.seconds, bool(args.trace), import_s)
    with open(OUT / f"run-{wl.name}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1, default=float)
    print_metrics(detail)
    print(json.dumps(result, default=float), flush=True)
    return code


# -- the whole set ------------------------------------------------------------

def _child(workload: str, seed: int, seconds: int, trace: int) -> "tuple[int, dict]":
    """One workload run in its own process (clean caches, own peak RSS)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    try:
        with open(OUT / f"run-{workload}-trace{trace}.json") as fh:
            return proc.returncode, json.load(fh)
    except (OSError, ValueError):
        return proc.returncode or 1, {"metrics": {}, "extra": {}, "errors": ["no result written"]}


def _meta(seed: int) -> dict:
    versions = {"python": platform.python_version()}
    for mod in ("numpy", "numba"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    nproc = os.cpu_count() or 1
    return {"seed": seed, "nproc": nproc, "underprovisioned": nproc < 4,
            "commit": commit, **versions}


def run_set(names, seed: int, seconds: int) -> "tuple[int, dict]":
    """Every workload once untraced, then once traced."""
    code = 0
    results = {}
    for name in names:
        results[name] = {}
        for trace in (0, 1):
            rc, detail = _child(name, seed, seconds, trace)
            code |= rc
            results[name][f"trace{trace}"] = detail
    return code, results


def relative_difference(first: float, second: float) -> float:
    """``|second - first|`` as a share of ``first``; a move off zero is infinite."""
    if first == second:
        return 0.0
    return abs(second - first) / abs(first) if first else float("inf")


def repeat_check(names, seed: int, seconds: int) -> int:
    """Two untraced sets of ``REPEAT_RUNS`` runs per workload, their runs
    interleaved so that both see the same drift of the machine; the two
    medians of every end-to-end metric must agree within its own bound."""
    code = 0
    sets = ({n: [] for n in names}, {n: [] for n in names})
    for run in range(REPEAT_RUNS):
        for name in names:
            for runs in sets:
                rc, detail = _child(name, seed + run, seconds, 0)
                code |= rc
                runs[name].append({**detail["metrics"], **detail["extra"]})
    print(f"{'workload':24s} {'metric':20s} {'first':>12s} {'second':>12s} {'diff':>8s} bound")
    for name in names:
        for decl in end_to_end_decl():
            # an entry of BENCHMARK.json names no workloads: it is every workload's.
            if name not in decl.get("workloads", names):
                continue
            metric, bound = decl["name"], decl["bound"]
            a, b = (statistics.median(r[metric] for r in runs[name]) for runs in sets)
            diff = relative_difference(a, b)
            over = diff > bound
            code |= int(over)
            print(f"{name:24s} {metric:20s} {a:12.5g} {b:12.5g} "
                  f"{diff:8.2%} {bound:.0%}{'  EXCEEDED' if over else ''}")
    return code


def main_set(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    # Stale spans and results from an earlier harness must never be read
    # as this run's output.
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    if args.repeat_check:
        return repeat_check(names, args.seed, args.seconds)
    code, results = run_set(names, args.seed, args.seconds)
    with open(OUT / "results.json", "w") as fh:
        json.dump({"meta": _meta(args.seed), "workloads": results}, fh, indent=1)
    print(f"wrote {OUT / 'results.json'}; {'MISMATCHES ABOVE' if code else 'all outputs correct'}")
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="run one workload in this process, tracing off (0) or on (1)")
    ap.add_argument("--repeat-check", action="store_true",
                    help="take two untraced sets and compare their medians against the bounds")
    args = ap.parse_args(argv)
    atexit.register(stop_children)
    # A terminated run leaves through the exit hooks too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: the program under test is missing ({SRC / 'repro'})")
    if args.seconds is None:
        args.seconds = benchmark_decl()["run_seconds"]
    if args.trace is not None:
        if not args.workload:
            ap.error("--trace needs --workload")
        return main_single(args)
    return main_set(args)


if __name__ == "__main__":
    sys.exit(main())
