#!/usr/bin/env python
"""Interleaved parent/change pairs of the end-to-end benchmark.

Exports two revisions into fresh directories (``git archive | tar -x``;
nothing under ``benchmarks/e2e`` is imported or edited), then runs

    python3 benchmarks/e2e/run.py --workload W --seed S --trace 0

once on each side per pair — both sides of a pair on the same seed, the
side that starts alternating — and reads each run's result object from the
last line of its output.  Prints every run, then per metric each side's
quartiles, the pairs the change won and the verdict of
docs/benchmarks.md's rule (choosing-metrics section 8): ``gain`` only when
the change wins at least nine tenths of all pairs *and* the medians lie
further apart than the parent's own quartiles.

Stops, with a non-zero exit and no table, as soon as a run on either side
reports a failed operation or an output that disagrees with its oracle.

``--record FILE`` appends each table row to ``FILE`` as one JSON line
(:func:`records`): both tree ids, the seeds, the pair count, both sides'
quartiles, the wins, the verdict, ``nproc`` and the ``underprovisioned``
flag — the repository keeps its claims in ``BENCH_history.jsonl``.

Run:  python tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
          --workload prm_warehouse_process --pairs 10 --seed 601 \\
          --record BENCH_history.jsonl

Any tree-ish names a side; for work not yet committed, ``git add -A`` and
pass ``--change $(git write-tree)``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: fewer pairs than this can clear a change of regressing, not claim a gain.
MIN_PAIRS_FOR_GAIN = 10
#: a box with fewer cores than this runs the pool rows under-provisioned
#: (the rule ``benchmarks/e2e/run.py`` records as ``underprovisioned``).
PROVISIONED_NPROC = 4


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """``(q1, median, q3)``, inclusive method (the sample's own range)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pair_wins(parent: "list[float]", change: "list[float]", better: str = "lower") -> int:
    """Pairs in which the change reads strictly better; a tie counts for neither."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def verdict(
    parent: "list[float]", change: "list[float]", bound: float, better: str = "lower"
) -> str:
    """One metric on one workload, from paired runs (``parent[i]`` beside ``change[i]``).

    * ``gain`` — at least ten pairs were run, the change wins at least nine
      tenths of them and its median is better by more than the distance
      between the parent's quartiles.  Nothing less is claimable.
    * ``regression`` — the change's median is worse than the parent's by
      more than ``bound`` (a fraction of the parent's median).
    * ``unresolved`` — no regression shows, but the parent's own spread is
      wider than the difference or than the bound, so "unchanged" cannot be
      said either; unless every run of the change reads better than every
      run of the parent.
    * ``within bound`` — otherwise.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict needs the same, non-zero number of runs on both sides")
    sign = 1.0 if better == "lower" else -1.0
    p = [sign * x for x in parent]  # lower is better from here on
    c = [sign * x for x in change]
    q1, p_med, q3 = quartiles(p)
    spread = q3 - q1
    worse_by = statistics.median(c) - p_med
    allowed = bound * abs(p_med)
    enough = len(p) >= MIN_PAIRS_FOR_GAIN and pair_wins(p, c) >= 0.9 * len(p)
    if enough and -worse_by > spread:
        return "gain"
    if worse_by > allowed:
        return "regression"
    if max(c) < min(p):
        return "within bound"
    if spread >= abs(worse_by) or spread > allowed:
        return "unresolved"
    return "within bound"


def tree_id(rev: str) -> str:
    """The git tree id ``rev`` names: the same content reads the same id."""
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{tree}}"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` into the new directory ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, stdout=subprocess.PIPE
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run in ``tree``; its result object (the last output line)."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{tree.name}: {workload} seed {seed} printed no result object "
            f"(exit status {proc.returncode})"
        ) from None


def declared_metrics(tree: Path) -> "list[dict]":
    with open(tree / "BENCHMARK.json") as fh:
        return json.load(fh)["end_to_end"]


def run_pairs(trees: "dict[str, Path]", workload: str, pairs: int, seed: int) -> "dict[str, dict]":
    """``{side: {metric: [value per pair]}}``, printing every run made."""
    runs = {side: {} for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(trees[side], workload, seed + i)
            if result["failed"] or not result["correct"]:
                raise SystemExit(
                    f"{side}: {workload} seed {seed + i} reports {result['failed']} failed of "
                    f"{result['attempted']} operations, correct={result['correct']}: "
                    "a timing beside failures is not comparable, nothing reported"
                )
            values = {name: m["value"] for name, m in result["metrics"].items()}
            for name, value in values.items():
                runs[side].setdefault(name, []).append(value)
            print(f"{workload} pair {i + 1:2d} seed {seed + i} {side:6s} "
                  + " ".join(f"{name}={value:.4g}" for name, value in values.items()),
                  flush=True)
    return runs


def records(
    workload: str, runs: "dict[str, dict]", metrics: "list[dict]",
    trees: "dict[str, str]", seed: int, nproc: int,
) -> "list[dict]":
    """One record per declared metric of ``workload``'s pairs, ``trees``
    the two sides' tree ids: the table's rows, and what ``--record`` appends."""
    n = len(next(iter(runs["parent"].values())))
    out = []
    for decl in metrics:
        name, better, bound = decl["name"], decl["better"], decl["bound"]
        parent, change = runs["parent"][name], runs["change"][name]
        out.append({
            "workload": workload, "metric": name, "better": better, "bound": bound,
            "parent_tree": trees["parent"], "change_tree": trees["change"],
            "seeds": list(range(seed, seed + n)), "pairs": n,
            "parent_quartiles": list(quartiles(parent)),
            "change_quartiles": list(quartiles(change)),
            "wins": pair_wins(parent, change, better),
            "verdict": verdict(parent, change, bound, better),
            "nproc": nproc, "underprovisioned": nproc < PROVISIONED_NPROC,
        })
    return out


def report(rows: "list[dict]") -> None:
    print(f"\n{rows[0]['workload']}: {rows[0]['pairs']} pairs; q1 / median / q3 per side")
    for row in rows:
        pq, cq = row["parent_quartiles"], row["change_quartiles"]
        print(
            f"  {row['metric']:12s} parent {pq[0]:.4g} / {pq[1]:.4g} / {pq[2]:.4g}   "
            f"change {cq[0]:.4g} / {cq[1]:.4g} / {cq[2]:.4g}   "
            f"change/parent {cq[1] / pq[1]:.3f}   wins {row['wins']}/{row['pairs']}   "
            f"{row['verdict']} (bound {row['bound']:.0%})"
        )


def append_records(path: Path, rows: "list[dict]") -> None:
    """``rows`` appended to ``path`` as JSON lines."""
    with open(path, "a") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="tree-ish of the baseline")
    ap.add_argument("--change", default="HEAD", help="tree-ish of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="a BENCHMARK.json workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the first pair (pair i runs seed + i); "
                         "use ones the change was not written against")
    ap.add_argument("--workdir", type=Path, default=None,
                    help="where the two trees are exported (default: a new temporary directory)")
    ap.add_argument("--record", type=Path, default=None, metavar="FILE",
                    help="append one JSON line per (workload, metric) to FILE")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
    ids = {side: tree_id(getattr(args, side)) for side in SIDES}
    nproc = os.cpu_count() or 1
    with tempfile.TemporaryDirectory(prefix="bench-pairs-", dir=args.workdir) as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(getattr(args, side), trees[side])
        metrics = declared_metrics(trees["parent"])
        for workload in args.workload:
            runs = run_pairs(trees, workload, args.pairs, args.seed)
            rows = records(workload, runs, metrics, ids, args.seed, nproc)
            report(rows)
            if args.record is not None:
                append_records(args.record, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
