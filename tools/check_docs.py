#!/usr/bin/env python
"""Keep the docs subsystem in sync with the code.

Three checks, all cheap enough for every push (CI ``docs-check`` job):

1. **Module-map coverage** — every top-level module or package under
   ``src/repro/`` must appear as ``repro.<name>`` in the module map of
   ``docs/index.md``.  Adding a subsystem without documenting it fails
   the build; so does documenting a module that no longer exists.

2. **Snippet syntax** — every fenced ``python`` code block in
   ``docs/*.md`` and ``README.md`` must at least ``compile()``.  The
   snippets are illustrative (they may reference names without
   importing them), so they are not executed — but a snippet that is
   not valid Python is always a documentation bug.

3. **Benchmark page** — the workload, end-to-end-metric and per-layer
   tables of ``docs/benchmarks.md`` (between ``<!-- generated:NAME -->``
   markers) must equal what ``BENCHMARK.json`` and
   ``benchmarks/e2e/extra_metrics.json`` generate.  A stale block fails
   with the text it should hold, ready to paste.

Exits non-zero with one entry per problem.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DOCS = REPO / "docs"
INDEX = DOCS / "index.md"
BENCH_PAGE = DOCS / "benchmarks.md"
BENCHMARK = REPO / "BENCHMARK.json"
EXTRA_METRICS = REPO / "benchmarks" / "e2e" / "extra_metrics.json"

_FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.M | re.S)
_MODULE_REF = re.compile(r"`repro\.([A-Za-z_][A-Za-z0-9_]*)`")
_GENERATED = re.compile(
    r"^<!-- generated:(\w+) -->\n(.*?)\n<!-- /generated:\1 -->$", re.M | re.S)


def repo_modules() -> set[str]:
    """Top-level modules/packages of ``repro`` (filesystem truth)."""
    names = set()
    for entry in SRC.iterdir():
        if entry.name.startswith(("_", ".")):
            continue
        if entry.is_dir() and (entry / "__init__.py").exists():
            names.add(entry.name)
        elif entry.suffix == ".py":
            names.add(entry.stem)
    return names


def mapped_modules(index_text: str) -> set[str]:
    """``repro.<name>`` entries in docs/index.md's module-map table."""
    in_map = False
    names = set()
    for line in index_text.splitlines():
        if line.lstrip().startswith("## "):
            in_map = line.strip().lower() == "## module map"
            continue
        if in_map and line.lstrip().startswith("|"):
            names.update(_MODULE_REF.findall(line.split("|")[1]))
    return names


def check_module_map(problems: list[str]) -> None:
    if not INDEX.exists():
        problems.append(f"{INDEX.relative_to(REPO)}: missing")
        return
    actual = repo_modules()
    mapped = mapped_modules(INDEX.read_text())
    for name in sorted(actual - mapped):
        problems.append(
            f"docs/index.md: module map is missing `repro.{name}` "
            f"(src/repro/{name} exists)")
    for name in sorted(mapped - actual):
        problems.append(
            f"docs/index.md: module map lists `repro.{name}` "
            f"but src/repro/{name} does not exist")


def check_snippets(problems: list[str]) -> None:
    pages = sorted(DOCS.glob("*.md")) + [REPO / "README.md"]
    for page in pages:
        text = page.read_text()
        for i, match in enumerate(_FENCE.finditer(text), start=1):
            snippet = match.group(1)
            line = text[: match.start()].count("\n") + 2
            try:
                compile(snippet, f"{page.name}:snippet{i}", "exec")
            except SyntaxError as exc:
                problems.append(
                    f"{page.relative_to(REPO)}:{line}: python snippet "
                    f"#{i} does not compile: {exc.msg} "
                    f"(snippet line {exc.lineno})")


def _metric_row(metric: dict, reported_by: str) -> str:
    bound = f"{metric['bound']:.0%}" if metric["bound"] else "any increase"
    return (f"| `{metric['name']}` | {metric['unit']} | {metric['better']} "
            f"| {bound} | {reported_by} |")


def benchmark_tables() -> dict[str, str]:
    """The generated blocks of docs/benchmarks.md, by marker name."""
    contract = json.loads(BENCHMARK.read_text())
    extra = json.loads(EXTRA_METRICS.read_text())
    names = [w["name"] for w in contract["workloads"]]

    workloads = ["| workload | why it exists |", "|---|---|"]
    workloads += [f"| `{w['name']}` | {w['why']} |" for w in contract["workloads"]]

    end_to_end = ["| metric | unit | better | bound | reported by |",
                  "|---|---|---|---|---|"]
    end_to_end += [_metric_row(m, "every workload") for m in contract["end_to_end"]]
    for m in extra["end_to_end"]:
        on = ("every workload" if m["workloads"] == names
              else ", ".join(f"`{w}`" for w in m["workloads"]))
        end_to_end.append(_metric_row(m, on))

    layers: dict[str, list[str]] = {}
    for m in contract["per_layer"]:
        mark = " ↑" if m["better"] == "higher" else ""
        layers.setdefault(m["name"].split(".")[0], []).append(
            f"`{m['name']}` ({m['unit']}{mark})")
    per_layer = ["| layer | metrics (unit; lower is better unless marked ↑) |",
                 "|---|---|"]
    per_layer += [f"| `{layer}` | {', '.join(ms)} |" for layer, ms in layers.items()]

    return {"workloads": "\n".join(workloads),
            "end_to_end": "\n".join(end_to_end),
            "per_layer": "\n".join(per_layer)}


def check_benchmark_page(problems: list[str]) -> None:
    text = BENCH_PAGE.read_text() if BENCH_PAGE.exists() else ""
    found = dict(_GENERATED.findall(text))
    for name, table in benchmark_tables().items():
        if found.get(name) != table:
            problems.append(
                f"docs/benchmarks.md: block `generated:{name}` is missing or "
                f"stale against BENCHMARK.json / extra_metrics.json; it "
                f"should read:\n{table}")


def main() -> int:
    problems: list[str] = []
    check_module_map(problems)
    check_snippets(problems)
    check_benchmark_page(problems)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    n_pages = len(list(DOCS.glob("*.md"))) + 1
    print(f"check_docs: module map covers all {len(repo_modules())} "
          f"modules; snippets across {n_pages} pages compile; "
          f"docs/benchmarks.md matches BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
