#!/usr/bin/env python
"""Keep the docs subsystem in sync with the code.

Five checks, all cheap enough for every push (CI ``docs-check`` job):

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

4. **Test citations** — every ``tests/<file>.py`` and
   ``tests/<file>.py::<Name>`` cited in ``docs/*.md``, ``README.md``,
   ``DESIGN.md``, ``EXPERIMENTS.md`` and the verify skill must name an
   existing file, and each ``::<Name>`` a ``def`` or ``class`` in it.

5. **Code citations** — every backticked dotted name ``repro.<...>`` in
   the same pages must resolve, read from the source with ``ast``: a
   module or package under ``src/repro/``, then a name it defines or
   re-exports, then members of a class.

Exits non-zero with one entry per problem.
"""
from __future__ import annotations

import ast
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
CITING = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
          REPO / ".claude" / "skills" / "verify" / "SKILL.md"]

_FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.M | re.S)
_MODULE_REF = re.compile(r"`repro\.([A-Za-z_][A-Za-z0-9_]*)`")
_TEST_REF = re.compile(r"tests/(\w+\.py)((?:::\w+)*)")
_CODE_REF = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")
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


def _defined_names(path: Path) -> set[str]:
    return {node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def check_test_citations(problems: list[str]) -> int:
    """Dangling ``tests/...`` citations; returns how many were checked."""
    names: dict[str, set[str]] = {}
    cited = 0
    for page in sorted(DOCS.glob("*.md")) + [p for p in CITING if p.exists()]:
        text = page.read_text()
        for match in _TEST_REF.finditer(text):
            cited += 1
            where = f"{page.relative_to(REPO)}:{text[:match.start()].count(chr(10)) + 1}"
            file, path = match.group(1), REPO / "tests" / match.group(1)
            if not path.exists():
                problems.append(f"{where}: cites tests/{file}, which does not exist")
                continue
            if file not in names:
                names[file] = _defined_names(path)
            for name in match.group(2).split("::")[1:]:
                if name not in names[file]:
                    problems.append(f"{where}: tests/{file} defines no `{name}`")
    return cited


def _module_file(parts: "tuple[str, ...]") -> "Path | None":
    """The source file of module ``repro.<parts>``, or None."""
    base = SRC.joinpath(*parts)
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.exists():
            return path
    return None


def _members(body) -> "dict[str, ast.AST]":
    """Names a module or class body binds, each to its defining node
    (an ``ImportFrom`` for a re-exported name, keyed by the alias)."""
    names: "dict[str, ast.AST]" = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node) for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.ImportFrom):
            names.update((a.asname or a.name, node) for a in node.names)
    return names


def resolves(dotted: str) -> bool:
    """Whether ``repro.<...>`` names a module, a name it binds (following
    relative re-exports) or a member of a class it defines."""
    parts = tuple(dotted.split(".")[1:])
    cut = len(parts)
    while _module_file(parts[:cut]) is None:
        cut -= 1
    path, rest = _module_file(parts[:cut]), list(parts[cut:])
    while rest:
        node = _members(ast.parse(path.read_text()).body).get(rest[0])
        if isinstance(node, ast.ImportFrom) and node.level:
            package = path.parent.relative_to(SRC).parts
            source = package[: len(package) - node.level + 1]
            source += tuple(node.module.split(".")) if node.module else ()
            name = next(a.name for a in node.names if (a.asname or a.name) == rest[0])
            path, rest[0] = _module_file(source), name
            if path is None:
                return False
            continue
        for member in rest[1:]:
            if not isinstance(node, ast.ClassDef):
                return False
            node = _members(node.body).get(member)
        return node is not None
    return True


def check_code_citations(problems: list[str]) -> int:
    """Dangling ``repro.<...>`` citations; returns how many were checked."""
    cited = 0
    for page in sorted(DOCS.glob("*.md")) + [p for p in CITING if p.exists()]:
        text = page.read_text()
        for match in _CODE_REF.finditer(text):
            cited += 1
            if not resolves(match.group(1)):
                line = text[: match.start()].count("\n") + 1
                problems.append(f"{page.relative_to(REPO)}:{line}: cites "
                                f"`{match.group(1)}`, which does not exist")
    return cited


def main() -> int:
    problems: list[str] = []
    check_module_map(problems)
    check_snippets(problems)
    check_benchmark_page(problems)
    cited = check_test_citations(problems)
    code_cited = check_code_citations(problems)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    n_pages = len(list(DOCS.glob("*.md"))) + 1
    print(f"check_docs: module map covers all {len(repo_modules())} "
          f"modules; snippets across {n_pages} pages compile; "
          f"docs/benchmarks.md matches BENCHMARK.json; {cited} test "
          f"citations and {code_cited} code citations resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
