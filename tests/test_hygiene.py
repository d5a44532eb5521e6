"""Source-hygiene gates: keep known footgun patterns out of src/repro.

Four patterns have bitten this codebase before and are cheap to ban
mechanically (the gates at the bottom keep the rest of ``src/`` and the
tests off the roadmap's storage, the names the e2e harness wraps
resolvable, one simulated machine for both planners, region weights
out of the region graph, regional results in one union, and no option
that only tests set):

* **Falsy-default assignment** — ``x = x or default()``.  Replaces every
  falsy-but-valid argument (``0``, ``""``, empty containers, and any
  object whose ``__bool__``/``__len__`` says so) with the default.  A
  seeded ``rng`` argument or a zero-valued config silently vanishes.
  Write ``x = x if x is not None else default()``.
* **Mutable default argument** — ``def f(x=[])``.  The default is
  evaluated once at definition time and shared across calls (ruff's
  B006; also enforced here so the gate holds even without ruff).
* **Forwarded backend choice** — a ``kernels=`` parameter outside its
  one leaf owner, or an ``nn_backend`` anywhere.  Nine modules once
  forwarded the same name to each other; with one owner a measured
  ``auto`` selection is a one-place change.
* **A switch between a fast path and its oracle** — a ``batched``
  parameter or a ``runs_blocks`` attribute.  ``src/`` holds one path per
  planner operation; the loops it replays live in ``tests/oracle.py``.

The checks are AST-based, not grep-based, so comments/strings can't
false-positive and formatting can't false-negative.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Call names that are safe as defaults (immutable / sentinel factories).
_SAFE_DEFAULT_CALLS = {"frozenset", "tuple"}


def _python_sources():
    return sorted(SRC.rglob("*.py"))


def _target_name(node: ast.expr) -> "str | None":
    """The bare name being assigned: ``x`` for both ``x = ...`` and
    ``self.x = ...``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _falsy_default_assignments(tree: ast.AST):
    """Yield (lineno, source) for ``target = <name> or <expr>`` where the
    left operand of ``or`` is the same bare name as the target — the
    classic falsy-default idiom."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        value = node.value
        if not (isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or)):
            continue
        first = value.values[0]
        if not isinstance(first, ast.Name):
            continue
        target = _target_name(node.targets[0])
        if target == first.id:
            yield node.lineno, ast.unparse(node)


def _mutable_defaults(tree: ast.AST):
    """Yield (lineno, source) for function defaults that are mutable
    literals or mutable-constructor calls (B006)."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        for default in defaults:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if isinstance(default, ast.Call):
                func = default.func
                name = func.id if isinstance(func, ast.Name) else None
                bad = name in {"list", "dict", "set", "bytearray"} or (
                    name is not None
                    and name not in _SAFE_DEFAULT_CALLS
                    and name[:1].isupper()  # class constructors share state too
                )
            if bad:
                label = getattr(node, "name", "<lambda>")
                yield node.lineno, f"{label}(... = {ast.unparse(default)})"


@pytest.mark.parametrize("path", _python_sources(), ids=lambda p: str(p.relative_to(SRC)))
def test_no_falsy_default_assignments(path):
    offenders = list(_falsy_default_assignments(ast.parse(path.read_text())))
    assert not offenders, (
        f"{path}: falsy-default assignments (use 'x if x is not None else ...'):\n"
        + "\n".join(f"  line {ln}: {src}" for ln, src in offenders)
    )


@pytest.mark.parametrize("path", _python_sources(), ids=lambda p: str(p.relative_to(SRC)))
def test_no_mutable_default_arguments(path):
    offenders = list(_mutable_defaults(ast.parse(path.read_text())))
    assert not offenders, (
        f"{path}: mutable default arguments (use None + in-body default):\n"
        + "\n".join(f"  line {ln}: {src}" for ln, src in offenders)
    )


def _parameter_names(tree: ast.AST):
    """Yield (lineno, owner name, name) for every parameter of every
    function or method and every annotated field of every class (a
    dataclass field is a constructor parameter)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                yield node.lineno, node.name, arg.arg
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield stmt.lineno, node.name, stmt.target.id


#: The one leaf owner of a per-call kernel backend: the environment's
#: query methods.
_KERNELS_OWNER = "geometry/environment.py"


@pytest.mark.parametrize("path", _python_sources(), ids=lambda p: str(p.relative_to(SRC)))
def test_backend_choice_is_not_forwarded(path):
    """One owner per backend choice: nothing between a request and the
    leaf owner takes a ``kernels`` parameter, and no ``nn_backend`` name
    travels anywhere (the finder is chosen where it is constructed)."""
    banned = {"nn_backend"}
    if str(path.relative_to(SRC)) != _KERNELS_OWNER:
        banned.add("kernels")
    offenders = [
        f"  line {ln}: {fn}({name}=...)"
        for ln, fn, name in _parameter_names(ast.parse(path.read_text()))
        if name in banned
    ]
    assert not offenders, f"{path}: backend choice forwarded:\n" + "\n".join(offenders)


def test_no_switch_between_a_fast_path_and_its_oracle():
    """No public callable of ``repro.planners`` / ``repro.core`` /
    ``repro.api`` (classes, their public methods and ``__init__``) takes a
    ``batched`` flag or a second region predicate, and no class has a
    ``runs_blocks`` switch: each operation has one path in ``src/``."""
    found = {}
    for modname in ("repro.planners", "repro.core", "repro.api"):
        for name, obj in vars(importlib.import_module(modname)).items():
            if name[0] == "_" or not getattr(obj, "__module__", "").startswith("repro"):
                continue
            found[f"{modname}.{name}"] = obj
            if isinstance(obj, type):
                found.update((f"{modname}.{name}.{attr}", member)
                             for attr, member in inspect.getmembers(obj, callable)
                             if attr[0] != "_" or attr == "__init__")
    assert {"repro.planners.RRT.grow", "repro.core.build_rrt_workload"} <= set(found)
    offenders = [f"{name}({param}=)" for name, obj in found.items() if callable(obj)
                 for param in inspect.signature(obj).parameters
                 if param in ("batched", "region_predicate_batch")]
    offenders += [name for name, obj in found.items() if hasattr(obj, "runs_blocks")]
    assert not offenders, f"a fast path and its oracle share src/: {offenders}"


def test_detector_catches_known_bad_code():
    """The gates themselves must flag the patterns they exist to ban."""
    bad = ast.parse(
        "def f(x=[], y={}, z=set(), w=SomeClass()):\n"
        "    x = x or make()\n"
        "    self_like = 3\n"
    )
    assert len(list(_mutable_defaults(bad))) == 4
    assert len(list(_falsy_default_assignments(bad))) == 1

    good = ast.parse(
        "def f(x=None, y=(), z=frozenset()):\n"
        "    x = x if x is not None else make()\n"
        "    k = a or b\n"  # different name: a genuine boolean fallback
    )
    assert not list(_mutable_defaults(good))
    assert not list(_falsy_default_assignments(good))

    forwarding = ast.parse(
        "def f(x, *, kernels=None):\n    pass\n"
        "class Policy:\n    nn_backend: str = None\n"
    )
    names = [name for _ln, _owner, name in _parameter_names(forwarding)]
    assert names == ["x", "kernels", "nn_backend"]

    peeking = ast.parse("rm._uv.sum(); rm._runs[0]; self._n += 1; n = rm.num_edges\n")
    assert sorted(attr for _ln, attr in _storage_reads(peeking)) == ["_runs", "_uv"]


#: How a ``Roadmap`` stores its graph: only ``planners/roadmap.py`` and
#: ``tests/oracle.py`` may know.
_ROADMAP_STORAGE = {
    "_ids", "_cfgs", "_deg", "_n", "_index", "_next_id",  # vertices
    "_uv", "_w", "_live", "_m",  # the edge log
    "_runs", "_indexed", "_csr",  # the duplicate index, the derived CSR
}


def _storage_reads(tree: ast.AST):
    """Yield (lineno, attribute) for every read of a roadmap storage field
    on anything but ``self`` (other classes keep fields of those names)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _ROADMAP_STORAGE
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
            yield node.lineno, node.attr


def test_only_the_oracle_reads_roadmap_storage():
    """The representation boundary: ``planners/roadmap.py`` owns how a
    ``Roadmap`` stores its graph and one digest (``tests/oracle.py``)
    knows it, so changing the storage edits those two files, not the
    planners or every battery."""
    sources = [p for p in sorted((ROOT / "tests").glob("*.py")) if p.name != "oracle.py"]
    sources += [p for p in _python_sources() if p != SRC / "planners" / "roadmap.py"]
    offenders = [
        f"  {path.relative_to(ROOT)}:{ln}: .{attr}"
        for path in sources
        for ln, attr in _storage_reads(ast.parse(path.read_text()))
    ]
    assert not offenders, "Roadmap storage read outside its owner:\n" + "\n".join(offenders)


def test_every_name_the_e2e_harness_wraps_still_resolves(monkeypatch):
    """``benchmarks/e2e/layers.py`` pins public callables by name and its
    own tests are not collected here, so ``Recorder.install``'s rule is
    applied to every ``TARGETS`` entry: a module attribute resolves, a
    class attribute sits in the class's own ``__dict__`` (an inherited
    method cannot be wrapped per class)."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks" / "e2e"))
    layers = importlib.import_module("layers")
    resolve = importlib.import_module("spans").resolve
    missing = []
    for target in layers.TARGETS:
        owner = resolve(target.owner)
        if isinstance(owner, type):
            found = target.attr in vars(owner)
        else:
            found = hasattr(owner, target.attr)
        if not found:
            missing.append(f"{target.owner}.{target.attr} ({target.span})")
    assert not missing, "names pinned by benchmarks/e2e/layers.py are gone:\n" + "\n".join(missing)


def test_one_simulated_machine_for_both_planners():
    """Both planners replay through ``repro.core.machine``: ``repro.core``
    holds one ``PhaseTimes`` and one ``RunResult`` (PRM's result extends
    it), no per-planner twins or protocols imitating one, and no
    simulate-mode knob that no entry point sets."""
    core = importlib.import_module("repro.core")
    machine = importlib.import_module("repro.core.machine")
    modules = [core] + [importlib.import_module(f"repro.core.{p.stem}")
                        for p in sorted((SRC / "core").glob("*.py")) if p.stem != "__init__"]
    twins = [f"{m.__name__}.{name}" for m in modules
             for name in ("RRTPhaseTimes", "RRTRunResult", "PhaseBreakdown", "PlannerRunResult")
             if hasattr(m, name)]
    assert not twins, f"a second phase/result type: {twins}"
    for m in modules:
        for name in ("PhaseTimes", "RunResult"):
            assert getattr(m, name, getattr(machine, name)) is getattr(machine, name), m.__name__
    assert issubclass(core.PRMRunResult, machine.RunResult)

    spec = importlib.import_module("repro.spec")
    fields = {f.name for f in dataclasses.fields(spec.ExecutionPolicy)}
    assert not fields & {"partitioner", "topology"}, fields
    for simulate in (core.simulate_prm, core.simulate_rrt):
        params = set(inspect.signature(simulate).parameters)
        assert not params & {"partitioner", "initial_partitioner", "rng_seed", "k_rays"}, params


def test_region_weights_are_arguments_not_graph_state():
    """The region graph holds regions and adjacency only: weights and an
    assignment are arguments of the partitioners and of ``repartition``,
    whose single-value knobs are module constants."""
    region_graph = importlib.import_module("repro.subdivision.region").RegionGraph()
    state = {"weights", "assignment", "set_weight", "assign", "set_assignment",
             "pe_loads", "edge_cut"}
    assert not state & set(dir(region_graph)), state & set(dir(region_graph))
    assert "weight" not in inspect.signature(region_graph.add_region).parameters
    repartition = importlib.import_module("repro.core.repartition").repartition
    params = set(inspect.signature(repartition).parameters)
    knobs = {"refine", "balance_tolerance", "payload_per_weight", "payload_per_region", "min_gain"}
    assert not params & knobs, params & knobs
    refine = importlib.import_module("repro.partition.refine").refine_partition
    assert not set(inspect.signature(refine).parameters) & {"balance_tolerance", "max_passes"}
    quality = importlib.import_module("repro.partition.edge_cut").PartitionQuality
    assert not hasattr(quality, "coefficient_of_variation")


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _merges_in_loops(tree: ast.AST):
    """Yield the line of every ``<x>.merge(...)`` call inside a loop body or
    a comprehension (its iterable aside)."""
    for loop in ast.walk(tree):
        if not isinstance(loop, _LOOPS):
            continue
        if isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            parts = loop.body + loop.orelse
        else:
            parts = [getattr(loop, "elt", None) or loop.key, getattr(loop, "value", None)]
            parts += [cond for gen in loop.generators for cond in gen.ifs]
        for part in filter(None, parts):
            for node in ast.walk(part):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "merge"):
                    yield node.lineno


def test_regional_results_enter_the_roadmap_in_one_union():
    """No loop in ``src/`` calls ``merge``: ``Roadmap.merge(*parts)`` takes
    every part at once, and a sum of ledgers is ``PlannerStats.total``.
    The part-by-part loop is ``tests/oracle.py::merge_one_by_one``."""
    bad = ast.parse("for b in blocks:\n    rm.merge(b)\n[a.merge(b) for a, b in pairs]\n")
    assert list(_merges_in_loops(bad)) == [2, 3]
    assert not list(_merges_in_loops(ast.parse("rm.merge(*[b for b in blocks])\n")))
    offenders = [
        f"  {path.relative_to(ROOT)}:{ln}"
        for path in _python_sources()
        for ln in sorted(set(_merges_in_loops(ast.parse(path.read_text()))))
    ]
    assert not offenders, "merge called in a loop:\n" + "\n".join(offenders)


#: (source file, function, parameter) of every value that only tests ever
#: set: each is a module constant or a fixed behaviour now.
_ONE_SIDED = (
    ("runtime/local_pool.py", "run_tasks_parallel", "backoff_base"),
    ("runtime/local_pool.py", "run_tasks_parallel", "backoff_jitter"),
    ("planners/engine.py", "QueryEngine.__init__", "k"),
    ("planners/engine.py", "QueryEngine.__init__", "nn_factory"),
    ("obs/tracer.py", "Tracer.__init__", "clock"),
    ("obs/sinks.py", "MemorySink.__init__", "capacity"),
    ("runtime/faults.py", "FaultInjector.__init__", "rate_attempts"),
    ("subdivision/uniform.py", "UniformSubdivision.__init__", "shape"),
    *(("runtime/simulator.py", "WorkStealingSimulator.__init__", param) for param in (
        "offload_service", "min_keep", "transfer_cost", "backoff_base", "max_idle_rounds")),
    # Alg. 1 / Alg. 2's parameters are the constants of core/parallel_prm.py
    # and core/parallel_rrt.py; a builder takes what a WorkloadSpec carries.
    *(("core/parallel_prm.py", "build_prm_workload", param) for param in (
        "k", "k_inter", "overlap", "work_model", "lp_resolution", "narrow_passage_boost")),
    *(("core/parallel_rrt.py", "build_rrt_workload", param) for param in (
        "radius", "k_adjacent", "k_inter", "overlap_angle", "step_size", "goal_bias",
        "iteration_factor", "connect_sources", "work_model", "lp_resolution")),
    ("core/parallel_prm.py", "PRMRegionPlanner.__init__", "overlap"),
    ("core/parallel_rrt.py", "RRTRegionPlanner.__init__", "radius"),
    ("core/parallel_rrt.py", "RRTRegionPlanner.__init__", "iteration_factor"),
    ("bench/harness.py", "prm_workload", "kwargs"),
    ("bench/harness.py", "rrt_workload", "kwargs"),
    # The scene catalogue is a table of fixed scenes.
    *(("geometry/environments.py", function, "dim") for function in (
        "med_cube", "small_cube", "free_env", "mixed_env", "mixed_30_env", "cube_env",
        "cluttered_env", "walls_env")),
    *(("geometry/environments.py", function, "seed") for function in (
        "mixed_env", "mixed_30_env")),
    *(("geometry/environments.py", function, "half") for function in (
        "cube_env", "cluttered_env", "model_2d", "walls_env")),
    *(("geometry/environments.py", "cluttered_env", param) for param in (
        "max_rounds", "num_obstacles", "half_bias")),
    ("geometry/environments.py", "walls_env", "num_walls"),
    ("geometry/environments.py", "walls_env", "gap_fraction"),
    ("geometry/environments.py", "by_name", "kwargs"),
    ("geometry/scenarios.py", "shelf_warehouse", "half"),
    # The pool's chunks are fixed or guided.
    ("runtime/local_pool.py", "run_tasks_parallel", "task_weights"),
    ("runtime/chunking.py", "resolve_chunks", "task_weights"),
)


def _signatures(tree: ast.Module) -> "dict[str, set[str]]":
    """Parameter names of every module-level function and method, keyed
    ``name`` / ``Class.name`` (``*args`` / ``**kwargs`` by their bare
    names)."""
    out = {}
    for node in tree.body:
        scope = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            scope = [(f"{node.name}.{fn.name}", fn) for fn in node.body
                     if isinstance(fn, ast.FunctionDef)]
        for name, fn in scope:
            a = fn.args
            out[name] = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
            out[name] |= {arg.arg for arg in (a.vararg, a.kwarg) if arg is not None}
    return out


def test_no_option_only_tests_set():
    """The runtime, engine, tracing and subdivision layers, the workload
    builders, region planners and the scene catalogue take no option that
    no caller outside the tests sets; the steal policies are the
    paper's, with ``k = 8``, and their names are ``STRATEGIES[2:]``; the
    connection phase's remote accounting is array lines in
    ``core.machine.replay``, not a distributed-graph wrapper; the query
    engine always builds a ``BruteForceNN``."""
    offenders = []
    for path, function, param in _ONE_SIDED:
        params = _signatures(ast.parse((SRC / path).read_text())).get(function)
        assert params is not None, f"{path}: no {function}"
        if param in params:
            offenders.append(f"{path}: {function}({param}=)")
    core = importlib.import_module("repro.core")
    for target in (core.RandKPolicy, core.HybridPolicy, core.policy_by_name):
        if "k" in inspect.signature(target).parameters:
            offenders.append(f"core/work_stealing.py: {target.__name__}(k=)")
    assert not offenders, "an option only tests set:\n" + "\n".join(offenders)
    assert "POLICY_NAMES" not in dir(core)

    runtime = importlib.import_module("repro.runtime")
    assert not {"PGraphView", "AccessStats"} & set(dir(runtime))
    engine = ast.parse((SRC / "planners/engine.py").read_text())
    names = {alias.name for node in ast.walk(engine) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    names |= {node.id for node in ast.walk(engine) if isinstance(node, ast.Name)}
    assert "KDTreeNN" not in names


def test_chunks_are_fixed_or_guided_and_scenes_and_builders_take_no_kwargs():
    """One adaptive chunk policy, and no catch-all keyword parameter on the
    scene lookup or the figure harness's builders: each of those would
    let a value nobody sets back in without a name."""
    chunking = importlib.import_module("repro.runtime.chunking")
    assert chunking.CHUNK_POLICIES == ("guided",)
    assert not hasattr(chunking, "_weighted")
    assert not hasattr(importlib.import_module("repro.api"), "_region_weights")
    harness = importlib.import_module("repro.bench.harness")
    environments = importlib.import_module("repro.geometry.environments")
    catalogue = list(environments._BUILDERS.values())
    for fn in [environments.by_name, harness.prm_workload, harness.rrt_workload, *catalogue]:
        kinds = {p.kind for p in inspect.signature(fn).parameters.values()}
        assert inspect.Parameter.VAR_KEYWORD not in kinds, fn
    for builder in catalogue:
        params = inspect.signature(builder).parameters.values()
        assert all(p.default is not p.empty for p in params), builder
