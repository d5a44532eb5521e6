"""Source-hygiene gates: keep known footgun patterns out of src/repro.

Three patterns have bitten this codebase before and are cheap to ban
mechanically (a fourth gate, at the bottom, keeps the names the e2e
harness wraps resolvable):

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

The checks are AST-based, not grep-based, so comments/strings can't
false-positive and formatting can't false-negative.
"""

import ast
import importlib
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
