"""``tools/census.py``: its option hook and its listings, on hand-made
functions and records; nothing here runs an entry point."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location(
    "census", Path(__file__).resolve().parents[1] / "tools" / "census.py"
)
census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(census)

#: The hook's functions; without ``REPRO_CENSUS`` it installs nothing.
HOOK: dict = {}
exec(compile(census.HOOK, "sitecustomize.py", "exec"), HOOK)


def sample(a, b=2, *, c=None, **extra):
    return a


def generator(x=None):
    x = 5
    yield x
    yield x


class Box:
    def method(self, scale=1.0):
        return scale


def _calls(run, code):
    """``non_defaults`` at every call event of ``code`` while ``run()`` runs."""
    found = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            found.append(HOOK["non_defaults"](frame))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return found


class TestOptionHook:
    def test_a_default_or_an_equal_value_is_not_a_setting(self):
        code = sample.__code__
        assert _calls(lambda: sample(1), code) == [[]]
        assert _calls(lambda: sample(1, 2, c=None), code) == [[]]
        assert _calls(lambda: sample(1, 2.0), code) == [["b"]]  # another type
        assert _calls(lambda: sample(1, 3), code) == [["b"]]

    def test_arrays_and_keyword_catch_alls_are_settings(self):
        code = sample.__code__
        assert _calls(lambda: sample(1, c=np.zeros(2)), code) == [["c"]]
        assert _calls(lambda: sample(1, k=1), code) == [["extra"]]

    def test_a_method_is_found_through_its_class(self):
        code = Box.method.__code__
        assert _calls(lambda: Box().method(), code) == [[]]
        assert _calls(lambda: Box().method(2.0), code) == [["scale"]]

    def test_a_resumed_generator_is_judged_at_its_first_entry_only(self):
        """The body rebinds ``x``: only the call's own value counts."""
        code = generator.__code__
        assert _calls(lambda: list(generator()), code) == [[], [], []]
        assert _calls(lambda: list(generator(3)), code) == [["x"], [], []]


class TestListings:
    SOURCE = (
        "def f(a, b=1, *, c=None, **kw):\n    pass\n\n\n"
        "class K:\n    @staticmethod\n    def g(x=0):\n        pass\n\n\n"
        "def h(a):\n    pass\n"
    )

    def _tree(self, tmp_path, monkeypatch):
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        (src / "mod.py").write_text(self.SOURCE)
        monkeypatch.setattr(census, "ROOT", tmp_path)
        monkeypatch.setattr(census, "SRC", src)
        return src / "mod.py"

    def test_defaulted_parameters(self):
        import ast

        fn = ast.parse(self.SOURCE).body[0]
        assert census.defaulted_parameters(fn) == [("b", "1"), ("c", "None"), ("kw", None)]

    def test_options_no_call_set_are_listed_per_function(self, tmp_path, monkeypatch):
        path = self._tree(tmp_path, monkeypatch)
        called = {f"{path}:1", f"{path}:6"}
        passed = {f"{path}:1:c", f"{path}:1:kw"}
        assert list(census.unset_options(called, passed)) == [
            "src/repro/mod.py:1 f(b=1)",
            "src/repro/mod.py:6 K.g(x=0)",
        ]
        assert list(census.unset_options(set(), set()))[0] == (
            "src/repro/mod.py:1 f(b=1, c=None, **kw)  (never entered)"
        )

    def test_functions_no_process_entered(self, tmp_path, monkeypatch):
        path = self._tree(tmp_path, monkeypatch)
        assert list(census.unused_functions({f"{path}:1"})) == [
            "src/repro/mod.py:6 g 3",
            "src/repro/mod.py:11 h 2",
        ]

    def test_statements_never_run_inside_entered_functions(self, tmp_path, monkeypatch):
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        path = src / "mod.py"
        path.write_text(
            'def f(a):\n    """doc."""\n    if a:\n        return 1\n    return 2\n\n\n'
            "def g():\n    pass\n"
        )
        monkeypatch.setattr(census, "ROOT", tmp_path)
        monkeypatch.setattr(census, "SRC", src)
        ran = {f"{path}:3", f"{path}:4"}
        # g was never entered, so its body is not listed; f's last line is.
        assert list(census.unrun_statements({f"{path}:1"}, ran)) == ["src/repro/mod.py:5 f Return"]
