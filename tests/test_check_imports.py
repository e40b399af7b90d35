"""Tests for the checks behind ``make lint``: unused imports
(tools/check_imports.py) and dead private definitions
(tools/check_dead_private.py)."""

from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
_TOOL = _TOOLS / "check_imports.py"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_imports = _load("check_imports")
check_dead_private = _load("check_dead_private")


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def test_reports_unused_module_level_imports(tmp_path):
    path = _write(
        tmp_path,
        "mod.py",
        """
        from __future__ import annotations
        import os.path
        import numpy as np
        from typing import Optional, Sequence
        from json import dumps as to_json

        def f(x: "Optional[int]") -> Sequence:
            import sys  # function-level: not checked
            return os.path.join(str(x))
        """,
    )
    assert check_imports.unused_imports(path) == [(4, "np"), (6, "to_json")]


def test_all_and_package_init_are_exempt(tmp_path):
    _write(tmp_path, "api.py", 'from json import dumps\n__all__ = ["dumps"]\n')
    _write(tmp_path, "__init__.py", "from .api import dumps\n")
    assert check_imports.main([str(tmp_path)]) == 0
    _write(tmp_path, "extra.py", "import json\n")
    assert check_imports.main([str(tmp_path)]) == 1


def test_source_tree_is_clean():
    assert check_imports.main([str(_TOOL.parents[1] / "src")]) == 0


def test_private_definitions_are_module_level_functions_classes_and_methods(tmp_path):
    path = _write(
        tmp_path,
        "mod.py",
        """
        def _helper():
            def _inner():  # nested: not collected
                pass

        class _Hidden:
            def __init__(self):
                pass

            def _method(self):
                pass

        class Public:
            async def _fetch(self):
                pass

            def visible(self):
                pass

        def public():
            pass
        """,
    )
    assert check_dead_private.private_definitions(path) == [
        (2, "_helper"), (6, "_Hidden"), (10, "_method"), (14, "_fetch"),
    ]


def test_reports_private_definitions_nothing_refers_to(tmp_path):
    src, tests = tmp_path / "src", tmp_path / "tests"
    src.mkdir()
    tests.mkdir()
    _write(
        src,
        "mod.py",
        """
        def _used():
            pass

        def _dead():
            pass

        def _tested():
            pass

        def _named_in_a_string():
            pass

        class Thing:
            def _dead_method(self):
                pass

        def run():
            _used()
            return getattr(Thing, "_named_in_a_string")
        """,
    )
    _write(src, "other.py", "def _dead():\n    pass\n")  # defined twice, used nowhere
    _write(tests, "test_mod.py", "from mod import _tested\n")
    dead = check_dead_private.dead_definitions(src, [tests])
    assert [(path.name, line, name) for path, line, name in dead] == [
        ("mod.py", 5, "_dead"), ("mod.py", 15, "_dead_method"), ("other.py", 1, "_dead"),
    ]
    assert check_dead_private.main([str(src), "--refs", str(tests)]) == 1
    _write(tests, "test_more.py", "from mod import _dead, Thing\nThing()._dead_method()\n")
    assert check_dead_private.main([str(src), "--refs", str(tests)]) == 0


def test_source_tree_has_no_dead_private_definitions():
    root = _TOOLS.parent
    refs = [str(root / name) for name in ("tests", "benchmarks", "perfbench", "examples", "tools")]
    assert check_dead_private.main([str(root / "src"), "--refs", *refs]) == 0
