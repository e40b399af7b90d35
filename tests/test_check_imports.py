"""Tests for the unused-import check behind ``make lint`` (tools/check_imports.py)."""

from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_imports.py"
_spec = importlib.util.spec_from_file_location("check_imports", _TOOL)
check_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_imports)


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
