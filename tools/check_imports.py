"""Fail on module-level imports that the importing module never uses.

Usage: ``python tools/check_imports.py DIR [DIR ...]``

A stdlib-``ast`` check (no linter is vendored).  For every ``.py`` file under
the given directories it collects the names bound by top-level ``import``
and ``from ... import`` statements and reports each one that no other part of
the module reads — counting names inside annotations, including quoted ones.
Names listed in the module's ``__all__`` are exempt (deliberate
re-exports), as are ``__init__.py`` files, whose imports are the package's
public surface.  Exits 1 when anything is reported.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    names = []
    for alias in node.names:
        if alias.name == "*":
            continue
        names.append(alias.asname or alias.name.split(".")[0])
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return {
                    e.value for e in node.value.elts if isinstance(e, ast.Constant)
                }
    return set()


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                yield arg.annotation
            yield args.vararg.annotation if args.vararg else None
            yield args.kwarg.annotation if args.kwarg else None
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of each unused module-level import in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree) | _exported(tree)
    return [
        (node.lineno, name)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
        if name not in used
    ]


def main(roots: list[str]) -> int:
    found = 0
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path):
                print(f"{path}:{line}: unused import {name!r}")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["src"]))
