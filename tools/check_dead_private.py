"""Fail on private definitions in src/ that nothing refers to.

Usage: ``python tools/check_dead_private.py SRC [--refs DIR ...]``

A stdlib-``ast`` check (no linter is vendored).  It collects every private
definition under ``SRC`` — a ``_``-prefixed module-level function or class,
or a ``_``-prefixed method of a module-level class (dunder names excluded) —
and reports each one whose name appears nowhere else: in no ``.py`` file
under ``SRC`` or the ``--refs`` directories, counting every whole-word
occurrence (calls, attribute reads, strings, comments) beyond the
definitions themselves.  Exits 1 when anything is reported.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from pathlib import Path

_WORD = re.compile(r"\w+")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of each private module-level definition or method in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        if _is_private(node.name):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (member.lineno, member.name)
                for member in node.body
                if isinstance(member, defs[:2]) and _is_private(member.name)
            )
    return found


def dead_definitions(src: Path, refs: list[Path]) -> list[tuple[Path, int, str]]:
    """Private definitions under ``src`` whose names appear nowhere else."""
    definitions = [
        (path, line, name)
        for path in sorted(src.rglob("*.py"))
        for line, name in private_definitions(path)
    ]
    defined = Counter(name for _, _, name in definitions)
    words: Counter = Counter()
    for root in [src, *refs]:
        for path in root.rglob("*.py"):
            words.update(
                w for w in _WORD.findall(path.read_text(encoding="utf-8")) if w in defined
            )
    return [d for d in definitions if words[d[2]] <= defined[d[2]]]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--refs", type=Path, nargs="*", default=[])
    args = parser.parse_args(argv)
    dead = dead_definitions(args.src, [r for r in args.refs if r.is_dir()])
    for path, line, name in dead:
        print(f"{path}:{line}: private definition {name!r} is never referred to")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
