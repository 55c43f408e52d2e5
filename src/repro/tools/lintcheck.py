"""Stdlib lint gate: ban deleted checkpointer shims from coming back.

The policy/destination/engine refactor deleted the historical entry
points; library code must target the unified pipeline.  This checker
walks the AST of every module under the given paths and fails on any
mention of ``checkpoint_sync`` — the shim was removed in 1.1.0, and
*defining* a method of that name is banned too, so the alias cannot
quietly come back (use ``checkpoint()`` /
``checkpoint(blocking=False)``).

Runs on the plain stdlib so ``make lint`` works in environments without
ruff; CI layers ruff on top.  Usage::

    python -m repro.tools.lintcheck [paths...]

Exits non-zero listing every violation.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Iterator, List, Tuple

__all__ = ["check_file", "check_tree", "main"]

#: deleted names whose import, use or definition is banned
BANNED_NAMES = {
    "checkpoint_sync": "use checkpoint() / checkpoint(blocking=False)",
}


Violation = Tuple[str, int, str]


def check_file(path: str) -> List[Violation]:
    """All banned-shim uses in one python file."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:  # a syntax error is its own violation
        return [(path, exc.lineno or 0, f"syntax error: {exc.msg}")]
    out: List[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            for alias in node.names:
                if alias.name in BANNED_NAMES:
                    out.append(
                        (path, node.lineno,
                         f"deprecated import: {alias.name} — {BANNED_NAMES[alias.name]}")
                    )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in BANNED_NAMES:
            out.append(
                (path, node.lineno,
                 f"banned definition: def {node.name} — {BANNED_NAMES[node.name]}")
            )
        elif isinstance(node, ast.Attribute) and node.attr in BANNED_NAMES:
            out.append(
                (path, node.lineno,
                 f"deprecated use: .{node.attr} — {BANNED_NAMES[node.attr]}")
            )
        elif isinstance(node, ast.Name) and node.id in BANNED_NAMES:
            out.append(
                (path, node.lineno,
                 f"deprecated use: {node.id} — {BANNED_NAMES[node.id]}")
            )
    return out


def _python_files(root: str) -> Iterator[str]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                yield os.path.join(dirpath, fn)


def check_tree(root: str) -> List[Violation]:
    out: List[Violation] = []
    for path in _python_files(root):
        out.extend(check_file(path))
    return out


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:]) or ["src"]
    violations: List[Violation] = []
    for p in paths:
        if os.path.isdir(p):
            violations.extend(check_tree(p))
        else:
            violations.extend(check_file(p))
    for path, line, msg in violations:
        print(f"{path}:{line}: {msg}")
    if violations:
        print(f"lintcheck: {len(violations)} violation(s)")
        return 1
    print("lintcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
