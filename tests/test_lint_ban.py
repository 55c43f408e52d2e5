"""The deleted-shim ban (``make lint``'s AST gate).

Two halves: the checker itself flags each banned pattern (and only
those), and the live ``src/`` tree is clean — no module brings back
a shim the refactor deleted.
"""

from __future__ import annotations

import os
import textwrap

from repro.tools.lintcheck import check_file, check_tree

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _check_source(tmp_path, source: str, filename: str = "mod.py"):
    path = tmp_path / filename
    path.write_text(textwrap.dedent(source))
    return check_file(str(path))


def test_flags_checkpoint_sync_call(tmp_path):
    vs = _check_source(tmp_path, "def f(ck):\n    return ck.checkpoint_sync()\n")
    assert len(vs) == 1 and "checkpoint_sync" in vs[0][2]


def test_flags_checkpoint_sync_definition(tmp_path):
    """Since 1.1.0 the shim is deleted outright — *defining* a method
    of that name anywhere (even its old home) is a violation, so the
    alias cannot be quietly reintroduced."""
    vs = _check_source(
        tmp_path,
        "class Ck:\n    def checkpoint_sync(self):\n        return None\n",
    )
    assert any("banned definition" in v[2] for v in vs)
    engine_home = tmp_path / "core"
    engine_home.mkdir()
    path = engine_home / "engine.py"
    path.write_text("def checkpoint_sync():\n    return None\n")
    assert check_file(str(path)) != []  # the old exemption is gone


def test_clean_module_passes(tmp_path):
    vs = _check_source(
        tmp_path,
        """
        from repro.core.engine import CheckpointEngine, CheckpointStats
        from repro.core import LocalCheckpointer
        from repro.core.destination import PfsDestination

        def f(ck):
            return ck.checkpoint(blocking=False)
        """,
    )
    assert vs == []


def test_syntax_error_is_reported_not_raised(tmp_path):
    vs = _check_source(tmp_path, "def broken(:\n")
    assert len(vs) == 1 and "syntax error" in vs[0][2]


def test_src_tree_is_clean():
    violations = check_tree(SRC_ROOT)
    assert violations == [], "\n".join(
        f"{p}:{ln}: {msg}" for p, ln, msg in violations
    )
