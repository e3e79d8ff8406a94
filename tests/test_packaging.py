"""Packaging guards: hatlens runs on the standard library alone, as the
empty ``dependencies`` of ``pyproject.toml`` promises."""

from __future__ import annotations

import ast
import sys

from conftest import FIXTURE_ROOT

PACKAGE = FIXTURE_ROOT.parent


def test_the_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "dsl.py" in modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
