"""Packaging guards: hatlens runs on the standard library alone, as the
empty ``dependencies`` of ``pyproject.toml`` promises, and on the oldest
Python that its ``requires-python`` admits."""

from __future__ import annotations

import ast
import glob
import os
import shutil
import subprocess
import sys

import pytest

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


def _python_3_10() -> str | None:
    """A Python 3.10 interpreter that runs: ``python3.10`` on PATH, else one
    that pyenv installed."""
    candidates = [shutil.which("python3.10")]
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True,
                              timeout=60).stdout.strip()
        if root:
            candidates += sorted(glob.glob(os.path.join(
                root, "versions", "3.10.*", "bin", "python3.10")))
    for candidate in filter(None, candidates):
        try:
            result = subprocess.run(
                [candidate, "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60)
        except OSError:
            continue
        if result.returncode == 0 and result.stdout == "(3, 10)\n":
            return candidate
    return None


# Plain code, for the 3.10 child has no pytest: every module, a CLI run, a
# parse of each ATC input, and a CSV field holding a lone CR.
FLOOR_CHECK = """
import csv, io, sys
from pathlib import Path
from hatlens import *
from hatlens.report import csv_text
import hatlens, hatlens.cli
text = csv_text(["a", "b"], [["x\\ry", "z"]])
assert text == 'a,b\\n"x\\ry",z\\n', repr(text)
assert list(csv.reader(io.StringIO(text, newline=""))) == [["a", "b"], ["x\\ry", "z"]]
atc = Path(sys.argv[1])
parsers = {".hat": parse_model, ".lens": parse_lens_catalog,
           ".sfm": parse_sfm_bindings, ".mit": parse_mitigation_catalog}
parsed = []
for path in sorted(atc.iterdir()):
    if path.suffix in parsers:
        parsers[path.suffix](path.read_text(encoding="utf-8"))
        parsed.append(path.name)
assert hatlens.cli.run(["validate", str(atc / "atc.hat")]) == 0
print(sys.version_info[:2], parsed)
"""


def test_the_package_runs_on_python_3_10():
    python = _python_3_10()
    if python is None:
        pytest.skip("no Python 3.10 interpreter that runs")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([python, "-c", FLOOR_CHECK, str(FIXTURE_ROOT / "atc")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "(3, 10) ['atc.hat', 'atc.lens', 'atc.mit', 'atc.sfm']\n"
