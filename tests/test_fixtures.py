"""Tests for the bundled worked examples and their golden outputs.

The core guarantee: every golden file under ``hatlens/fixtures/`` is
reproduced byte-identically by the current code, so a behaviour change
that would silently alter documented outputs fails here first.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import hatlens.fixtures as fixtures
from hatlens import (
    CatalogError,
    DslParseError,
    Strictness,
    available_fixtures,
    extract_interactions,
    has_errors,
    load_fixture,
    parse_model,
    parse_sfm_bindings,
    regenerate,
    validate,
)
from hatlens import cli
from hatlens.cli import load_catalogs

from conftest import FIXTURE_ROOT


def test_available_fixtures():
    assert available_fixtures() == ["atc", "minimal"]


def test_load_atc_fixture_fields():
    fixture = load_fixture("atc")
    assert fixture.name == "atc"
    assert fixture.root == FIXTURE_ROOT / "atc"
    assert fixture.model_path.name == "atc.hat"
    assert fixture.lens_path is not None and fixture.lens_path.name == "atc.lens"
    assert fixture.sfm_path is not None and fixture.sfm_path.name == "atc.sfm"
    assert (fixture.mitigation_path is not None
            and fixture.mitigation_path.name == "atc.mit")
    assert sorted(fixture.expected) == [
        "pathway_sfm4.dot", "report.md", "second_order.json", "table.csv",
    ]


def test_load_minimal_fixture_fields():
    fixture = load_fixture("minimal")
    assert fixture.lens_path is None
    assert fixture.sfm_path is None
    assert fixture.mitigation_path is None
    assert sorted(fixture.expected) == ["table.csv"]


def test_unknown_fixture_name():
    with pytest.raises(FileNotFoundError, match="no fixture named 'nope' under"):
        load_fixture("nope")


@pytest.mark.parametrize("name", available_fixtures())
def test_goldens_regenerate_byte_identically(name):
    fixture = load_fixture(name)
    regenerated = regenerate(fixture)
    assert sorted(regenerated) == sorted(fixture.expected)
    for golden_name, text in regenerated.items():
        on_disk = fixture.expected[golden_name].read_text(encoding="utf-8")
        assert text == on_disk, f"{name}/{golden_name} drifted"


@pytest.mark.parametrize("name, traces", [("atc", 1), ("minimal", 0)])
def test_regenerate_traces_at_most_once(monkeypatch, name, traces):
    # One report bundle feeds every golden: the README's trace, when there is one.
    calls = []
    original = cli.trace
    monkeypatch.setattr(cli, "trace", lambda *args, **kwargs: (
        calls.append(args) or original(*args, **kwargs)))
    regenerate(load_fixture(name))
    assert len(calls) == traces


# The README's last quick-start command, run in the ATC fixture's directory.
README_REPORT = ["report", "atc.hat", "--lens", "atc.lens", "--sfm", "atc.sfm", "--mit", "atc.mit",
                 "--format", "md", "--interaction", "3", "--category", "timely",
                 "--direction", "down"]


def test_the_atc_goldens_are_the_readme_s_report_command(monkeypatch, capsys):
    readme = (FIXTURE_ROOT.parents[2] / "README.md").read_text(encoding="utf-8")
    assert f"hatlens {' '.join(README_REPORT)}\n" in readme.replace("\\\n    ", "")
    root = FIXTURE_ROOT / "atc"
    monkeypatch.chdir(root)
    assert cli.run(README_REPORT) == cli.EXIT_OK
    assert capsys.readouterr() == ((root / "report.md").read_text(encoding="utf-8"), "")
    as_json = [("json" if arg == "md" else arg) for arg in README_REPORT]
    assert cli.run(as_json) == cli.EXIT_OK
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert (json.dumps(report["second_order_effects"], indent=2, ensure_ascii=False) + "\n"
            == (root / "second_order.json").read_text(encoding="utf-8"))
    # The trace flags name SFM 4's interaction and category, as pathway_sfm4.dot does.
    assert [(row["i_id"], row["category"]) for row in report["failure_modes"]
            if row["sfm_id"] == 4] == [(3, "timely")]
    assert err == ""


def test_regenerate_raises_library_errors_and_prints_nothing(tmp_path, capsys):
    fixture = dataclasses.replace(load_fixture("atc"), lens_path=tmp_path / "gone.lens")
    with pytest.raises(FileNotFoundError, match="gone.lens"):
        regenerate(fixture)
    assert capsys.readouterr() == ("", "")


# Responses that, added to the ATC model's nodes, make its model invalid, or
# make the README report's trace overflow.
UNKNOWN_CATEGORY = {"m_ingest": "response.nosuch=amplify:2.0"}
OVERFLOWING = {"h_orient": "response.timely=amplify:1e308",
               "h_decide": "response.timely=amplify:1e308"}
UNKNOWN_CATEGORY_ERROR = ("UNKNOWN_CATEGORY: node 'm_ingest' response category 'nosuch' "
                          "is not in the loaded lens catalog")
OVERFLOW_ERROR = ("interaction 3 [timely, down]: the total gain of pathway h_obs_reco -> "
                  "h_orient -> h_decide -> h_act_own -> h_obs_traffic is not finite (inf)")


def atc_copy(tmp_path, responses):
    """A copy of the ATC fixture's directory whose nodes also respond as
    ``responses`` says, by node id."""
    root = tmp_path / "atc"
    shutil.copytree(FIXTURE_ROOT / "atc", root)
    model = root / "atc.hat"
    text = model.read_text(encoding="utf-8")
    for node, response in responses.items():
        text = re.sub(rf"^(node {node} .*)$", rf"\1 {response}", text, count=1, flags=re.M)
    model.write_text(text, encoding="utf-8")
    return root


def test_regenerate_raises_a_model_s_error_diagnostics(tmp_path, capsys):
    model = atc_copy(tmp_path, UNKNOWN_CATEGORY) / "atc.hat"
    fixture = dataclasses.replace(load_fixture("atc"), model_path=model)
    # A ValueError that names the model file and its error, not SystemExit.
    with pytest.raises(ValueError) as raised:
        regenerate(fixture)
    assert str(raised.value) == f"{model}:14: {UNKNOWN_CATEGORY_ERROR}"
    # The diagnostics still go to stderr, as ``hatlens report`` prints them.
    assert capsys.readouterr() == ("", f"{model}:14: error: {UNKNOWN_CATEGORY_ERROR}\n")


def test_load_fixture_refuses_a_model_with_error_diagnostics(monkeypatch, tmp_path, capsys):
    atc_copy(tmp_path, UNKNOWN_CATEGORY)
    monkeypatch.setattr(fixtures, "_ROOT", tmp_path)
    model = tmp_path / "atc" / "atc.hat"
    with pytest.raises(cli._FindingsError) as raised:
        load_fixture("atc")
    assert str(raised.value) == f"{model}:14: {UNKNOWN_CATEGORY_ERROR}"
    assert capsys.readouterr() == ("", f"{model}:14: error: {UNKNOWN_CATEGORY_ERROR}\n")


def test_a_trace_that_overflows_raises_the_cli_s_error_text(monkeypatch, tmp_path, capsys):
    atc_copy(tmp_path, OVERFLOWING)
    monkeypatch.setattr(fixtures, "_ROOT", tmp_path)
    fixture = load_fixture("atc")  # the model is valid; only its trace overflows
    for build in (regenerate, lambda fixture: cli._bundle(fixtures._report_args(fixture))):
        with pytest.raises(ValueError) as raised:
            build(fixture)
        assert str(raised.value) == OVERFLOW_ERROR
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("responses, code, err", [
    (UNKNOWN_CATEGORY, cli.EXIT_FINDINGS, f"atc.hat:14: error: {UNKNOWN_CATEGORY_ERROR}\n"),
    (OVERFLOWING, cli.EXIT_USAGE, f"error: {OVERFLOW_ERROR}\n"),
], ids=["invalid-model", "overflow"])
def test_the_cli_prints_what_the_library_raises(monkeypatch, tmp_path, capsys, responses,
                                                code, err):
    monkeypatch.chdir(atc_copy(tmp_path, responses))
    assert cli.run(README_REPORT) == code
    assert capsys.readouterr() == ("", err)


def test_the_readme_s_library_snippet_runs_as_written(capsys):
    readme = (FIXTURE_ROOT.parents[2] / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library use\n", 1)[1].split("```python\n", 1)[1].split("```")[0]
    exec(compile(snippet, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # The upstream stability pathways of ``trace atc.hat --interaction 3 --category
    # stability --direction up``, each from the interaction's machine node.
    assert len(lines) == 6
    assert all(line.startswith("('hmi_recommend', ") for line in lines)


@pytest.mark.parametrize("name", available_fixtures())
def test_the_fixture_loader_and_the_cli_build_the_same_catalogs(name):
    fixture = load_fixture(name)
    catalog, mitigations, _, _ = cli._inputs(fixtures._report_args(fixture))
    lens_paths = [fixture.lens_path] if fixture.lens_path else []
    mit_paths = [fixture.mitigation_path] if fixture.mitigation_path else []
    assert (catalog, mitigations) == load_catalogs(lens_paths, mit_paths)


def test_a_fixture_loads_its_catalogs_once_through_the_cli_s_loader(monkeypatch):
    calls = []
    original = cli.load_catalogs
    monkeypatch.setattr(cli, "load_catalogs", lambda *args, **kwargs: (
        calls.append(args) or original(*args, **kwargs)))
    fixture = load_fixture("atc")
    # Both run the README's report command, whose argv holds the paths as text.
    assert calls == [([str(fixture.lens_path)], [str(fixture.mitigation_path)])]
    calls.clear()
    regenerate(fixture)
    assert calls == [([str(fixture.lens_path)], [str(fixture.mitigation_path)])]


def test_load_fixture_refuses_inputs_that_do_not_load(monkeypatch, tmp_path, capsys):
    model = (FIXTURE_ROOT / "minimal" / "minimal.hat").read_text(encoding="utf-8")
    inputs = {
        "malformed": {".hat": model + "edge watch ->\n"},
        "badlens": {".hat": model, ".lens": "# one lens\nlens\n"},
        "badsfm": {".hat": model, ".sfm": "# one binding\nsfm 1 mode=timely\n"},
        "remerged": {".hat": model, ".lens": (
            'lens again "Again"\nmode accuracy lens=again direction=m2h '
            'category=accuracy "Accuracy again" question="Again?"\n')},
        "redeclared": {".hat": model, ".mit": (
            'mitigation hysteresis category=stability placement=node damping=0.5 "Again" '
            'detail="Again."\n')},
    }
    for name, files in inputs.items():
        (tmp_path / name).mkdir()
        for suffix, text in files.items():
            (tmp_path / name / f"{name}{suffix}").write_text(text, encoding="utf-8")
    monkeypatch.setattr(fixtures, "_ROOT", tmp_path)
    assert available_fixtures() == ["badlens", "badsfm", "malformed", "redeclared", "remerged"]
    with pytest.raises(DslParseError, match="missing its target node id"):
        load_fixture("malformed")
    for name, suffix in [("badlens", ".lens"), ("badsfm", ".sfm")]:
        with pytest.raises(DslParseError, match="^2:1: ") as parsing:
            load_fixture(name)
        assert parsing.value.filename == str(tmp_path / name / f"{name}{suffix}")
    # The lens file parses; it is the merge with the builtins that fails.
    with pytest.raises(CatalogError, match="duplicate mode id 'accuracy'"):
        load_fixture("remerged")
    # As the CLI does, a mitigation may not redeclare a builtin's id.
    with pytest.raises(CatalogError,
                       match=r"^duplicate mitigation id 'hysteresis' from .*redeclared\.mit$"):
        load_fixture("redeclared")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("name", available_fixtures())
def test_fixture_models_validate_clean_under_strict(name):
    catalog, mitigations, model, _ = cli._inputs(fixtures._report_args(load_fixture(name)))
    diagnostics = validate(model, Strictness.STRICT, lens_catalog=catalog,
                           mitigation_catalog=mitigations)
    assert not has_errors(diagnostics)
    assert diagnostics == []


def test_atc_binding_texts():
    fixture = load_fixture("atc")
    sfms = parse_sfm_bindings(fixture.sfm_path.read_text(encoding="utf-8"))
    assert [(sfm.sfm_id, sfm.interaction_id, sfm.generic_mode_id) for sfm in sfms] \
        == [(3, 3, "unstable"), (4, 3, "timely"), (5, 3, "timely")]
    assert [sfm.text for sfm in sfms] == [
        "The recommended sequence is changing frequently",
        "The recommendation is incomprehensible to the operator",
        "The recommendation requires too much cognition time from the operator "
        "to understand",
    ]


def test_minimal_shape():
    fixture = load_fixture("minimal")
    model = parse_model(fixture.model_path.read_text(encoding="utf-8"))
    assert len(model.lanes) == 2
    interactions = extract_interactions(model)
    assert len(interactions) == 1
    table = fixture.expected["table.csv"].read_text(encoding="utf-8")
    assert len(table.splitlines()) == 1 + 9


def test_the_cli_does_not_import_the_fixture_helpers():
    # The package resolves every public name on first use, so a bare import
    # loads no submodule and a CLI run never pays for the fixture helpers.
    code = (
        "import importlib, inspect, sys, hatlens\n"
        "loaded = [name for name in sys.modules if name.startswith('hatlens.')]\n"
        "assert loaded == [], loaded\n"
        "assert set(hatlens.__all__) <= set(dir(hatlens))\n"
        "assert hatlens.report.emit_json is hatlens.emit_json\n"
        "import hatlens.cli\n"
        "assert 'hatlens.fixtures' not in sys.modules, 'imported with the CLI'\n"
        "from hatlens import GoldenFixture, regenerate\n"
        "import hatlens.fixtures\n"
        "assert (GoldenFixture, regenerate) == "
        "(hatlens.fixtures.GoldenFixture, hatlens.fixtures.regenerate)\n"
        "homes = {name: module for module, names in hatlens._EXPORTS.items() "
        "for name in names}\n"
        "assert sorted(homes) == hatlens.__all__\n"
        "for name, module in homes.items():\n"
        "    home = importlib.import_module('hatlens.' + module)\n"
        "    value = getattr(hatlens, name)\n"
        "    assert value is getattr(home, name), name\n"
        "    if inspect.isclass(value) or inspect.isfunction(value):\n"
        "        assert value.__module__ == home.__name__, name\n"
        "names = {}\n"
        "exec('from hatlens import *', names)\n"
        "assert set(hatlens.__all__) <= set(names)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(FIXTURE_ROOT.parent.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")


def test_unknown_package_attributes_still_raise():
    import hatlens
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        hatlens.nope
