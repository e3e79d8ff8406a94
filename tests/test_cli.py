"""End-to-end tests for the command line interface.

Every test drives ``hatlens.cli.run`` in-process and checks the exit code,
the stdout payload, and the stderr diagnostics.  Data outputs are matched
against the bundled golden files where one exists.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatlens import (
    CatalogError, DslParseError, TraceDirection, builtin_catalog, extract_interactions,
    parse_lens_catalog, parse_model, serialize_model, trace,
)
from hatlens import cli
from hatlens.cli import EXIT_FINDINGS, EXIT_OK, EXIT_USAGE, main, run
from hatlens.report import pathway_label

from conftest import FIXTURE_ROOT, complete_model

ATC = FIXTURE_ROOT / "atc"
MODEL = str(ATC / "atc.hat")
LENS = str(ATC / "atc.lens")
SFM = str(ATC / "atc.sfm")
MIT = str(ATC / "atc.mit")
MINIMAL = str(FIXTURE_ROOT / "minimal" / "minimal.hat")

# Each subcommand's usage line on a terminal wide enough for one line: its
# flags, their order, and which of them are required.
USAGES = {
    "validate": "[-h] [--lens FILE] [--no-builtin] [--mit FILE] [--strict] model.hat",
    "interactions": "[-h] [--lens FILE] [--no-builtin] [--mit FILE] [--strict] [-o PATH] "
                    "model.hat",
    "map": "[-h] [--lens FILE] [--no-builtin] [--mit FILE] [--strict] [-o PATH] model.hat",
    "specialise": "[-h] [--lens FILE] [--no-builtin] [--mit FILE] [--strict] --sfm FILE "
                  "[-o PATH] model.hat",
    "trace": "[-h] [--lens FILE] [--no-builtin] [--mit FILE] [--strict] --interaction I-ID "
             "--category TOKEN --direction {up,down,both} [--max-depth N] "
             "[--format {text,json,dot}] [-o PATH] model.hat",
    "mitigations": "[-h] [--lens FILE] [--no-builtin] [--mit FILE] [--strict] [--sfm FILE] "
                   "[-o PATH] model.hat",
    "report": "[-h] [--lens FILE] [--no-builtin] [--mit FILE] [--strict] [--sfm FILE] "
              "[--interaction I-ID] [--category TOKEN] [--direction {up,down,both}] "
              "[--max-depth N] --format {csv,md,json,dot} [-o PATH] model.hat",
    "lenses": "[-h] [--export] [--lens FILE] [--no-builtin] [-o PATH]",
}
SUBCOMMANDS = list(USAGES)


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name: str) -> str:
    return (ATC / name).read_text(encoding="utf-8")


class TestReportAndMap:
    def test_report_csv_matches_bundled_table(self, capsys):
        code, out, err = invoke(
            capsys, "report", MODEL, "--lens", LENS, "--sfm", SFM,
            "--mit", MIT, "--format", "csv")
        assert code == EXIT_OK
        assert err == ""
        assert out == golden("table.csv")

    def test_specialise_matches_bundled_table(self, capsys):
        code, out, err = invoke(
            capsys, "specialise", MODEL, "--lens", LENS, "--sfm", SFM)
        assert code == EXIT_OK
        assert err == ""
        assert out == golden("table.csv")

    # Without bindings: three machine-to-human interactions with eleven
    # applicable modes each, one human-to-machine interaction with three.
    @pytest.mark.parametrize("command, sfm, rows", [
        ("map", (), 1 + 3 * 11 + 3),
        ("specialise", ("--sfm", SFM), len(golden("table.csv").splitlines())),
    ], ids=["map", "specialise"])
    def test_map_and_specialise_equal_report_csv(self, capsys, command, sfm, rows):
        code_map, out_map, _ = invoke(capsys, command, MODEL, "--lens", LENS, *sfm)
        code_rep, out_rep, _ = invoke(
            capsys, "report", MODEL, "--lens", LENS, *sfm, "--format", "csv")
        assert code_map == code_rep == EXIT_OK
        assert out_map == out_rep
        assert len(out_map.splitlines()) == rows

    @pytest.mark.parametrize("sfm", [(), ("--sfm", SFM)], ids=["generic", "specialised"])
    def test_mitigations_rows_are_the_report_s_suggestions_in_order(self, capsys, sfm):
        argv = (MODEL, "--lens", LENS, "--mit", MIT, *sfm)
        code, out, err = invoke(capsys, "mitigations", *argv)
        assert (code, err) == (EXIT_OK, "")
        code, report, err = invoke(capsys, "report", *argv, "--format", "json")
        assert (code, err) == (EXIT_OK, "")
        suggestions = json.loads(report)["mitigation_suggestions"]
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["I ID", "SFM ID", "Category", "Mitigation ID", "Mitigation Name"]
        assert rows == [
            [str(entry["i_id"]), "" if entry["sfm_id"] is None else str(entry["sfm_id"]),
             entry["category"], entry["mitigation_id"], entry["mitigation_name"]]
            for entry in suggestions]
        assert any(row[1] for row in rows) == bool(sfm)

    def test_map_minimal_matches_bundled_table(self, capsys):
        code, out, err = invoke(capsys, "map", MINIMAL)
        assert code == EXIT_OK
        assert err == ""
        expected = (FIXTURE_ROOT / "minimal" / "table.csv").read_text(
            encoding="utf-8")
        assert out == expected

    def test_specialise_requires_sfm_flag(self, capsys):
        code, out, err = invoke(capsys, "specialise", MODEL)
        assert code == EXIT_USAGE
        assert out == ""
        assert "usage" in err

    def test_specialise_without_lens_rejects_fixture_modes(self, capsys):
        code, out, err = invoke(capsys, "specialise", MODEL, "--sfm", SFM)
        assert code == EXIT_FINDINGS
        assert out == ""
        assert err == "error: sfm 3: unknown generic mode 'unstable'\n"

    def test_report_json_repeat_runs_are_identical(self, capsys):
        first = invoke(capsys, "report", MODEL, "--lens", LENS, "--sfm", SFM,
                       "--mit", MIT, "--format", "json")
        second = invoke(capsys, "report", MODEL, "--lens", LENS, "--sfm", SFM,
                        "--mit", MIT, "--format", "json")
        assert first == second
        assert first[0] == EXIT_OK
        payload = json.loads(first[1])
        assert [effect["sfm_id"] for effect in payload["second_order_effects"]] \
            == [3, 3, 4, 4, 5, 5]

    def test_report_markdown_has_all_sections(self, capsys):
        code, out, err = invoke(
            capsys, "report", MODEL, "--lens", LENS, "--sfm", SFM,
            "--mit", MIT, "--format", "md", "--interaction", "3",
            "--category", "timely", "--direction", "down")
        assert code == EXIT_OK
        for heading in ("## Failure Modes", "## Pathways",
                        "## Second-order Effects", "## Mitigation Suggestions"):
            assert heading in out
        assert "(none)" not in out

    def test_report_dot_needs_trace_flags(self, capsys):
        code, out, err = invoke(capsys, "report", MODEL, "--format", "dot")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --format dot needs --interaction and --category\n"

    @pytest.mark.parametrize("half", [["--interaction", "1"], ["--category", "timely"]])
    @pytest.mark.parametrize("model", [MODEL, "missing.hat"])
    def test_report_takes_both_trace_flags_or_neither(self, capsys, half, model):
        # Checked before any file is read: a missing model is not reported.
        code, out, err = invoke(capsys, "report", model, "--lens", LENS, "--format", "md",
                                *half)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: --interaction and --category must be given together\n"


class TestTrace:
    @pytest.mark.parametrize("argv", [
        ("trace", MODEL, "--lens", LENS, "--mit", MIT),
        ("report", MODEL, "--lens", LENS, "--sfm", SFM, "--mit", MIT),
    ], ids=["trace", "report"])
    def test_dot_matches_bundled_pathways(self, capsys, argv):
        code, out, err = invoke(
            capsys, *argv, "--interaction", "3", "--category", "timely",
            "--direction", "down", "--format", "dot")
        assert code == EXIT_OK
        assert err == ""
        assert out == golden("pathway_sfm4.dot")

    @pytest.mark.parametrize("direction", ["down", "both"])
    def test_trace_and_report_render_the_same_pathways(self, capsys, direction):
        flags = ("--lens", LENS, "--mit", MIT, "--interaction", "3", "--category", "timely",
                 "--direction", direction, "--format")
        trace = {fmt: invoke(capsys, "trace", MODEL, *flags, fmt)
                 for fmt in ("text", "json", "dot")}
        report = {fmt: invoke(capsys, "report", MODEL, "--sfm", SFM, *flags, fmt)
                  for fmt in ("md", "json", "dot")}
        assert {code for code, _, _ in [*trace.values(), *report.values()]} == {EXIT_OK}
        assert report["dot"][1] == trace["dot"][1]
        assert (json.loads(report["json"][1])["pathways"]
                == json.loads(trace["json"][1])["pathways"])
        section = report["md"][1].split("## Pathways\n\n")[1].split("\n\n")[0]
        assert [line.removeprefix("- ") for line in section.splitlines()] \
            == trace["text"][1].splitlines()

    def test_dot_is_unchanged_by_unattached_mitigations(self, capsys):
        with_mit = invoke(
            capsys, "trace", MODEL, "--lens", LENS, "--mit", MIT, "--interaction", "3",
            "--category", "timely", "--direction", "down", "--format", "dot")
        without = invoke(
            capsys, "trace", MODEL, "--lens", LENS, "--interaction", "3",
            "--category", "timely", "--direction", "down", "--format", "dot")
        assert with_mit == without

    def test_text_lists_each_pathway(self, capsys):
        code, out, err = invoke(
            capsys, "trace", MODEL, "--lens", LENS, "--interaction", "3",
            "--category", "timely", "--direction", "down")
        assert code == EXIT_OK
        assert err == ""
        assert out == (
            "interaction 3 [timely, down]: h_obs_reco -> h_orient -> h_decide"
            " -> h_act_own -> h_obs_traffic (gain 1.0, Neutral)\n"
            "interaction 3 [timely, down]: h_obs_reco -> h_orient -> h_decide"
            " -> h_act_reco -> h_obs_traffic (gain 1.0, Neutral)\n"
            "interaction 3 [timely, down]: h_obs_reco -> h_orient -> h_decide"
            " -> m_ingest_choice -> m_project -> m_select -> m_publish"
            " -> hmi_receive -> hmi_format -> hmi_recommend"
            " (gain 1.0, Neutral)\n"
        )

    def test_text_is_written_line_by_line(self, monkeypatch, tmp_path):
        model = complete_model(7)
        (tmp_path / "complete.hat").write_text(serialize_model(model), encoding="utf-8")

        class Recording(io.StringIO):
            def write(self, piece):
                writes.append(piece)
                return super().write(piece)

        writes = []
        monkeypatch.setattr(sys, "stdout", Recording())
        assert run(["trace", str(tmp_path / "complete.hat"), "--interaction", "1",
                    "--category", "stability", "--direction", "down"]) == EXIT_OK
        lines = [f"{pathway_label(pathway)}\n" for pathway in trace(
            model, extract_interactions(model)[0], "stability", TraceDirection.DOWNSTREAM)]
        assert len(lines) == 5040
        assert sys.stdout.getvalue() == "".join(lines)
        assert all(piece.count("\n") <= 1 for piece in writes)
        assert max(map(len, writes)) == max(map(len, lines))

    def test_both_directions_prints_upstream_first(self, capsys):
        code, out, err = invoke(
            capsys, "trace", MODEL, "--interaction", "3",
            "--category", "stability", "--direction", "both")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 9
        assert all("[stability, up]" in line for line in lines[:6])
        assert all("[stability, down]" in line for line in lines[6:])

    def test_json_and_dot_agree_on_highlighted_nodes(self, capsys):
        _, json_out, _ = invoke(
            capsys, "trace", MODEL, "--interaction", "3",
            "--category", "timely", "--direction", "down", "--format", "json")
        _, dot_out, _ = invoke(
            capsys, "trace", MODEL, "--interaction", "3",
            "--category", "timely", "--direction", "down", "--format", "dot")
        payload = json.loads(json_out)
        traced: set[str] = set()
        for pathway in payload["pathways"]:
            traced.update(pathway["nodes"])
        highlighted = set(re.findall(
            r'^\s*"(\w+)" \[label="[^"]*", penwidth=3\];$', dot_out, re.M))
        assert highlighted == traced

    def test_unknown_interaction_id(self, capsys):
        code, out, err = invoke(
            capsys, "trace", MODEL, "--interaction", "9",
            "--category", "timely", "--direction", "down")
        assert code == EXIT_FINDINGS
        assert out == ""
        assert err == "error: no interaction 9\n"

    def test_non_positive_max_depth_is_a_usage_error(self, capsys):
        code, out, err = invoke(
            capsys, "trace", MODEL, "--interaction", "3",
            "--category", "timely", "--direction", "down", "--max-depth", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: max_depth must be >= 1, got 0\n"

    @pytest.mark.parametrize("flag, value", [
        ("--interaction", "٣"), ("--interaction", "0_3"), ("--max-depth", "٢"),
        # More digits than int() converts (sys.get_int_max_str_digits()).
        ("--interaction", "1" * 5000), ("--max-depth", "1" * 5000),
    ], ids=lambda value: f"{len(value)}-digits" if len(value) > 100 else None)
    def test_numbers_take_ascii_digits_only(self, capsys, flag, value):
        numbers = {"--interaction": "3", "--max-depth": "2", flag: value}
        code, out, err = invoke(
            capsys, "trace", MODEL, "--category", "timely", "--direction", "down",
            *(word for pair in numbers.items() for word in pair))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage: hatlens trace")
        assert err.endswith(
            f"hatlens trace: error: argument {flag}: invalid int value: '{value}'\n")

    @pytest.mark.parametrize("command", ["trace", "report"])
    def test_a_category_no_lens_defines_is_traced_with_a_warning(self, capsys, command):
        # A misspelt token: the pathways of the category no node responds to.
        argv = (command, MODEL, "--interaction", "3", "--direction", "down", "--format",
                {"trace": "text", "report": "md"}[command])
        typo = invoke(capsys, *argv, "--category", "stabilty")
        unknown = invoke(capsys, *argv, "--category", "nothing")
        assert typo[:2] == (EXIT_OK, unknown[1].replace("nothing", "stabilty"))
        assert "(gain 1.0, Neutral)" in typo[1] and "Amplified" not in typo[1]
        assert typo[2] == (
            "warning: category 'stabilty' is not defined by the loaded lenses (defined: abuse, "
            "accuracy, bias, disuse, misuse, robustness, stability, uncertainty, use, "
            "variability); every step is Neutral\n")
        # A lens that defines it, or a loaded mitigation that damps it: no warning.
        assert invoke(capsys, *argv, "--category", "timely", "--lens", LENS)[2] == ""
        assert invoke(capsys, *argv, "--category", "timely", "--mit", MIT)[2] == ""

    @pytest.mark.parametrize("command", ["trace", "report"])
    @pytest.mark.parametrize("category", ["", "Stability", "time-ly", "1st", "timely "])
    def test_a_category_that_is_no_token_is_a_usage_error(self, capsys, command, category):
        code, out, err = invoke(
            capsys, command, MODEL, "--interaction", "3", "--category", category,
            "--direction", "down", "--format", "json")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"usage: hatlens {command}")
        assert err.endswith(f"hatlens {command}: error: argument --category: "
                            f"invalid category token: {category!r}\n")

    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    def test_a_gain_product_that_overflows_is_a_usage_error(self, capsys, tmp_path, fmt):
        path = tmp_path / "loud.hat"
        path.write_text(
            'model "Loud"\n'
            'lane h side=human kind=operator "Human"\n'
            'lane m side=machine kind=autonomy "Machine"\n'
            'node src lane=m stage=act "Emit"\n'
            'node w lane=h stage=observe "Watch"\n'
            + "".join(f'node {name} lane=h stage=orient "Echo"'
                      " response.stability=amplify:1e200\n" for name in "xyz")
            + "edge src -> w\nedge w -> x\nedge x -> y\nedge y -> z\n",
            encoding="utf-8")
        code, out, err = invoke(
            capsys, "trace", str(path), "--interaction", "1",
            "--category", "stability", "--direction", "down", "--format", fmt)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == ("error: interaction 1 [stability, down]: the total gain of "
                       "pathway w -> x -> y -> z is not finite (inf)\n")

    def test_depth_is_not_bounded_by_the_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "long.hat"
        path.write_text(
            'model "Long"\n'
            'lane h side=human kind=operator "Human"\n'
            'lane m side=machine kind=autonomy "Machine"\n'
            'node src lane=m stage=act "Emit"\n'
            + "".join(f'node c{index} lane=h stage=observe "Step"\n'
                      for index in range(1500))
            + "edge src -> c0\n"
            + "".join(f"edge c{index} -> c{index + 1}\n" for index in range(1499)),
            encoding="utf-8")
        code, out, err = invoke(
            capsys, "trace", str(path), "--interaction", "1", "--category", "stability",
            "--direction", "down", "--max-depth", "5000", "--format", "json")
        assert code == EXIT_OK
        assert err == ""
        (pathway,) = json.loads(out)["pathways"]
        assert pathway["nodes"] == [f"c{index}" for index in range(1500)]


TRACE_BOTH = ("--interaction", "3", "--category", "stability", "--direction", "both")


def _counting(monkeypatch, calls: list[str], *names: str) -> None:
    """Wrap each named function of ``hatlens.cli`` so every call is counted."""
    for name in names:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)


class _PipeClosedAfter(io.RawIOBase):
    """A pipe whose reader goes away after ``room`` bytes."""

    def __init__(self, room: int):
        self.room = room

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        if not self.room:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        taken = min(len(data), self.room)
        self.room -= taken
        return taken


class TestCallsAndCollector:
    """The CLI reaches each pipeline step through the name it imports, so a
    wrapper set on that name sees the call (the benchmark's traced run is
    built on this), and it pauses the cyclic collector for the command only:
    while it parses the arguments and runs."""

    @pytest.mark.parametrize("argv", [
        ("trace", MODEL, *TRACE_BOTH, "--format", "text"),
        ("trace", MODEL, *TRACE_BOTH, "--format", "json"),
        ("trace", MODEL, *TRACE_BOTH, "--format", "dot"),
        *(("report", MODEL, "--lens", LENS, "--sfm", SFM, "--mit", MIT, *TRACE_BOTH,
           "--format", fmt) for fmt in ("json", "csv", "md", "dot")),
    ], ids=["trace-text", "trace-json", "trace-dot", "report-json", "report-csv",
            "report-md", "report-dot"])
    def test_trace_runs_through_the_imported_names(self, capsys, monkeypatch, argv):
        expected = invoke(capsys, *argv)
        assert expected[0] == EXIT_OK
        writers = {"text": "pathway_label", "json": "write_json", "csv": "emit_csv",
                   "md": "emit_markdown", "dot": "emit_dot"}
        calls: list[str] = []
        _counting(monkeypatch, calls, "parse_model", "validate", "trace", *writers.values())
        assert invoke(capsys, *argv) == expected
        # Each format reaches only its own writer: once, or once per pathway.
        writes = len(expected[1].splitlines()) if argv[-1] == "text" else 1
        assert sorted(calls) == sorted(
            ["parse_model", "validate", "trace", "trace"] + [writers[argv[-1]]] * writes)

    @pytest.mark.parametrize("argv", [
        ("map", MODEL, "--lens", LENS),
        ("specialise", MODEL, "--lens", LENS, "--sfm", SFM),
        ("mitigations", MODEL, "--lens", LENS, "--mit", MIT),
        ("mitigations", MODEL, "--lens", LENS, "--sfm", SFM, "--mit", MIT),
        *(("report", MODEL, "--lens", LENS, "--sfm", SFM, "--mit", MIT, *trace_flags,
           "--format", fmt) for trace_flags, fmt in (((), "csv"), (TRACE_BOTH, "md"))),
    ], ids=["map", "specialise", "mitigations", "mitigations-sfm", "report-csv",
            "report-md-trace"])
    def test_table_commands_map_and_specialise_once(self, capsys, monkeypatch, argv):
        # One pipeline builds the table of every command that shows one.
        expected = invoke(capsys, *argv)
        assert expected[0] == EXIT_OK
        calls: list[str] = []
        _counting(monkeypatch, calls, "map_failure_modes", "apply_specialisations")
        assert invoke(capsys, *argv) == expected
        assert calls == ["map_failure_modes", "apply_specialisations"]

    @pytest.mark.parametrize("argv", [
        ("trace", MODEL, *TRACE_BOTH, "--format", "json"),
        ("report", MODEL, "--lens", LENS, "--sfm", SFM, "--mit", MIT, *TRACE_BOTH,
         "--format", "json"),
    ], ids=["trace", "report"])
    def test_streamed_json_is_the_same_on_stdout_and_in_a_file(self, capsys, tmp_path,
                                                               argv):
        code, expected, _ = invoke(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(expected)["pathways"]
        target = tmp_path / "out.json"
        assert invoke(capsys, *argv, "-o", str(target)) == (EXIT_OK, "", "")
        assert target.read_bytes() == expected.encode("utf-8")
        code, out, err = invoke(capsys, *argv, "-o", str(tmp_path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: cannot write {tmp_path}:")

    @pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("argv, code, runs", [
        (("trace", MODEL, *TRACE_BOTH, "--format", "json"), EXIT_OK, True),
        (("trace", MODEL, "--interaction", "99", "--category", "timely",
          "--direction", "up"), EXIT_FINDINGS, True),
        (("validate", MODEL, "-o", "out"), EXIT_USAGE, False),
        (("validate", str(ATC / "no-such.hat")), EXIT_USAGE, True),
    ], ids=["ok", "findings", "bad-flag", "missing-file"])
    def test_the_collector_is_paused_for_the_command_only(self, capsys, monkeypatch,
                                                          collecting, argv, code, runs):
        during: list[bool] = []
        parsing: list[bool] = []
        original, build = cli.load_catalogs, cli._build_parser
        monkeypatch.setattr(cli, "load_catalogs", lambda *args, **kwargs: (
            during.append(gc.isenabled()) or original(*args, **kwargs)))
        monkeypatch.setattr(cli, "_build_parser", lambda *args: (
            parsing.append(gc.isenabled()) or build(*args)))
        (gc.enable if collecting else gc.disable)()
        try:
            assert run(list(argv)) == code
            assert gc.isenabled() is collecting
        finally:
            gc.enable()
        capsys.readouterr()
        assert (parsing, during) == ([False], [False] if runs else [])

    def test_the_collector_is_restored_when_a_command_raises(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken step")

        monkeypatch.setattr(cli, "trace", broken)
        try:
            with pytest.raises(RuntimeError, match="broken step"):
                run(["trace", MODEL, *TRACE_BOTH])
            assert gc.isenabled()
        finally:
            gc.enable()


class TestInteractionsAndMitigations:
    def test_interactions_csv_is_exact(self, capsys):
        code, out, err = invoke(capsys, "interactions", MODEL)
        assert code == EXIT_OK
        assert err == ""
        assert out == (
            "I ID,Interaction Name,Machine Stage,Human Stage,Direction\n"
            "1,Observe traffic picture,Observe,Observe,Machine->Human\n"
            "2,Observe current schedule,Observe,Observe,Machine->Human\n"
            "3,Observe Landing Sequence,Decide,Observe,Machine->Human\n"
            "4,Ingest controller's selected sequence,Observe,Decide,"
            "Human->Machine\n"
        )

    def test_mitigations_csv_includes_fixture_catalog(self, capsys):
        code, out, err = invoke(
            capsys, "mitigations", MODEL, "--lens", LENS, "--sfm", SFM,
            "--mit", MIT)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "I ID,SFM ID,Category,Mitigation ID,Mitigation Name"
        assert "3,4,timely,hmi_summary,Recommendation summary view" in lines
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert all(len(row) == 5 for row in rows)

    def test_mitigations_csv_without_mit_flag_lacks_fixture_entries(self, capsys):
        code, out, err = invoke(
            capsys, "mitigations", MODEL, "--lens", LENS, "--sfm", SFM)
        assert code == EXIT_OK
        assert "hmi_summary" not in out


class TestLenses:
    def test_listing_names_builtin_lenses(self, capsys):
        code, out, err = invoke(capsys, "lenses")
        assert code == EXIT_OK
        assert out == ("machine: Machine Behaviour (6 modes)\n"
                       "human_intent: Human Intent (4 modes)\n")

    def test_listing_appends_loaded_catalogs(self, capsys):
        code, out, err = invoke(capsys, "lenses", "--lens", LENS)
        assert code == EXIT_OK
        assert out.endswith("atc: Landing Sequence Decision Support (2 modes)\n")

    def test_no_builtin_listing_is_empty(self, capsys):
        code, out, err = invoke(capsys, "lenses", "--no-builtin")
        assert code == EXIT_OK
        assert out == ""

    def test_export_round_trips_to_builtin_catalog(self, capsys):
        code, out, err = invoke(capsys, "lenses", "--export")
        assert code == EXIT_OK
        assert parse_lens_catalog(out) == builtin_catalog()

    def test_duplicate_lens_file_is_rejected(self, capsys):
        code, out, err = invoke(capsys, "lenses", "--lens", LENS, "--lens", LENS)
        assert code == EXIT_FINDINGS
        assert out == ""
        assert err.startswith("error: duplicate lens id 'atc'")

    def test_a_mode_repeated_across_lens_files_is_rejected_with_its_lines(self, capsys,
                                                                          tmp_path):
        first, second = tmp_path / "a.lens", tmp_path / "b.lens"
        first.write_text('lens alpha "Alpha"\n'
                         'mode drift lens=alpha direction=m2h category=stability "Drift" '
                         'question="Does it drift?"\n',
                         encoding="utf-8")
        second.write_text('lens beta "Beta"\n'
                          '\n'
                          'mode drift lens=beta direction=h2m category=timely "Drift too" '
                          'question="Does it drift too?"\n',
                          encoding="utf-8")
        code, out, err = invoke(capsys, "lenses", "--lens", str(first), "--lens", str(second))
        assert code == EXIT_FINDINGS
        assert out == ""
        assert err == ("error: duplicate mode id 'drift': declared in lens 'alpha' (line 2) "
                       "and again in lens 'beta' (line 3)\n")

    def test_duplicate_mitigation_file_is_rejected(self, capsys):
        code, out, err = invoke(
            capsys, "mitigations", MODEL, "--mit", MIT, "--mit", MIT)
        assert code == EXIT_FINDINGS
        assert out == ""
        assert err == f"error: duplicate mitigation id 'hmi_summary' from {MIT}\n"
        # The library function raises the catalog error the CLI reports.
        with pytest.raises(CatalogError, match="duplicate mitigation id 'hmi_summary'"):
            cli.load_catalogs(mit_paths=[MIT, MIT])

    def test_the_library_loader_raises_read_and_parse_errors_and_prints_nothing(
            self, capsys, tmp_path):
        # Raised, not printed and turned into SystemExit: ``run`` reports them.
        missing = tmp_path / "gone.lens"
        with pytest.raises(FileNotFoundError) as reading:
            cli.load_catalogs([LENS, missing])
        assert reading.value.filename == missing
        malformed = tmp_path / "broken.mit"
        malformed.write_text("mitigation x\n", encoding="utf-8")
        with pytest.raises(DslParseError, match="missing the category= attribute") as parsing:
            cli.load_catalogs([LENS], [MIT, str(malformed)])
        assert parsing.value.filename == str(malformed)
        assert capsys.readouterr() == ("", "")


class TestValidate:
    def test_clean_model_is_silent(self, capsys):
        for extra in ([], ["--strict"]):
            code, out, err = invoke(capsys, "validate", MODEL, *extra)
            assert code == EXIT_OK
            assert out == ""
            assert err == ""

    def test_warning_only_model_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "quiet.hat"
        path.write_text(
            'model "Quiet"\n'
            'lane h side=human kind=operator "Operator"\n'
            'node a lane=h stage=observe "Watch"\n',
            encoding="utf-8")
        code, out, err = invoke(capsys, "validate", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert err == f"{path}:1: warning: NO_INTERACTIONS: no interactions possible\n"

    def test_strictness_promotes_observe_target(self, capsys, tmp_path):
        path = tmp_path / "crossy.hat"
        path.write_text(
            'model "Crossy"\n'
            'lane h side=human kind=operator "Operator"\n'
            'lane m side=machine kind=autonomy "Bot"\n'
            'node a lane=m stage=act "Publish"\n'
            'node c lane=h stage=decide "Choose"\n'
            'edge a -> c "Push"\n',
            encoding="utf-8")
        diagnostic = (
            "OBSERVE_TARGET: cross-side edge 'e1' targets Decide-stage node "
            "'c' instead of an Observe-stage node\n")
        code, out, err = invoke(capsys, "validate", str(path))
        assert code == EXIT_OK
        assert err == f"{path}:6: warning: {diagnostic}"
        code, out, err = invoke(capsys, "validate", str(path), "--strict")
        assert code == EXIT_FINDINGS
        assert err == f"{path}:6: error: {diagnostic}"

    def test_strictness_promotes_mitigation_placement(self, capsys, tmp_path):
        mit = tmp_path / "gate.mit"
        mit.write_text('mitigation gate category=timely placement=edge "Gate" detail="Hold"\n',
                       encoding="utf-8")
        path = tmp_path / "placed.hat"
        path.write_text(
            'model "Placed"\n'
            'lane h side=human kind=operator "Operator"\n'
            'lane m side=machine kind=autonomy "Bot"\n'
            'node a lane=m stage=act "Publish" mitigation=gate\n'
            'node c lane=h stage=observe "Watch"\n'
            'edge a -> c mitigation=hysteresis,gate\n',
            encoding="utf-8")
        diagnostics = [
            (4, "node 'a' references mitigation 'gate', whose placement is edge"),
            (6, "edge 'e1' references mitigation 'hysteresis', whose placement is node"),
        ]
        for extra, code, severity in (([], EXIT_OK, "warning"),
                                      (["--strict"], EXIT_FINDINGS, "error")):
            assert invoke(capsys, "validate", str(path), "--mit", str(mit), *extra) == (
                code, "", "".join(f"{path}:{line}: {severity}: MITIGATION_PLACEMENT: {message}\n"
                                  for line, message in diagnostics))

    def test_warnings_do_not_block_downstream_commands(self, capsys, tmp_path):
        path = tmp_path / "crossy.hat"
        path.write_text(
            'model "Crossy"\n'
            'lane h side=human kind=operator "Operator"\n'
            'lane m side=machine kind=autonomy "Bot"\n'
            'node a lane=m stage=act "Publish"\n'
            'node c lane=h stage=decide "Choose"\n'
            'edge a -> c name="Push"\n',
            encoding="utf-8")
        code, out, err = invoke(capsys, "interactions", str(path))
        assert code == EXIT_OK
        assert "warning: OBSERVE_TARGET" in err
        assert out.splitlines()[1] == "1,Push,Act,Decide,Machine->Human"

    def test_validation_errors_stop_other_commands(self, capsys, tmp_path):
        path = tmp_path / "broken.hat"
        path.write_text(
            'model "Broken"\n'
            'lane h side=human kind=operator "Operator"\n'
            'lane m side=machine kind=autonomy "Bot"\n'
            'node a lane=m stage=act "Publish" mitigation=unheard_of\n'
            'node b lane=h stage=observe "Watch"\n'
            'edge a -> b\n',
            encoding="utf-8")
        code, out, err = invoke(capsys, "interactions", str(path))
        assert code == EXIT_FINDINGS
        assert out == ""
        assert "error: UNKNOWN_MITIGATION" in err

    def test_a_mitigation_listed_twice_stops_every_model_command(self, capsys, tmp_path):
        # Listed twice, hysteresis would damp the step to b twice: a gain of
        # 0.5, Mitigated, where listing it once gives 1.0, Neutral.
        text = ('model "Twice"\n'
                'lane h side=human kind=operator "Operator"\n'
                'lane m side=machine kind=autonomy "Bot"\n'
                'node s lane=m stage=act "Publish"\n'
                'node a lane=h stage=observe "Watch"\n'
                'node b lane=h stage=orient "Digest" response.stability=amplify:2.0 '
                'mitigation=hysteresis,hysteresis\n'
                'edge s -> a\n'
                'edge a -> b\n')
        twice, once, sfm = tmp_path / "twice.hat", tmp_path / "once.hat", tmp_path / "none.sfm"
        twice.write_text(text, encoding="utf-8")
        once.write_text(text.replace("hysteresis,hysteresis", "hysteresis"), encoding="utf-8")
        sfm.write_text("", encoding="utf-8")
        trace = ("--interaction", "1", "--category", "stability", "--direction", "down")
        diagnostic = (f"{twice}:6: error: DUPLICATE_ID: "
                      "node 'b' lists mitigation 'hysteresis' twice\n")
        for command, *flags in (("validate",), ("validate", "--strict"), ("interactions",),
                                ("map",), ("specialise", "--sfm", str(sfm)), ("trace", *trace),
                                ("mitigations",), ("report", "--format", "md", *trace)):
            assert invoke(capsys, command, str(twice), *flags) == (
                EXIT_FINDINGS, "", diagnostic), (command, *flags)
        assert invoke(capsys, "trace", str(once), *trace) == (
            EXIT_OK, "interaction 1 [stability, down]: a -> b (gain 1.0, Neutral)\n", "")

    def test_no_builtin_rejects_builtin_categories(self, capsys, tmp_path):
        # The ATC lens has the categories of the model's responses but not
        # the robustness of its cause= tags.
        robustness = tmp_path / "robustness.lens"
        robustness.write_text(
            'lens extra "Extra"\n'
            'mode extra_rob lens=extra direction=m2h category=robustness "Rob" question="?"\n',
            encoding="utf-8")
        code, out, err = invoke(capsys, "map", MODEL, "--no-builtin",
                                "--lens", LENS, "--lens", str(robustness))
        assert code == EXIT_OK
        code, out, err = invoke(capsys, "map", MODEL, "--no-builtin", "--lens", LENS)
        assert code == EXIT_FINDINGS
        assert out == ""
        assert "error: UNKNOWN_CATEGORY: node 'm_ingest' cause category 'robustness'" in err
        code, out, err = invoke(capsys, "map", MODEL, "--no-builtin")
        assert code == EXIT_FINDINGS
        assert out == ""
        assert "error: UNKNOWN_CATEGORY" in err


class TestFilesAndUsage:
    def test_parse_errors_carry_position(self, capsys, tmp_path):
        path = tmp_path / "empty.hat"
        path.write_text("# nothing here\n", encoding="utf-8")
        code, out, err = invoke(capsys, "validate", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"{path}:1:1: error: missing model statement\n"

    def test_missing_file(self, capsys, tmp_path):
        path = tmp_path / "nope.hat"
        code, out, err = invoke(capsys, "validate", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: cannot read {path}:")

    def test_file_that_is_not_utf8_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.hat"
        path.write_bytes(b'model "Caf\xe9"\n\xff\n')
        code, out, err = invoke(capsys, "validate", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: cannot read {path}:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("failure", ["missing", "directory", "not-utf8", "malformed"])
    @pytest.mark.parametrize("flag", ["model", "--lens", "--mit", "--sfm"])
    def test_every_input_file_fails_with_its_path_and_exit_2(self, capsys, tmp_path, flag,
                                                            failure):
        suffix, command, malformed, messages = {
            "model": (".hat", ["validate"], "# no model statement\nlane\n", [
                "lane statement is missing its id",
                "lane statement is missing the side= attribute",
                "lane statement is missing the kind= attribute",
                "lane statement is missing its quoted display name"]),
            "--lens": (".lens", ["validate", MODEL], "# one lens\nlens\n", [
                "lens statement is missing its id",
                "lens statement is missing its quoted name"]),
            "--mit": (".mit", ["validate", MODEL, "--lens", LENS],
                      "# one mitigation\nmitigation x category=use\n", [
                "mitigation statement is missing the placement= attribute",
                "mitigation statement is missing its quoted name",
                "mitigation statement is missing the detail= attribute"]),
            "--sfm": (".sfm", ["specialise", MODEL, "--lens", LENS],
                      "# one binding\nsfm 1 mode=timely\n", [
                "sfm statement is missing the interaction= attribute",
                "sfm statement is missing its quoted text"]),
        }[flag]
        path = tmp_path / f"input{suffix}"
        undecodable = b'# caf\xe9\n'
        if failure == "directory":
            path.mkdir()
        elif failure == "not-utf8":
            path.write_bytes(undecodable)
        elif failure == "malformed":
            path.write_text(malformed, encoding="utf-8")
        argv = [*command, str(path)] if flag == "model" else [*command, flag, str(path)]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert "Traceback" not in err
        if failure == "malformed":
            assert err == "".join(f"{path}:2:1: error: {message}\n" for message in messages)
            return
        if failure == "not-utf8":
            with pytest.raises(UnicodeDecodeError) as decoding:
                undecodable.decode("utf-8")
            reason = str(decoding.value)
        else:
            reason = os.strerror(errno.ENOENT if failure == "missing" else errno.EISDIR)
        assert err == f"error: cannot read {path}: {reason}\n"

    @pytest.mark.parametrize("argv", [
        ("validate", "atc.hat", "--lens", "atc.lens", "--mit", "atc.mit", "--strict"),
        ("report", "atc.hat", "--lens", "atc.lens", "--sfm", "atc.sfm", "--mit", "atc.mit",
         "--format", "md"),
    ], ids=["validate", "report-md"])
    def test_files_saved_with_a_byte_order_mark_read_as_without_it(self, capsys, tmp_path,
                                                                  argv):
        for name in ("atc.hat", "atc.lens", "atc.sfm", "atc.mit"):
            text = (ATC / name).read_text(encoding="utf-8")
            (tmp_path / name).write_text("\ufeff" + text, encoding="utf-8")

        def argv_in(folder):
            return [str(folder / word) if word.startswith("atc.") else word for word in argv]

        plain = invoke(capsys, *argv_in(ATC))
        assert plain[0] == EXIT_OK
        assert invoke(capsys, *argv_in(tmp_path)) == plain

    def test_output_flag_writes_the_stdout_payload(self, capsys, tmp_path):
        _, expected, _ = invoke(
            capsys, "report", MODEL, "--lens", LENS, "--sfm", SFM,
            "--format", "csv")
        target = tmp_path / "out.csv"
        code, out, err = invoke(
            capsys, "report", MODEL, "--lens", LENS, "--sfm", SFM,
            "--format", "csv", "-o", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert err == ""
        assert target.read_bytes() == expected.encode("utf-8")

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = invoke(
            capsys, "interactions", MODEL, "-o", str(tmp_path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: cannot write {tmp_path}:")

    def test_stdout_closed_partway_is_a_usage_error(self, capsys, monkeypatch):
        pipe = _PipeClosedAfter(100)
        stdout = io.TextIOWrapper(io.BufferedWriter(pipe, buffer_size=64), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stdout)
        code = run(["trace", MODEL, *TRACE_BOTH, "--format", "json"])
        assert (code, pipe.room) == (EXIT_USAGE, 0)
        assert capsys.readouterr().err == "error: cannot write standard output: Broken pipe\n"
        pipe.room = sys.maxsize  # let the wrapper's flush on close succeed
        stdout.close()

    @pytest.mark.parametrize("command, stdout, reason", [
        ("lenses", "closed-pipe", "Broken pipe"), ("--help", "closed-pipe", "Broken pipe"),
        ("lenses", "closed", "Bad file descriptor"),
    ])
    def test_an_unwritable_stdout_gives_one_line_and_exit_2(self, command, stdout, reason):
        # Run as a process with a buffered stdout: the interpreter's own
        # flush at exit must not add an "Exception ignored" line.
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_ROOT.parent.parent))
        env.pop("PYTHONUNBUFFERED", None)
        reader, writer = os.pipe()
        os.close(reader)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "hatlens.cli", command], stdout=writer,
                stderr=subprocess.PIPE, text=True, timeout=120, env=env,
                preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None)
        finally:
            os.close(writer)
        assert (result.returncode, result.stderr) == (
            EXIT_USAGE, f"error: cannot write standard output: {reason}\n")

    @pytest.mark.parametrize("stderr", ["full", "closed"])
    @pytest.mark.parametrize("argv, code, lines", [
        (("validate", str(ATC / "no-such.hat")), EXIT_USAGE, 0),
        (("trace", MODEL, "--interaction", "99", "--category", "timely", "--direction", "up"),
         EXIT_FINDINGS, 0),
        (("specialise", MODEL, "--sfm", SFM), EXIT_FINDINGS, 0),
        (("trace", MODEL, "--interaction", "3", "--category", "timely", "--direction", "up"),
         EXIT_OK, 6),
    ], ids=["missing-file", "unknown-interaction", "bad-binding", "warned"])
    def test_an_unwritable_stderr_changes_no_exit_code_and_no_data(self, stderr, argv, code,
                                                                    lines):
        # The warned trace prints a warning before its data; losing it must
        # not lose the data.
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_ROOT.parent.parent))
        with open(os.devnull if stderr == "closed" else "/dev/full", "w") as sink:
            result = subprocess.run(
                [sys.executable, "-m", "hatlens.cli", *argv], stdout=subprocess.PIPE,
                stderr=sink, text=True, timeout=120, env=env,
                preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None)
        assert result.returncode == code
        assert len(result.stdout.splitlines()) == lines
        assert all(line.startswith("interaction 3 [timely, up]: hmi_recommend -> ")
                   for line in result.stdout.splitlines())

    def test_no_stderr_at_all_sends_no_diagnostic_to_stdout(self, capsys, monkeypatch):
        argv = ["trace", MODEL, "--interaction", "3", "--category", "timely", "--direction", "up"]
        expected = invoke(capsys, *argv)
        assert expected[0] == EXIT_OK and expected[2].startswith("warning: category 'timely'")
        monkeypatch.setattr(sys, "stderr", None)
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == expected[1]
        assert run(["validate", str(ATC / "no-such.hat")]) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        # argparse's own usage errors too; its help still goes to stdout.
        assert run(["trace"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert run(["trace", "-h"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: hatlens trace ")

    @pytest.mark.parametrize("argv", [
        (), ("trace",), ("frobnicate",), ("map", MODEL, "--bogus"),
        ("trace", MODEL, "--interaction", "٣", "--category", "timely", "--direction", "up"),
    ], ids=["none", "trace", "unknown-command", "unknown-flag", "bad-int"])
    def test_usage_errors_print_argparse_s_own_bytes(self, capsys, monkeypatch, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage: hatlens") and ": error: " in err
        monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
        assert invoke(capsys, *argv) == (code, out, err)

    def test_stdout_in_another_encoding_gets_the_bytes_of_the_output_file(
            self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "out.lens"
        assert invoke(capsys, "lenses", "--export", "-o", str(target)) == (EXIT_OK, "", "")
        assert "\u2019" in target.read_text(encoding="utf-8")
        binary = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(binary, encoding="ascii"))
        assert run(["lenses", "--export"]) == EXIT_OK
        assert binary.getvalue() == target.read_bytes()
        # A stdout with no binary buffer gets the text.
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert run(["lenses", "--export"]) == EXIT_OK
        assert sys.stdout.getvalue() == target.read_text(encoding="utf-8")

    @pytest.mark.parametrize("kind", ["existing", "fifo", "symlink", "hardlink"])
    def test_a_failed_output_write_leaves_no_partial_file(self, capsys, monkeypatch,
                                                          tmp_path, kind):
        def fail_partway(bundle, out):
            out.write('{"pathways": [')
            raise OSError(errno.EFBIG, "File too large")

        monkeypatch.setattr(cli, "write_json", fail_partway)
        target = tmp_path / "out.json"
        other = tmp_path / "other.json"  # the symlink's target, or a second hard link
        if kind == "fifo":
            os.mkfifo(target)
            reader = os.open(target, os.O_RDONLY | os.O_NONBLOCK)
        elif kind == "symlink":
            other.write_text("earlier output\n", encoding="utf-8")
            target.symlink_to(other)
        else:
            target.write_text("earlier output\n", encoding="utf-8")
            if kind == "hardlink":
                os.link(target, other)
        code, out, err = invoke(capsys, "trace", MODEL, *TRACE_BOTH, "--format", "json",
                                "-o", str(target))
        if kind == "fifo":
            os.close(reader)
        assert (code, out, err) == (EXIT_USAGE, "",
                                    f"error: cannot write {target}: File too large\n")
        # The regular file the command opened is emptied, and removed where the
        # path itself names it; a FIFO and a symlink are not its to remove.
        assert os.path.lexists(target) == (kind in ("fifo", "symlink"))
        if kind in ("symlink", "hardlink"):
            assert other.read_bytes() == b""

    def test_an_output_file_over_the_size_limit_is_removed(self, tmp_path):
        # A real write error, partway through a new file.
        resource = pytest.importorskip("resource")
        target = tmp_path / "out.json"

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))

        result = subprocess.run(
            [sys.executable, "-m", "hatlens.cli", "report", MODEL, "--format", "json",
             *TRACE_BOTH, "-o", str(target)],
            capture_output=True, text=True, timeout=120, preexec_fn=limit_file_size,
            env=dict(os.environ, PYTHONPATH=str(FIXTURE_ROOT.parent.parent)))
        assert (result.returncode, result.stderr) == (
            EXIT_USAGE, f"error: cannot write {target}: File too large\n")
        assert not target.exists()

    def test_the_library_reads_line_ends_as_the_cli_does(self, capsys, tmp_path):
        lf = (FIXTURE_ROOT / "minimal" / "minimal.hat").read_text(encoding="utf-8")
        # A lone CR ends a line, inside a quoted label too.
        cr_label = tmp_path / "cr_label.hat"
        cr_label.write_bytes(lf.replace("Watch status", "Watch\rstatus").encode())
        with pytest.raises(DslParseError) as excinfo:
            parse_model(cr_label.read_bytes().decode())
        code, out, err = invoke(capsys, "validate", str(cr_label))
        assert (code, out) == (EXIT_USAGE, "")
        assert "unterminated string" in err
        assert err == "".join(f"{cr_label}:{diag.line}:{diag.column}: error: {diag.message}\n"
                              for diag in excinfo.value.diagnostics)
        cr_only = tmp_path / "cr_only.hat"
        cr_only.write_bytes(lf.replace("\n", "\r").encode())
        assert invoke(capsys, "validate", str(cr_only)) == (EXIT_OK, "", "")
        assert parse_model(cr_only.read_bytes().decode()) == parse_model(lf)

    def test_unknown_subcommand_and_missing_subcommand(self, capsys):
        code, out, err = invoke(capsys, "frobnicate")
        assert code == EXIT_USAGE
        assert "usage" in err
        code, out, err = invoke(capsys)
        assert code == EXIT_USAGE
        assert "usage" in err

    def test_help_exits_zero_everywhere(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")
        code, out, err = invoke(capsys, "--help")
        assert code == EXIT_OK
        assert out.startswith("usage: hatlens [-h] command ...\n")
        for command, usage in USAGES.items():
            code, out, err = invoke(capsys, command, "--help")
            assert code == EXIT_OK
            assert out.splitlines()[0] == f"usage: hatlens {command} {usage}"

    @pytest.mark.parametrize("command, help_text", [
        # trace requires the flag, so no default applies; report's defaults to both.
        ("trace", "trace direction"),
        ("report", "trace direction (default: both)"),
    ])
    def test_direction_help_states_a_default_only_where_the_flag_is_optional(
            self, capsys, command, help_text):
        code, out, err = invoke(capsys, command, "--help")
        assert code == EXIT_OK
        options = " ".join(out.split())  # the help of each option, however it wraps
        assert re.findall(r"--direction \{up,down,both\} ([^-]*) --max-depth N", options) == [
            help_text]

    @pytest.mark.parametrize("argv", [
        ("--help",), (), ("frobnicate", MODEL), ("--strict", "trace"),
        *((command, "--help") for command in SUBCOMMANDS),
        *((command,) for command in SUBCOMMANDS),
        *((command, MODEL, "--bogus") for command in SUBCOMMANDS),
        ("trace", MODEL, "--interaction", "3"),
        ("trace", MODEL, *TRACE_BOTH, "--format", "svg"),
        ("specialise", MODEL),
        ("report", MODEL, "--sfm", SFM, "--format", "md", "--max-depth", "x"),
    ], ids=lambda argv: " ".join(argv).replace(str(ATC), "atc") or "none")
    def test_the_running_command_s_parser_parses_and_fails_as_the_whole_one(
            self, capsys, monkeypatch, argv):
        # run builds only the subparser that argv[0] names; help, usage
        # errors and parsed values must not tell it from the full parser.
        monkeypatch.setenv("COLUMNS", "80")

        def parsed(parser):
            try:
                outcome = vars(parser.parse_args(list(argv)))
            except SystemExit as exc:
                outcome = exc.code
            return outcome, capsys.readouterr()

        whole, running = cli._build_parser(), cli._build_parser(argv[0] if argv else None)
        assert parsed(running) == parsed(whole)
        choices = running._subparsers._group_actions[0].choices
        assert list(choices) == ([argv[0]] if argv and argv[0] in USAGES else SUBCOMMANDS)

    @pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("argv, loaded", [
        (None, []),
        (("trace", MODEL, *TRACE_BOTH, "--format", "text"), []),
        (("interactions", MODEL), ["csv"]),
        (("trace", MODEL, *TRACE_BOTH, "--format", "json", "-o", "out.json"), ["json"]),
        (("validate", MODEL), []),
        (("map", MODEL), ["csv"]),
        (("specialise", MODEL, "--lens", LENS, "--sfm", SFM), ["csv"]),
        (("trace", MODEL, *TRACE_BOTH, "--format", "dot"), []),
        (("mitigations", MODEL, "--lens", LENS, "--sfm", SFM, "--mit", MIT), ["csv"]),
        *((("report", MODEL, "--lens", LENS, "--sfm", SFM, "--mit", MIT, *TRACE_BOTH,
            "--format", form), loaded) for form, loaded in (
                ("csv", ["csv"]), ("md", []), ("json", ["json"]), ("dot", []))),
        (("lenses", "--lens", LENS), []),
    ], ids=["import", "trace-text", "interactions", "trace-json", "validate", "map",
            "specialise", "trace-dot", "mitigations", "report-csv", "report-md", "report-json",
            "report-dot", "lenses"])
    def test_a_process_loads_json_and_csv_only_to_write_them(self, tmp_path, collecting,
                                                              argv, loaded):
        # In a fresh interpreter: the import leaves the collector as it found
        # it, a command loads json or csv only when it writes that format, and
        # none loads dataclasses or the inspect it imports: the value types
        # become dataclasses only when something introspects them.
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_ROOT.parent.parent))
        script = ("import gc, sys\n"
                  f"(gc.enable if {collecting} else gc.disable)()\n"
                  "import hatlens.cli\n"
                  f"assert gc.isenabled() is {collecting}\n"
                  f"sys.argv = ['hatlens', *{argv or ()!r}]\n"
                  f"code = hatlens.cli.main() if {argv is not None} else 0\n"
                  "print(sorted({'json', 'csv', 'dataclasses', 'inspect'} & set(sys.modules)),"
                  " file=sys.stderr)\n"
                  "sys.exit(code)\n")
        result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stderr) == (EXIT_OK, f"{loaded}\n")

    def test_main_is_an_alias_for_run(self, capsys):
        collecting, frozen = gc.isenabled(), gc.get_freeze_count()
        assert main(["lenses"]) == EXIT_OK
        capsys.readouterr()
        assert (gc.isenabled(), gc.get_freeze_count()) == (collecting, frozen)

    def test_the_process_s_own_main_freezes_the_collector(self):
        # main() with no argv is the console script's call; the frozen heap
        # is what the interpreter's shutdown collections then skip.
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_ROOT.parent.parent))
        script = ("import gc, sys\n"
                  "from hatlens.cli import main\n"
                  "sys.argv = ['hatlens', 'lenses']\n"
                  "code = main()\n"
                  "print(gc.get_freeze_count() > 0, file=sys.stderr)\n"
                  "sys.exit(code)\n")
        entry = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
        module = subprocess.run([sys.executable, "-m", "hatlens.cli", "lenses"], env=env,
                                capture_output=True, text=True, timeout=120)
        assert entry.stderr == "True\n"
        assert (entry.returncode, entry.stdout) == (module.returncode, module.stdout)
        assert (module.returncode, module.stderr) == (EXIT_OK, "")

    @pytest.mark.parametrize("command", [
        ("validate", MODEL),
        ("trace", MODEL, *TRACE_BOTH, "--format", "json", "-o", "out.json"),
    ], ids=["validate", "trace-o"])
    @pytest.mark.parametrize("flags", [("-W", "error"), ("-X", "dev", "-W", "error")],
                             ids=["W-error", "X-dev"])
    def test_the_module_runs_as_a_script_without_warnings(self, tmp_path, command, flags):
        # Were the package to import hatlens.cli, runpy would warn that the
        # module is loaded before it runs; -W error makes that a failure.
        # -X dev also warns of a file freed while still open; ``-o`` is how
        # a command opens one.
        src = str(FIXTURE_ROOT.parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, *flags, "-m", "hatlens.cli", *command],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stderr) == (EXIT_OK, "")
        if "-o" in command:
            assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["pathways"]


# ---------------------------------------------------------------------------
# Any argument list ends in an exit code, never in an exception.

@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_argv_ends_in_an_exit_code(tmp_path_factory, data):
    out = tmp_path_factory.getbasetemp() / "argv"
    out.mkdir(exist_ok=True)
    # Fresh copies of the inputs for each example: a drawn "-o <input>"
    # overwrites a copy, never a bundled fixture.
    inputs = [str(shutil.copyfile(path, out / os.path.basename(path)))
              for path in (MODEL, LENS, SFM, MIT, MINIMAL)]
    words = st.sampled_from([
        *SUBCOMMANDS, *inputs, str(out / "missing.hat"),
        "--lens", "--mit", "--sfm", "--no-builtin", "--strict", "--export", "--help",
        "--interaction", "--category", "--direction", "--max-depth", "--format",
        "-o", "--output", str(out / "out.txt"), str(out), str(out / "no" / "out.txt"),
        "1", "4", "0", "99", "-1", "x", "\u0661", "stability", "timely", "nope",
        "up", "down", "both", "text", "json", "dot", "csv", "md", "",
    ])
    argv = data.draw(st.one_of(
        st.tuples(st.sampled_from(SUBCOMMANDS), st.lists(words, max_size=12))
        .map(lambda parts: [parts[0], *parts[1]]),
        st.lists(words, max_size=12),
    ))
    # In a scratch directory: a drawn "-o <word>" writes a file named <word>.
    cwd = os.getcwd()
    os.chdir(out)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    finally:
        os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_FINDINGS, EXIT_USAGE), argv
