"""Tests of the benchmark itself: generators, reference checks, metric catalogue.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import generate  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

ATC = ROOT / "src" / "hatlens" / "fixtures" / "atc"
SEEDS = (1, 2, 17)


@pytest.mark.parametrize("workload", ["wide_model", "dense_trace"])
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    first = generate.write(workload, 5, tmp_path / "a")
    second = generate.write(workload, 5, tmp_path / "b")
    other = generate.write(workload, 6, tmp_path / "c")
    for role, path in first.items():
        assert path.read_bytes() == second[role].read_bytes()
    assert first["model"].read_bytes() != other["model"].read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", ["wide_model", "dense_trace"])
def test_generated_models_validate_without_errors(workload, seed, tmp_path):
    import hatlens.cli

    files = generate.write(workload, seed, tmp_path)
    argv = ["validate", str(files["model"]), "--lens", str(ATC / "atc.lens"),
            "--mit", str(ATC / "atc.mit")]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert hatlens.cli.run(argv) == 0
    assert ": error: " not in stderr.getvalue()


def test_generator_sizes_match_the_workload_description():
    wide = generate.wide_model(1)
    assert (wide.lines, wide.nodes, wide.edges) == (4200, 1600, 2199)
    assert len(wide.directions) == 400 and len(wide.bindings) == 100
    dense = generate.dense_trace(1)
    assert dense.lines == 165
    assert all(len(onward) == generate.DENSE_DEGREE for onward in dense.successors.values())


def test_every_dense_seed_enumerates_the_same_pathway_count():
    counts = set()
    for seed in SEEDS:
        facts = generate.dense_trace(seed)
        graph = workloads.read_graph(facts.model)
        counts.add(len(graph.pathways(1, "down", facts.max_depth)[0]))
    assert len(counts) == 1


def test_maximal_paths_caps_depth_and_counts_truncation():
    adjacency = {"a": ["b", "c"], "b": ["a", "c"], "c": ["d"]}
    paths, truncated = workloads.maximal_paths(adjacency, "a", 3)
    assert paths == [("a", "b", "c"), ("a", "c", "d")]
    assert truncated == 1


def _dense_document(facts: generate.DenseTrace, paths) -> dict:
    pathways = []
    for nodes in paths:
        gains = [facts.coefficients[node] for node in nodes[1:]]
        total = math.prod(gains)
        pathways.append({
            "interaction_id": 1, "category": facts.category, "direction": "down",
            "nodes": list(nodes), "step_gains": gains, "total_gain": total,
            "classification": "Amplified" if total > 1 else
            "Mitigated" if total < 1 else "Neutral"})
    return {"failure_modes": [], "pathways": pathways, "second_order_effects": [],
            "mitigation_suggestions": []}


def test_dense_reference_accepts_its_own_answer_and_rejects_defects():
    facts = generate.dense_trace(3)
    graph = workloads.read_graph(facts.model)
    expected = graph.pathways(1, "down", facts.max_depth)[0]
    document = _dense_document(facts, expected)
    text = json.dumps(document).encode()
    assert workloads.check_dense_json(text, facts, expected) is None

    nan = text.replace(b'"total_gain": ', b'"total_gain": NaN, "x": ', 1)
    assert "invalid JSON" in workloads.check_dense_json(nan, facts, expected)

    swapped = dict(document, pathways=[document["pathways"][1], document["pathways"][0]]
                   + document["pathways"][2:])
    assert workloads.check_dense_json(json.dumps(swapped).encode(), facts, expected)

    wrong = json.loads(text)
    wrong["pathways"][7]["total_gain"] *= 1.5
    assert "total gain" in workloads.check_dense_json(json.dumps(wrong).encode(), facts,
                                                      expected)

    missing = dict(document, pathways=document["pathways"][:-1])
    assert "pathways" in workloads.check_dense_json(json.dumps(missing).encode(), facts,
                                                    expected)


def test_atc_references_accept_the_goldens_and_reject_a_changed_byte(tmp_path):
    staged = workloads.stage("atc_session", 1, ROOT, tmp_path)
    commands = {command.sub + (command.fmt or ""): check for command, check in staged.commands}
    golden = (ATC / "table.csv").read_bytes()
    assert commands["specialise"](golden) is None
    assert commands["specialise"](golden.replace(b"Bias", b"Bais", 1)) is not None
    readme = workloads.README_INTERACTIONS.encode()
    assert commands["interactions"](readme) is None
    assert commands["interactions"](readme[:-1]) is not None


def test_wide_expectations_follow_the_bindings():
    facts = generate.wide_model(1)
    base = sum(len(generate.M2H_MODES) if direction == "m2h" else len(generate.H2M_MODES)
               for direction in facts.directions)
    pairs = {(i_id, mode) for _, i_id, mode in facts.bindings}
    expected = workloads.wide_expectations(facts)
    assert expected["rows"] == base + len(facts.bindings) - len(pairs)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_time_subtracts_child_spans():
    spans = [traced.Span("root", 0, 100, None, 0), traced.Span("child", 10, 40, 0, 0),
             traced.Span("leaf", 15, 25, 1, 0)]
    assert traced.self_times(spans) == [70, 20, 10]


def test_metric_catalogue_matches_benchmark_json():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    catalogue = {metric["name"]: metric
                 for metric in json.loads((HERE / "metrics.json").read_text())["metrics"]}
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.NAMES)
    for kind in ("end_to_end", "per_layer"):
        for metric in benchmark[kind]:
            entry = catalogue[metric["name"]]
            assert (entry["unit"], entry["better"]) == (metric["unit"], metric["better"])
            assert (entry["layer"] == "end_to_end") == (kind == "end_to_end")
    listed = {metric["name"] for kind in ("end_to_end", "per_layer")
              for metric in benchmark[kind]}
    assert set(catalogue) - listed == {"error_rate", "wall_ms_tail"}


def test_pace_is_the_median_of_the_references_around_each_sample(tmp_path):
    runner = run.Runner(workloads.Staged([], workloads.Graph()), tmp_path)
    runner.references = [(0.0, 0.1), (1.0, 0.2), (2.0, 0.3), (9.0, 0.4)]
    short = run.Sample(0.1, 0.1, 1.0, middle=1.5)
    long = run.Sample(3.0, 3.0, 1.0, middle=5.5)
    runner.samples = [short, long]
    runner.calibrate = lambda env: None
    runner.pace({})
    reference = run.CALIBRATION_REF_S
    assert short.pace == pytest.approx(statistics.median([0.2, 0.3]) / reference)
    assert long.pace == pytest.approx(statistics.median([0.2, 0.3, 0.4]) / reference)


def test_traced_run_spans_the_cli_s_own_calls_and_restores_them(tmp_path):
    import hatlens
    import hatlens.cli as cli

    staged = workloads.stage("atc_session", 1, ROOT, tmp_path)
    runner = run.Runner(staged, tmp_path)
    before = dict(vars(cli))
    tracer = traced.Tracer()
    run.repeat(hatlens, cli, runner, tracer)
    assert vars(cli) == before
    assert runner.failures == [] and runner.attempted == 2 * len(staged.commands)
    roots = [span.name for span in tracer.spans if span.parent is None]
    assert roots == [f"cli.{command.sub}" for command, _ in staged.commands] + ["bench.sweep"]
    assert set(traced.LAYER_SPANS) <= {span.name for span in tracer.spans}
    counts = tracer.counts()
    sessions = len(staged.commands)
    assert counts["interactions.count"] == sessions * len(staged.graph.interactions)
    assert counts["dsl.parse_model_lines"] == sessions * (ATC / "atc.hat").read_text().count("\n")
    assert tracer.calls == []
    assert all(own >= 0 for own in traced.self_times(tracer.spans))
