"""Tests for the CSV, Markdown, JSON, and DOT emitters.

Cross-format consistency is the main oracle: the CSV and JSON renderings
of one table must carry identical cell values, and the Markdown pipe table
must contain exactly one row per table row.  The JSON document is also
validated against the schema shipped in docs/, and its bytes must equal
``json.dumps(..., indent=2)`` of a document the tests build themselves;
the DOT rendering of the bundled scenario is pinned against its golden
file.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import pickle
import random
import re
import tracemalloc
from collections import Counter
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BUILTIN_CATEGORIES,
    FIXTURE_ROOT,
    add_parallel_edges,
    pinned_corpus,
    random_label,
    random_model,
    tower_inputs,
)
from hatlens import (
    CSV_HEADER,
    ActivityEdge,
    Classification,
    Direction,
    FailureModeRow,
    FailureModeTable,
    GainBehaviour,
    InducedMode,
    Lane,
    LaneKind,
    ReportBundle,
    ReportError,
    SecondOrderEffect,
    Side,
    SpecialisedFailureMode,
    Stage,
    Strictness,
    TraceDirection,
    TracePathway,
    apply_specialisations,
    builtin_catalog,
    builtin_mitigations,
    derive_second_order,
    emit_csv,
    extract_interactions,
    emit_dot,
    emit_json,
    emit_markdown,
    emit_second_order_json,
    interaction_by_id,
    map_failure_modes,
    parse_model,
    suggest_mitigations,
    trace,
    validate,
    write_json,
)
from hatlens.dsl import _quote
from hatlens.report import csv_text, pathway_label
from hatlens.tracing import Pathways

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report-schema.json"


def tower_bundle():
    tower = tower_inputs()
    table = apply_specialisations(
        map_failure_modes(tower.interactions, tower.catalog), tower.sfms)
    interaction = interaction_by_id(tower.interactions, 3)
    pathways = (
        trace(tower.model, interaction, "timely", TraceDirection.DOWNSTREAM,
              mitigation_catalog=tower.mitigations)
        + trace(tower.model, interaction, "stability", TraceDirection.UPSTREAM,
                mitigation_catalog=tower.mitigations)
    )
    second_order = derive_second_order(tower.sfms, tower.interactions, tower.catalog)
    suggestions = suggest_mitigations(table, tower.mitigations)
    return tower, ReportBundle(
        table=table,
        pathways=pathways,
        second_order=second_order,
        suggestions=suggestions,
    )


def awkward_table():
    return FailureModeTable(rows=[FailureModeRow(
        i_id=1,
        sfm_id=9,
        interaction_name='They said "go", twice',
        machine_stage=Stage.DECIDE,
        human_stage=Stage.OBSERVE,
        direction=Direction.MACHINE_TO_HUMAN,
        generic_mode_id="timely",
        generic_mode_title="Timely",
        generic_mode_category="timely",
        specialised_text="A | B \\ C",
    )])


# ---------------------------------------------------------------------------
# CSV.

def test_csv_of_an_empty_table_is_just_the_exact_header():
    text = emit_csv(FailureModeTable(rows=[]))
    assert text == CSV_HEADER + "\n"
    assert CSV_HEADER == (
        "I ID,SFM ID,Interaction Name,Machine Stage,Human Stage,Direction,"
        "Generic Failure Mode,Specialised Failure Mode"
    )


def test_csv_matches_the_bundled_golden_file():
    _, bundle = tower_bundle()
    golden = (FIXTURE_ROOT / "atc" / "table.csv").read_text(encoding="utf-8")
    assert emit_csv(bundle.table) == golden


def test_csv_quotes_commas_and_doubles_quotes():
    text = emit_csv(awkward_table())
    lines = text.split("\n")
    assert lines[1] == (
        '1,9,"They said ""go"", twice",Decide,Observe,Machine->Human,Timely,'
        "A | B \\ C"
    )
    assert text.endswith("\n")
    assert not text.endswith("\n\n")


def test_csv_reparses_to_the_source_cells():
    _, bundle = tower_bundle()
    parsed = list(csv.reader(io.StringIO(emit_csv(bundle.table))))
    assert parsed[0] == CSV_HEADER.split(",")
    assert len(parsed) == len(bundle.table.rows) + 1
    for row, cells in zip(bundle.table.rows, parsed[1:]):
        assert cells == [
            str(row.i_id),
            "" if row.sfm_id is None else str(row.sfm_id),
            row.interaction_name,
            row.machine_stage.display(),
            row.human_stage.display(),
            row.direction.display(),
            row.generic_mode_title,
            "" if row.specialised_text is None else row.specialised_text,
        ]


@pytest.mark.parametrize(
    "cells, line",
    [
        (["x\ry", "z"], '"x\ry",z'),
        (["x\ny", "z"], '"x\ny",z'),
        (["x\r\ny", "z"], '"x\r\ny",z'),
        (["x\r", "\r"], '"x\r","\r"'),
    ],
)
def test_csv_quotes_line_breaks_so_a_reader_keeps_the_row(cells, line):
    text = csv_text(["a", "b"], [cells])
    assert text == f"a,b\n{line}\n"
    assert list(csv.reader(io.StringIO(text, newline=""))) == [["a", "b"], cells]


# ---------------------------------------------------------------------------
# Markdown.

EMPTY_MARKDOWN = (
    "## Failure Modes\n"
    "\n"
    "| I ID | SFM ID | Interaction Name | Machine Stage | Human Stage | Direction"
    " | Generic Failure Mode | Specialised Failure Mode |\n"
    "| --- | --- | --- | --- | --- | --- | --- | --- |\n"
    "\n"
    "## Pathways\n"
    "\n"
    "(none)\n"
    "\n"
    "## Second-order Effects\n"
    "\n"
    "(none)\n"
    "\n"
    "## Mitigation Suggestions\n"
    "\n"
    "(none)\n"
)


def test_markdown_of_an_empty_bundle():
    assert emit_markdown(ReportBundle()) == EMPTY_MARKDOWN


def test_markdown_table_row_count_matches_the_table():
    _, bundle = tower_bundle()
    text = emit_markdown(bundle)
    pipe_rows = [line for line in text.split("\n") if line.startswith("| ")]
    # header and separator, then one line per table row
    assert len(pipe_rows) == len(bundle.table.rows) + 2
    csv_rows = emit_csv(bundle.table).count("\n") - 1
    assert len(pipe_rows) - 2 == csv_rows


def test_markdown_escapes_pipes_and_backslashes():
    text = emit_markdown(ReportBundle(table=awkward_table()))
    assert "A \\| B \\\\ C" in text


def test_markdown_writes_each_line_break_in_a_cell_as_br():
    row = dataclasses.replace(awkward_table().rows[0],
                              specialised_text="line one\nline two\r\nthree\rfour")
    text = emit_markdown(ReportBundle(table=FailureModeTable(rows=[row])))
    assert text == emit_markdown(ReportBundle(table=awkward_table())).replace(
        "A \\| B \\\\ C", "line one<br>line two<br>three<br>four")


def test_markdown_writes_each_line_break_in_a_bullet_as_br():
    _, bundle = tower_bundle()
    row, mitigation = bundle.suggestions[0]
    text = emit_markdown(ReportBundle(
        pathways=[dataclasses.replace(bundle.pathways[0], mode_category="time\r\nly")],
        second_order=[dataclasses.replace(bundle.second_order[0], rationale="one\rtwo")],
        suggestions=[(row, dataclasses.replace(mitigation, name="Input\nhysteresis"))]))
    assert text.endswith(
        "## Pathways\n\n"
        "- interaction 3 [time<br>ly, down]: h_obs_reco -> h_orient -> h_decide -> "
        "h_act_own -> h_obs_traffic (gain 1.0, Neutral)\n\n"
        "## Second-order Effects\n\n- SFM 3 induces Disuse: one<br>two\n\n"
        "## Mitigation Suggestions\n\n- I1 [stability]: hysteresis (Input<br>hysteresis)\n")


AWKWARD = "a|b\\c\rd\ne\r\nf"  # a pipe, a backslash, CR, LF and CRLF
IN_A_CELL = "a\\|b\\\\c<br>d<br>e<br>f"
IN_A_BULLET = "a|b\\c<br>d<br>e<br>f"


def test_markdown_escapes_a_repeated_text_as_each_context_needs():
    # Every row has one interaction name, the pathways' category and one
    # mitigation's name hold it too, and one cell holds a whole bullet's
    # text: each must be escaped for its context, however often it repeats.
    _, bundle = tower_bundle()
    pathways = [dataclasses.replace(pathway, mode_category=AWKWARD)
                for pathway in bundle.pathways]
    label = pathway_label(pathways[0])
    rows = [dataclasses.replace(row, interaction_name=AWKWARD) for row in bundle.table.rows]
    rows[0] = dataclasses.replace(rows[0], specialised_text=label)
    (row, mitigation), *suggestions = bundle.suggestions
    suggestions.insert(0, (row, dataclasses.replace(mitigation, name=AWKWARD)))
    text = emit_markdown(ReportBundle(table=FailureModeTable(rows=rows), pathways=pathways,
                                      second_order=bundle.second_order,
                                      suggestions=suggestions))
    cells = [line.split(" | ") for line in text.split("\n") if line.startswith("| ")][2:]
    assert [cell[2] for cell in cells] == [IN_A_CELL] * len(rows)
    assert cells[0][-1] == label.replace(AWKWARD, IN_A_CELL) + " |"
    bullets = [line for line in text.split("\n") if line.startswith("- ")]
    assert f"- {label.replace(AWKWARD, IN_A_BULLET)}" in bullets
    assert f"- I{row.i_id} [{row.generic_mode_category}]: {mitigation.id} ({IN_A_BULLET})" \
        in bullets
    assert not any("\\|" in bullet for bullet in bullets)
    assert (text.count(IN_A_CELL), text.count(IN_A_BULLET)) == (
        len(rows) + 1, len(pathways) + 1)


def test_markdown_bullet_shapes():
    _, bundle = tower_bundle()
    text = emit_markdown(bundle)
    assert (
        "- interaction 3 [timely, down]: h_obs_reco -> h_orient -> h_decide -> "
        "h_act_own -> h_obs_traffic (gain 1.0, Neutral)\n"
    ) in text
    assert "- SFM 3 induces Disuse: operator ignores the autonomy\n" in text
    assert "- SFM 3 induces Misuse: operator accepts without understanding\n" in text
    assert "- I3/SFM 4 [timely]: hmi_summary (Recommendation summary view)\n" in text
    assert "- I1 [stability]: hysteresis (Input hysteresis)\n" in text


# ---------------------------------------------------------------------------
# JSON.

def test_json_of_an_empty_bundle_has_four_empty_arrays():
    document = json.loads(emit_json(ReportBundle()))
    assert document == {
        "failure_modes": [],
        "pathways": [],
        "second_order_effects": [],
        "mitigation_suggestions": [],
    }


def test_json_validates_against_the_shipped_schema():
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    _, bundle = tower_bundle()
    jsonschema.validate(json.loads(emit_json(bundle)), schema)
    jsonschema.validate(json.loads(emit_json(ReportBundle())), schema)
    populated = json.loads(emit_json(bundle))
    assert populated["failure_modes"] and populated["pathways"]
    assert populated["second_order_effects"] and populated["mitigation_suggestions"]


def test_json_key_order_is_stable():
    _, bundle = tower_bundle()
    document = json.loads(emit_json(bundle))
    assert list(document) == [
        "failure_modes", "pathways", "second_order_effects", "mitigation_suggestions",
    ]
    assert list(document["failure_modes"][0]) == [
        "i_id", "sfm_id", "interaction_name", "machine_stage", "human_stage",
        "direction", "generic_failure_mode", "specialised_failure_mode", "category",
    ]
    assert list(document["pathways"][0]) == [
        "interaction_id", "category", "direction", "nodes", "step_gains",
        "total_gain", "classification",
    ]
    assert list(document["second_order_effects"][0]) == [
        "sfm_id", "induced_mode", "rationale",
    ]
    assert list(document["mitigation_suggestions"][0]) == [
        "i_id", "sfm_id", "category", "mitigation_id", "mitigation_name",
    ]


def test_json_and_csv_carry_identical_table_cells():
    _, bundle = tower_bundle()
    csv_rows = list(csv.reader(io.StringIO(emit_csv(bundle.table))))[1:]
    json_rows = json.loads(emit_json(bundle))["failure_modes"]
    assert len(csv_rows) == len(json_rows)
    for cells, obj in zip(csv_rows, json_rows):
        assert cells == [
            str(obj["i_id"]),
            "" if obj["sfm_id"] is None else str(obj["sfm_id"]),
            obj["interaction_name"],
            obj["machine_stage"],
            obj["human_stage"],
            obj["direction"],
            obj["generic_failure_mode"],
            ("" if obj["specialised_failure_mode"] is None
             else obj["specialised_failure_mode"]),
        ]


def test_json_is_not_ascii_escaped():
    table = FailureModeTable(rows=[FailureModeRow(
        i_id=1, sfm_id=None, interaction_name="Résumé view",
        machine_stage=Stage.ACT, human_stage=Stage.OBSERVE,
        direction=Direction.MACHINE_TO_HUMAN, generic_mode_id="accuracy",
        generic_mode_title="Accuracy", generic_mode_category="accuracy",
        specialised_text=None,
    )])
    assert "Résumé view" in emit_json(ReportBundle(table=table))


def _reference_document(bundle):
    """The document ``emit_json`` renders, built here so that ``json.dumps``
    with ``indent=2`` stays the oracle of its bytes."""
    return {
        "failure_modes": [
            {
                "i_id": row.i_id,
                "sfm_id": row.sfm_id,
                "interaction_name": row.interaction_name,
                "machine_stage": row.machine_stage.display(),
                "human_stage": row.human_stage.display(),
                "direction": row.direction.display(),
                "generic_failure_mode": row.generic_mode_title,
                "specialised_failure_mode": row.specialised_text,
                "category": row.generic_mode_category,
            }
            for row in bundle.table.rows
        ],
        "pathways": [
            {
                "interaction_id": pathway.origin.i_id,
                "category": pathway.mode_category,
                "direction": pathway.direction.value,
                "nodes": [node.id for node in pathway.nodes],
                "step_gains": list(pathway.step_gains),
                "total_gain": pathway.total_gain,
                "classification": pathway.classification.value,
            }
            for pathway in bundle.pathways
        ],
        "second_order_effects": [
            {
                "sfm_id": effect.origin_sfm_id,
                "induced_mode": effect.induced_mode.value,
                "rationale": effect.rationale,
            }
            for effect in bundle.second_order
        ],
        "mitigation_suggestions": [
            {
                "i_id": row.i_id,
                "sfm_id": row.sfm_id,
                "category": row.generic_mode_category,
                "mitigation_id": mitigation.id,
                "mitigation_name": mitigation.name,
            }
            for row, mitigation in bundle.suggestions
        ],
    }


def _json_module_bytes(bundle):
    return json.dumps(_reference_document(bundle), indent=2, ensure_ascii=False) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    categories=st.lists(st.one_of(st.sampled_from(BUILTIN_CATEGORIES),
                                  st.text(min_size=1, max_size=8)),
                        min_size=1, max_size=3),
    max_depth=st.sampled_from((1, 2, 3, 16)),
)
def test_json_matches_the_json_module_byte_for_byte(seed, categories, max_depth):
    rng = random.Random(seed)
    model = add_parallel_edges(random_model(rng), rng)
    interactions = extract_interactions(model)
    table = map_failure_modes(interactions, builtin_catalog())
    pathways = [
        pathway
        for interaction in interactions[:2]
        for category in categories
        for direction in TraceDirection
        for pathway in trace(model, interaction, category, direction, max_depth=max_depth)
    ]
    bundle = ReportBundle(
        table=table,
        pathways=pathways,
        second_order=[SecondOrderEffect(sfm_id, InducedMode.MISUSE, category)
                      for sfm_id, category in enumerate(categories, 1)],
        suggestions=suggest_mitigations(table, builtin_mitigations()),
    )
    assert emit_json(bundle) == _json_module_bytes(bundle)
    out = io.StringIO()
    write_json(bundle, out)
    assert out.getvalue() == emit_json(bundle)


def test_write_json_never_holds_the_document():
    tower, bundle = tower_bundle()
    rng = random.Random(11)
    origin = bundle.pathways[0].origin
    pathways = []
    for _ in range(2000):
        nodes = tuple(rng.sample(tower.model.nodes, 10))
        gains = tuple(rng.choice((0.5, 1.0, 1.5, 2.25)) for _ in nodes[1:])
        total = math.prod(gains)
        pathways.append(TracePathway(origin, "timely", TraceDirection.DOWNSTREAM, nodes,
                                     gains, total, Classification.NEUTRAL))
    big = ReportBundle(bundle.table, pathways, bundle.second_order, bundle.suggestions)

    class Discard:
        written = 0

        def write(self, text):
            self.written += len(text)

    sink = Discard()
    tracemalloc.start()
    try:
        write_json(big, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = _json_module_bytes(big)
    assert sink.written == len(expected) > 1_000_000
    assert peak < sink.written / 4
    out = io.StringIO()
    write_json(big, out)
    assert out.getvalue() == expected


def test_json_spells_every_number_and_empty_array_as_the_json_module_does():
    tower, bundle = tower_bundle()
    origin = bundle.pathways[0].origin
    gains = (1, 1.0, True, 0.0, -0.0, 0.0, -0.0, 2, 2.0, 1e200, 5e-324,
             math.nan, math.inf, -math.inf, 0.1 + 0.2)
    odd = [
        TracePathway(origin, category, TraceDirection.DOWNSTREAM, nodes, gains[:count],
                     total, Classification.NEUTRAL)
        for category, nodes, count, total in (
            ("timely", (), 0, 1),
            ('"\\\u00e9\u2028\x00', tower.model.nodes[:2], len(gains), -0.0),
            ("timely", tower.model.nodes[:1], 3, math.inf),
        )
    ]
    for pathways in (odd, odd + bundle.pathways, bundle.pathways + odd):
        mixed = ReportBundle(bundle.table, pathways, bundle.second_order, bundle.suggestions)
        assert emit_json(mixed) == _json_module_bytes(mixed)
    # A gain that json cannot encode raises json's TypeError, also where it
    # equals a float spelled earlier in the same bundle.
    nodes = tower.model.nodes[:3]
    spelled = TracePathway(origin, "timely", TraceDirection.DOWNSTREAM, nodes, (1.25, 1.0),
                           1.25, Classification.AMPLIFIED)
    for unencodable in (Decimal("1.25"), Fraction(5, 4)):
        for gains, total in (((1.25, unencodable), 1.25), ((1.0, 1.25), unencodable)):
            bad = ReportBundle(bundle.table, [spelled, TracePathway(
                origin, "timely", TraceDirection.DOWNSTREAM, nodes, gains, total,
                Classification.AMPLIFIED)])
            with pytest.raises(TypeError) as expected:
                _json_module_bytes(bad)
            assert "is not JSON serializable" in str(expected.value)
            with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
                emit_json(bad)
            with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
                write_json(bad, io.StringIO())


def test_json_spells_an_edited_or_copied_trace_result_node_by_node():
    # Only ``trace``'s own result, unedited, is spelled from its forks; a
    # sorted, shortened, lengthened, copied or listed one writes every node.
    checked = 0
    for seed in range(40):
        rng = random.Random(7000 + seed)
        model = add_parallel_edges(random_model(rng), rng)
        for interaction, category in itertools.product(extract_interactions(model)[:2],
                                                       BUILTIN_CATEGORIES):
            result = trace(model, interaction, category, TraceDirection.DOWNSTREAM)
            assert result == list(result) and list(result) == result
            edited = [copy.copy(result) for _ in range(3)]
            edited[0].sort(key=lambda pathway: pathway.total_gain)
            del edited[1][len(result) // 2]
            edited[2].append(result[0])
            for pathways in (*edited, copy.deepcopy(result), pickle.loads(pickle.dumps(result)),
                             list(result)):
                bundle = ReportBundle(pathways=pathways)
                assert emit_json(bundle) == _json_module_bytes(bundle), f"seed {seed}"
            checked += edited[0] != result
    assert checked >= 20, "too few traces that sorting reorders"


def _complete_model(size):
    """A machine node feeding a human node that leads into ``size`` nodes with
    an edge from each to every other: ``size!`` pathways downstream."""
    inner = [f"k{index}" for index in range(size)]
    return parse_model("".join(f"{line}\n" for line in (
        'model "Complete"',
        'lane h side=human kind=operator "Human"',
        'lane m side=machine kind=autonomy "Machine"',
        'node src lane=m stage=decide "Recommend"',
        'node w lane=h stage=observe "Watch"',
        *(f'node {node} lane=h stage=orient "Weigh" response.stability=amplify:{1.25 + index / 4}'
          for index, node in enumerate(inner)),
        "edge src -> w",
        *(f"edge w -> {node}" for node in inner),
        *(f"edge {first} -> {second}" for first in inner for second in inner
          if first != second),
    )))


class _CountingSink:
    writes = written = 0

    def write(self, text):
        self.writes += 1
        self.written += len(text)


def test_write_json_writes_a_trace_s_own_result_in_batches():
    model = _complete_model(7)
    (interaction,) = extract_interactions(model)
    pathways = trace(model, interaction, "stability", TraceDirection.DOWNSTREAM)
    assert len(pathways) == 5040 and pathways.walked == tuple(pathways)
    bundle = ReportBundle(pathways=pathways)
    sink = _CountingSink()
    tracemalloc.start()
    try:
        write_json(bundle, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = _json_module_bytes(bundle)
    assert sink.written == len(expected) > 1_000_000
    assert 1 < sink.writes < len(pathways) / 20
    assert peak < sink.written / 4
    assert emit_json(bundle) == expected


def test_json_of_a_dead_end_trace_and_of_no_pathways():
    model = parse_model('model "Stub"\n'
                        'lane h side=human kind=operator "Human"\n'
                        'lane m side=machine kind=autonomy "Machine"\n'
                        'node src lane=m stage=decide "Recommend"\n'
                        'node w lane=h stage=observe "Watch"\n'
                        'edge src -> w\n')
    (interaction,) = extract_interactions(model)
    up, down = (trace(model, interaction, "stability", direction)
                for direction in TraceDirection)
    assert [(pathway.node_ids(), pathway.step_gains) for pathway in up + down] == [
        (("src",), ()), (("w",), ())]
    for pathways in (up, down, up + down, Pathways(), []):
        bundle = ReportBundle(pathways=pathways)
        out = io.StringIO()
        write_json(bundle, out)
        assert emit_json(bundle) == out.getvalue() == _json_module_bytes(bundle)
    assert '"nodes": [\n        "w"\n      ],\n      "step_gains": [],' in emit_json(
        ReportBundle(pathways=down))


def test_a_sum_of_trace_results_keeps_their_forks_only_while_unedited():
    checked = 0
    for seed in range(40):
        rng = random.Random(7100 + seed)
        model = add_parallel_edges(random_model(rng), rng)
        for interaction in extract_interactions(model)[:1]:
            up, down = (trace(model, interaction, "stability", direction)
                        for direction in TraceDirection)
            joined = up + down
            assert type(joined) is Pathways and joined == [*up, *down]
            assert (joined.walked, joined.forks) == ((*up, *down), [*up.forks, *down.forks])
            edited = copy.copy(down)
            edited.append(up[0])
            growing = copy.copy(up)
            growing += down  # extends ``up``'s list past the walk it records
            summed = [up + list(down), list(up) + down, up + edited, edited + up, growing,
                      joined + [up[0]], copy.copy(joined)]
            summed[-1].reverse()
            for pathways in (joined, *summed):
                bundle = ReportBundle(pathways=pathways)
                assert emit_json(bundle) == _json_module_bytes(bundle), f"seed {seed}"
            assert [type(pathways) for pathways in summed[:4]] == [list] * 4
            checked += 1
    assert checked >= 20


class _BuiltOnEachAccess(Sequence):
    """Pathways made anew on each access, with new gain objects, so a gain
    object dies once its pathway is written and a later one may get its id.
    The total is one object, which the writer's value cache keeps."""

    def __init__(self, origin, nodes, count):
        self.origin, self.nodes, self.count = origin, nodes, count
        self.gain_ids: list[int] = []

    def __len__(self):
        return self.count

    def __getitem__(self, index):
        if not 0 <= index < self.count:
            raise IndexError(index)
        gains = (1 + index / 7, 0.5 + index / 3)
        self.gain_ids += map(id, gains)
        return TracePathway(self.origin, "timely", TraceDirection.DOWNSTREAM, self.nodes,
                            gains, 2.5, Classification.AMPLIFIED)


def test_json_spells_each_gain_object_even_where_a_dead_one_had_its_id():
    tower, bundle = tower_bundle()
    lazy = ReportBundle(pathways=_BuiltOnEachAccess(bundle.pathways[0].origin,
                                                     tower.model.nodes[:3], 40))
    assert emit_json(lazy) == _json_module_bytes(lazy)
    # The case arose: some new gain object had the id of a dead one.
    gain_ids = lazy.pathways.gain_ids
    assert len(set(gain_ids)) < len(gain_ids)


def test_second_order_json_matches_the_bundled_golden_file():
    _, bundle = tower_bundle()
    golden = (FIXTURE_ROOT / "atc" / "second_order.json").read_text(encoding="utf-8")
    assert emit_second_order_json(bundle.second_order) == golden


# ---------------------------------------------------------------------------
# DOT.

def test_dot_matches_the_bundled_golden_file():
    tower = tower_inputs()
    interaction = interaction_by_id(tower.interactions, 3)
    pathways = trace(tower.model, interaction, "timely", TraceDirection.DOWNSTREAM,
                     mitigation_catalog=tower.mitigations)
    golden = (FIXTURE_ROOT / "atc" / "pathway_sfm4.dot").read_text(encoding="utf-8")
    assert emit_dot(tower.model, pathways) == golden
    # Emitters are pure; a second call is byte-identical.
    assert emit_dot(tower.model, pathways) == golden


def test_dot_structure_lanes_as_clusters_and_dashed_interaction_edge():
    tower = tower_inputs()
    interaction = interaction_by_id(tower.interactions, 3)
    pathways = trace(tower.model, interaction, "timely", TraceDirection.DOWNSTREAM)
    text = emit_dot(tower.model, pathways)
    for lane in tower.model.lanes:
        assert f'subgraph "cluster_{lane.id}" {{' in text
        assert f'label="{lane.display_name}";' in text
    assert ('"hmi_recommend" -> "h_obs_reco" '
            '[label="Observe Landing Sequence", style=dashed];') in text
    assert '"h_obs_reco" [label="Observe landing sequence recommendation", '\
           "penwidth=3];" in text
    # Decision branch guards render as bracketed captions.
    assert '[label="[accept recommendation]", penwidth=3]' in text


def test_dot_with_a_single_pathway_argument_and_no_highlight():
    tower = tower_inputs()
    interaction = interaction_by_id(tower.interactions, 3)
    pathways = trace(tower.model, interaction, "timely", TraceDirection.DOWNSTREAM)
    assert emit_dot(tower.model, pathways[0]) == emit_dot(tower.model, [pathways[0]])
    bare = emit_dot(tower.model, [])
    assert "penwidth" not in bare
    assert "dashed" not in bare
    assert bare.startswith('digraph "Determine Landing Sequence" {\n')
    assert bare.endswith("}\n")


def _dot_clusters_by_lanes_times_nodes(model, highlight):
    """The lane clusters of a DOT rendering, one scan of the nodes per lane."""
    lines = [f"digraph {_quote(model.name)} {{", "  rankdir=LR;", "  node [shape=box];"]
    for lane in model.lanes:
        lines.append(f"  subgraph {_quote('cluster_' + lane.id)} {{")
        lines.append(f"    label={_quote(lane.display_name)};")
        for node in model.nodes:
            if node.lane_id != lane.id:
                continue
            attrs = [f"label={_quote(node.label)}"]
            if node.id in highlight:
                attrs.append("penwidth=3")
            lines.append(f"    {_quote(node.id)} [{', '.join(attrs)}];")
        lines.append("  }")
    return "".join(f"{line}\n" for line in lines)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       extra_lanes=st.lists(st.sampled_from(("empty", "lane0", "nowhere")), max_size=3))
def test_dot_lane_clusters_match_a_scan_per_lane(seed, extra_lanes):
    rng = random.Random(seed)
    model = random_model(rng)
    # Lanes with no node, a repeated lane id, and nodes of an undeclared lane.
    lanes = list(model.lanes)
    nodes = list(model.nodes)
    for index, name in enumerate(extra_lanes):
        if name == "nowhere":
            nodes.insert(rng.randint(0, len(nodes)),
                         dataclasses.replace(nodes[0], id=f"stray{index}", lane_id=name))
        else:
            lanes.insert(rng.randint(0, len(lanes)),
                         dataclasses.replace(lanes[0], id=name, display_name=f"L{index}"))
    model = dataclasses.replace(model, lanes=lanes, nodes=nodes)
    pathways = [pathway for interaction in extract_interactions(model)[:1]
                for direction in TraceDirection
                for pathway in trace(model, interaction, "timely", direction)]
    text = emit_dot(model, pathways)
    clusters = _dot_clusters_by_lanes_times_nodes(
        model, {node_id for pathway in pathways for node_id in pathway.node_ids()})
    assert text.startswith(clusters)
    rest = text[len(clusters):].splitlines()
    assert len(rest) == len(model.edges) + 1
    assert all(" -> " in line for line in rest[:-1]) and rest[-1] == "}"


def test_dot_rejects_pathways_from_another_model():
    tower = tower_inputs()
    interaction = interaction_by_id(tower.interactions, 3)
    (pathway, *_) = trace(tower.model, interaction, "timely",
                          TraceDirection.DOWNSTREAM)

    stranger = parse_model(
        'model "Other"\n'
        'lane h side=human kind=operator "Human"\n'
        'node only lane=h stage=observe "Sit"\n'
    )
    with pytest.raises(ReportError, match="pathway node 'h_obs_reco' is not part of "
                                          "model 'Other'"):
        emit_dot(stranger, pathway)

    # Same node ids, but the first step edge is reversed: the pair check fires.
    reversed_steps = parse_model(
        'model "Rewired"\n'
        'lane atco side=human kind=operator "Controller"\n'
        'node h_obs_reco lane=atco stage=observe "Observe"\n'
        'node h_orient lane=atco stage=orient "Orient"\n'
        'node h_decide lane=atco stage=decide "Decide"\n'
        'node h_act_own lane=atco stage=act "Act own"\n'
        'node h_obs_traffic lane=atco stage=observe "Observe traffic"\n'
        "edge h_orient -> h_obs_reco\n"
        "edge h_orient -> h_decide\n"
        "edge h_decide -> h_act_own\n"
        "edge h_act_own -> h_obs_traffic\n"
    )
    with pytest.raises(ReportError, match="pathway step h_obs_reco -> h_orient has no "
                                          "edge in model 'Rewired'"):
        emit_dot(reversed_steps, pathway)


def test_dot_rejects_an_origin_edge_the_model_does_not_have():
    model = parse_model(
        'model "Loose"\n'
        'lane h side=human kind=operator "Human"\n'
        'lane m side=machine kind=autonomy "Machine"\n'
        'node one lane=m stage=orient "Aggregate"\n'
        'node two lane=m stage=decide "Recommend"\n'
        'node w lane=h stage=observe "Watch"\n'
        "edge one -> two\n"
        "edge two -> one\n"
        "edge two -> w\n"  # e3, the interaction
    )
    (interaction,) = extract_interactions(model)
    (pathway,) = trace(model, interaction, "timely", TraceDirection.DOWNSTREAM)
    assert pathway.node_ids() == ("w",)

    shorter = parse_model(
        'model "Short"\n'
        'lane h side=human kind=operator "Human"\n'
        'node w lane=h stage=observe "Watch"\n'
        'node v lane=h stage=orient "Mull"\n'
        "edge w -> v\n"
        "edge v -> w\n"
    )
    with pytest.raises(ReportError, match="pathway interaction edge 'e3' is not part "
                                          "of model 'Short'"):
        emit_dot(shorter, pathway)


def _with_every_referential_error(model):
    """``model`` with a lane on the wrong side, a duplicate node, an unknown
    category and mitigation, an edge to an undeclared node and a self-loop."""
    first, last = model.nodes[0], model.nodes[-1]
    return dataclasses.replace(model, lanes=[
        *model.lanes,
        Lane(id="wrong", side=Side.HUMAN, kind=LaneKind.AUTONOMY, display_name="Wrong side"),
    ], nodes=[
        *model.nodes,
        dataclasses.replace(first, response={**first.response, "nope": GainBehaviour.neutral()}),
        dataclasses.replace(last, id="extra", lane_id="nowhere", causes=["nope"],
                            mitigation_ids=["no_such", "odd_margin"]),
    ], edges=[
        *model.edges,
        dataclasses.replace(model.edges[0], id="dangling", to_id="ghost")
        if model.edges else ActivityEdge(id="dangling", from_id=first.id, to_id="ghost"),
        ActivityEdge(id="loop", from_id=last.id, to_id=last.id, mitigation_ids=["hysteresis"]),
    ])


def test_every_model_of_a_seeded_corpus_keeps_its_diagnostics_csv_and_markdown_bytes():
    # Per model of the trace corpus (and, for every fourth, a copy with every
    # referential error): the validate diagnostics under both strictness
    # levels, the mapped table's CSV, and one Markdown bundle with up to three
    # specialisations, a depth-3 trace each way, second-order effects and
    # suggestions.  The digests were taken before the emitters last changed.
    rng = random.Random(17)
    catalog, mitigations = builtin_catalog(), builtin_mitigations()
    outcomes = hashlib.sha256()
    counts = Counter()
    for index, model in enumerate(pinned_corpus()):
        counts["models"] += 1
        for checked in [model] + ([_with_every_referential_error(model)] if index % 4 == 3
                                  else []):
            for strictness in Strictness:
                diagnostics = validate(checked, strictness, lens_catalog=catalog,
                                       mitigation_catalog=mitigations)
                counts.update(f"{d.severity.value} {d.code}" for d in diagnostics)
                outcomes.update(f"{strictness.value} {diagnostics!r}\n".encode())
        interactions = extract_interactions(model)
        table = map_failure_modes(interactions, catalog)
        outcomes.update(emit_csv(table).encode())
        chosen = sorted(rng.sample(range(len(table.rows)), min(3, len(table.rows))))
        sfms = [SpecialisedFailureMode(number, table.rows[row].i_id,
                                       table.rows[row].generic_mode_id, random_label(rng))
                for number, row in enumerate(chosen, 1)]
        specialised = apply_specialisations(table, sfms)
        pathways = [pathway for direction in TraceDirection for pathway in (
            trace(model, interactions[0], "stability", direction, 3,
                  mitigation_catalog=mitigations) if interactions else ())]
        second_order = derive_second_order(sfms, interactions, catalog)
        suggestions = suggest_mitigations(specialised, mitigations)
        counts.update(rows=len(table.rows), sfms=len(sfms), pathways=len(pathways),
                      second_order=len(second_order), suggestions=len(suggestions))
        outcomes.update(emit_markdown(ReportBundle(specialised, pathways, second_order,
                                                   suggestions)).encode())
    assert (dict(counts), outcomes.hexdigest()) == (
        {"models": 150, "rows": 3069, "sfms": 282, "pathways": 243, "second_order": 78,
         "suggestions": 2802, "error DUPLICATE_ID": 74, "error LANE_KIND": 74,
         "error MITIGATION_PLACEMENT": 444, "error OBSERVE_TARGET": 454,
         "error SELF_LOOP": 74, "error UNKNOWN_CATEGORY": 74, "error UNKNOWN_MITIGATION": 74,
         "error UNRESOLVED_REF": 148, "warning MITIGATION_PLACEMENT": 444,
         "warning NO_INTERACTIONS": 150, "warning OBSERVE_TARGET": 454,
         "warning STAGE_ORDER": 796},
        "ea931088167a1188f28704ec34d134162ef4336db0a888bb342ac7a9dc411476",
    )
