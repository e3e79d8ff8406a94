"""Tests for the line-oriented parsers and serializers.

Round-trip identity is the backbone: every fixture file re-serializes
byte-identically, and randomly generated models, lens catalogs, sfm lists
and mitigation catalogs survive parse(serialize(v)) unchanged.  The rest
pins down diagnostics: exact messages, line and column positions,
all-or-nothing semantics, and the sorted multi-error report.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_ROOT, random_model
from hatlens import (
    ActionNode,
    ActivityEdge,
    Applicability,
    DslParseError,
    GainBehaviour,
    GenericFailureMode,
    Lane,
    LaneKind,
    Lens,
    LensCatalog,
    Mitigation,
    Ooda2Model,
    Placement,
    Side,
    SpecialisedFailureMode,
    Stage,
    parse_lens_catalog,
    parse_mitigation_catalog,
    parse_model,
    parse_sfm_bindings,
    serialize_lens_catalog,
    serialize_mitigation_catalog,
    serialize_model,
    serialize_sfm_bindings,
)

MODEL_PREFIX = (
    'model "Demo"\n'
    'lane h side=human kind=operator "Human"\n'
    'lane m side=machine kind=autonomy "Machine"\n'
    'node a lane=m stage=act "Publish"\n'
    'node b lane=h stage=observe "Watch"\n'
)


def diagnostics_of(parse, text):
    with pytest.raises(DslParseError) as excinfo:
        parse(text)
    return excinfo.value.diagnostics


def sole_diagnostic(parse, text):
    diags = diagnostics_of(parse, text)
    assert len(diags) == 1, [d.message for d in diags]
    return diags[0]


# ---------------------------------------------------------------------------
# Canonical files re-serialize byte-identically.

@pytest.mark.parametrize(
    "relative, parse, serialize",
    [
        ("atc/atc.hat", parse_model, serialize_model),
        ("atc/atc.lens", parse_lens_catalog, serialize_lens_catalog),
        ("atc/atc.sfm", parse_sfm_bindings, serialize_sfm_bindings),
        ("atc/atc.mit", parse_mitigation_catalog, serialize_mitigation_catalog),
        ("minimal/minimal.hat", parse_model, serialize_model),
    ],
)
def test_fixture_files_reserialize_byte_identically(relative, parse, serialize):
    text = (FIXTURE_ROOT / relative).read_text(encoding="utf-8")
    assert serialize(parse(text)) == text


# ---------------------------------------------------------------------------
# Random round-trips.

def test_random_models_round_trip_by_value():
    for seed in range(200):
        rng = random.Random(seed)
        model = random_model(rng)
        text = serialize_model(model)
        parsed = parse_model(text)
        assert parsed == model, f"seed {seed}"
        assert serialize_model(parsed) == text, f"seed {seed}"


@settings(max_examples=200)
@given(st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
    min_size=1,
))
def test_any_single_line_label_survives_quoting(label):
    model = Ooda2Model(
        name=label,
        lanes=[Lane("h", Side.HUMAN, LaneKind.OPERATOR, label),
               Lane("m", Side.MACHINE, LaneKind.AUTONOMY, "Machine")],
        nodes=[ActionNode("a", "m", Stage.ACT, label),
               ActionNode("b", "h", Stage.OBSERVE, "Watch")],
        edges=[ActivityEdge("e1", "a", "b", guard=label, name=label)],
    )
    assert parse_model(serialize_model(model)) == model


_IDENTS = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_TEXTS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"))
_LABELS = _TEXTS.filter(bool)


@st.composite
def lens_catalogs(draw):
    lenses = []
    for lens_id in draw(st.lists(_IDENTS, unique=True, max_size=3)):
        # Mode ids are unique across the catalog: the lens id plus a counter.
        modes = tuple(
            GenericFailureMode(
                id=f"{lens_id}_m{index}", lens_id=lens_id, category=draw(_IDENTS),
                title=draw(_LABELS), question=draw(_LABELS),
                applicability=draw(st.sampled_from(Applicability)),
                benign=draw(st.booleans()))
            for index in range(draw(st.integers(0, 3))))
        lenses.append(Lens(id=lens_id, name=draw(_LABELS), modes=modes))
    return LensCatalog(lenses=lenses)


@st.composite
def sfm_lists(draw):
    first = draw(st.integers(1, 10**6))
    return [
        SpecialisedFailureMode(sfm_id, draw(st.integers(1, 10**6)), draw(_IDENTS),
                               draw(_LABELS))
        for sfm_id in range(first, first + draw(st.integers(0, 5)))
    ]


@st.composite
def mitigation_catalogs(draw):
    return [
        Mitigation(
            id=mit_id, name=draw(_LABELS),
            categories=tuple(draw(st.lists(_IDENTS, min_size=1, max_size=3))),
            placement=draw(st.sampled_from(Placement)), detail=draw(_TEXTS),
            damping=draw(st.floats(0, 1, exclude_min=True, exclude_max=True)))
        for mit_id in draw(st.lists(_IDENTS, unique=True, max_size=4))
    ]


@pytest.mark.parametrize(
    "values, parse, serialize",
    [
        (lens_catalogs(), parse_lens_catalog, serialize_lens_catalog),
        (sfm_lists(), parse_sfm_bindings, serialize_sfm_bindings),
        (mitigation_catalogs(), parse_mitigation_catalog, serialize_mitigation_catalog),
    ],
    ids=["lens", "sfm", "mit"],
)
@settings(max_examples=100)
@given(data=st.data())
def test_random_catalogs_and_bindings_round_trip(data, values, parse, serialize):
    value = data.draw(values)
    text = serialize(value)
    parsed = parse(text)
    assert parsed == value
    assert serialize(parsed) == text


def test_escapes_parse_to_plain_characters():
    text = MODEL_PREFIX + 'edge a -> b name="say \\"hi\\" and \\\\ back"\n'
    model = parse_model(text)
    assert model.edges[0].name == 'say "hi" and \\ back'


# ---------------------------------------------------------------------------
# Lexical layer.

def test_crlf_blank_lines_comments_and_tabs_are_accepted():
    text = (
        "# header comment\r\n"
        "\r\n"
        '\tmodel\t"Demo"\r\n'
        "  # indented comment\r\n"
        'lane h side=human\tkind=operator "Human"\r\n'
    )
    model = parse_model(text)
    assert model.name == "Demo"
    assert model.lanes[0].kind is LaneKind.OPERATOR


def test_unterminated_string_points_at_the_opening_quote():
    diag = sole_diagnostic(parse_model, 'model "Demo')
    assert (diag.line, diag.column, diag.message) == (1, 7, "unterminated string")


def test_unsupported_escape_points_at_the_backslash():
    text = 'model "De\\mo"'
    diag = sole_diagnostic(parse_model, text)
    assert (diag.line, diag.column) == (1, text.index("\\") + 1)
    assert diag.message == "unsupported escape sequence"


def test_attribute_name_missing_before_equals():
    diag = sole_diagnostic(parse_model, MODEL_PREFIX + "lane =x\n")
    assert (diag.line, diag.message) == (6, "attribute name missing before '='")


@pytest.mark.parametrize("parse", [parse_model, parse_lens_catalog, parse_sfm_bindings,
                                   parse_mitigation_catalog])
@pytest.mark.parametrize("line, column", [("x=1 foo", 1), ('\t "Demo" foo', 3)])
def test_statement_starting_with_a_string_or_attribute_is_rejected(parse, line, column):
    diag = sole_diagnostic(parse, line + "\n")
    assert (diag.line, diag.column, diag.message) == (1, column, "expected a statement keyword")


# ---------------------------------------------------------------------------
# Model statements.

def test_valid_model_assigns_edge_ids_in_declaration_order():
    model = parse_model(MODEL_PREFIX + "edge a -> b\nedge b -> a\n")
    assert [edge.id for edge in model.edges] == ["e1", "e2"]
    assert model.edges[0].from_id == "a"
    assert model.edges[0].guard is None
    assert model.edges[0].mitigation_ids == []


def test_missing_model_statement_is_reported_at_file_start():
    diag = sole_diagnostic(parse_model, 'lane h side=human kind=operator "H"\n')
    assert (diag.line, diag.column, diag.message) == (1, 1, "missing model statement")


def test_missing_model_statement_is_silent_when_other_errors_exist():
    diag = sole_diagnostic(parse_model, "widget foo\n")
    assert diag.message == "unknown keyword 'widget'"


def test_duplicate_model_statement():
    diag = sole_diagnostic(parse_model, 'model "One"\nmodel "Two"\n')
    assert (diag.line, diag.message) == (2, "duplicate model statement")


def test_empty_model_name():
    diag = sole_diagnostic(parse_model, 'model ""\n')
    assert (diag.line, diag.column, diag.message) == (1, 7, "model name must be non-empty")


def test_unknown_side_and_kind_and_stage():
    cases = [
        ('lane x side=top kind=operator "X"\n', "unknown side 'top'"),
        ('lane x side=human kind=gizmo "X"\n', "unknown lane kind 'gizmo'"),
        ('node c lane=m stage=loop "X"\n', "unknown stage 'loop'"),
    ]
    for statement, message in cases:
        diag = sole_diagnostic(parse_model, MODEL_PREFIX + statement)
        assert diag.line == 6
        assert diag.message == message


def test_duplicate_lane_and_node_ids():
    diag = sole_diagnostic(
        parse_model, MODEL_PREFIX + 'lane h side=human kind=other "Again"\n')
    assert (diag.line, diag.column, diag.message) == (6, 6, "duplicate lane id 'h'")
    diag = sole_diagnostic(
        parse_model, MODEL_PREFIX + 'node a lane=h stage=act "Again"\n')
    assert (diag.line, diag.column, diag.message) == (6, 6, "duplicate node id 'a'")


def test_invalid_identifiers_are_rejected():
    cases = [
        ('lane Foo side=human kind=operator "X"\n', "invalid lane id 'Foo'"),
        ('node c lane=m stage=act "X" mitigation=not-ok\n',
         "invalid mitigation id 'not-ok'"),
        ('node c lane=m stage=act "X" cause=1bad\n', "invalid cause category '1bad'"),
    ]
    for statement, message in cases:
        diag = sole_diagnostic(parse_model, MODEL_PREFIX + statement)
        assert diag.message == message


def test_undeclared_references():
    diag = sole_diagnostic(parse_model, MODEL_PREFIX + 'node c lane=q stage=act "X"\n')
    assert diag.message == "node references undeclared lane 'q'"
    diag = sole_diagnostic(parse_model, MODEL_PREFIX + "edge a -> zz\n")
    assert diag.message == "edge references undeclared node 'zz'"


def test_self_loop_is_rejected():
    text = MODEL_PREFIX + "edge a -> a\n"
    diag = sole_diagnostic(parse_model, text)
    assert (diag.line, diag.column) == (6, 6)
    assert diag.message == "edge loops node 'a' onto itself"


def test_mangled_arrow():
    diag = sole_diagnostic(parse_model, MODEL_PREFIX + "edge a to b\n")
    assert diag.message == "expected '->', found 'to'"
    # "=>" reads as an attribute with an empty name, a lexical error.
    diag = sole_diagnostic(parse_model, MODEL_PREFIX + "edge a => b\n")
    assert diag.message == "attribute name missing before '='"


def test_missing_pieces_are_reported_per_statement():
    cases = [
        ("model\n", "model statement is missing its quoted name"),
        (MODEL_PREFIX + 'node c stage=act "X"\n',
         "node statement is missing the lane= attribute"),
        (MODEL_PREFIX + "node c lane=m stage=act\n",
         "node statement is missing its quoted label"),
        (MODEL_PREFIX + "edge a ->\n", "edge statement is missing its target node id"),
    ]
    for text, message in cases:
        diag = sole_diagnostic(parse_model, text)
        assert diag.message == message
        assert diag.column == 1


def test_duplicate_unknown_and_unexpected_tokens():
    statement = 'lane x side=human kind=operator side=machine "X"\n'
    diag = sole_diagnostic(parse_model, MODEL_PREFIX + statement)
    assert diag.message == "duplicate attribute 'side'"
    assert diag.column == statement.rindex("side=") + 1

    diag = sole_diagnostic(
        parse_model, MODEL_PREFIX + 'lane x side=human kind=operator "X" color=red\n')
    assert diag.message == "unknown attribute 'color'"

    diag = sole_diagnostic(parse_model, 'model "X" extra\n')
    assert diag.message == "unexpected token 'extra'"

    diag = sole_diagnostic(parse_model, MODEL_PREFIX + 'node c lane=m stage=act "X" "Y"\n')
    assert diag.message == "unexpected quoted string"


def test_gain_attribute_parsing():
    text = MODEL_PREFIX + (
        "node c lane=m stage=act \"X\""
        " response.stability=amplify"
        " response.timely=dampen"
        " response.accuracy=amplify:3.5"
        " response.bias=neutral\n"
    )
    node = parse_model(text).nodes[-1]
    assert node.response["stability"] == GainBehaviour.amplify(2.0)
    assert node.response["timely"] == GainBehaviour.dampen(0.5)
    assert node.response["accuracy"] == GainBehaviour.amplify(3.5)
    assert node.response["bias"] == GainBehaviour.neutral()


@pytest.mark.parametrize(
    "value, message",
    [
        ("neutral:2", "neutral takes no coefficient"),
        ("boost", "unknown gain kind 'boost'"),
        ("amplify:abc", "bad gain coefficient 'abc'"),
        ("amplify:0.5", "amplify coefficient must be > 1, got 0.5"),
        ("dampen:1.5", "dampen coefficient must be < 1, got 1.5"),
        ("dampen:-2", "gain coefficient must be positive, got -2.0"),
        ("amplify:nan", "gain coefficient must be finite, got nan"),
        ("amplify:inf", "gain coefficient must be finite, got inf"),
        ("amplify:1e400", "gain coefficient must be finite, got inf"),
    ],
)
def test_bad_gain_values(value, message):
    statement = f'node c lane=m stage=act "X" response.stability={value}\n'
    diag = sole_diagnostic(parse_model, MODEL_PREFIX + statement)
    assert diag.message == message
    assert diag.column == statement.index("response.") + 1


def test_invalid_response_category():
    statement = 'node c lane=m stage=act "X" response.Bad=neutral\n'
    diag = sole_diagnostic(parse_model, MODEL_PREFIX + statement)
    assert diag.message == "invalid response category 'Bad'"


def test_all_errors_are_collected_and_sorted():
    statement = 'lane x color=red side=human kind=operator side=machine "X"\n'
    with pytest.raises(DslParseError) as excinfo:
        parse_model(MODEL_PREFIX + statement)
    diags = excinfo.value.diagnostics
    assert [d.message for d in diags] == [
        "unknown attribute 'color'",
        "duplicate attribute 'side'",
    ]
    assert diags[0].column < diags[1].column
    assert str(excinfo.value) == (
        f"6:{statement.index('color') + 1}: unknown attribute 'color' (and 1 more)"
    )


def test_parsing_is_all_or_nothing():
    text = MODEL_PREFIX + "edge a -> b\nedge a => b\n"
    with pytest.raises(DslParseError):
        parse_model(text)


# ---------------------------------------------------------------------------
# Lens catalogs.

LENS_TEXT = (
    'lens quality "Output Quality"\n'
    "mode drift lens=quality direction=m2h category=stability"
    ' "Output drifts" question="Does the output drift?"\n'
    "mode fit lens=quality direction=both category=use benign=true"
    ' "Output fits the task" question="Does it fit?"\n'
)


def test_lens_catalog_parses_and_round_trips():
    catalog = parse_lens_catalog(LENS_TEXT)
    assert [lens.id for lens in catalog.lenses] == ["quality"]
    drift, fit = catalog.lenses[0].modes
    assert drift.applicability is Applicability.M2H
    assert drift.benign is False
    assert fit.benign is True
    assert fit.applicability is Applicability.BOTH
    text = serialize_lens_catalog(catalog)
    assert parse_lens_catalog(text) == catalog
    assert serialize_lens_catalog(parse_lens_catalog(text)) == text


def test_lens_serialized_form_is_canonical():
    catalog = LensCatalog(lenses=[Lens(
        id="quality", name="Output Quality",
        modes=(GenericFailureMode(
            id="fit", lens_id="quality", category="use", title="Fits",
            question="Does it fit?", applicability=Applicability.BOTH, benign=True),),
    )])
    assert serialize_lens_catalog(catalog) == (
        'lens quality "Output Quality"\n'
        "mode fit lens=quality direction=both category=use benign=true"
        ' "Fits" question="Does it fit?"\n'
    )


@pytest.mark.parametrize(
    "text, message",
    [
        (LENS_TEXT + 'lens quality "Again"\n', "duplicate lens id 'quality'"),
        (LENS_TEXT + 'lens other "Other"\n'
         "mode drift lens=other direction=m2h category=x"
         ' "T" question="Q?"\n', "duplicate mode id 'drift'"),
        ("mode a lens=missing direction=m2h category=x \"T\" question=\"Q?\"\n",
         "mode references undeclared lens 'missing'"),
        (LENS_TEXT + "mode z lens=quality direction=sideways category=x"
         ' "T" question="Q?"\n', "unknown direction 'sideways'"),
        (LENS_TEXT + "mode z lens=quality direction=m2h category=x benign=maybe"
         ' "T" question="Q?"\n', "benign must be true or false, not 'maybe'"),
        (LENS_TEXT + "mode z lens=quality direction=m2h category=x"
         ' "T" question=""\n', "mode question must be non-empty"),
        (LENS_TEXT + 'mode z lens=quality direction=m2h category=x "T"\n',
         "mode statement is missing the question= attribute"),
        ('model "X"\n', "unknown keyword 'model'"),
    ],
)
def test_lens_catalog_errors(text, message):
    diag = sole_diagnostic(parse_lens_catalog, text)
    assert diag.message == message


# ---------------------------------------------------------------------------
# Specialised failure mode bindings.

SFM_TEXT = (
    'sfm 7 interaction=3 mode=drift "Sequence drifts between refreshes"\n'
    'sfm 8 interaction=3 mode=fit "Sequence arrives in an unusable shape"\n'
)


def test_sfm_bindings_parse_and_round_trip():
    sfms = parse_sfm_bindings(SFM_TEXT)
    assert [sfm.sfm_id for sfm in sfms] == [7, 8]
    assert sfms[0].interaction_id == 3
    assert sfms[0].generic_mode_id == "drift"
    text = serialize_sfm_bindings(sfms)
    assert parse_sfm_bindings(text) == sfms
    assert text == SFM_TEXT


def test_sfm_first_id_is_unconstrained_but_sequence_must_ascend():
    assert parse_sfm_bindings('sfm 42 interaction=1 mode=m "T"\n')[0].sfm_id == 42
    diag = sole_diagnostic(
        parse_sfm_bindings,
        SFM_TEXT + 'sfm 8 interaction=3 mode=drift "Again"\n')
    assert (diag.line, diag.message) == (3, "duplicate sfm id 8")
    diag = sole_diagnostic(
        parse_sfm_bindings,
        SFM_TEXT + 'sfm 10 interaction=3 mode=drift "Gap"\n')
    assert diag.message == "sfm ids must ascend without gaps: 10 follows 8"
    diag = sole_diagnostic(
        parse_sfm_bindings,
        SFM_TEXT + 'sfm 2 interaction=3 mode=drift "Backwards"\n')
    assert diag.message == "sfm ids must ascend without gaps: 2 follows 8"


@pytest.mark.parametrize(
    "text, message",
    [
        ('sfm 0 interaction=1 mode=m "T"\n',
         "sfm id must be a positive integer, not '0'"),
        ('sfm -1 interaction=1 mode=m "T"\n',
         "sfm id must be a positive integer, not '-1'"),
        ('sfm 1 interaction=x mode=m "T"\n',
         "interaction must be a positive integer, not 'x'"),
        ('sfm \u00b2 interaction=1 mode=m "T"\n',
         "sfm id must be a positive integer, not '\u00b2'"),
        ('sfm \u0661 interaction=1 mode=m "T"\n',
         "sfm id must be a positive integer, not '\u0661'"),
        ('sfm 1 interaction=\u0661 mode=m "T"\n',
         "interaction must be a positive integer, not '\u0661'"),
        pytest.param("sfm " + "1" * 5000 + ' interaction=1 mode=m "T"\n',
                     "sfm id must be a positive integer of at most 4300 digits, got 5000",
                     id="sfm-id-of-5000-digits"),
        pytest.param("sfm 1 interaction=" + "2" * 5000 + ' mode=m "T"\n',
                     "interaction must be a positive integer of at most 4300 digits, "
                     "got 5000",
                     id="interaction-of-5000-digits"),
        ("sfm 1 interaction=1 mode=m\n", "sfm statement is missing its quoted text"),
        ('mitigation x category=a placement=node "N" detail=""\n',
         "unknown keyword 'mitigation'"),
    ],
)
def test_sfm_errors(text, message):
    diag = sole_diagnostic(parse_sfm_bindings, text)
    assert diag.message == message


# ---------------------------------------------------------------------------
# Mitigation catalogs.

MIT_TEXT = (
    "mitigation smoothing category=stability,timely placement=node damping=0.25"
    ' "Output smoothing" detail="Average the last few outputs before display."\n'
)


def test_mitigation_catalog_parses_and_round_trips():
    mits = parse_mitigation_catalog(MIT_TEXT)
    assert len(mits) == 1
    mit = mits[0]
    assert mit == Mitigation(
        id="smoothing", name="Output smoothing",
        categories=("stability", "timely"), placement=Placement.NODE,
        detail="Average the last few outputs before display.", damping=0.25,
    )
    assert serialize_mitigation_catalog(mits) == MIT_TEXT


def test_mitigation_damping_defaults_and_empty_detail():
    mits = parse_mitigation_catalog(
        'mitigation quiet category=timely placement=edge "Quiet" detail=""\n')
    assert mits[0].damping == 0.5
    assert mits[0].detail == ""
    assert mits[0].placement is Placement.EDGE
    # The default is written out explicitly on the way back.
    assert "damping=0.5" in serialize_mitigation_catalog(mits)


@pytest.mark.parametrize(
    "text, message",
    [
        ('mitigation x category=a placement=span "N" detail=""\n',
         "unknown placement 'span'"),
        ('mitigation x category=a placement=node damping=0 "N" detail=""\n',
         "damping must be in (0, 1), got 0"),
        ('mitigation x category=a placement=node damping=1 "N" detail=""\n',
         "damping must be in (0, 1), got 1"),
        ('mitigation x category=a placement=node damping=lots "N" detail=""\n',
         "bad damping 'lots'"),
        ('mitigation x category=a placement=node "N"\n',
         "mitigation statement is missing the detail= attribute"),
        (MIT_TEXT + 'mitigation smoothing category=a placement=node "N" detail=""\n',
         "duplicate mitigation id 'smoothing'"),
        ('sfm 1 interaction=1 mode=m "T"\n', "unknown keyword 'sfm'"),
    ],
)
def test_mitigation_errors(text, message):
    diag = sole_diagnostic(parse_mitigation_catalog, text)
    assert diag.message == message


# ---------------------------------------------------------------------------
# Serializer shape.

def test_groups_are_separated_by_one_blank_line_and_file_ends_with_newline():
    model = parse_model(MODEL_PREFIX + "edge a -> b\n")
    text = serialize_model(model)
    assert text.startswith('model "Demo"\n\nlane h ')
    assert "\n\nnode a " in text
    assert "\n\nedge a " in text
    assert text.endswith("edge a -> b\n")
    assert "\n\n\n" not in text


def test_empty_groups_are_omitted():
    model = parse_model('model "Bare"\n')
    assert serialize_model(model) == 'model "Bare"\n'
    assert serialize_sfm_bindings([]) == ""
    assert serialize_mitigation_catalog([]) == ""
    assert serialize_lens_catalog(LensCatalog(lenses=[])) == ""


def test_serialized_gains_always_carry_explicit_coefficients():
    text = MODEL_PREFIX + 'node c lane=m stage=act "X" response.stability=amplify\n'
    out = serialize_model(parse_model(text))
    assert "response.stability=amplify:2.0" in out


def test_node_attribute_order_is_fixed():
    text = MODEL_PREFIX + (
        'node c lane=m stage=act "X"'
        " mitigation=hysteresis response.stability=dampen cause=robustness\n"
    )
    out = serialize_model(parse_model(text))
    assert ('node c lane=m stage=act "X" cause=robustness'
            " response.stability=dampen:0.5 mitigation=hysteresis\n") in out


def test_sfm_serialization_matches_value():
    sfms = [SpecialisedFailureMode(3, 1, "drift", "Output drifts a lot")]
    assert serialize_sfm_bindings(sfms) == (
        'sfm 3 interaction=1 mode=drift "Output drifts a lot"\n'
    )


# ---------------------------------------------------------------------------
# Fuzzing: any text either parses or gives diagnostics that lie in the text,
# as do serialized random values with their lines mutated.

# Each parser's random values and serializer.
FORMATS = {
    parse_model: (st.integers(0, 2**32).map(lambda seed: random_model(random.Random(seed), 8)),
                  serialize_model),
    parse_lens_catalog: (lens_catalogs(), serialize_lens_catalog),
    parse_sfm_bindings: (sfm_lists(), serialize_sfm_bindings),
    parse_mitigation_catalog: (mitigation_catalogs(), serialize_mitigation_catalog),
}

# A token: a run of characters other than spaces and tabs, quoted strings included.
_TOKEN_TEXT = re.compile(r'(?:[^ \t"]|"(?:[^"\\]|\\.)*")+')
_EXTRA_TOKENS = [
    "extra", '"extra"', "foo=bar", "response.stability=amplify:2.0",
    "response.stability=dampen", "response.Bad=dampen", "response.=neutral",
    "response.x=", "lane=zz9", "kind=", "name=", "mitigation=hysteresis",
    "benign=true", "damping=0.5", 'detail=""', "=", '"open', 'x="a\\"b"', "->", "9",
]
_NEW_VALUES = ["", '""', "zz9", "n0", "n1", "lane0", "A", "0", "07", "amplify:0.5",
               "dampen:1e999", "x,y", "a,", "human", "observe", "m2h", "true", '"a\\"b"', "١"]


def _with_value(token: str, value: str) -> str:
    key, sep, _ = token.partition("=")
    return f"{key}={value}" if sep else value


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` with some statements repeated, moved or dropped, and, on some
    lines, tokens reordered, repeated, dropped, added, quoted, escaped or
    given other values; every line's tokens are joined by spaces and tabs,
    with or without leading and trailing blanks and a CR."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 3))):
        statements = [index for index, line in enumerate(lines) if line]
        if not statements:
            break
        at = draw(st.sampled_from(statements))
        op = draw(st.sampled_from(["repeat", "repeat", "move", "drop"]))
        line = lines[at] if op == "repeat" else lines.pop(at)
        if op != "drop":
            lines.insert(draw(st.integers(0, len(lines))), line)
    rate = draw(st.sampled_from([0, 1, 2, 8]))  # eighths of the lines
    out = []
    for line in lines:
        tokens = _TOKEN_TEXT.findall(line)
        for _ in range(draw(st.integers(1, 3)) if tokens and draw(st.integers(0, 7)) < rate
                       else 0):
            at = draw(st.integers(1, len(tokens)))
            op = draw(st.sampled_from(
                ["reorder", "shuffle", "repeat", "drop", "add", "value", "quote", "escape"]))
            if op == "reorder":  # the attributes only, the rest keep their places
                places = [index for index, token in enumerate(tokens)
                          if re.match('[^"=]+=', token)]
                for place, token in zip(places, draw(st.permutations(
                        [tokens[place] for place in places]))):
                    tokens[place] = token
            elif op == "shuffle":
                tokens[1:] = draw(st.permutations(tokens[1:]))
            elif op == "add":
                tokens.insert(at, draw(st.sampled_from(_EXTRA_TOKENS)))
            elif at == len(tokens):
                continue
            elif op == "repeat":  # next to itself, or anywhere
                where = at + 1 if draw(st.booleans()) else draw(st.integers(1, len(tokens)))
                tokens.insert(where, tokens[at])
            elif op == "drop":
                del tokens[at]
            elif op == "value":
                tokens[at] = _with_value(tokens[at], draw(st.sampled_from(_NEW_VALUES)))
            elif op == "quote" and '"' not in tokens[at]:
                key, sep, value = tokens[at].rpartition("=")
                tokens[at] = f'{key}{sep}"{value}"'
            elif op == "escape" and '"' in tokens[at]:
                quote = tokens[at].index('"') + 1
                escape = draw(st.sampled_from(['\\"', "\\\\", "\\n"]))
                tokens[at] = tokens[at][:quote] + escape + tokens[at][quote:]
        seps = draw(st.lists(st.sampled_from([" ", " ", " ", "\t", "  ", " \t "]),
                             min_size=len(tokens), max_size=len(tokens)))
        if seps and draw(st.integers(0, 3)):
            seps[0] = ""
        line = "".join(sep + token for sep, token in zip(seps, tokens))
        out.append(line + draw(st.sampled_from(["", "", " ", "\t", "\r"])))
    return "\n".join(out)


_ANY_TEXT = st.one_of(
    st.text(),
    st.text(alphabet='model lane node edge lens mode sfm mitigation ->=".\\#,:\t\r\n01a'),
    st.lists(st.sampled_from(
        ["model", "lane", "node", "edge", "lens", "mode", "sfm", "mitigation", " ", "\t",
         "\n", "\r\n", '"', "\\", "=", "x", "h", "a", "->", "1", "0", "side=human",
         "kind=operator", "stage=act", "lane=h", "response.stability=", "amplify:2",
         "interaction=1", "category=a", "placement=node", "direction=m2h", "lens=l",
         "damping=", "detail=", "benign=", "question=", "cause=", "mitigation="])
    ).map("".join),
)


@pytest.mark.parametrize("parse", FORMATS)
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_any_text_parses_or_raises_a_parse_error(parse, data):
    values, serialize = FORMATS[parse]
    text = data.draw(st.one_of(_ANY_TEXT, values.map(serialize).flatmap(mutated)))
    try:
        parse(text)
    except DslParseError as exc:
        assert exc.diagnostics
        lines = re.split("\r\n|\r|\n", text)
        for diag in exc.diagnostics:
            assert 1 <= diag.line <= len(lines), diag
            assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1, diag
