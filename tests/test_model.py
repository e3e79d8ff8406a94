"""Model construction rules and validation diagnostics."""

import ast
import inspect
import random
import re
from pathlib import Path

import pytest

from hatlens import (
    ActionNode,
    ActivityEdge,
    Diagnostic,
    GainBehaviour,
    GainKind,
    Lane,
    LaneKind,
    Ooda2Model,
    Severity,
    Side,
    Stage,
    Strictness,
    UnknownIdError,
    has_errors,
    lane_lookup,
    load_fixture,
    node_lookup,
    node_side,
    parse_model,
    validate,
)
from conftest import random_model
from hatlens import model as model_module

DSL_REFERENCE = Path(__file__).resolve().parent.parent / "docs" / "dsl-reference.md"


def test_stage_successor_cycles():
    assert Stage.OBSERVE.successor is Stage.ORIENT
    assert Stage.ORIENT.successor is Stage.DECIDE
    assert Stage.DECIDE.successor is Stage.ACT
    assert Stage.ACT.successor is Stage.OBSERVE


def test_stage_display_is_title_case():
    assert [stage.display() for stage in Stage] == ["Observe", "Orient", "Decide", "Act"]


def test_gain_behaviour_bounds():
    assert GainBehaviour.amplify().coefficient == 2.0
    assert GainBehaviour.dampen().coefficient == 0.5
    assert GainBehaviour.neutral().coefficient == 1.0
    with pytest.raises(ValueError):
        GainBehaviour(GainKind.AMPLIFY, 1.0)
    with pytest.raises(ValueError):
        GainBehaviour(GainKind.DAMPEN, 1.0)
    with pytest.raises(ValueError):
        GainBehaviour(GainKind.NEUTRAL, 2.0)
    with pytest.raises(ValueError):
        GainBehaviour(GainKind.DAMPEN, -0.5)


def _two_lane_model(**overrides) -> Ooda2Model:
    parts = dict(
        name="m",
        lanes=[
            Lane("h", Side.HUMAN, LaneKind.OPERATOR, "Human"),
            Lane("m", Side.MACHINE, LaneKind.AUTONOMY, "Machine"),
        ],
        nodes=[
            ActionNode("a", "m", Stage.ACT, "publish"),
            ActionNode("b", "h", Stage.OBSERVE, "watch"),
        ],
        edges=[ActivityEdge(id="e1", from_id="a", to_id="b")],
    )
    parts.update(overrides)
    return Ooda2Model(**parts)


def _codes(diags):
    return [d.code for d in diags]


def test_valid_model_has_no_diagnostics():
    assert validate(_two_lane_model(), Strictness.STRICT) == []


def test_duplicate_lane_id_is_error():
    model = _two_lane_model()
    model.lanes.append(Lane("h", Side.HUMAN, LaneKind.OPERATOR, "Again"))
    diags = validate(model)
    assert _codes(diags) == ["DUPLICATE_ID"]
    assert diags[0].severity is Severity.ERROR
    assert "'h'" in diags[0].message


def test_lane_kind_side_mismatch_is_error():
    model = _two_lane_model()
    model.lanes[0] = Lane("h", Side.MACHINE, LaneKind.OPERATOR, "Human")
    model.lanes.append(Lane("x", Side.HUMAN, LaneKind.HMI, "Display"))
    codes = _codes(validate(model))
    assert codes.count("LANE_KIND") == 2


def test_other_lane_kind_fits_either_side():
    model = _two_lane_model()
    model.lanes[0] = Lane("h", Side.HUMAN, LaneKind.OTHER, "Crew")
    model.lanes[1] = Lane("m", Side.MACHINE, LaneKind.OTHER, "Plant")
    assert validate(model, Strictness.STRICT) == []


def test_duplicate_node_id_is_error():
    model = _two_lane_model()
    model.nodes.append(ActionNode("a", "h", Stage.ACT, "again"))
    assert "DUPLICATE_ID" in _codes(validate(model))


def test_node_with_undeclared_lane_is_error():
    model = _two_lane_model()
    model.nodes.append(ActionNode("c", "ghost", Stage.ACT, "float"))
    diags = [d for d in validate(model) if d.code == "UNRESOLVED_REF"]
    assert len(diags) == 1
    assert "'ghost'" in diags[0].message


def test_unknown_response_category_is_error():
    model = _two_lane_model()
    model.nodes[0].response["warp"] = GainBehaviour.amplify()
    diags = [d for d in validate(model) if d.code == "UNKNOWN_CATEGORY"]
    assert len(diags) == 1
    assert "'warp'" in diags[0].message


def test_unknown_cause_category_is_error():
    model = _two_lane_model()
    model.nodes[0].causes.extend(["stability", "no_such_category"])
    diags = [d for d in validate(model) if d.code == "UNKNOWN_CATEGORY"]
    assert [(d.severity, d.message) for d in diags] == [(
        Severity.ERROR,
        f"node '{model.nodes[0].id}' cause category 'no_such_category' is not in the loaded "
        "lens catalog",
    )]
    assert has_errors(diags)


def test_unknown_mitigation_on_node_and_edge_is_error():
    model = _two_lane_model()
    model.nodes[0].mitigation_ids.append("magic")
    model.edges[0].mitigation_ids.append("magic")
    diags = [d for d in validate(model) if d.code == "UNKNOWN_MITIGATION"]
    assert len(diags) == 2


def test_known_category_from_supplied_catalog_passes():
    from hatlens import GenericFailureMode, Applicability, Lens, LensCatalog

    model = _two_lane_model()
    model.nodes[0].response["warp"] = GainBehaviour.amplify()
    catalog = LensCatalog(lenses=[Lens(id="zed", name="Z", modes=(
        GenericFailureMode(id="warp", lens_id="zed", category="warp", title="W",
                           question="?", applicability=Applicability.M2H),
    ))])
    assert not has_errors(validate(model, lens_catalog=catalog))


def test_dangling_edge_reference_is_error():
    model = _two_lane_model()
    model.edges.append(ActivityEdge(id="e2", from_id="a", to_id="ghost"))
    diags = [d for d in validate(model) if d.code == "UNRESOLVED_REF"]
    assert len(diags) == 1


def test_self_loop_is_error():
    model = _two_lane_model()
    model.edges.append(ActivityEdge(id="e2", from_id="a", to_id="a"))
    assert "SELF_LOOP" in _codes(validate(model))


def test_no_interactions_warning_message_is_exact():
    model = _two_lane_model(edges=[])
    diags = validate(model)
    assert _codes(diags) == ["NO_INTERACTIONS"]
    assert diags[0].severity is Severity.WARNING
    assert diags[0].message == "no interactions possible"


def test_intra_lane_edges_do_not_count_as_interactions():
    model = _two_lane_model()
    model.nodes.append(ActionNode("c", "h", Stage.ORIENT, "think"))
    model.edges[0] = ActivityEdge(id="e1", from_id="b", to_id="c")
    assert "NO_INTERACTIONS" in _codes(validate(model))


def test_observe_target_severity_depends_on_strictness():
    model = _two_lane_model()
    model.nodes[1] = ActionNode("b", "h", Stage.DECIDE, "decide")
    lenient = validate(model, Strictness.LENIENT)
    strict = validate(model, Strictness.STRICT)
    assert _codes(lenient) == ["OBSERVE_TARGET"]
    assert lenient[0].severity is Severity.WARNING
    assert strict[0].severity is Severity.ERROR
    assert lenient[0].message == strict[0].message


def test_stage_order_warning_for_cycle_jumps():
    model = _two_lane_model()
    model.nodes.append(ActionNode("c", "h", Stage.ACT, "do"))
    model.edges.append(ActivityEdge(id="e2", from_id="b", to_id="c"))  # observe -> act
    diags = [d for d in validate(model) if d.code == "STAGE_ORDER"]
    assert len(diags) == 1
    assert diags[0].severity is Severity.WARNING
    assert "Observe -> Act" in diags[0].message


def test_stage_order_allows_same_stage_and_successor():
    model = _two_lane_model()
    model.nodes += [
        ActionNode("c", "h", Stage.OBSERVE, "scan"),
        ActionNode("d", "h", Stage.ORIENT, "sort"),
    ]
    model.edges += [
        ActivityEdge(id="e2", from_id="b", to_id="c"),  # same stage
        ActivityEdge(id="e3", from_id="c", to_id="d"),  # successor
    ]
    assert not any(d.code == "STAGE_ORDER" for d in validate(model))


def test_guarded_decide_branch_is_exempt_from_stage_order():
    model = _two_lane_model()
    model.nodes += [
        ActionNode("c", "h", Stage.DECIDE, "choose"),
        ActionNode("d", "h", Stage.OBSERVE, "recheck"),
    ]
    model.edges += [
        ActivityEdge(id="e2", from_id="c", to_id="d", guard="needs another look"),
        ActivityEdge(id="e3", from_id="c", to_id="b"),
    ]
    stage_order = [d for d in validate(model) if d.code == "STAGE_ORDER"]
    assert len(stage_order) == 1  # only the unguarded decide -> observe jump
    assert "'e3'" in stage_order[0].message


def test_diagnostics_are_deterministic_and_grouped():
    model = _two_lane_model()
    model.lanes.append(Lane("h", Side.HUMAN, LaneKind.OPERATOR, "Again"))
    model.nodes[0].mitigation_ids.append("magic")
    model.nodes[1] = ActionNode("b", "h", Stage.ACT, "act")
    first = validate(model)
    second = validate(model)
    assert first == second
    assert _codes(first) == ["DUPLICATE_ID", "UNKNOWN_MITIGATION", "OBSERVE_TARGET"]


def _every_code_model() -> Ooda2Model:
    """One model that sets off every code but NO_INTERACTIONS; each
    element's ``line`` is its position in the list of them."""
    amplify = GainBehaviour.amplify()
    return Ooda2Model(
        name="all", line=1,
        lanes=[
            Lane("h", Side.HUMAN, LaneKind.OPERATOR, "Human", line=2),
            Lane("m", Side.MACHINE, LaneKind.AUTONOMY, "Machine", line=3),
            # A repeat is reported alone: its wrong-side kind is not.
            Lane("h", Side.MACHINE, LaneKind.OPERATOR, "Again", line=4),
            Lane("x", Side.HUMAN, LaneKind.HMI, "Display", line=5),
        ],
        nodes=[
            ActionNode("a", "m", Stage.ACT, "publish",
                       mitigation_ids=["hysteresis", "magic"], line=6),
            ActionNode("b", "h", Stage.ORIENT, "watch",
                       response={"accuracy": amplify, "warp": amplify},
                       causes=["stability", "flaw"], line=7),
            ActionNode("a", "ghost", Stage.OBSERVE, "again", mitigation_ids=["magic"], line=8),
            ActionNode("c", "ghost", Stage.OBSERVE, "float", line=9),
            ActionNode("d", "m", Stage.OBSERVE, "sense", line=10),
            ActionNode("f", "m", Stage.DECIDE, "choose", line=11),
            ActionNode("g", "x", Stage.OBSERVE, "display", line=12),
        ],
        edges=[
            ActivityEdge(id="e1", from_id="a", to_id="b", mitigation_ids=["hysteresis", "nope"],
                         line=13),
            ActivityEdge(id="e1", from_id="zz", to_id="zz", line=14),
            ActivityEdge(id="e2", from_id="a", to_id="zz", mitigation_ids=["nope"], line=15),
            ActivityEdge(id="e3", from_id="yy", to_id="yy", line=16),
            ActivityEdge(id="e4", from_id="d", to_id="d", mitigation_ids=["nope"], line=17),
            ActivityEdge(id="e5", from_id="d", to_id="a", line=18),
            ActivityEdge(id="e6", from_id="f", to_id="d", guard="retry", line=19),
            # Node c's lane is undeclared, so this edge crosses nothing.
            ActivityEdge(id="e7", from_id="c", to_id="b", line=20),
            ActivityEdge(id="e8", from_id="a", to_id="g", line=21),
            ActivityEdge(id="e9", from_id="b", to_id="f", line=22),
            ActivityEdge(id="e10", from_id="f", to_id="d", line=23),
        ],
    )


@pytest.mark.parametrize("strictness, observe", [
    (Strictness.STRICT, Severity.ERROR),
    (Strictness.LENIENT, Severity.WARNING),
])
def test_every_diagnostic_is_pinned(strictness, observe):
    err, warn = Severity.ERROR, Severity.WARNING
    assert validate(_every_code_model(), strictness) == [
        Diagnostic(err, "DUPLICATE_ID", "duplicate lane id 'h'", 4),
        Diagnostic(err, "LANE_KIND", "lane 'x' kind hmi requires side machine", 5),
        Diagnostic(err, "UNKNOWN_MITIGATION", "node 'a' references unknown mitigation 'magic'",
                   6),
        Diagnostic(err, "UNKNOWN_CATEGORY",
                   "node 'b' cause category 'flaw' is not in the loaded lens catalog", 7),
        Diagnostic(err, "UNKNOWN_CATEGORY",
                   "node 'b' response category 'warp' is not in the loaded lens catalog", 7),
        Diagnostic(err, "DUPLICATE_ID", "duplicate node id 'a'", 8),
        Diagnostic(err, "UNRESOLVED_REF", "node 'c' references undeclared lane 'ghost'", 9),
        Diagnostic(observe, "MITIGATION_PLACEMENT",
                   "edge 'e1' references mitigation 'hysteresis', whose placement is node", 13),
        Diagnostic(err, "UNKNOWN_MITIGATION", "edge 'e1' references unknown mitigation 'nope'",
                   13),
        Diagnostic(err, "DUPLICATE_ID", "duplicate edge id 'e1'", 14),
        Diagnostic(err, "UNRESOLVED_REF", "edge 'e2' references undeclared node 'zz'", 15),
        Diagnostic(err, "UNKNOWN_MITIGATION", "edge 'e2' references unknown mitigation 'nope'",
                   15),
        Diagnostic(err, "UNRESOLVED_REF", "edge 'e3' references undeclared node 'yy'", 16),
        Diagnostic(err, "UNRESOLVED_REF", "edge 'e3' references undeclared node 'yy'", 16),
        Diagnostic(err, "SELF_LOOP", "edge 'e4' loops node 'd' onto itself", 17),
        Diagnostic(err, "UNKNOWN_MITIGATION", "edge 'e4' references unknown mitigation 'nope'",
                   17),
        Diagnostic(observe, "OBSERVE_TARGET",
                   "cross-side edge 'e1' targets Orient-stage node 'b' instead of an "
                   "Observe-stage node", 13),
        Diagnostic(observe, "OBSERVE_TARGET",
                   "cross-side edge 'e9' targets Decide-stage node 'f' instead of an "
                   "Observe-stage node", 22),
        Diagnostic(warn, "STAGE_ORDER", "edge 'e5' jumps the stage cycle (Observe -> Act)", 18),
        Diagnostic(warn, "STAGE_ORDER", "edge 'e10' jumps the stage cycle (Decide -> Observe)",
                   23),
    ]


@pytest.mark.parametrize("strictness", list(Strictness))
def test_an_edge_into_an_undeclared_lane_is_no_interaction(strictness):
    model = _two_lane_model(line=1)
    model.nodes.append(ActionNode("c", "ghost", Stage.OBSERVE, "float", line=4))
    model.edges = [ActivityEdge(id="e1", from_id="a", to_id="c", line=5)]
    assert validate(model, strictness) == [
        Diagnostic(Severity.ERROR, "UNRESOLVED_REF", "node 'c' references undeclared lane 'ghost'",
                   4),
        Diagnostic(Severity.WARNING, "NO_INTERACTIONS", "no interactions possible", 1),
    ]


def test_every_validation_code_is_in_the_docs_table():
    tree = ast.parse(inspect.getsource(model_module))
    validate_def = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "validate")
    emitted = {node.value for node in ast.walk(validate_def)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and re.fullmatch("[A-Z][A-Z_]+", node.value)}
    table = re.findall(r"^\| `([A-Z_]+)` \|", DSL_REFERENCE.read_text(encoding="utf-8"),
                       re.MULTILINE)
    assert len(emitted) == 10
    assert sorted(table) == sorted(emitted)


def test_strict_pass_implies_lenient_pass_on_random_models():
    rng = random.Random(11)
    flips = 0
    for _ in range(200):
        model = random_model(rng, max_nodes=12)
        if model.edges and rng.random() < 0.5:
            edge = rng.choice(model.edges)
            target = model.nodes_by_id()[edge.to_id]
            target.stage = rng.choice(list(Stage))
            flips += 1
        strict = validate(model, Strictness.STRICT)
        lenient = validate(model, Strictness.LENIENT)
        if not has_errors(strict):
            assert not has_errors(lenient)
        lenient_errors = [d for d in lenient if d.severity is Severity.ERROR]
        strict_errors = [d for d in strict if d.severity is Severity.ERROR]
        assert set(lenient_errors) <= set(strict_errors)
        assert [d.code for d in strict] == [d.code for d in lenient]
    assert flips > 0


def test_node_lookup_finds_every_declared_node():
    model = load_fixture("atc").model_path.read_text(encoding="utf-8")
    parsed = parse_model(model)
    for node in parsed.nodes:
        assert node_lookup(parsed, node.id) is node
    recommend = node_lookup(parsed, "hmi_recommend")
    assert recommend.stage is Stage.DECIDE
    assert recommend.label == "Recommend new landing sequence"


def test_lookups_raise_unknown_id_error():
    model = _two_lane_model()
    with pytest.raises(UnknownIdError):
        node_lookup(model, "nope")
    with pytest.raises(UnknownIdError):
        lane_lookup(model, "nope")


def test_unknown_id_error_message_is_unquoted():
    model = _two_lane_model()
    try:
        node_lookup(model, "nope")
    except UnknownIdError as exc:
        assert str(exc) == "model 'm' has no node 'nope'"


def test_node_side_follows_the_lane():
    model = _two_lane_model()
    assert node_side(model, model.nodes[0]) is Side.MACHINE
    assert node_side(model, model.nodes[1]) is Side.HUMAN
