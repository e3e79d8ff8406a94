"""The public dataclasses' contract: fields, constructor, repr, equality,
hashing, frozenness, ``replace``, ``asdict``, copying and pickling.

The expected values were written against the dataclass-generated methods,
so they pin what the package's shared ``__repr__``/``__eq__``/``__hash__``,
its hand-written ``__init__``s and its shared frozen guard must reproduce.
Every public dataclass has a sample here; a new one fails
``test_every_public_dataclass_has_a_sample`` until it gets one.
"""

from __future__ import annotations

import copy
import inspect
import math
import pickle
import sys
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    asdict,
    dataclass,
    fields,
    is_dataclass,
    replace,
)
from pathlib import Path

import pytest

import hatlens
from hatlens import (
    ActionNode,
    ActivityEdge,
    Applicability,
    Classification,
    Diagnostic,
    Direction,
    FailureModeRow,
    FailureModeTable,
    GainBehaviour,
    GainKind,
    GenericFailureMode,
    GoldenFixture,
    InducedMode,
    Interaction,
    Lane,
    LaneKind,
    Lens,
    LensCatalog,
    Mitigation,
    Ooda2Model,
    ParseDiagnostic,
    Placement,
    ReportBundle,
    SecondOrderEffect,
    Severity,
    Side,
    SpecialisedFailureMode,
    Stage,
    TraceDirection,
    TracePathway,
)


def _values() -> dict[str, object]:
    """One value of each public dataclass; each call builds new objects."""
    gain = GainBehaviour(GainKind.AMPLIFY, 3.0)
    ops = Lane("ops", Side.HUMAN, LaneKind.OPERATOR, "Ops", line=2)
    autopilot = Lane("ap", Side.MACHINE, LaneKind.AUTONOMY, "Autopilot", line=3)
    see = ActionNode("see", "ops", Stage.OBSERVE, "See", {"timely": gain}, ["bias"],
                     ["odd_margin"], line=4)
    act = ActionNode("act", "ap", Stage.ACT, "Act", line=5)
    edge = ActivityEdge("e1", "act", "see", guard="alert", name="cue",
                        mitigation_ids=["hysteresis"], line=6)
    interaction = Interaction(1, "cue", act, see, Direction.MACHINE_TO_HUMAN, Stage.ACT,
                              Stage.OBSERVE, edge)
    mode = GenericFailureMode("late", "time", "timely", "Late?", "Is it late?",
                              Applicability.BOTH, line=7)
    row = FailureModeRow(1, None, "cue", Stage.ACT, Stage.OBSERVE, Direction.MACHINE_TO_HUMAN,
                         "late", "Late?", "timely", None)
    mitigation = Mitigation("odd_margin", "ODD margin", ("timely",), Placement.EDGE,
                            "Keep a margin", 0.25, line=9)
    pathway = TracePathway(interaction, "timely", TraceDirection.DOWNSTREAM, (act, see),
                           (1.0, 3.0), 3.0, Classification.AMPLIFIED)
    effect = SecondOrderEffect(4, InducedMode.DISUSE, "operator ignores the autonomy")
    root = Path("fx")
    return {
        "ActionNode": see,
        "ActivityEdge": edge,
        "Diagnostic": Diagnostic(Severity.WARNING, "STAGE_ORDER", "edge 'e1' jumps", 6),
        "FailureModeRow": row,
        "FailureModeTable": FailureModeTable([row]),
        "GainBehaviour": gain,
        "GenericFailureMode": mode,
        "GoldenFixture": GoldenFixture("atc", root, root / "atc.hat", root / "atc.lens", None,
                                       None, {"table.csv": root / "table.csv"}),
        "Interaction": interaction,
        "Lane": ops,
        "Lens": Lens("time", "Timing", (mode,), line=8),
        "LensCatalog": LensCatalog([Lens("none", "Empty")]),
        "Mitigation": mitigation,
        "Ooda2Model": Ooda2Model("atc", [ops, autopilot], [see, act], [edge], line=1),
        "ParseDiagnostic": ParseDiagnostic(3, 7, "unknown keyword"),
        # No pathway: they compare by identity, so a bundle holding one
        # would equal no copy of itself.
        "ReportBundle": ReportBundle(FailureModeTable([row]), [], [effect], [(row, mitigation)]),
        "SecondOrderEffect": effect,
        "SpecialisedFailureMode": SpecialisedFailureMode(4, 1, "late", "Cue comes late",
                                                         line=10),
        "TracePathway": pathway,
    }


# Each class's constructor: parameter names in field order, with defaults.
SIGNATURES = {
    "ActionNode": "id, lane_id, stage, label, response=<factory>, causes=<factory>, "
                  "mitigation_ids=<factory>, line=None",
    "ActivityEdge": "id, from_id, to_id, guard=None, name=None, mitigation_ids=<factory>, "
                    "line=None",
    "Diagnostic": "severity, code, message, line=None",
    "FailureModeRow": "i_id, sfm_id, interaction_name, machine_stage, human_stage, direction, "
                      "generic_mode_id, generic_mode_title, generic_mode_category, "
                      "specialised_text",
    "FailureModeTable": "rows=<factory>",
    "GainBehaviour": "kind, coefficient",
    "GenericFailureMode": "id, lens_id, category, title, question, applicability, "
                          "benign=False, line=None",
    "GoldenFixture": "name, root, model_path, lens_path, sfm_path, mitigation_path, expected",
    "Interaction": "i_id, name, source, target, direction, machine_stage, human_stage, edge",
    "Lane": "id, side, kind, display_name, line=None",
    "Lens": "id, name, modes=(), line=None",
    "LensCatalog": "lenses=<factory>",
    "Mitigation": "id, name, categories, placement, detail, damping=0.5, line=None",
    "Ooda2Model": "name, lanes=<factory>, nodes=<factory>, edges=<factory>, line=None",
    "ParseDiagnostic": "line, column, message",
    "ReportBundle": "table=<factory>, pathways=<factory>, second_order=<factory>, "
                    "suggestions=<factory>",
    "SecondOrderEffect": "origin_sfm_id, induced_mode, rationale",
    "SpecialisedFailureMode": "sfm_id, interaction_id, generic_mode_id, text, line=None",
    "TracePathway": "origin, mode_category, direction, nodes, step_gains, total_gain, "
                    "classification",
}

# The TypeErrors of ``cls()`` (None: every field has a default) and of one
# positional argument past the last field, after "<name>.__init__() ".
TYPE_ERRORS = {
    "ActionNode": ("missing 4 required positional arguments: 'id', 'lane_id', 'stage', and "
                   "'label'", "takes from 5 to 9 positional arguments but 10 were given"),
    "ActivityEdge": ("missing 3 required positional arguments: 'id', 'from_id', and 'to_id'",
                     "takes from 4 to 8 positional arguments but 9 were given"),
    "Diagnostic": ("missing 3 required positional arguments: 'severity', 'code', and "
                   "'message'", "takes from 4 to 5 positional arguments but 6 were given"),
    "FailureModeRow": ("missing 10 required positional arguments: 'i_id', 'sfm_id', "
                       "'interaction_name', 'machine_stage', 'human_stage', 'direction', "
                       "'generic_mode_id', 'generic_mode_title', 'generic_mode_category', and "
                       "'specialised_text'", "takes 11 positional arguments but 12 were given"),
    "FailureModeTable": (None, "takes from 1 to 2 positional arguments but 3 were given"),
    "GainBehaviour": ("missing 2 required positional arguments: 'kind' and 'coefficient'",
                      "takes 3 positional arguments but 4 were given"),
    "GenericFailureMode": ("missing 6 required positional arguments: 'id', 'lens_id', "
                           "'category', 'title', 'question', and 'applicability'",
                           "takes from 7 to 9 positional arguments but 10 were given"),
    "GoldenFixture": ("missing 7 required positional arguments: 'name', 'root', 'model_path', "
                      "'lens_path', 'sfm_path', 'mitigation_path', and 'expected'",
                      "takes 8 positional arguments but 9 were given"),
    "Interaction": ("missing 8 required positional arguments: 'i_id', 'name', 'source', "
                    "'target', 'direction', 'machine_stage', 'human_stage', and 'edge'",
                    "takes 9 positional arguments but 10 were given"),
    "Lane": ("missing 4 required positional arguments: 'id', 'side', 'kind', and "
             "'display_name'", "takes from 5 to 6 positional arguments but 7 were given"),
    "Lens": ("missing 2 required positional arguments: 'id' and 'name'",
             "takes from 3 to 5 positional arguments but 6 were given"),
    "LensCatalog": (None, "takes from 1 to 2 positional arguments but 3 were given"),
    "Mitigation": ("missing 5 required positional arguments: 'id', 'name', 'categories', "
                   "'placement', and 'detail'",
                   "takes from 6 to 8 positional arguments but 9 were given"),
    "Ooda2Model": ("missing 1 required positional argument: 'name'",
                   "takes from 2 to 6 positional arguments but 7 were given"),
    "ParseDiagnostic": ("missing 3 required positional arguments: 'line', 'column', and "
                        "'message'", "takes 4 positional arguments but 5 were given"),
    "ReportBundle": (None, "takes from 1 to 5 positional arguments but 6 were given"),
    "SecondOrderEffect": ("missing 3 required positional arguments: 'origin_sfm_id', "
                          "'induced_mode', and 'rationale'",
                          "takes 4 positional arguments but 5 were given"),
    "SpecialisedFailureMode": ("missing 4 required positional arguments: 'sfm_id', "
                               "'interaction_id', 'generic_mode_id', and 'text'",
                               "takes from 5 to 6 positional arguments but 7 were given"),
    "TracePathway": ("missing 7 required positional arguments: 'origin', 'mode_category', "
                     "'direction', 'nodes', 'step_gains', 'total_gain', and 'classification'",
                     "takes 8 positional arguments but 9 were given"),
}

_LANE = "Lane(id='ops', side=<Side.HUMAN: 'human'>, kind=<LaneKind.OPERATOR: 'operator'>, " \
        "display_name='Ops')"
_LANE_AP = "Lane(id='ap', side=<Side.MACHINE: 'machine'>, " \
           "kind=<LaneKind.AUTONOMY: 'autonomy'>, display_name='Autopilot')"
_GAIN = "GainBehaviour(kind=<GainKind.AMPLIFY: 'amplify'>, coefficient=3.0)"
_SEE = "ActionNode(id='see', lane_id='ops', stage=<Stage.OBSERVE: 'observe'>, label='See', " \
       f"response={{'timely': {_GAIN}}}, causes=['bias'], mitigation_ids=['odd_margin'])"
_ACT = "ActionNode(id='act', lane_id='ap', stage=<Stage.ACT: 'act'>, label='Act', " \
       "response={}, causes=[], mitigation_ids=[])"
_EDGE = "ActivityEdge(id='e1', from_id='act', to_id='see', guard='alert', name='cue', " \
        "mitigation_ids=['hysteresis'])"
_INTERACTION = f"Interaction(i_id=1, name='cue', source={_ACT}, target={_SEE}, " \
               "direction=<Direction.MACHINE_TO_HUMAN: 'm2h'>, " \
               "machine_stage=<Stage.ACT: 'act'>, human_stage=<Stage.OBSERVE: 'observe'>, " \
               f"edge={_EDGE})"
_MODE = "GenericFailureMode(id='late', lens_id='time', category='timely', title='Late?', " \
        "question='Is it late?', applicability=<Applicability.BOTH: 'both'>, benign=False)"
_ROW = "FailureModeRow(i_id=1, sfm_id=None, interaction_name='cue', " \
       "machine_stage=<Stage.ACT: 'act'>, human_stage=<Stage.OBSERVE: 'observe'>, " \
       "direction=<Direction.MACHINE_TO_HUMAN: 'm2h'>, generic_mode_id='late', " \
       "generic_mode_title='Late?', generic_mode_category='timely', specialised_text=None)"
_MITIGATION = "Mitigation(id='odd_margin', name='ODD margin', categories=('timely',), " \
              "placement=<Placement.EDGE: 'edge'>, detail='Keep a margin', damping=0.25)"
_PATHWAY = f"TracePathway(origin={_INTERACTION}, mode_category='timely', " \
           f"direction=<TraceDirection.DOWNSTREAM: 'down'>, nodes=({_ACT}, {_SEE}), " \
           "step_gains=(1.0, 3.0), total_gain=3.0, " \
           "classification=<Classification.AMPLIFIED: 'Amplified'>)"
_EFFECT = "SecondOrderEffect(origin_sfm_id=4, induced_mode=<InducedMode.DISUSE: 'Disuse'>, " \
          "rationale='operator ignores the autonomy')"

# ``line`` fields declared ``repr=False`` do not show.
REPRS = {
    "ActionNode": _SEE,
    "ActivityEdge": _EDGE,
    "Diagnostic": "Diagnostic(severity=<Severity.WARNING: 'warning'>, code='STAGE_ORDER', "
                  "message=\"edge 'e1' jumps\", line=6)",
    "FailureModeRow": _ROW,
    "FailureModeTable": f"FailureModeTable(rows=[{_ROW}])",
    "GainBehaviour": _GAIN,
    "GenericFailureMode": _MODE,
    "GoldenFixture": "GoldenFixture(name='atc', root=PosixPath('fx'), "
                     "model_path=PosixPath('fx/atc.hat'), lens_path=PosixPath('fx/atc.lens'), "
                     "sfm_path=None, mitigation_path=None, "
                     "expected={'table.csv': PosixPath('fx/table.csv')})",
    "Interaction": _INTERACTION,
    "Lane": _LANE,
    "Lens": f"Lens(id='time', name='Timing', modes=({_MODE},))",
    "LensCatalog": "LensCatalog(lenses=[Lens(id='none', name='Empty', modes=())])",
    "Mitigation": _MITIGATION,
    "Ooda2Model": f"Ooda2Model(name='atc', lanes=[{_LANE}, {_LANE_AP}], nodes=[{_SEE}, {_ACT}], "
                  f"edges=[{_EDGE}])",
    "ParseDiagnostic": "ParseDiagnostic(line=3, column=7, message='unknown keyword')",
    "ReportBundle": f"ReportBundle(table=FailureModeTable(rows=[{_ROW}]), "
                    f"pathways=[], second_order=[{_EFFECT}], "
                    f"suggestions=[({_ROW}, {_MITIGATION})])",
    "SecondOrderEffect": _EFFECT,
    "SpecialisedFailureMode": "SpecialisedFailureMode(sfm_id=4, interaction_id=1, "
                              "generic_mode_id='late', text='Cue comes late')",
    "TracePathway": _PATHWAY,
}

NAMES = sorted(SIGNATURES)
IDENTITY = {"Interaction", "TracePathway"}  # declared eq=False
MUTABLE = {"ActionNode", "ActivityEdge", "FailureModeTable", "Lane", "LensCatalog",
           "Ooda2Model", "ReportBundle"}
FROZEN = sorted(set(NAMES) - MUTABLE)
VALUES = sorted(set(NAMES) - IDENTITY)

# A change to fields that take no part in equality (and so in hashing).
UNCOMPARED = {
    "ActionNode": {"line": 40},
    "ActivityEdge": {"id": "e9", "line": 60},
    "GenericFailureMode": {"line": 70},
    "Lane": {"line": 20},
    "Lens": {"line": 80},
    "Mitigation": {"line": 90},
    "Ooda2Model": {"line": 10},
    "SpecialisedFailureMode": {"line": 100},
}

# A change to one compared field.
COMPARED = {
    "ActionNode": {"label": "Look"},
    "ActivityEdge": {"guard": None},
    "Diagnostic": {"line": 7},
    "FailureModeRow": {"sfm_id": 4},
    "FailureModeTable": {"rows": []},
    "GainBehaviour": {"coefficient": 2.0},
    "GenericFailureMode": {"benign": True},
    "GoldenFixture": {"sfm_path": Path("fx/atc.sfm")},
    "Lane": {"display_name": "Operator"},
    "Lens": {"modes": ()},
    "LensCatalog": {"lenses": []},
    "Mitigation": {"damping": 0.5},
    "Ooda2Model": {"edges": []},
    "ParseDiagnostic": {"column": 8},
    "ReportBundle": {"second_order": []},
    "SecondOrderEffect": {"induced_mode": InducedMode.MISUSE},
    "SpecialisedFailureMode": {"text": "Cue comes early"},
}

# A list field of each mutable class, for a value that contains itself.
LIST_FIELDS = {
    "ActionNode": "causes",
    "ActivityEdge": "mitigation_ids",
    "FailureModeTable": "rows",
    "LensCatalog": "lenses",
    "Ooda2Model": "nodes",
    "ReportBundle": "pathways",
}


def _outcome(call):
    """What ``call()`` returns, or the type and message of its TypeError."""
    try:
        return call()
    except TypeError as exc:
        return type(exc), str(exc)


def _compact_signature(cls) -> str:
    return ", ".join(
        name if param.default is param.empty else f"{name}={param.default!r}"
        for name, param in inspect.signature(cls).parameters.items())


def _public_classes() -> list[tuple[str, type]]:
    return [(name, getattr(hatlens, name)) for name in hatlens.__all__
            if isinstance(getattr(hatlens, name), type)]


def test_every_public_dataclass_has_a_sample():
    public = sorted(name for name, cls in _public_classes() if is_dataclass(cls))
    assert public == NAMES == sorted(_values()) == sorted(REPRS)
    assert set(UNCOMPARED) <= set(COMPARED) == set(VALUES)


@pytest.mark.parametrize("name", NAMES)
def test_fields_constructor_and_match_args(name):
    cls = getattr(hatlens, name)
    names = tuple(f.name for f in fields(cls))
    assert _compact_signature(cls) == SIGNATURES[name]
    assert names == tuple(inspect.signature(cls).parameters) == cls.__match_args__
    assert is_dataclass(cls) and is_dataclass(_values()[name])


@pytest.mark.parametrize("name", NAMES)
def test_repr_shows_the_repr_fields_by_qualified_name(name):
    assert repr(_values()[name]) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_repr_of_a_subclass_shows_its_qualified_name(name):
    cls = getattr(hatlens, name)
    subclass = type("Sub", (cls,), {"__qualname__": f"Outer.Sub{name}"})
    value = _values()[name]
    copy = subclass(**{f.name: getattr(value, f.name) for f in fields(value)})
    assert repr(copy) == f"Outer.Sub{REPRS[name]}"


@pytest.mark.parametrize("name", sorted(LIST_FIELDS))
def test_a_value_that_contains_itself_shows_an_ellipsis(name):
    value = _values()[name]
    listed = getattr(value, LIST_FIELDS[name])
    before = repr(listed)
    listed.append(value)
    shown = before[:-1] + (", ...]" if before != "[]" else "...]")
    field_text = f"{LIST_FIELDS[name]}={before}"
    assert REPRS[name].count(field_text) == 1
    assert repr(value) == REPRS[name].replace(field_text, f"{LIST_FIELDS[name]}={shown}")
    assert repr([value, value]) == f"[{repr(value)}, {repr(value)}]"


@pytest.mark.parametrize("name", VALUES)
def test_equality_compares_the_compared_fields_of_the_same_class(name):
    value, twin = _values()[name], _values()[name]
    assert value is not twin
    assert value == twin and not value != twin
    uncompared = replace(twin, **UNCOMPARED.get(name, {}))
    assert value == uncompared and not value != uncompared
    other = replace(twin, **COMPARED[name])
    assert value != other and not value == other
    stranger = _values()["Diagnostic" if name == "ParseDiagnostic" else "ParseDiagnostic"]
    assert value != stranger and not value == stranger
    assert value.__eq__(stranger) is NotImplemented
    as_tuple = tuple(getattr(value, f.name) for f in fields(value))
    assert value != as_tuple and not value == as_tuple
    assert value.__eq__(as_tuple) is NotImplemented
    cls = type(value)
    subclass = type(f"Sub{name}", (cls,), {})
    copy = subclass(**{f.name: getattr(value, f.name) for f in fields(value)})
    assert value != copy and not value == copy


@pytest.mark.parametrize("name, field_name", [
    ("FailureModeTable", "rows"), ("LensCatalog", "lenses"), ("Lane", "display_name"),
    ("ParseDiagnostic", "message"),
])
def test_compared_fields_compare_as_one_tuple(name, field_name):
    # A tuple takes an element as equal to itself by identity, so a field
    # holding one NaN object compares equal; two NaN objects do not.
    nan = float("nan")
    value = replace(_values()[name], **{field_name: nan})
    assert value == replace(value) and not value != replace(value)
    assert value != replace(value, **{field_name: float("nan")})
    if name == "ParseDiagnostic":
        assert hash(value) == hash(replace(value)) == hash((3, 7, nan))


@pytest.mark.parametrize("name", sorted(set(FROZEN) - IDENTITY))
def test_frozen_values_hash_the_tuple_of_their_compared_fields(name):
    value, twin = _values()[name], _values()[name]
    uncompared = replace(twin, **UNCOMPARED.get(name, {}))
    compared = tuple(getattr(value, f.name) for f in fields(value) if f.compare)
    expected = _outcome(lambda: hash(compared))
    assert _outcome(lambda: hash(value)) == expected
    assert _outcome(lambda: hash(twin)) == expected
    assert _outcome(lambda: hash(uncompared)) == expected
    if name == "GoldenFixture":
        assert expected == (TypeError, "unhashable type: 'dict'")
    else:
        assert len({value, twin, uncompared}) == 1


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_values_are_unhashable(name):
    value = _values()[name]
    assert type(value).__hash__ is None
    with pytest.raises(TypeError, match=rf"^unhashable type: '{name}'$"):
        hash(value)


@pytest.mark.parametrize("name", sorted(IDENTITY))
def test_eq_false_classes_compare_and_hash_by_identity(name):
    value, twin = _values()[name], _values()[name]
    assert repr(value) == repr(twin)
    assert value == value and not value != value
    assert value != twin and not value == twin
    assert value.__eq__(twin) is NotImplemented
    assert hash(value) == object.__hash__(value)
    assert len({value, twin, value}) == 2


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_refuse_assignment_and_deletion(name):
    value = _values()[name]
    first = fields(value)[0].name
    kept = getattr(value, first)
    with pytest.raises(FrozenInstanceError, match=rf"^cannot assign to field '{first}'$"):
        setattr(value, first, None)
    with pytest.raises(FrozenInstanceError, match=rf"^cannot delete field '{first}'$"):
        delattr(value, first)
    with pytest.raises(FrozenInstanceError, match=r"^cannot assign to field 'extra'$"):
        value.extra = 1
    assert getattr(value, first) is kept


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_values_take_assignment(name):
    value = _values()[name]
    first = fields(value)[0].name
    setattr(value, first, "changed")
    assert getattr(value, first) == "changed"


@pytest.mark.parametrize("name", NAMES)
def test_replace_asdict_and_pickle_keep_every_field(name):
    value = _values()[name]
    names = [f.name for f in fields(value)]
    assert list(asdict(value)) == names
    copy = replace(value)
    assert type(copy) is type(value) and repr(copy) == repr(value)
    assert all(getattr(copy, name) is getattr(value, name) for name in names)
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is type(value) and repr(restored) == repr(value)
    assert asdict(restored) == asdict(value)
    if name not in IDENTITY:
        assert copy == value and restored == value


def test_asdict_includes_the_fields_that_repr_hides():
    assert asdict(_values()["Lane"]) == {
        "id": "ops", "side": Side.HUMAN, "kind": LaneKind.OPERATOR, "display_name": "Ops",
        "line": 2}
    assert asdict(_values()["ActivityEdge"])["line"] == 6


def test_no_public_class_defines_its_own_repr_eq_or_hash():
    """The dataclasses share these three methods instead of generating them."""
    own = [f"{name}.{method}" for name, cls in _public_classes()
           for method in ("__repr__", "__eq__", "__hash__") if method in vars(cls)]
    assert own == []


@pytest.mark.parametrize("name", NAMES)
def test_constructor_type_errors(name):
    cls = getattr(hatlens, name)
    value = _values()[name]
    args = [getattr(value, f.name) for f in fields(value)]
    first = fields(value)[0].name
    missing, positional = TYPE_ERRORS[name]
    prefix = f"{name}.__init__() "
    if missing is None:
        assert type(cls()) is cls
    else:
        assert _outcome(lambda: cls()) == (TypeError, prefix + missing)
    assert _outcome(lambda: cls(*args, None)) == (TypeError, prefix + positional)
    assert _outcome(lambda: cls(*args, bogus=1)) == (
        TypeError, prefix + "got an unexpected keyword argument 'bogus'")
    assert _outcome(lambda: cls(*args, **{first: args[0]})) == (
        TypeError, prefix + f"got multiple values for argument '{first}'")


@pytest.mark.parametrize("name", NAMES)
def test_factory_defaults_are_new_for_each_instance(name):
    cls = getattr(hatlens, name)
    value = _values()[name]
    made = [f for f in fields(cls) if f.default_factory is not MISSING]
    required = {f.name: getattr(value, f.name) for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    one, two = cls(**required), cls(**required)
    for f in made:
        assert getattr(one, f.name) == f.default_factory()
        assert getattr(one, f.name) is not getattr(two, f.name)


@pytest.mark.parametrize("name", FROZEN)
def test_a_plain_subclass_of_a_frozen_class_takes_new_attributes_but_refuses_fields(name):
    subclass = type("Sub", (getattr(hatlens, name),), {})
    value = _values()[name]
    copy = subclass(**{f.name: getattr(value, f.name) for f in fields(value)})
    copy.extra = 1
    assert copy.extra == 1
    del copy.extra
    assert not hasattr(copy, "extra")
    for f in fields(value):
        with pytest.raises(FrozenInstanceError, match=rf"^cannot assign to field '{f.name}'$"):
            setattr(copy, f.name, None)
        with pytest.raises(FrozenInstanceError, match=rf"^cannot delete field '{f.name}'$"):
            delattr(copy, f.name)
        assert getattr(copy, f.name) is getattr(value, f.name)


@pytest.mark.parametrize("name", FROZEN)
def test_dataclass_subclasses_of_a_frozen_class(name):
    """The frozen classes are declared ``frozen=False`` with a shared guard
    (README, "Library use"): the decorator refuses a frozen subclass, and a
    non-frozen one cannot set the fields it inherits."""
    cls = getattr(hatlens, name)
    with pytest.raises(TypeError, match=r"^cannot inherit frozen dataclass from a non-frozen "
                                        r"one$"):
        dataclass(frozen=True)(type("Sub", (cls,), {}))
    subclass = dataclass(type("Sub", (cls,), {}))
    value = _values()[name]
    first = fields(value)[0].name
    with pytest.raises(FrozenInstanceError, match=rf"^cannot assign to field '{first}'$"):
        subclass(**{f.name: getattr(value, f.name) for f in fields(value)})


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_deepcopy_keep_every_field(name):
    value = _values()[name]
    shallow, deep = copy.copy(value), copy.deepcopy(value)
    for twin in shallow, deep:
        assert type(twin) is type(value) and twin is not value
        assert repr(twin) == repr(value) and asdict(twin) == asdict(value)
        if name not in IDENTITY:
            assert twin == value
    assert vars(shallow) == vars(value)
    assert all(getattr(shallow, f.name) is getattr(value, f.name) for f in fields(value))
    assert [f.name for f in fields(value) if isinstance(getattr(value, f.name), (list, dict))
            and getattr(deep, f.name) is getattr(value, f.name)] == []


def test_replace_runs_the_post_init_checks():
    with pytest.raises(ValueError, match=r"^dampen coefficient must be < 1, got 2$"):
        replace(GainBehaviour.dampen(), coefficient=2)
    with pytest.raises(ValueError, match=r"^gain coefficient must be finite, got inf$"):
        replace(GainBehaviour.amplify(), coefficient=math.inf)
    mitigation = _values()["Mitigation"]
    with pytest.raises(ValueError, match=r"^mitigation 'odd_margin' must bind at least one "
                                         r"category$"):
        replace(mitigation, categories=())
    with pytest.raises(ValueError, match=r"^mitigation 'odd_margin' damping must be in "
                                         r"\(0, 1\), got 1$"):
        replace(mitigation, damping=1)


def test_no_public_dataclass_method_is_compiled_at_run_time():
    """Each ``__init__``, and the frozen classes' ``__setattr__`` and
    ``__delattr__``, come from the package's source, not from the decorator,
    which ``exec``s generated text (a ``<string>`` file) in every process."""
    package = Path(hatlens.__file__).parent
    compiled = []
    for name in NAMES:
        cls = getattr(hatlens, name)
        methods = {"__init__": vars(cls).get("__init__")}
        if name in FROZEN:
            methods.update(__setattr__=cls.__setattr__, __delattr__=cls.__delattr__)
        for method, function in methods.items():
            code = getattr(function, "__code__", None)
            if code is None or Path(code.co_filename).parent != package:
                compiled.append(f"{name}.{method}")
    assert compiled == []


def test_every_public_dataclass_has_its_own_docstring():
    """Without one, the decorator builds a docstring from ``inspect.signature``
    on every import."""
    generated = [name for name in NAMES
                 if getattr(hatlens, name).__doc__ in (None, name + str(
                     inspect.signature(getattr(hatlens, name))).replace(" -> None", ""))]
    assert generated == []


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_value_s_dict_holds_its_fields_in_order_with_the_shared_keys(name):
    """A frozen ``__init__`` fills the instance dict directly.  Its keys come
    in field order, and it keeps the keys that the class's instances share:
    its size equals that of a twin whose fields were set one by one."""
    value = _values()[name]
    names = [f.name for f in fields(value)]
    assert list(vars(value)) == names
    twin = object.__new__(type(value))
    for field_name in names:
        object.__setattr__(twin, field_name, getattr(value, field_name))
    # Both sizes are taken now: the size of a dict of shared keys can change
    # as the class makes more instances.
    assert sys.getsizeof(vars(value)) == sys.getsizeof(vars(twin))
    for field_name in names:
        with pytest.raises(FrozenInstanceError, match=rf"^cannot assign to field '{field_name}'$"):
            setattr(value, field_name, None)
    assert list(vars(value)) == names and vars(value) == vars(twin)
