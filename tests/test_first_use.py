"""Each dataclass entry point as the first use of a hatlens type.

The value types become dataclasses on first introspection, not at import,
so every case runs in a fresh interpreter where its entry point is the
first thing to touch the types' dataclass attributes.  The expected
outputs were taken with the types declared at import; they must not tell
the two apart.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from conftest import FIXTURE_ROOT

SRC = str(FIXTURE_ROOT.parent.parent)

# Sample values, built by every script before its first introspection.
SETUP = """\
from hatlens import (ActionNode, ActivityEdge, Diagnostic, GainBehaviour, GainKind, Lane,
                     LaneKind, Mitigation, Ooda2Model, Placement, Severity, Side, Stage)
gain = GainBehaviour.amplify(3.0)
lane = Lane("ops", Side.HUMAN, LaneKind.OPERATOR, "Ops", line=2)
node = ActionNode("see", "ops", Stage.OBSERVE, "See", {"timely": gain}, line=4)
edge = ActivityEdge("e1", "see", "see", guard="alert", line=6)
diag = Diagnostic(Severity.WARNING, "STAGE_ORDER", "jumps", 6)
NAMES = ("ActionNode", "ActivityEdge", "Diagnostic", "FailureModeRow", "FailureModeTable",
         "GainBehaviour", "GenericFailureMode", "GoldenFixture", "Interaction", "Lane", "Lens",
         "LensCatalog", "Mitigation", "Ooda2Model", "ParseDiagnostic", "ReportBundle",
         "SecondOrderEffect", "SpecialisedFailureMode", "TracePathway")
"""

CASES = {
    "is_dataclass": ("""\
        from dataclasses import fields, is_dataclass
        from hatlens.model import _HashRecord, _Record
        print(is_dataclass(Lane), is_dataclass(gain), is_dataclass(type("Sub", (Lane,), {})))
        print(is_dataclass(_Record), is_dataclass(_HashRecord), hasattr(_Record, "__dataclass_fields__"))
        try:
            fields(_Record)
        except TypeError as exc:
            print(exc)
        """, """\
        True True True
        False False False
        must be called with a dataclass type or instance
        """),
    "fields": ("""\
        from dataclasses import MISSING, fields
        from hatlens import ReportBundle
        for f in fields(ActivityEdge) + fields(ReportBundle()):
            default = "-" if f.default is MISSING else repr(f.default)
            made = "-" if f.default_factory is MISSING else repr(f.default_factory())
            print(f.name, f.type, default, made, f.init, f.repr, f.compare, f.hash, f.kw_only)
        """, """\
        id str - - True True False None False
        from_id str - - True True True None False
        to_id str - - True True True None False
        guard str | None None - True True True None False
        name str | None None - True True True None False
        mitigation_ids list[str] - [] True True True None False
        line int | None None - True False False None False
        table FailureModeTable - FailureModeTable(rows=[]) True True True None False
        pathways list[TracePathway] - [] True True True None False
        second_order list[SecondOrderEffect] - [] True True True None False
        suggestions list[tuple[FailureModeRow, Mitigation]] - [] True True True None False
        """),
    "replace": ("""\
        from dataclasses import replace
        print(replace(lane, display_name="Operator"), replace(lane).line)
        print(replace(edge, guard=None, line=9))
        try:
            replace(GainBehaviour.dampen(), coefficient=2)
        except ValueError as exc:
            print(exc)
        try:
            replace(gain, bogus=1)
        except TypeError as exc:
            print(exc)
        """, """\
        Lane(id='ops', side=<Side.HUMAN: 'human'>, kind=<LaneKind.OPERATOR: 'operator'>, display_name='Operator') 2
        ActivityEdge(id='e1', from_id='see', to_id='see', guard=None, name=None, mitigation_ids=[])
        dampen coefficient must be < 1, got 2
        GainBehaviour.__init__() got an unexpected keyword argument 'bogus'
        """),
    "asdict": ("""\
        from dataclasses import asdict, astuple
        print(asdict(Ooda2Model("m", [lane], [node], [edge], line=1)))
        print(astuple(diag))
        """, """\
        {'name': 'm', 'lanes': [{'id': 'ops', 'side': <Side.HUMAN: 'human'>, 'kind': <LaneKind.OPERATOR: 'operator'>, 'display_name': 'Ops', 'line': 2}], 'nodes': [{'id': 'see', 'lane_id': 'ops', 'stage': <Stage.OBSERVE: 'observe'>, 'label': 'See', 'response': {'timely': {'kind': <GainKind.AMPLIFY: 'amplify'>, 'coefficient': 3.0}}, 'causes': [], 'mitigation_ids': [], 'line': 4}], 'edges': [{'id': 'e1', 'from_id': 'see', 'to_id': 'see', 'guard': 'alert', 'name': None, 'mitigation_ids': [], 'line': 6}], 'line': 1}
        (<Severity.WARNING: 'warning'>, 'STAGE_ORDER', 'jumps', 6)
        """),
    "dataclass_params": ("""\
        for value in (Mitigation, diag, Lane):
            p = value.__dataclass_params__
            print(p.init, p.repr, p.eq, p.order, p.unsafe_hash, p.frozen)
        """, """\
        False False False False False False
        False False False False False False
        False False False False False False
        """),
    "match": ("""\
        print(GainBehaviour.__match_args__, Lane.__match_args__)
        for value in (gain, GainBehaviour.dampen(), diag):
            match value:
                case GainBehaviour(GainKind.DAMPEN, coefficient):
                    print("dampen", coefficient)
                case GainBehaviour(kind, coefficient):
                    print(kind, coefficient)
                case Diagnostic(severity, code, message=message, line=line):
                    print(severity, code, message, line)
        """, """\
        ('kind', 'coefficient') ('id', 'side', 'kind', 'display_name', 'line')
        GainKind.AMPLIFY 3.0
        dampen 0.5
        Severity.WARNING STAGE_ORDER jumps 6
        """),
    "frozen_instance": ("""\
        for name in ("extra", "kind"):
            for act in (lambda: setattr(gain, name, 1), lambda: delattr(gain, name)):
                try:
                    act()
                except AttributeError as exc:
                    print(type(exc).__name__, exc)
        print(vars(gain))
        """, """\
        FrozenInstanceError cannot assign to field 'extra'
        FrozenInstanceError cannot delete field 'extra'
        FrozenInstanceError cannot assign to field 'kind'
        FrozenInstanceError cannot delete field 'kind'
        {'kind': <GainKind.AMPLIFY: 'amplify'>, 'coefficient': 3.0}
        """),
    "plain_subclass": ("""\
        Sub = type("Sub", (Diagnostic,), {})
        value = Sub(Severity.ERROR, "X", "m")
        value.extra = 1
        del value.extra
        print(value, vars(value))
        try:
            value.code = "Y"
        except AttributeError as exc:
            print(type(exc).__name__, exc)
        """, """\
        Sub(severity=<Severity.ERROR: 'error'>, code='X', message='m', line=None) {'severity': <Severity.ERROR: 'error'>, 'code': 'X', 'message': 'm', 'line': None}
        FrozenInstanceError cannot assign to field 'code'
        """),
    "frozen_dataclass_subclass": ("""\
        from dataclasses import dataclass
        try:
            dataclass(frozen=True)(type("Sub", (Diagnostic,), {}))
        except TypeError as exc:
            print(exc)
        """, """\
        cannot inherit frozen dataclass from a non-frozen one
        """),
    "dataclass_subclass": ("""\
        from dataclasses import dataclass, fields, replace

        @dataclass
        class Tagged(Lane):
            tag: str = "t"

        tagged = Tagged("ops", Side.HUMAN, LaneKind.OPERATOR, "Ops", 3, tag="u")
        print(tagged, [f.name for f in fields(tagged)], tagged == replace(tagged, line=4))
        Sub = dataclass(type("Sub", (Diagnostic,), {}))
        print([f.name for f in fields(Sub)], Sub.__dataclass_params__.frozen)
        try:
            Sub(Severity.ERROR, "X", "m")
        except AttributeError as exc:
            print(type(exc).__name__, exc)
        """, """\
        Tagged(id='ops', side=<Side.HUMAN: 'human'>, kind=<LaneKind.OPERATOR: 'operator'>, display_name='Ops', tag='u') ['id', 'side', 'kind', 'display_name', 'line', 'tag'] True
        ['severity', 'code', 'message', 'line'] False
        FrozenInstanceError cannot assign to field 'severity'
        """),
    "copy_replace": ("""\
        import copy
        print(copy.replace(GainBehaviour.neutral()))
        print(copy.replace(gain, coefficient=4.0), copy.replace(lane, line=5).line)
        print(type(copy.replace(type("Sub", (Lane,), {})(*vars(lane).values()))).__name__)
        print(edge.__replace__(guard=None))
        """, """\
        GainBehaviour(kind=<GainKind.NEUTRAL: 'neutral'>, coefficient=1.0)
        GainBehaviour(kind=<GainKind.AMPLIFY: 'amplify'>, coefficient=4.0) 5
        Sub
        ActivityEdge(id='e1', from_id='see', to_id='see', guard=None, name=None, mitigation_ids=[])
        """),
    "repr_eq_hash": ("""\
        print(repr(lane))
        print(repr(node))
        print(lane == Lane("ops", Side.HUMAN, LaneKind.OPERATOR, "Ops", line=9), lane == diag)
        print(edge != ActivityEdge("e2", "see", "see", guard="alert"))
        print(hash(diag) == hash((Severity.WARNING, "STAGE_ORDER", "jumps", 6)))
        print(hash(gain) == hash(GainBehaviour(GainKind.AMPLIFY, 3.0)), Lane.__hash__)
        """, """\
        Lane(id='ops', side=<Side.HUMAN: 'human'>, kind=<LaneKind.OPERATOR: 'operator'>, display_name='Ops')
        ActionNode(id='see', lane_id='ops', stage=<Stage.OBSERVE: 'observe'>, label='See', response={'timely': GainBehaviour(kind=<GainKind.AMPLIFY: 'amplify'>, coefficient=3.0)}, causes=[], mitigation_ids=[])
        True False
        False
        True
        True None
        """),
    "threads": ("""\
        import sys
        import threading
        from dataclasses import fields
        sys.setswitchinterval(1e-6)  # so that a thread reads while another declares
        barrier = threading.Barrier(4)
        seen = {}

        def read(cls, key):
            barrier.wait(timeout=60)
            seen[key] = [f.name for f in fields(cls)]

        threads = [threading.Thread(target=read, args=(cls, key))
                   for key, cls in enumerate((Diagnostic, Mitigation, Diagnostic, Lane))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        print(sorted(seen.items()), any(thread.is_alive() for thread in threads))
        """, """\
        [(0, ['severity', 'code', 'message', 'line']), (1, ['id', 'name', 'categories', 'placement', 'detail', 'damping', 'line']), (2, ['severity', 'code', 'message', 'line']), (3, ['id', 'side', 'kind', 'display_name', 'line'])] False
        """),
    "class_attributes": ("""\
        from dataclasses import fields
        import hatlens
        for name in NAMES:
            cls = getattr(hatlens, name)
            before = {key: vars(cls)[key] for key in cls.__annotations__ if key in vars(cls)}
            fields(cls)
            after = {key: vars(cls)[key] for key in cls.__annotations__ if key in vars(cls)}
            print(name, before, before == after)
        """, """\
        ActionNode {'line': None} True
        ActivityEdge {'guard': None, 'name': None, 'line': None} True
        Diagnostic {'line': None} True
        FailureModeRow {} True
        FailureModeTable {} True
        GainBehaviour {} True
        GenericFailureMode {'benign': False, 'line': None} True
        GoldenFixture {} True
        Interaction {} True
        Lane {'line': None} True
        Lens {'modes': (), 'line': None} True
        LensCatalog {} True
        Mitigation {'damping': 0.5, 'line': None} True
        Ooda2Model {'line': None} True
        ParseDiagnostic {} True
        ReportBundle {} True
        SecondOrderEffect {} True
        SpecialisedFailureMode {'line': None} True
        TracePathway {} True
        """),
}


def _run(script: str) -> str:
    """The standard output of ``script`` after SETUP in a fresh interpreter."""
    code = SETUP + textwrap.dedent(script)
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


@pytest.mark.parametrize("case", sorted(CASES))
def test_first_use(case):
    if case == "copy_replace" and sys.version_info < (3, 13):
        pytest.skip("copy.replace is new in Python 3.13")
    script, expected = CASES[case]
    assert _run(script) == textwrap.dedent(expected)


# What each class holds in its own ``vars()`` besides the names every one
# of them holds, once it is a dataclass.
OWN = {
    "ActionNode": ["line"], "ActivityEdge": ["guard", "line", "name"], "Diagnostic": ["line"],
    "FailureModeRow": [], "FailureModeTable": [],
    "GainBehaviour": ["__post_init__", "amplify", "dampen", "neutral"],
    "GenericFailureMode": ["benign", "line"], "GoldenFixture": [], "Interaction": [],
    "Lane": ["line"], "Lens": ["line", "modes"], "LensCatalog": ["lens_by_id", "mode_by_id", "modes"],
    "Mitigation": ["__post_init__", "damping", "line"],
    "Ooda2Model": ["lanes_by_id", "line", "nodes_by_id"], "ParseDiagnostic": [],
    "ReportBundle": [], "SecondOrderEffect": [], "SpecialisedFailureMode": ["line"],
    "TracePathway": ["node_ids"],
}
EVERY = ["__annotations__", "__dataclass_fields__", "__dataclass_params__", "__doc__",
         "__init__", "__match_args__", "__module__"]
# Set by the compiler, and by the decorator, from Python 3.13 on.
NEWER = ["__firstlineno__", "__replace__", "__static_attributes__"]
# What a class lacks before it becomes a dataclass.
DECLARED = {"__dataclass_fields__", "__dataclass_params__"} | (
    {"__replace__"} if sys.version_info >= (3, 13) else set())


def test_vars_once_declared():
    every = EVERY + (NEWER if sys.version_info >= (3, 13) else [])
    out = _run("""\
        from dataclasses import fields
        import hatlens
        for name in NAMES:
            fields(getattr(hatlens, name))
            print(name, sorted(vars(getattr(hatlens, name))))
        """)
    assert out == "".join(f"{name} {sorted(every + own)}\n" for name, own in OWN.items())


def test_vars_before_declaration_lack_only_the_declared_keys():
    # The documented gap (README, "Library use"); and the import, the
    # constructors and ``match`` load neither ``dataclasses`` nor ``inspect``.
    out = _run("""\
        import sys
        import hatlens
        from hatlens import *
        match gain:
            case GainBehaviour(kind, coefficient):
                pass
        before = {name: set(vars(getattr(hatlens, name))) for name in NAMES}
        print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
        from dataclasses import fields
        for name in NAMES:
            fields(getattr(hatlens, name))
            print(name, sorted(set(vars(getattr(hatlens, name))) - before[name]))
        """)
    assert out == "[]\n" + "".join(f"{name} {sorted(DECLARED)}\n" for name in OWN)
