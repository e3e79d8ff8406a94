"""Activity-graph data model for two-sided observe-orient-decide-act loops.

A model is a set of swimlanes, one per collaborating subsystem, each tagged
with the side of the human/machine boundary it belongs to.  Lanes hold
stage-tagged action nodes; directed edges wire the nodes into decision
cycles.  Cycles are expected, and edges crossing the human/machine boundary
are the raw material every later analysis step works on.

``validate`` checks referential integrity plus two modelling conventions:
a boundary-crossing edge targets an Observe-stage node, and an intra-lane
edge stays on the stage cycle.  The "Validation codes" table of
``docs/dsl-reference.md`` lists each code, its severity and when it fires.

The value types become dataclasses on first introspection, not at import.
``_dataclass`` records each class with its fields' options and sets
``__match_args__`` and the plain defaults; the first read of
``__dataclass_fields__``, ``__dataclass_params__`` or (3.13+) ``__replace__``,
as ``fields``, ``replace``, ``asdict``, ``is_dataclass`` and ``copy.replace``
make, declares every recorded class ``@dataclass(init=False, repr=False,
eq=False)``.  No CLI command introspects one, so none imports
``dataclasses`` or the ``inspect`` it imports.

Nor does the decorator generate a method, which it would compile and
``exec`` in every process: the bases below hold one ``__repr__``, ``__eq__``,
``__hash__`` and frozen guard for all, and each class writes its own
``__init__``.  They behave as the generated ones do (the same fields shown,
compared and hashed, ``NotImplemented`` for another class, a recursion
guard, the same errors), so only ``__dataclass_params__`` differs:
``frozen`` is False.  A frozen class's ``__init__`` stores its fields, in
field order, straight into the instance dict (``vars(self)``), past the
guard, so the dict keeps the keys that the class's instances share.
"""

from __future__ import annotations

import _thread
import math
import reprlib
import sys
from enum import Enum
from operator import attrgetter

DEFAULT_AMPLIFY_COEFFICIENT = 2.0
DEFAULT_DAMPEN_COEFFICIENT = 0.5

# Each dataclass's getter of the tuple of its compared fields, made on first use.
_COMPARED = {}


def _compared(cls: type):
    from dataclasses import fields
    names = [f.name for f in fields(cls) if f.compare]
    # attrgetter returns a tuple only for two names or more.
    getter = _COMPARED[cls] = attrgetter(*names) if len(names) > 1 else (
        lambda value: tuple(getattr(value, name) for name in names))
    return getter


class _FieldOptions(dict):
    """The ``dataclasses.field`` options of one field of a ``_dataclass``."""


_RECORDED = {}  # each class that _dataclass recorded: its fields' options by name
_PENDING = []  # the recorded classes not declared yet, in declaration order
_DECLARING = _thread.RLock()


def _dataclass(cls: type) -> type:
    """Record ``cls`` to be declared a dataclass on first introspection, with
    each field's class attribute as after declaring: its plain default or none."""
    options = _RECORDED[cls] = {}
    for name in cls.__annotations__:
        value = vars(cls).get(name)
        if isinstance(value, _FieldOptions):
            options[name] = value
            if "default" in value:
                setattr(cls, name, value["default"])
            else:
                delattr(cls, name)
    cls.__match_args__ = tuple(cls.__annotations__)
    if issubclass(cls, _FrozenRecord):
        # Its __init__ stores the fields into vars(self).  On 3.10 such a
        # store cannot grow the key table that the instance dicts share, and
        # an instance of more than five fields would get a table of its own.
        # So object.__setattr__, which can, fills the table first, in order.
        primer = object.__new__(cls)
        for name in cls.__annotations__:
            object.__setattr__(primer, name, None)
    _PENDING.append(cls)
    return cls


def _declare() -> None:
    """Declare each pending class, once, in order.  A call made while this
    thread declares returns at once: the decorator reads each class's bases."""
    with _DECLARING:
        if not _PENDING:
            return
        from dataclasses import dataclass, field
        pending, _PENDING[:] = _PENDING[:], []
        for cls in pending:
            for name, options in _RECORDED[cls].items():
                setattr(cls, name, field(**options))
            dataclass(init=False, repr=False, eq=False)(cls)


class _Declared:
    """An attribute that the decorator sets: its first read declares the
    pending classes, then it reads as if this descriptor were not there."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner):
        _declare()
        for cls in owner.__mro__:
            value = vars(cls).get(self.name, self)
            if value is not self:
                return value.__get__(instance, owner) if hasattr(value, "__get__") else value
        raise AttributeError(f"type object {owner.__name__!r} has no attribute {self.name!r}")


class _Record:
    """Base of the ``eq=False`` dataclasses: the generated ``__repr__``, and
    what declares them."""

    __dataclass_fields__ = _Declared()
    __dataclass_params__ = _Declared()
    if sys.version_info >= (3, 13):
        __replace__ = _Declared()

    @reprlib.recursive_repr()
    def __repr__(self) -> str:
        from dataclasses import fields
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
        return f"{self.__class__.__qualname__}({shown})"


class _EqRecord(_Record):
    """Base of the mutable dataclasses: the generated ``__eq__``.  Defining
    ``__eq__`` alone sets ``__hash__`` to None, as the decorator does."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        compared = _COMPARED.get(self.__class__) or _compared(self.__class__)
        return compared(self) == compared(other)


def _refuse(cls: type, name: str, act: str) -> None:
    # Any name on a recorded class or a dataclass subclass, only the field
    # names on a plain subclass.
    if cls in _RECORDED or "__dataclass_fields__" in vars(cls) or (
            name in cls.__dataclass_fields__):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot {act} field {name!r}")


class _FrozenRecord(_Record):
    """Base of the frozen dataclasses: the generated ``__setattr__`` and
    ``__delattr__``, with the texts of their ``FrozenInstanceError``."""

    def __setattr__(self, name, value):
        _refuse(self.__class__, name, "assign to")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        _refuse(self.__class__, name, "delete")
        object.__delattr__(self, name)


class _HashRecord(_EqRecord, _FrozenRecord):
    """Base of the frozen value dataclasses: the generated ``__hash__`` and the
    frozen guard as well."""

    def __hash__(self) -> int:
        return hash((_COMPARED.get(self.__class__) or _compared(self.__class__))(self))


class _Factory:
    """The default of an ``__init__`` parameter whose field has a default factory."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


class Side(Enum):
    HUMAN = "human"
    MACHINE = "machine"


class LaneKind(Enum):
    OPERATOR = "operator"
    AUTONOMY = "autonomy"
    HMI = "hmi"
    OTHER = "other"


# Kinds pinned to one side of the boundary; "other" may sit on either side.
KIND_SIDES = {
    LaneKind.OPERATOR: Side.HUMAN,
    LaneKind.AUTONOMY: Side.MACHINE,
    LaneKind.HMI: Side.MACHINE,
}


class Stage(Enum):
    OBSERVE = "observe"
    ORIENT = "orient"
    DECIDE = "decide"
    ACT = "act"

    @property
    def successor(self) -> "Stage":
        return _SUCCESSOR[self._value_]

    def display(self) -> str:
        return self._value_.capitalize()


# By value: a read through the enum class costs more than the lookup.
_SUCCESSOR = {"observe": Stage.ORIENT, "orient": Stage.DECIDE, "decide": Stage.ACT,
              "act": Stage.OBSERVE}


class GainKind(Enum):
    AMPLIFY = "amplify"
    DAMPEN = "dampen"
    NEUTRAL = "neutral"


@_dataclass
class GainBehaviour(_HashRecord):
    """How a node transforms a propagating failure mode: a positive gain."""

    kind: GainKind
    coefficient: float

    def __init__(self, kind, coefficient):
        fields = vars(self)
        fields["kind"] = kind
        fields["coefficient"] = coefficient
        self.__post_init__()

    def __post_init__(self) -> None:
        if not math.isfinite(self.coefficient):
            raise ValueError(f"gain coefficient must be finite, got {self.coefficient}")
        if self.coefficient <= 0:
            raise ValueError(f"gain coefficient must be positive, got {self.coefficient}")
        if self.kind is GainKind.AMPLIFY and self.coefficient <= 1:
            raise ValueError(f"amplify coefficient must be > 1, got {self.coefficient}")
        if self.kind is GainKind.DAMPEN and self.coefficient >= 1:
            raise ValueError(f"dampen coefficient must be < 1, got {self.coefficient}")
        if self.kind is GainKind.NEUTRAL and self.coefficient != 1:
            raise ValueError(f"neutral coefficient is fixed at 1, got {self.coefficient}")

    @classmethod
    def amplify(cls, coefficient: float = DEFAULT_AMPLIFY_COEFFICIENT) -> "GainBehaviour":
        return cls(GainKind.AMPLIFY, coefficient)

    @classmethod
    def dampen(cls, coefficient: float = DEFAULT_DAMPEN_COEFFICIENT) -> "GainBehaviour":
        return cls(GainKind.DAMPEN, coefficient)

    @classmethod
    def neutral(cls) -> "GainBehaviour":
        return cls(GainKind.NEUTRAL, 1.0)


@_dataclass
class Lane(_EqRecord):
    """A swimlane on the human or machine side of the boundary."""

    id: str
    side: Side
    kind: LaneKind
    display_name: str
    line: int | None = _FieldOptions(default=None, compare=False, repr=False)

    def __init__(self, id, side, kind, display_name, line=None):
        self.id = id
        self.side = side
        self.kind = kind
        self.display_name = display_name
        self.line = line


@_dataclass
class ActionNode(_EqRecord):
    """An action at one decision-loop stage of a lane."""

    id: str
    lane_id: str
    stage: Stage
    label: str
    # Gain applied per mode-category token when a trace passes through.
    response: dict[str, GainBehaviour] = _FieldOptions(default_factory=dict)
    # Category tokens naming upstream failure mechanisms this node can introduce.
    causes: list[str] = _FieldOptions(default_factory=list)
    mitigation_ids: list[str] = _FieldOptions(default_factory=list)
    line: int | None = _FieldOptions(default=None, compare=False, repr=False)

    def __init__(self, id, lane_id, stage, label, response=_FACTORY, causes=_FACTORY,
                 mitigation_ids=_FACTORY, line=None):
        self.id = id
        self.lane_id = lane_id
        self.stage = stage
        self.label = label
        self.response = {} if response is _FACTORY else response
        self.causes = [] if causes is _FACTORY else causes
        self.mitigation_ids = [] if mitigation_ids is _FACTORY else mitigation_ids
        self.line = line


@_dataclass
class ActivityEdge(_EqRecord):
    """A directed flow between two nodes, optionally guarded and mitigated."""

    # Edge ids are derived (assigned in declaration order), never authored,
    # so they do not participate in equality.
    id: str = _FieldOptions(compare=False)
    from_id: str
    to_id: str
    guard: str | None = None
    name: str | None = None
    mitigation_ids: list[str] = _FieldOptions(default_factory=list)
    line: int | None = _FieldOptions(default=None, compare=False, repr=False)

    def __init__(self, id, from_id, to_id, guard=None, name=None, mitigation_ids=_FACTORY,
                 line=None):
        self.id = id
        self.from_id = from_id
        self.to_id = to_id
        self.guard = guard
        self.name = name
        self.mitigation_ids = [] if mitigation_ids is _FACTORY else mitigation_ids
        self.line = line


@_dataclass
class Ooda2Model(_EqRecord):
    """Two interlocking decision loops: lanes, staged nodes, directed edges."""

    name: str
    lanes: list[Lane] = _FieldOptions(default_factory=list)
    nodes: list[ActionNode] = _FieldOptions(default_factory=list)
    edges: list[ActivityEdge] = _FieldOptions(default_factory=list)
    line: int | None = _FieldOptions(default=None, compare=False, repr=False)

    def __init__(self, name, lanes=_FACTORY, nodes=_FACTORY, edges=_FACTORY, line=None):
        self.name = name
        self.lanes = [] if lanes is _FACTORY else lanes
        self.nodes = [] if nodes is _FACTORY else nodes
        self.edges = [] if edges is _FACTORY else edges
        self.line = line

    def lanes_by_id(self) -> dict[str, Lane]:
        return {lane.id: lane for lane in self.lanes}

    def nodes_by_id(self) -> dict[str, ActionNode]:
        return {node.id: node for node in self.nodes}


class UnknownIdError(LookupError):
    """A lookup by id found nothing."""


def _first(items, key: str, wanted, message: str):
    """The first of ``items`` whose ``key`` is ``wanted``, else UnknownIdError(``message``)."""
    for item in items:
        if getattr(item, key) == wanted:
            return item
    raise UnknownIdError(message)


def node_lookup(model: Ooda2Model, node_id: str) -> ActionNode:
    """Return the node declared with ``node_id`` or raise UnknownIdError."""
    return _first(model.nodes, "id", node_id, f"model '{model.name}' has no node '{node_id}'")


def lane_lookup(model: Ooda2Model, lane_id: str) -> Lane:
    """Return the lane declared with ``lane_id`` or raise UnknownIdError."""
    return _first(model.lanes, "id", lane_id, f"model '{model.name}' has no lane '{lane_id}'")


def node_side(model: Ooda2Model, node: ActionNode) -> Side:
    """Side of the boundary the node's lane sits on."""
    return lane_lookup(model, node.lane_id).side


class Strictness(Enum):
    STRICT = "strict"
    LENIENT = "lenient"


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@_dataclass
class Diagnostic(_HashRecord):
    """One finding of ``validate``: severity, code, message and source line."""

    severity: Severity
    code: str
    message: str
    line: int | None = None

    def __init__(self, severity, code, message, line=None):
        fields = vars(self)
        fields["severity"] = severity
        fields["code"] = code
        fields["message"] = message
        fields["line"] = line


def validate(model: Ooda2Model, strictness: Strictness = Strictness.LENIENT, *,
             lens_catalog=None, mitigation_catalog=None) -> list[Diagnostic]:
    """Check a model and return every diagnostic, deterministically ordered.

    Referential problems (duplicate ids, dangling references, self-loops,
    lane kind on the wrong side, cause or response categories or mitigation
    ids the loaded catalogs do not know) are always errors.  OBSERVE_TARGET
    and MITIGATION_PLACEMENT are errors under Strict and warnings under
    Lenient; STAGE_ORDER is always a warning.  A model with no
    boundary-crossing edge gets a NO_INTERACTIONS warning.
    ``lens_catalog`` / ``mitigation_catalog`` default to the builtins.
    """
    # Imported here: the catalog modules sit above this one in the package.
    from .lenses import builtin_catalog
    from .mitigations import Placement, builtin_mitigations

    if lens_catalog is None:
        lens_catalog = builtin_catalog()
    if mitigation_catalog is None:
        mitigation_catalog = builtin_mitigations()
    known_categories = {mode.category for mode in lens_catalog.modes()}
    known_mitigations = {mit.id: mit for mit in mitigation_catalog}
    strict_error = Severity.ERROR if strictness is Strictness.STRICT else Severity.WARNING
    diags: list[Diagnostic] = []

    def report(code: str, message: str, element, severity: Severity = Severity.ERROR) -> None:
        diags.append(Diagnostic(severity, code, message, element.line))

    def first(element, what: str, seen: dict) -> bool:
        """Whether ``element`` is the first with its id, then kept in ``seen``; else reported."""
        if element.id in seen:
            report("DUPLICATE_ID", f"duplicate {what} id '{element.id}'", element)
            return False
        seen[element.id] = element
        return True

    def check_mitigations(element, what: str) -> None:
        for mit_id in element.mitigation_ids and dict.fromkeys(element.mitigation_ids):
            if element.mitigation_ids.count(mit_id) > 1:
                report("DUPLICATE_ID", f"{what} '{element.id}' lists mitigation '{mit_id}' twice",
                       element)
            mitigation = known_mitigations.get(mit_id)
            if mitigation is None:
                report("UNKNOWN_MITIGATION",
                       f"{what} '{element.id}' references unknown mitigation '{mit_id}'", element)
            elif mitigation.placement is not Placement(what):
                report("MITIGATION_PLACEMENT", f"{what} '{element.id}' references mitigation "
                       f"'{mit_id}', whose placement is {mitigation.placement.value}", element,
                       strict_error)

    lanes: dict[str, Lane] = {}
    for lane in model.lanes:
        if first(lane, "lane", lanes):
            required = KIND_SIDES.get(lane.kind)
            if required is not None and lane.side is not required:
                report("LANE_KIND", f"lane '{lane.id}' kind {lane.kind.value} requires side "
                       f"{required.value}", lane)

    nodes: dict[str, ActionNode] = {}
    for node in model.nodes:
        if not first(node, "node", nodes):
            continue
        if node.lane_id not in lanes:
            report("UNRESOLVED_REF",
                   f"node '{node.id}' references undeclared lane '{node.lane_id}'", node)
        for what, categories in (("cause", node.causes), ("response", node.response)):
            for category in categories:
                if category not in known_categories:
                    report("UNKNOWN_CATEGORY", f"node '{node.id}' {what} category '{category}' "
                           "is not in the loaded lens catalog", node)
        check_mitigations(node, "node")

    # Each edge between two distinct nodes in declared lanes, with its ends.
    resolved: list[tuple[ActivityEdge, ActionNode, ActionNode]] = []
    edges: dict[str, ActivityEdge] = {}
    for edge in model.edges:
        if not first(edge, "edge", edges):
            continue
        src, tgt = nodes.get(edge.from_id), nodes.get(edge.to_id)
        for end_id, end in ((edge.from_id, src), (edge.to_id, tgt)):
            if end is None:
                report("UNRESOLVED_REF",
                       f"edge '{edge.id}' references undeclared node '{end_id}'", edge)
        if src is not None and edge.from_id == edge.to_id:
            report("SELF_LOOP", f"edge '{edge.id}' loops node '{edge.from_id}' onto itself", edge)
        elif src is not None and tgt is not None and src.lane_id in lanes and tgt.lane_id in lanes:
            resolved.append((edge, src, tgt))
        check_mitigations(edge, "edge")

    crossings = [(edge, tgt) for edge, src, tgt in resolved
                 if lanes[src.lane_id].side is not lanes[tgt.lane_id].side]
    if not crossings:
        report("NO_INTERACTIONS", "no interactions possible", model, Severity.WARNING)
    for edge, tgt in crossings:
        if tgt.stage is not Stage.OBSERVE:
            report("OBSERVE_TARGET", f"cross-side edge '{edge.id}' targets "
                   f"{tgt.stage.display()}-stage node '{tgt.id}' instead of an Observe-stage "
                   "node", edge, strict_error)
    for edge, src, tgt in resolved:
        if src.lane_id != tgt.lane_id:
            continue
        if tgt.stage in (src.stage, src.stage.successor):
            continue
        if src.stage is Stage.DECIDE and edge.guard:
            continue  # decision branch
        report("STAGE_ORDER", f"edge '{edge.id}' jumps the stage cycle "
               f"({src.stage.display()} -> {tgt.stage.display()})", edge, Severity.WARNING)
    return diags


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)
