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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

DEFAULT_AMPLIFY_COEFFICIENT = 2.0
DEFAULT_DAMPEN_COEFFICIENT = 0.5


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
        cycle = (Stage.OBSERVE, Stage.ORIENT, Stage.DECIDE, Stage.ACT)
        return cycle[(cycle.index(self) + 1) % len(cycle)]

    def display(self) -> str:
        return self.value.capitalize()


class GainKind(Enum):
    AMPLIFY = "amplify"
    DAMPEN = "dampen"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class GainBehaviour:
    """How a node transforms a propagating failure mode: a positive gain."""

    kind: GainKind
    coefficient: float

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


@dataclass
class Lane:
    id: str
    side: Side
    kind: LaneKind
    display_name: str
    line: int | None = field(default=None, compare=False, repr=False)


@dataclass
class ActionNode:
    id: str
    lane_id: str
    stage: Stage
    label: str
    # Gain applied per mode-category token when a trace passes through.
    response: dict[str, GainBehaviour] = field(default_factory=dict)
    # Category tokens naming upstream failure mechanisms this node can introduce.
    causes: list[str] = field(default_factory=list)
    mitigation_ids: list[str] = field(default_factory=list)
    line: int | None = field(default=None, compare=False, repr=False)


@dataclass
class ActivityEdge:
    # Edge ids are derived (assigned in declaration order), never authored,
    # so they do not participate in equality.
    id: str = field(compare=False)
    from_id: str
    to_id: str
    guard: str | None = None
    name: str | None = None
    mitigation_ids: list[str] = field(default_factory=list)
    line: int | None = field(default=None, compare=False, repr=False)


@dataclass
class Ooda2Model:
    """Two interlocking decision loops: lanes, staged nodes, directed edges."""

    name: str
    lanes: list[Lane] = field(default_factory=list)
    nodes: list[ActionNode] = field(default_factory=list)
    edges: list[ActivityEdge] = field(default_factory=list)
    line: int | None = field(default=None, compare=False, repr=False)

    def lanes_by_id(self) -> dict[str, Lane]:
        return {lane.id: lane for lane in self.lanes}

    def nodes_by_id(self) -> dict[str, ActionNode]:
        return {node.id: node for node in self.nodes}


class UnknownIdError(LookupError):
    """A lookup by id found nothing."""


def node_lookup(model: Ooda2Model, node_id: str) -> ActionNode:
    """Return the node declared with ``node_id`` or raise UnknownIdError."""
    for node in model.nodes:
        if node.id == node_id:
            return node
    raise UnknownIdError(f"model '{model.name}' has no node '{node_id}'")


def lane_lookup(model: Ooda2Model, lane_id: str) -> Lane:
    """Return the lane declared with ``lane_id`` or raise UnknownIdError."""
    for lane in model.lanes:
        if lane.id == lane_id:
            return lane
    raise UnknownIdError(f"model '{model.name}' has no lane '{lane_id}'")


def node_side(model: Ooda2Model, node: ActionNode) -> Side:
    """Side of the boundary the node's lane sits on."""
    return lane_lookup(model, node.lane_id).side


class Strictness(Enum):
    STRICT = "strict"
    LENIENT = "lenient"


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: str
    message: str
    line: int | None = None


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
        for mit_id in element.mitigation_ids:
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
