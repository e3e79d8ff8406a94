"""Failure propagation along the activity graph.

``trace`` enumerates every maximal simple path (no repeated node) from an
interaction endpoint: downstream follows edge direction from the target
node, upstream walks reversed edges from the source node.  Each node after
the starting endpoint contributes one step gain: its ``response``
coefficient for the traced category (1 when unspecified), multiplied by
the damping of any attached mitigation matching the category, and by the
damping of matching mitigations on the edge just traversed.  A pathway's
total gain is ``math.prod`` of its step gains, so the int 1 for a pathway
of one node.  The classification compares the total against exactly 1; a
product that overflows to infinity is an error, not a classification.

Enumeration is one depth-first walk over an explicit stack, so
``max_depth`` alone bounds the depth, not the recursion limit.  A node's
children are listed on its first visit, since a trace may reach few of a
model's nodes: sorted by id, each with the step gain of the edge to it,
computed once per trace.  As no maximal path is a prefix of another, the
walk emits pathways in lexicographic order of their node ids, with no
sort.  A ``TracePathway`` stays a frozen dataclass, but ``trace`` builds
each one by copying a template attribute dict that holds the fields the
trace's pathways share, not through the generated ``__init__`` and its
seven ``object.__setattr__`` calls.

The loops are cyclic by design; the simple-path restriction is what makes
enumeration finite.  Consequences of a failure repeating over many loop
cycles are covered qualitatively by ``derive_second_order`` instead: a
machine-to-human failure in a comprehensibility-adjacent category can
push the operator toward ignoring the autonomy (disuse) or accepting its
output without understanding (misuse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .interactions import Direction, Interaction, interaction_by_id
from .lenses import LensCatalog
from .mapping import SpecialisedFailureMode
from .mitigations import Mitigation, builtin_mitigations
from .model import ActionNode, ActivityEdge, Ooda2Model

DEFAULT_MAX_DEPTH = 16
DEFAULT_SECOND_ORDER_CATEGORIES = ("stability", "timely", "uncertainty")


class TraceDirection(Enum):
    UPSTREAM = "up"
    DOWNSTREAM = "down"


class Classification(Enum):
    MITIGATED = "Mitigated"
    NEUTRAL = "Neutral"
    AMPLIFIED = "Amplified"


def classify(total_gain: float) -> Classification:
    if total_gain < 1:
        return Classification.MITIGATED
    if total_gain > 1:
        return Classification.AMPLIFIED
    return Classification.NEUTRAL


@dataclass(frozen=True, eq=False)
class TracePathway:
    origin: Interaction
    mode_category: str
    direction: TraceDirection
    nodes: tuple[ActionNode, ...]
    step_gains: tuple[float, ...]
    total_gain: float
    classification: Classification

    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.id for node in self.nodes)


def _step_gain(node: ActionNode, arrived_by: ActivityEdge, category: str,
               mitigations: dict[str, Mitigation]) -> float:
    behaviour = node.response.get(category)
    gain = behaviour.coefficient if behaviour is not None else 1.0
    for mit_id in (*node.mitigation_ids, *arrived_by.mitigation_ids):
        mitigation = mitigations.get(mit_id)
        if mitigation is not None and category in mitigation.categories:
            gain *= mitigation.damping
    return gain


def trace(
    model: Ooda2Model,
    interaction: Interaction,
    mode_category: str,
    direction: TraceDirection,
    max_depth: int = DEFAULT_MAX_DEPTH,
    *,
    mitigation_catalog: list[Mitigation] | None = None,
) -> list[TracePathway]:
    """All maximal simple paths of at most ``max_depth`` nodes from the
    interaction endpoint, with their gains, in lexicographic order of their
    node ids.  A dead-end endpoint yields the single one-node pathway.
    ``mitigation_catalog`` supplies damping values and defaults to the
    builtins.  Raises ``ValueError`` naming the first pathway whose total
    gain is not finite.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    if mitigation_catalog is None:
        mitigation_catalog = builtin_mitigations()
    mitigations = {mit.id: mit for mit in mitigation_catalog}
    nodes = model.nodes_by_id()

    downstream = direction is TraceDirection.DOWNSTREAM
    adjacency: dict[str, dict[str, ActivityEdge]] = {}
    for edge in model.edges:
        tip, next_id = (edge.from_id, edge.to_id) if downstream else (edge.to_id, edge.from_id)
        # Parallel edges between one node pair would duplicate the node
        # sequence; only the first-declared edge is followed.
        adjacency.setdefault(tip, {}).setdefault(next_id, edge)

    children: dict[str, list[tuple[ActionNode, float]]] = {}

    def children_of(node: ActionNode) -> list[tuple[ActionNode, float]]:
        listed = children.get(node.id)
        if listed is None:
            arrivals = adjacency.get(node.id, {})
            listed = children[node.id] = [
                (nodes[next_id], _step_gain(nodes[next_id], arrivals[next_id],
                                            mode_category, mitigations))
                for next_id in sorted(arrivals)
            ]
        return listed

    start = interaction.target if downstream else interaction.source
    path = [start]
    on_path = {start.id}
    step_gains: list[float] = []
    # One iterator over the remaining children of each path node; ``leaf``
    # says no pathway was emitted since the last push, so a pop emits one.
    pending = [iter(children_of(start) if max_depth > 1 else ())]
    leaf = True
    # Each pathway's attribute dict is a copy of this instance's, which holds
    # the three fields every pathway of the trace shares (a copy also keeps
    # the class's shared keys); the other four are stored into the copy.
    shared = vars(TracePathway(interaction, mode_category, direction, (), (), 1,
                               Classification.NEUTRAL))
    new, set_attribute = object.__new__, object.__setattr__
    pathways = []
    while pending:
        for node, gain in pending[-1]:
            if node.id not in on_path:
                break
        else:
            pending.pop()
            if leaf:
                leaf = False
                total_gain = math.prod(step_gains)
                if not math.isfinite(total_gain):
                    raise ValueError(
                        f"interaction {interaction.i_id} [{mode_category}, {direction.value}]: "
                        f"the total gain of pathway {' -> '.join(n.id for n in path)} "
                        f"is not finite ({total_gain!r})")
                fields = shared.copy()
                fields["nodes"] = tuple(path)
                fields["step_gains"] = tuple(step_gains)
                fields["total_gain"] = total_gain
                fields["classification"] = classify(total_gain)
                pathway = new(TracePathway)
                set_attribute(pathway, "__dict__", fields)
                pathways.append(pathway)
            on_path.discard(path.pop().id)
            del step_gains[-1:]  # the start node has no step gain to drop
            continue
        path.append(node)
        on_path.add(node.id)
        step_gains.append(gain)
        pending.append(iter(children_of(node) if len(path) < max_depth else ()))
        leaf = True
    return pathways


class InducedMode(Enum):
    DISUSE = "Disuse"
    MISUSE = "Misuse"


@dataclass(frozen=True)
class SecondOrderEffect:
    origin_sfm_id: int
    induced_mode: InducedMode
    rationale: str


_INDUCED = (
    (InducedMode.DISUSE, "operator ignores the autonomy"),
    (InducedMode.MISUSE, "operator accepts without understanding"),
)


def derive_second_order(
    sfms: list[SpecialisedFailureMode],
    interactions: list[Interaction],
    catalog: LensCatalog,
    *,
    categories: tuple[str, ...] = DEFAULT_SECOND_ORDER_CATEGORIES,
) -> list[SecondOrderEffect]:
    """Disuse/misuse effects induced by machine-to-human failures.

    Every specialisation bound to a MachineToHuman interaction whose generic
    mode falls in one of the trigger ``categories`` yields exactly two
    effects, in sfm order.
    """
    effects: list[SecondOrderEffect] = []
    for sfm in sfms:
        interaction = interaction_by_id(interactions, sfm.interaction_id)
        if interaction.direction is not Direction.MACHINE_TO_HUMAN:
            continue
        mode = catalog.mode_by_id(sfm.generic_mode_id)
        if mode.category not in categories:
            continue
        for induced_mode, rationale in _INDUCED:
            effects.append(SecondOrderEffect(sfm.sfm_id, induced_mode, rationale))
    return effects
