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

Enumeration is one depth-first walk over an explicit stack, so ``max_depth``
alone bounds the depth, not the recursion limit.  The on-path set is a
``bytearray`` indexed by a node's place in ``model.nodes``.  As no maximal path
is a prefix of another, pathways come out in lexicographic order, no sort.
The walk also records each pathway's fork: how many leading nodes it
repeats from the one before, so a writer can spell only the nodes after it.

The loops are cyclic by design; the simple-path restriction is what makes
enumeration finite.  Consequences of a failure repeating over many loop
cycles are covered qualitatively by ``derive_second_order`` instead: a
machine-to-human failure in a comprehensibility-adjacent category can
push the operator toward ignoring the autonomy (disuse) or accepting its
output without understanding (misuse).
"""

from __future__ import annotations

import math
from enum import Enum

from .interactions import Direction, Interaction, interaction_by_id
from .lenses import LensCatalog
from .mapping import SpecialisedFailureMode
from .mitigations import Mitigation, builtin_mitigations
from .model import (ActionNode, ActivityEdge, Ooda2Model, UnknownIdError, _FrozenRecord,
                    _HashRecord, _dataclass)

DEFAULT_MAX_DEPTH = 16
DEFAULT_SECOND_ORDER_CATEGORIES = ("stability", "timely", "uncertainty")


class TraceDirection(Enum):
    UPSTREAM = "up"
    DOWNSTREAM = "down"


class Classification(Enum):
    MITIGATED = "Mitigated"
    NEUTRAL = "Neutral"
    AMPLIFIED = "Amplified"


_MITIGATED, _NEUTRAL, _AMPLIFIED = Classification  # a read through the class is slow


def classify(total_gain: float) -> Classification:
    if total_gain < 1:
        return _MITIGATED
    if total_gain > 1:
        return _AMPLIFIED
    return _NEUTRAL


@_dataclass
class TracePathway(_FrozenRecord):
    """One maximal simple path from an interaction endpoint, with its gains."""

    origin: Interaction
    mode_category: str
    direction: TraceDirection
    nodes: tuple[ActionNode, ...]
    step_gains: tuple[float, ...]
    total_gain: float
    classification: Classification

    def __init__(self, origin, mode_category, direction, nodes, step_gains, total_gain,
                 classification):
        fields = vars(self)
        fields["origin"] = origin
        fields["mode_category"] = mode_category
        fields["direction"] = direction
        fields["nodes"] = nodes
        fields["step_gains"] = step_gains
        fields["total_gain"] = total_gain
        fields["classification"] = classification

    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.id for node in self.nodes)


class Pathways(list):
    """``trace``'s result: a list that also carries ``forks``, where
    ``forks[i]`` is how many leading nodes pathway ``i`` repeats from pathway
    ``i - 1`` (0 for the first), and ``walked``, the pathways as the walk
    emitted them; ``forks`` holds only while the list still holds ``walked``.
    Two unedited ones add up to one that keeps both; other sums are lists."""

    walked, forks = (), ()

    def __add__(self, other):
        joined = list.__add__(self, other)
        if isinstance(other, Pathways) and all(p.walked == tuple(p) for p in (self, other)):
            joined = Pathways(joined)
            joined.walked, joined.forks = self.walked + other.walked, [*self.forks, *other.forks]
        return joined


def _step_graph(model, mode_category, direction, mitigation_catalog):
    """``(index, children, list_children)``: the step-gain table of one model, category
    and direction.  ``index`` numbers each node id by its place in ``model.nodes`` (a
    duplicated id by its last; ``len(model.nodes)`` is free for an endpoint the model
    lacks).  ``list_children(at, tip)`` lists node ``at``'s children into ``children[at]``
    (``None`` before): sorted by id, each with its number and the step gain of the
    first-declared edge to it (a parallel edge would repeat the node sequence)."""
    mitigations = {mit.id: mit for mit in (builtin_mitigations() if mitigation_catalog is None
                                           else mitigation_catalog)}
    index = {node.id: at for at, node in enumerate(model.nodes)}
    children: list[list[tuple[int, ActionNode, float]] | None] = [None] * (len(model.nodes) + 1)

    downstream = direction is TraceDirection.DOWNSTREAM
    arcs: dict[str, list[ActivityEdge]] = {}
    for edge in model.edges:
        arcs.setdefault(edge.from_id if downstream else edge.to_id, []).append(edge)

    def list_children(at: int, tip: ActionNode) -> list[tuple[int, ActionNode, float]]:
        arrivals: dict[str, ActivityEdge] = {}
        for edge in arcs.get(tip.id, ()):
            arrivals.setdefault(edge.to_id if downstream else edge.from_id, edge)
        listed = children[at] = []
        for next_id in sorted(arrivals):
            number = index.get(next_id)
            if number is None:
                raise UnknownIdError(f"model '{model.name}' has no node '{next_id}', which "
                                     f"edge '{arrivals[next_id].id}' names")
            node = model.nodes[number]
            behaviour = node.response.get(mode_category)
            gain = behaviour.coefficient if behaviour is not None else 1.0
            for mit_id in (*node.mitigation_ids, *arrivals[next_id].mitigation_ids):
                mitigation = mitigations.get(mit_id)
                if mitigation is not None and mode_category in mitigation.categories:
                    gain *= mitigation.damping
            listed.append((number, node, gain))
        return listed
    return index, children, list_children


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
    gain is not finite, and ``UnknownIdError`` naming the edge and the node
    id when the walk follows an edge to a node the model does not declare.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    index, children, list_children = _step_graph(model, mode_category, direction,
                                                 mitigation_catalog)
    start = interaction.target if direction is TraceDirection.DOWNSTREAM else interaction.source
    first = index.get(start.id, len(model.nodes))
    on_path = bytearray(len(children))

    # The path as parallel lists, an iterator over each path node's remaining
    # children, and ``leaf``: set by a push, so that the next pop emits.  As a
    # pop right after a push emits, the path is shortest since the last pathway
    # at the first push after it: the next pathway's fork is its length then.
    numbers, path, step_gains = [first], [start], []
    on_path[first] = 1
    pending = [iter(list_children(first, start) if max_depth > 1 else ())]
    leaf = True
    pathways, forks = Pathways(), [0]
    while pending:
        for at, node, gain in pending[-1]:
            if not on_path[at]:
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
                pathways.append(TracePathway(interaction, mode_category, direction,
                                             tuple(path), tuple(step_gains), total_gain,
                                             classify(total_gain)))
            on_path[numbers.pop()] = 0
            path.pop()
            del step_gains[-1:]  # the start node has no step gain to drop
            continue
        if not leaf:
            leaf = True
            forks.append(len(path))
        on_path[at] = 1
        numbers.append(at)
        path.append(node)
        step_gains.append(gain)
        listed = children[at] if len(path) < max_depth else ()
        if listed is None:
            listed = list_children(at, node)
        pending.append(iter(listed))
    pathways.walked, pathways.forks = tuple(pathways), forks
    return pathways


class InducedMode(Enum):
    DISUSE = "Disuse"
    MISUSE = "Misuse"


@_dataclass
class SecondOrderEffect(_HashRecord):
    """A disuse or misuse effect induced by one specialisation."""

    origin_sfm_id: int
    induced_mode: InducedMode
    rationale: str

    def __init__(self, origin_sfm_id, induced_mode, rationale):
        fields = vars(self)
        fields["origin_sfm_id"] = origin_sfm_id
        fields["induced_mode"] = induced_mode
        fields["rationale"] = rationale


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
    # Each id's first interaction and mode, as the lookups find them; a
    # missing id goes to the lookup, which raises its UnknownIdError.
    interactions_by_id = {interaction.i_id: interaction for interaction in reversed(interactions)}
    modes_by_id = {mode.id: mode for mode in reversed(catalog.modes())}
    effects: list[SecondOrderEffect] = []
    for sfm in sfms:
        interaction = interactions_by_id.get(sfm.interaction_id)
        if interaction is None:
            interaction = interaction_by_id(interactions, sfm.interaction_id)
        if interaction.direction is not Direction.MACHINE_TO_HUMAN:
            continue
        mode = modes_by_id.get(sfm.generic_mode_id)
        if mode is None:
            mode = catalog.mode_by_id(sfm.generic_mode_id)
        if mode.category not in categories:
            continue
        for induced_mode, rationale in _INDUCED:
            effects.append(SecondOrderEffect(sfm.sfm_id, induced_mode, rationale))
    return effects
