"""Extraction of human<->machine interactions from an activity model.

An interaction is any edge whose endpoint lanes sit on different sides of
the human/machine boundary.  Interactions are numbered 1..n in edge
declaration order; that numbering is the stable handle everything else
(specialisations, traces, reports) refers to.
"""

from __future__ import annotations

from enum import Enum

from .model import (ActionNode, ActivityEdge, Ooda2Model, Side, Stage, _FrozenRecord, _dataclass,
                    _first)


class Direction(Enum):
    MACHINE_TO_HUMAN = "m2h"
    HUMAN_TO_MACHINE = "h2m"

    def display(self) -> str:
        return "Machine->Human" if self._value_ == "m2h" else "Human->Machine"


@_dataclass
class Interaction(_FrozenRecord):
    """An edge that crosses the human/machine boundary, numbered ``i_id``."""

    i_id: int
    name: str
    source: ActionNode
    target: ActionNode
    direction: Direction
    machine_stage: Stage
    human_stage: Stage
    edge: ActivityEdge

    def __init__(self, i_id, name, source, target, direction, machine_stage, human_stage, edge):
        fields = vars(self)
        fields["i_id"] = i_id
        fields["name"] = name
        fields["source"] = source
        fields["target"] = target
        fields["direction"] = direction
        fields["machine_stage"] = machine_stage
        fields["human_stage"] = human_stage
        fields["edge"] = edge


def extract_interactions(model: Ooda2Model) -> list[Interaction]:
    """Boundary-crossing edges as numbered interactions, in declaration order.

    Expects a model that passed Lenient validation (references resolve).
    """
    lanes = model.lanes_by_id()
    nodes = model.nodes_by_id()
    interactions: list[Interaction] = []
    for edge in model.edges:
        source, target = nodes[edge.from_id], nodes[edge.to_id]
        source_side = lanes[source.lane_id].side
        target_side = lanes[target.lane_id].side
        if source_side is target_side:
            continue
        if source_side is Side.MACHINE:
            direction = Direction.MACHINE_TO_HUMAN
            machine_stage, human_stage = source.stage, target.stage
        else:
            direction = Direction.HUMAN_TO_MACHINE
            machine_stage, human_stage = target.stage, source.stage
        interactions.append(Interaction(
            i_id=len(interactions) + 1,
            name=edge.name if edge.name is not None else target.label,
            source=source,
            target=target,
            direction=direction,
            machine_stage=machine_stage,
            human_stage=human_stage,
            edge=edge,
        ))
    return interactions


def interaction_by_id(interactions: list[Interaction], i_id: int) -> Interaction:
    """Return the interaction numbered ``i_id`` or raise UnknownIdError."""
    return _first(interactions, "i_id", i_id, f"no interaction {i_id}")
