"""Shared helpers: fixture locations, the ATC inputs, a reachability oracle
and a seeded random model generator.

The generator builds arbitrary but always-valid models (builtin-known
category and mitigation tokens, non-empty labels, no self loops) whose
labels deliberately exercise quoting, escapes, and non-ASCII text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from hatlens import (
    ActionNode,
    ActivityEdge,
    GainBehaviour,
    Interaction,
    Lane,
    LaneKind,
    LensCatalog,
    Mitigation,
    Ooda2Model,
    Side,
    SpecialisedFailureMode,
    Stage,
    TraceDirection,
    extract_interactions,
    load_fixture,
    parse_model,
)
from hatlens.fixtures import _inputs

FIXTURE_ROOT = Path(__file__).resolve().parent.parent / "src" / "hatlens" / "fixtures"

BUILTIN_CATEGORIES = [
    "accuracy", "bias", "variability", "stability", "uncertainty", "robustness",
    "use", "misuse", "abuse", "disuse",
]
BUILTIN_MITIGATION_IDS = [
    "odd_notification", "odd_margin", "trust_calibration", "operator_monitoring",
    "hysteresis",
]

_LABEL_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " \"\\#=->:,.()éß→"
)

_KINDS_FOR_SIDE = {
    Side.HUMAN: [LaneKind.OPERATOR, LaneKind.OTHER],
    Side.MACHINE: [LaneKind.AUTONOMY, LaneKind.HMI, LaneKind.OTHER],
}


@dataclass(frozen=True)
class TowerInputs:
    """Parsed inputs of the bundled landing-sequence scenario."""

    model: Ooda2Model
    interactions: list[Interaction]
    catalog: LensCatalog
    sfms: list[SpecialisedFailureMode]
    mitigations: list[Mitigation]


def tower_inputs() -> TowerInputs:
    model, catalog, mitigations, sfms = _inputs(load_fixture("atc"))
    return TowerInputs(
        model=model,
        interactions=extract_interactions(model),
        catalog=catalog,
        sfms=sfms,
        mitigations=mitigations,
    )


def trace_adjacency(model: Ooda2Model, direction: TraceDirection) -> dict[str, set[str]]:
    """Each node's neighbours one edge away in the trace direction."""
    adjacency: dict[str, set[str]] = {}
    for edge in model.edges:
        here, there = ((edge.from_id, edge.to_id) if direction is TraceDirection.DOWNSTREAM
                       else (edge.to_id, edge.from_id))
        adjacency.setdefault(here, set()).add(there)
    return adjacency


def reachable_within(model: Ooda2Model, start: str, max_depth: int,
                     direction: TraceDirection) -> set[str]:
    """Breadth-first reachability oracle: the nodes within ``max_depth - 1``
    hops of ``start`` in the trace direction, which a trace's pathways cover."""
    adjacency = trace_adjacency(model, direction)
    seen = {start}
    frontier = {start}
    for _ in range(max_depth - 1):
        frontier = {there for here in frontier for there in adjacency.get(here, ())} - seen
        seen |= frontier
    return seen


def random_label(rng: random.Random) -> str:
    return "".join(rng.choice(_LABEL_ALPHABET) for _ in range(rng.randint(1, 14)))


def random_gain(rng: random.Random) -> GainBehaviour:
    roll = rng.random()
    if roll < 0.4:
        return GainBehaviour.amplify(round(rng.uniform(1.1, 4.0), 3))
    if roll < 0.8:
        return GainBehaviour.dampen(round(rng.uniform(0.05, 0.95), 3))
    return GainBehaviour.neutral()


def random_model(rng: random.Random, max_nodes: int = 30) -> Ooda2Model:
    """A structurally valid model with up to ``max_nodes`` nodes."""
    node_count = rng.randint(1, max_nodes)
    lane_count = rng.randint(1, 4) if node_count > 1 else 1
    lanes = []
    for index in range(lane_count):
        # With several lanes, pin the first two to opposite sides so most
        # generated models contain at least one boundary crossing.
        if lane_count >= 2 and index < 2:
            side = Side.HUMAN if index == 0 else Side.MACHINE
        else:
            side = rng.choice([Side.HUMAN, Side.MACHINE])
        lanes.append(Lane(
            id=f"lane{index}",
            side=side,
            kind=rng.choice(_KINDS_FOR_SIDE[side]),
            display_name=random_label(rng),
        ))

    nodes = []
    for index in range(node_count):
        response = {
            category: random_gain(rng)
            for category in rng.sample(BUILTIN_CATEGORIES, rng.randint(0, 2))
        }
        causes = rng.sample(BUILTIN_CATEGORIES, rng.randint(0, 2))
        mitigation_ids = rng.sample(BUILTIN_MITIGATION_IDS, rng.randint(0, 1))
        nodes.append(ActionNode(
            id=f"n{index}",
            lane_id=rng.choice(lanes).id,
            stage=rng.choice(list(Stage)),
            label=random_label(rng),
            response=response,
            causes=causes,
            mitigation_ids=mitigation_ids,
        ))

    edges = []

    def add_edge(from_id: str, to_id: str) -> None:
        edges.append(ActivityEdge(
            id=f"e{len(edges) + 1}",
            from_id=from_id,
            to_id=to_id,
            guard=random_label(rng) if rng.random() < 0.15 else None,
            name=random_label(rng) if rng.random() < 0.15 else None,
            mitigation_ids=rng.sample(BUILTIN_MITIGATION_IDS, 1) if rng.random() < 0.1 else [],
        ))

    if node_count > 1:
        for _ in range(rng.randint(0, node_count + 4)):
            from_node, to_node = rng.sample(nodes, 2)
            add_edge(from_node.id, to_node.id)
        by_lane_side = {lane.id: lane.side for lane in lanes}
        humans = [n for n in nodes if by_lane_side[n.lane_id] is Side.HUMAN]
        machines = [n for n in nodes if by_lane_side[n.lane_id] is Side.MACHINE]
        if humans and machines and rng.random() < 0.9:
            # One guaranteed crossing in either direction.
            source, target = rng.choice(humans), rng.choice(machines)
            if rng.random() < 0.5:
                source, target = target, source
            add_edge(source.id, target.id)

    return Ooda2Model(
        name=random_label(rng),
        lanes=lanes,
        nodes=nodes,
        edges=edges,
    )


def add_parallel_edges(model: Ooda2Model, rng: random.Random) -> Ooda2Model:
    """``model`` with up to three of its edges declared a second time, each
    copy carrying a mitigation: tracing follows only the first-declared
    edge of a node pair, so a copy's mitigation must never damp a step."""
    edges = list(model.edges)
    for edge in rng.sample(model.edges, min(len(model.edges), rng.randint(0, 3))):
        edges.append(ActivityEdge(
            id=f"e{len(edges) + 1}",
            from_id=edge.from_id,
            to_id=edge.to_id,
            mitigation_ids=rng.sample(BUILTIN_MITIGATION_IDS, 1),
        ))
    return replace(model, edges=edges)


def complete_model(size):
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


def pinned_corpus():
    """150 models, the same on every run: ``random_model`` of up to 20 nodes
    with up to three parallel edges, and in every eighth model half the
    nodes amplifying ``robustness`` by 1e200, so that its longer pathways
    overflow."""
    rng = random.Random(16)
    for index in range(150):
        model = add_parallel_edges(random_model(rng, 20), rng)
        if index % 8 == 7:
            huge = {node.id for node in rng.sample(model.nodes, (len(model.nodes) + 1) // 2)}
            model = replace(model, nodes=[
                replace(node, response={**node.response,
                                        "robustness": GainBehaviour.amplify(1e200)})
                if node.id in huge else node
                for node in model.nodes])
        yield model
