"""Tests for boundary-crossing interaction extraction.

The load-bearing check is an independent oracle: re-derive the expected
interaction list from first principles (walk the edge list, look the lane
sides up by hand, keep the cross-side ones) and compare field by field
against ``extract_interactions`` over hundreds of random models.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from conftest import FIXTURE_ROOT, random_model
from hatlens import (
    Direction,
    Side,
    Stage,
    UnknownIdError,
    extract_interactions,
    interaction_by_id,
    parse_model,
)

MODEL_PREFIX = (
    'model "Demo"\n'
    'lane h side=human kind=operator "Human"\n'
    'lane m side=machine kind=autonomy "Machine"\n'
    'node a lane=m stage=act "Publish"\n'
    'node b lane=h stage=observe "Watch"\n'
    'node c lane=h stage=decide "Choose"\n'
    'node d lane=m stage=observe "Ingest"\n'
)


def brute_force_interactions(model):
    """The definition, restated: cross-side edges in declaration order."""
    side_of_lane = {lane.id: lane.side for lane in model.lanes}
    label_of = {node.id: node for node in model.nodes}
    expected = []
    for edge in model.edges:
        source = label_of[edge.from_id]
        target = label_of[edge.to_id]
        if side_of_lane[source.lane_id] is not side_of_lane[target.lane_id]:
            expected.append((edge, source, target))
    return expected


def test_random_models_match_the_brute_force_filter():
    for seed in range(300):
        rng = random.Random(1000 + seed)
        model = random_model(rng)
        expected = brute_force_interactions(model)
        actual = extract_interactions(model)
        assert len(actual) == len(expected), f"seed {seed}"
        side_of_lane = {lane.id: lane.side for lane in model.lanes}
        for number, (interaction, (edge, source, target)) in enumerate(
                zip(actual, expected), start=1):
            assert interaction.i_id == number
            assert interaction.edge is edge
            assert interaction.source is source
            assert interaction.target is target
            if side_of_lane[source.lane_id] is Side.MACHINE:
                assert interaction.direction is Direction.MACHINE_TO_HUMAN
                assert interaction.machine_stage is source.stage
                assert interaction.human_stage is target.stage
            else:
                assert interaction.direction is Direction.HUMAN_TO_MACHINE
                assert interaction.machine_stage is target.stage
                assert interaction.human_stage is source.stage
            expected_name = edge.name if edge.name is not None else target.label
            assert interaction.name == expected_name


def test_intra_side_edges_are_ignored():
    text = MODEL_PREFIX + "edge b -> c\nedge a -> d\n"
    assert extract_interactions(parse_model(text)) == []


def test_edge_name_overrides_target_label_as_interaction_name():
    named = MODEL_PREFIX + 'edge a -> b name="Show status"\n'
    unnamed = MODEL_PREFIX + "edge a -> b\n"
    assert extract_interactions(parse_model(named))[0].name == "Show status"
    assert extract_interactions(parse_model(unnamed))[0].name == "Watch"


def test_direction_and_stage_columns_per_direction():
    text = MODEL_PREFIX + "edge a -> b\nedge c -> d\n"
    first, second = extract_interactions(parse_model(text))
    assert first.direction is Direction.MACHINE_TO_HUMAN
    assert first.direction.display() == "Machine->Human"
    assert (first.machine_stage, first.human_stage) == (Stage.ACT, Stage.OBSERVE)
    assert second.direction is Direction.HUMAN_TO_MACHINE
    assert second.direction.display() == "Human->Machine"
    assert (second.machine_stage, second.human_stage) == (Stage.OBSERVE, Stage.DECIDE)


def test_numbering_follows_edge_declaration_order():
    text = MODEL_PREFIX + (
        "edge a -> d\n"       # intra-side, skipped
        "edge a -> b\n"       # I1
        "edge b -> c\n"       # intra-side, skipped
        "edge c -> d\n"       # I2
    )
    interactions = extract_interactions(parse_model(text))
    assert [i.i_id for i in interactions] == [1, 2]
    assert [i.edge.id for i in interactions] == ["e2", "e4"]


def test_interaction_by_id_lookup_and_error():
    interactions = extract_interactions(
        parse_model(MODEL_PREFIX + "edge a -> b\nedge c -> d\n"))
    assert interaction_by_id(interactions, 2).direction is Direction.HUMAN_TO_MACHINE
    with pytest.raises(UnknownIdError, match=r"^no interaction 7$"):
        interaction_by_id(interactions, 7)
    # An id declared twice finds its first declaration.
    twice = [*interactions, dataclasses.replace(interactions[0], i_id=2)]
    assert interaction_by_id(twice, 2) is interactions[1]


def test_bundled_tower_model_interactions():
    model = parse_model((FIXTURE_ROOT / "atc" / "atc.hat").read_text(encoding="utf-8"))
    interactions = extract_interactions(model)
    rows = [
        (i.i_id, i.name, i.machine_stage.display(), i.human_stage.display(),
         i.direction.display())
        for i in interactions
    ]
    assert rows == [
        (1, "Observe traffic picture", "Observe", "Observe", "Machine->Human"),
        (2, "Observe current schedule", "Observe", "Observe", "Machine->Human"),
        (3, "Observe Landing Sequence", "Decide", "Observe", "Machine->Human"),
        (4, "Ingest controller's selected sequence", "Observe", "Decide",
         "Human->Machine"),
    ]
    third = interaction_by_id(interactions, 3)
    assert third.source.id == "hmi_recommend"
    assert third.target.id == "h_obs_reco"
