"""Acceptance gate for the whole pipeline.

Eight end-to-end criteria, one test each.  Every test prints a single
``ACCEPTANCE n: PASS/FAIL - <what it checks>`` line to the real stdout so
the gate's verdict is visible even under pytest's capture, and then fails
loudly through the usual assertion machinery if the criterion is not met.
"""

from __future__ import annotations

import math
import random
import sys
import time

from hatlens import (
    Classification,
    GainBehaviour,
    InducedMode,
    Lane,
    LaneKind,
    ActionNode,
    ActivityEdge,
    Ooda2Model,
    Side,
    Stage,
    TraceDirection,
    apply_specialisations,
    builtin_catalog,
    builtin_mitigations,
    classify,
    derive_second_order,
    emit_csv,
    extract_interactions,
    map_failure_modes,
    node_lookup,
    node_side,
    parse_lens_catalog,
    parse_mitigation_catalog,
    parse_model,
    parse_sfm_bindings,
    serialize_lens_catalog,
    serialize_mitigation_catalog,
    serialize_model,
    serialize_sfm_bindings,
    trace,
)

from conftest import FIXTURE_ROOT, random_model, reachable_within, tower_inputs

CSV_HEADER_LINE = (
    "I ID,SFM ID,Interaction Name,Machine Stage,Human Stage,Direction,"
    "Generic Failure Mode,Specialised Failure Mode"
)

SPECIALISED_ROWS = [
    "3,3,Observe Landing Sequence,Decide,Observe,Machine->Human,"
    "Autonomy output is unstable,"
    "The recommended sequence is changing frequently",
    "3,4,Observe Landing Sequence,Decide,Observe,Machine->Human,"
    "Autonomy output is not understandable in a timely manner,"
    "The recommendation is incomprehensible to the operator",
    "3,5,Observe Landing Sequence,Decide,Observe,Machine->Human,"
    "Autonomy output is not understandable in a timely manner,"
    "The recommendation requires too much cognition time from the operator"
    " to understand",
]

MACHINE_QUESTIONS = {
    "accuracy": (
        "For an input sampled from a given distribution, what is the probability "
        "that the system produces an acceptable response?"
    ),
    "bias": (
        "Is there persistent structure to unacceptable responses produced by the "
        "system?"
    ),
    "variability": (
        "If the same input is repeatedly presented to the system, how constant is "
        "the system’s response?"
    ),
    "stability": (
        "If a small change is made to the system’s input, how much does the "
        "system’s output change?"
    ),
    "uncertainty": (
        "How does the system handle inputs with differing levels of confidence, and "
        "how does the system report the confidence level of its output?"
    ),
    "robustness": (
        "Does the system’s performance degrade gracefully for inputs sampled "
        "near the edge or slightly outside the system’s design domain?"
    ),
}


def _report(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description}", file=sys.__stdout__)


def _chain_model(gains, category: str,
                 mitigated_steps: frozenset[int] = frozenset()) -> Ooda2Model:
    """A machine decide node feeding a linear human-side chain.

    ``gains[i]`` (a GainBehaviour or None) becomes the response of chain
    node ``i``; step 0 is the interaction target.  Steps listed in
    ``mitigated_steps`` also carry the builtin input-hysteresis mitigation.
    """
    lanes = [
        Lane(id="h", side=Side.HUMAN, kind=LaneKind.OPERATOR, display_name="Operator"),
        Lane(id="m", side=Side.MACHINE, kind=LaneKind.AUTONOMY, display_name="Autonomy"),
    ]
    nodes = [ActionNode(id="src", lane_id="m", stage=Stage.DECIDE, label="Emit")]
    edges = []
    previous = "src"
    for index, gain in enumerate(gains):
        node_id = f"c{index}"
        response = {} if gain is None else {category: gain}
        mitigation_ids = ["hysteresis"] if index in mitigated_steps else []
        nodes.append(ActionNode(
            id=node_id, lane_id="h", stage=Stage.OBSERVE, label=f"Step {index}",
            response=response, mitigation_ids=mitigation_ids))
        edges.append(ActivityEdge(
            id=f"e{index + 1}", from_id=previous, to_id=node_id))
        previous = node_id
    return Ooda2Model(name="Chain", lanes=lanes, nodes=nodes, edges=edges)


def test_acceptance_1_scenario_table_rows():
    ok = False
    try:
        started = time.perf_counter()
        tower = tower_inputs()
        table = apply_specialisations(
            map_failure_modes(tower.interactions, tower.catalog), tower.sfms)
        text = emit_csv(table)
        elapsed = time.perf_counter() - started

        lines = text.splitlines()
        assert lines[0] == CSV_HEADER_LINE
        for expected_row in SPECIALISED_ROWS:
            assert expected_row in lines
        specialised = [line for line in lines[1:] if line.split(",")[1] != ""]
        assert specialised == SPECIALISED_ROWS
        assert elapsed < 1.0, f"table generation took {elapsed:.3f}s"
        ok = True
    finally:
        _report(1, ok, "scenario report header and all three specialised rows "
                       "byte-exact in under one second")


def test_acceptance_2_downstream_pathways_reach_decision():
    ok = False
    try:
        started = time.perf_counter()
        tower = tower_inputs()
        interaction = next(i for i in tower.interactions if i.i_id == 3)
        pathways = trace(tower.model, interaction, "timely",
                         TraceDirection.DOWNSTREAM,
                         mitigation_catalog=tower.mitigations)
        elapsed = time.perf_counter() - started

        assert pathways
        decide = node_lookup(tower.model, "h_decide")
        assert decide.stage is Stage.DECIDE
        assert node_side(tower.model, decide) is Side.HUMAN
        for pathway in pathways:
            assert "h_decide" in pathway.node_ids()
        assert elapsed < 1.0, f"downstream trace took {elapsed:.3f}s"
        ok = True
    finally:
        _report(2, ok, "every downstream pathway from the recommendation "
                       "handoff passes the operator's decide node in under "
                       "one second")


def test_acceptance_3_upstream_causes_cover_both_mechanisms():
    ok = False
    try:
        tower = tower_inputs()
        interaction = next(i for i in tower.interactions if i.i_id == 3)
        pathways = trace(tower.model, interaction, "stability",
                         TraceDirection.UPSTREAM,
                         mitigation_catalog=tower.mitigations)
        assert pathways
        causes: set[str] = set()
        for pathway in pathways:
            for node_id in pathway.node_ids():
                causes.update(node_lookup(tower.model, node_id).causes)
        assert {"robustness", "stability"} <= causes
        ok = True
    finally:
        _report(3, ok, "upstream pathways cover nodes tagged with both the "
                       "edge-of-envelope and the input-sensitivity cause")


def test_acceptance_4_second_order_modes():
    ok = False
    try:
        tower = tower_inputs()
        sfm4 = next(sfm for sfm in tower.sfms if sfm.sfm_id == 4)
        effects = derive_second_order([sfm4], tower.interactions, tower.catalog)
        assert {effect.induced_mode for effect in effects} \
            == {InducedMode.DISUSE, InducedMode.MISUSE}
        assert len(effects) == 2
        ok = True
    finally:
        _report(4, ok, "second-order derivation for the timeliness binding "
                       "induces exactly Disuse and Misuse")


def test_acceptance_5_gain_algebra():
    ok = False
    try:
        catalog = builtin_mitigations()

        def sole_pathway(model):
            interaction = extract_interactions(model)[0]
            pathways = trace(model, interaction, category,
                             TraceDirection.DOWNSTREAM,
                             mitigation_catalog=catalog)
            assert len(pathways) == 1
            return pathways[0]

        # An amplifying step followed by a hysteresis-mitigated step nets out.
        category = "stability"
        netted = sole_pathway(_chain_model(
            [None, GainBehaviour.amplify(2.0), None], category,
            mitigated_steps=frozenset({2})))
        assert netted.total_gain == 1.0
        assert netted.classification in (Classification.MITIGATED,
                                         Classification.NEUTRAL)

        # Two amplifying steps in sequence compound.
        stacked = sole_pathway(_chain_model(
            [None, GainBehaviour.amplify(2.0), GainBehaviour.amplify(2.0)],
            category))
        assert stacked.total_gain == 4.0
        assert stacked.classification is Classification.AMPLIFIED

        # The classification threshold sits exactly at one.
        assert classify(1.0) is Classification.NEUTRAL
        assert classify(math.nextafter(1.0, 2.0)) is Classification.AMPLIFIED
        assert classify(math.nextafter(1.0, 0.0)) is Classification.MITIGATED

        category = "accuracy"
        rng = random.Random(5000)
        for _ in range(1000):
            gains = []
            for _ in range(rng.randint(1, 5)):
                roll = rng.random()
                if roll < 0.4:
                    gains.append(GainBehaviour.amplify(rng.uniform(1.01, 4.0)))
                elif roll < 0.8:
                    gains.append(GainBehaviour.dampen(rng.uniform(0.05, 0.99)))
                else:
                    gains.append(GainBehaviour.neutral())
            expected = 1.0
            for gain in gains:
                expected *= gain.coefficient
            if expected > 1.0:
                assert classify(expected) is Classification.AMPLIFIED
            elif expected < 1.0:
                assert classify(expected) is Classification.MITIGATED
            else:
                assert classify(expected) is Classification.NEUTRAL

        for _ in range(100):
            gains = [None] + [
                rng.choice([
                    GainBehaviour.amplify(rng.uniform(1.01, 4.0)),
                    GainBehaviour.dampen(rng.uniform(0.05, 0.99)),
                    GainBehaviour.neutral(),
                ])
                for _ in range(rng.randint(1, 4))
            ]
            pathway = sole_pathway(_chain_model(gains, category))
            expected = 1.0
            for gain in gains[1:]:
                expected *= gain.coefficient
            assert pathway.total_gain == expected
            assert pathway.classification is classify(expected)
        ok = True
    finally:
        _report(5, ok, "gain algebra: amplify-then-hysteresis nets to one, "
                       "stacked amplifiers compound, classification "
                       "threshold exact at one")


def test_acceptance_6_oracle_equivalence():
    ok = False
    try:
        checked = 0
        traced = 0
        seed = 20000
        while checked < 1000 or traced < 1000:
            rng = random.Random(seed)
            seed += 1
            model = random_model(rng)
            assert len(model.nodes) <= 30
            checked += 1

            side_of = {lane.id: lane.side for lane in model.lanes}
            nodes = {node.id: node for node in model.nodes}
            expected = []
            for edge in model.edges:
                source = nodes[edge.from_id]
                target = nodes[edge.to_id]
                if side_of[source.lane_id] is side_of[target.lane_id]:
                    continue
                if side_of[source.lane_id] is Side.MACHINE:
                    machine_stage, human_stage = source.stage, target.stage
                    direction = "m2h"
                else:
                    machine_stage, human_stage = target.stage, source.stage
                    direction = "h2m"
                expected.append((
                    len(expected) + 1, source.id, target.id, direction,
                    machine_stage, human_stage, edge.name or target.label,
                ))
            interactions = extract_interactions(model)
            assert [
                (i.i_id, i.source.id, i.target.id, i.direction.value,
                 i.machine_stage, i.human_stage, i.name)
                for i in interactions
            ] == expected

            if not interactions:
                continue
            traced += 1
            interaction = interactions[0]
            depths = (4, 16) if traced % 5 == 0 else (4,)
            for direction in (TraceDirection.DOWNSTREAM, TraceDirection.UPSTREAM):
                start = (interaction.target.id
                         if direction is TraceDirection.DOWNSTREAM
                         else interaction.source.id)
                for max_depth in depths:
                    pathways = trace(model, interaction, "accuracy", direction,
                                     max_depth=max_depth)
                    covered = set()
                    for pathway in pathways:
                        covered.update(pathway.node_ids())
                    assert covered == reachable_within(
                        model, start, max_depth, direction)
        assert checked >= 1000
        assert traced >= 1000
        ok = True
    finally:
        _report(6, ok, "interaction extraction and trace coverage match "
                       "brute-force oracles on 1000+ random models with zero "
                       "mismatches")


def test_acceptance_7_round_trip_identity():
    ok = False
    try:
        for index in range(1000):
            rng = random.Random(10000 + index)
            model = random_model(rng)
            assert parse_model(serialize_model(model)) == model

        round_trips = {
            ".hat": (parse_model, serialize_model),
            ".lens": (parse_lens_catalog, serialize_lens_catalog),
            ".sfm": (parse_sfm_bindings, serialize_sfm_bindings),
            ".mit": (parse_mitigation_catalog, serialize_mitigation_catalog),
        }
        canonical_files = 0
        for path in sorted(FIXTURE_ROOT.rglob("*")):
            handlers = round_trips.get(path.suffix)
            if handlers is None:
                continue
            parse, serialize = handlers
            text = path.read_text(encoding="utf-8")
            assert serialize(parse(text)) == text, f"{path.name} is not canonical"
            canonical_files += 1
        assert canonical_files == 5
        ok = True
    finally:
        _report(7, ok, "parse/serialize identity on 1000 random models and "
                       "byte-identical re-serialization of every bundled "
                       "input file")


def test_acceptance_8_builtin_lens_counts():
    ok = False
    try:
        catalog = builtin_catalog()
        machine = catalog.lens_by_id("machine")
        assert len(machine.modes) == 6
        assert {mode.id: mode.question for mode in machine.modes} \
            == MACHINE_QUESTIONS
        human = catalog.lens_by_id("human_intent")
        assert len(human.modes) == 4
        assert [mode.id for mode in human.modes] == ["use", "misuse", "abuse",
                                                     "disuse"]
        ok = True
    finally:
        _report(8, ok, "builtin lenses: six machine modes with verbatim "
                       "questions, four human-intent modes")
