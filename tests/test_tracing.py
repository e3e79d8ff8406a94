"""Tests for pathway tracing, gain algebra, and second-order effects.

Three independent oracles carry the load:

* enumeration: the pathways, their step gains and total gains must equal
  those of a plain recursive enumeration of maximal simple paths over the
  first-declared edge of each node pair, sorted afterwards;
* node coverage: the union of nodes over all traced pathways must equal
  plain breadth-first reachability within ``max_depth - 1`` edges, because
  shortest paths are simple and every explored prefix extends to a recorded
  pathway;
* classification: the product of step gains compared against exactly 1,
  checked right up to the adjacent floating-point values.

Four metamorphic relations compare traces of related models, so they check
the rules themselves rather than a second copy of them: reversing every
edge turns an upstream trace into a downstream one, a node mitigation
lowers exactly the totals of the pathways that pass it, lowering a node's
response to dampen moves no pathway toward Amplified, and renaming nodes
in order renames every trace and its JSON.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BUILTIN_CATEGORIES, add_parallel_edges, pinned_corpus, random_model, reachable_within,
    tower_inputs, trace_adjacency,
)
from hatlens import (
    Classification,
    DEFAULT_MAX_DEPTH,
    GainBehaviour,
    GainKind,
    InducedMode,
    Mitigation,
    Placement,
    ReportBundle,
    SpecialisedFailureMode,
    TraceDirection,
    TracePathway,
    UnknownIdError,
    builtin_mitigations,
    classify,
    derive_second_order,
    emit_dot,
    emit_json,
    extract_interactions,
    interaction_by_id,
    parse_model,
    serialize_model,
    trace,
)
from hatlens.report import pathway_label

CHAIN_PREFIX = (
    'model "Chain"\n'
    'lane h side=human kind=operator "Human"\n'
    'lane m side=machine kind=autonomy "Machine"\n'
    'node src lane=m stage=decide "Recommend"\n'
    'node w lane=h stage=observe "Watch"\n'
)


def chain_model(*statements):
    return parse_model(CHAIN_PREFIX + "".join(f"{s}\n" for s in statements))


def single_interaction(model):
    interactions = extract_interactions(model)
    assert len(interactions) == 1
    return interactions[0]


def tower_trace_inputs():
    tower = tower_inputs()
    return tower.model, tower.interactions, tower.catalog, tower.sfms


# ---------------------------------------------------------------------------
# Classification.

def test_classify_threshold_sits_exactly_at_one():
    assert classify(1.0) is Classification.NEUTRAL
    assert classify(math.nextafter(1.0, 0.0)) is Classification.MITIGATED
    assert classify(math.nextafter(1.0, 2.0)) is Classification.AMPLIFIED
    assert classify(0.25) is Classification.MITIGATED
    assert classify(4.0) is Classification.AMPLIFIED


@given(st.floats(min_value=0.0, max_value=1e6, exclude_min=True))
def test_classify_matches_the_comparison_with_one(total_gain):
    expected = (Classification.MITIGATED if total_gain < 1
                else Classification.AMPLIFIED if total_gain > 1
                else Classification.NEUTRAL)
    assert classify(total_gain) is expected


# ---------------------------------------------------------------------------
# Gain algebra on hand-built chains.

def test_amplifier_followed_by_damper_lands_exactly_on_neutral():
    model = chain_model(
        'node x lane=h stage=orient "Digest" response.stability=amplify:2.0',
        'node y lane=h stage=decide "Choose" mitigation=hysteresis',
        "edge src -> w",
        "edge w -> x",
        "edge x -> y",
    )
    (pathway,) = trace(model, single_interaction(model), "stability",
                       TraceDirection.DOWNSTREAM)
    assert pathway.node_ids() == ("w", "x", "y")
    assert pathway.step_gains == (2.0, 0.5)
    assert pathway.total_gain == 1.0
    assert pathway.classification is Classification.NEUTRAL


def test_two_sequential_amplifiers_compound():
    model = chain_model(
        'node x lane=h stage=orient "Digest" response.stability=amplify:2.0',
        'node y lane=h stage=decide "Choose" response.stability=amplify:2.0',
        "edge src -> w",
        "edge w -> x",
        "edge x -> y",
    )
    (pathway,) = trace(model, single_interaction(model), "stability",
                       TraceDirection.DOWNSTREAM)
    assert pathway.step_gains == (2.0, 2.0)
    assert pathway.total_gain == 4.0
    assert pathway.classification is Classification.AMPLIFIED


def test_gains_apply_only_to_the_traced_category():
    model = chain_model(
        'node x lane=h stage=orient "Digest" response.stability=amplify:2.0',
        'node y lane=h stage=decide "Choose" mitigation=hysteresis',
        "edge src -> w",
        "edge w -> x",
        "edge x -> y",
    )
    (pathway,) = trace(model, single_interaction(model), "accuracy",
                       TraceDirection.DOWNSTREAM)
    assert pathway.step_gains == (1.0, 1.0)
    assert pathway.classification is Classification.NEUTRAL


def test_edge_and_node_mitigations_both_damp_the_arriving_step():
    damper = Mitigation(
        id="damper", name="Damper", categories=("stability",),
        placement=Placement.EDGE, detail="", damping=0.25,
    )
    model = chain_model(
        'node x lane=h stage=orient "Digest"'
        " response.stability=amplify:2.0 mitigation=damper",
        "edge src -> w",
        "edge w -> x mitigation=damper",
    )
    (pathway,) = trace(model, single_interaction(model), "stability",
                       TraceDirection.DOWNSTREAM, mitigation_catalog=[damper])
    assert pathway.step_gains == (2.0 * 0.25 * 0.25,)
    assert pathway.classification is Classification.MITIGATED


def test_the_starting_endpoint_contributes_no_gain():
    model = chain_model(
        "edge src -> w",
    )
    interaction = single_interaction(model)
    (downstream,) = trace(model, interaction, "stability", TraceDirection.DOWNSTREAM)
    assert downstream.node_ids() == ("w",)
    assert downstream.step_gains == ()
    assert downstream.total_gain == 1.0
    assert downstream.classification is Classification.NEUTRAL


def test_unknown_mitigation_ids_are_ignored_by_tracing():
    model = chain_model(
        'node x lane=h stage=orient "Digest" mitigation=hysteresis',
        "edge src -> w",
        "edge w -> x",
    )
    with_builtins = trace(model, single_interaction(model), "stability",
                          TraceDirection.DOWNSTREAM)
    assert with_builtins[0].step_gains == (0.5,)
    bare = trace(model, single_interaction(model), "stability",
                 TraceDirection.DOWNSTREAM, mitigation_catalog=[])
    assert bare[0].step_gains == (1.0,)


def test_parallel_edges_follow_the_first_declared_edge_only():
    model = chain_model(
        'node x lane=h stage=orient "Digest" response.stability=amplify:2.0',
        "edge src -> w",
        "edge w -> x",
        "edge w -> x mitigation=hysteresis",
    )
    pathways = trace(model, single_interaction(model), "stability",
                     TraceDirection.DOWNSTREAM)
    assert len(pathways) == 1
    # The hysteresis on the second, unfollowed edge must not damp the step.
    assert pathways[0].step_gains == (2.0,)


# ---------------------------------------------------------------------------
# Path enumeration.

def test_max_depth_one_returns_just_the_endpoint():
    model = chain_model(
        'node x lane=h stage=orient "Digest"',
        "edge src -> w",
        "edge w -> x",
    )
    (pathway,) = trace(model, single_interaction(model), "stability",
                       TraceDirection.DOWNSTREAM, max_depth=1)
    assert pathway.node_ids() == ("w",)
    assert pathway.total_gain == 1.0


def test_max_depth_below_one_is_rejected():
    model = chain_model("edge src -> w")
    with pytest.raises(ValueError, match=r"max_depth must be >= 1, got 0"):
        trace(model, single_interaction(model), "stability",
              TraceDirection.DOWNSTREAM, max_depth=0)


def test_upstream_walks_reversed_edges_from_the_source():
    model = chain_model(
        'node pre lane=m stage=orient "Assemble" response.stability=amplify:3.0',
        "edge pre -> src",
        "edge src -> w",
    )
    interactions = extract_interactions(model)
    (pathway,) = trace(model, interactions[0], "stability", TraceDirection.UPSTREAM)
    assert pathway.node_ids() == ("src", "pre")
    assert pathway.step_gains == (3.0,)
    assert pathway.direction is TraceDirection.UPSTREAM


def test_a_chain_longer_than_the_recursion_limit_is_one_pathway():
    length = sys.getrecursionlimit() + 100
    steps = [f'node c{index:05d} lane=h stage=orient "Step"' for index in range(length)]
    model = chain_model(*steps, "edge src -> w", "edge w -> c00000",
                        *(f"edge c{index:05d} -> c{index + 1:05d}" for index in range(length - 1)))
    (pathway,) = trace(model, single_interaction(model), "stability",
                       TraceDirection.DOWNSTREAM, max_depth=length + 10)
    assert pathway.node_ids() == ("w", *(f"c{index:05d}" for index in range(length)))
    assert pathway.step_gains == (1.0,) * length
    assert (pathway.total_gain, pathway.classification) == (1.0, Classification.NEUTRAL)


def _traced(model, interaction, **options):
    """Each direction's pathways as (ids, labels, step gains, total repr,
    classification), or the type and text of the exception it raised."""
    outcomes = []
    for direction in TraceDirection:
        try:
            outcomes.append([(p.node_ids(), tuple(node.label for node in p.nodes), p.step_gains,
                              repr(p.total_gain), p.classification.value)
                             for p in trace(model, interaction, "stability", direction,
                                            **options)])
        except Exception as exc:  # the type is part of the outcome
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


def test_an_endpoint_missing_from_the_model_still_traces_from_the_interaction_s_node():
    model = chain_model(
        'node x lane=h stage=orient "Digest" response.stability=amplify:2.0',
        'node pre lane=m stage=orient "Assemble" response.stability=dampen:0.5',
        "edge pre -> src", "edge src -> w", "edge w -> x")
    interaction = single_interaction(model)
    upstream = [(("src", "pre"), ("Recommend", "Assemble"), (0.5,), "0.5", "Mitigated")]
    downstream = [(("w", "x"), ("Watch", "Digest"), (2.0,), "2.0", "Amplified")]
    for missing in ("w", "src"):
        without = dataclasses.replace(model, nodes=[
            node for node in model.nodes if node.id != missing])
        assert _traced(without, interaction) == [upstream, downstream], missing
    # An edge back to the missing endpoint fails as an edge to any missing
    # node, naming the edge and the node.
    back = dataclasses.replace(model, edges=[
        *model.edges, dataclasses.replace(model.edges[0], id="back", from_id="x", to_id="w")])
    assert _traced(dataclasses.replace(back, nodes=[
        node for node in model.nodes if node.id != "w"]), interaction) == [
        upstream, ("UnknownIdError", f"model '{model.name}' has no node 'w', "
                   "which edge 'back' names")]


def test_an_edge_to_an_undeclared_node_fails_only_a_trace_that_lists_its_tail():
    # A node's children are listed on its first visit, so an edge to an
    # undeclared node is harmless while no trace lists the edge's tail: a
    # node the trace never reaches, or one it reaches only as the last node
    # of a max_depth path.
    model = chain_model(
        'node x lane=h stage=orient "Digest" response.stability=amplify:2.0',
        'node y lane=h stage=decide "Choose"',
        'node z lane=h stage=act "Idle"',
        'node pre lane=m stage=orient "Assemble" response.stability=dampen:0.5',
        'node pre2 lane=m stage=observe "Sense"',
        "edge pre2 -> pre", "edge pre -> src", "edge src -> w", "edge w -> x", "edge x -> y")
    interaction = single_interaction(model)

    def strayed(*ends):
        return dataclasses.replace(model, edges=[*model.edges, *(
            dataclasses.replace(model.edges[0], id=f"stray{n}", from_id=tail, to_id=head)
            for n, (tail, head) in enumerate(ends))])

    full = _traced(model, interaction)
    assert [[p[0] for p in pathways] for pathways in full] == [
        [("src", "pre", "pre2")], [("w", "x", "y")]]
    assert _traced(strayed(("z", "ghost"), ("ghost", "z")), interaction) == full
    at_the_cap = strayed(("y", "ghost"), ("ghost", "pre2"))
    assert _traced(at_the_cap, interaction, max_depth=3) == full
    assert _traced(at_the_cap, interaction, max_depth=4) == [
        ("UnknownIdError", f"model '{model.name}' has no node 'ghost', which edge '{edge}' names")
        for edge in ("stray1", "stray0")]


def test_a_node_id_declared_twice_traces_as_its_last_declaration():
    model = chain_model(
        'node x lane=h stage=orient "Digest" response.stability=amplify:2.0',
        "edge src -> w", "edge w -> x", "edge x -> w")
    first = model.nodes_by_id()
    twice = dataclasses.replace(model, nodes=[
        *model.nodes, dataclasses.replace(first["x"], label="Digest again", response={}),
        dataclasses.replace(first["w"], label="Watch again")])
    # The interaction of the model with the duplicates starts at its last "w";
    # one from the first model starts at the first "w".
    assert _traced(twice, single_interaction(twice)) == [
        [(("src",), ("Recommend",), (), "1", "Neutral")],
        [(("w", "x"), ("Watch again", "Digest again"), (1.0,), "1.0", "Neutral")]]
    assert _traced(twice, single_interaction(model)) == [
        [(("src",), ("Recommend",), (), "1", "Neutral")],
        [(("w", "x"), ("Watch", "Digest again"), (1.0,), "1.0", "Neutral")]]


def _brute_force_pathways(model, start, downstream, category, max_depth):
    """(node ids, step gains, repr of the total gain) of every maximal simple
    path, by plain recursion over the first-declared edge of each node pair.
    The repr tells the int 1 of a one-node path from 1.0."""
    first_edge = {}
    for edge in model.edges:
        pair = (edge.from_id, edge.to_id) if downstream else (edge.to_id, edge.from_id)
        first_edge.setdefault(pair, edge)
    nodes = model.nodes_by_id()
    mitigations = {mit.id: mit for mit in builtin_mitigations()}

    def step_gain(here, there):
        behaviour = nodes[there].response.get(category)
        gain = 1.0 if behaviour is None else behaviour.coefficient
        for mit_id in nodes[there].mitigation_ids + first_edge[here, there].mitigation_ids:
            if category in mitigations[mit_id].categories:
                gain *= mitigations[mit_id].damping
        return gain

    found = []

    def walk(path):
        successors = [there for here, there in first_edge
                      if here == path[-1] and there not in path]
        if len(path) == max_depth or not successors:
            found.append(tuple(path))
            return
        for there in successors:
            walk(path + [there])

    walk([start])
    expected = []
    for path in sorted(found):
        gains = tuple(step_gain(here, there) for here, there in zip(path, path[1:]))
        expected.append((path, gains, repr(math.prod(gains))))
    return expected


def test_pathways_are_simple_maximal_sorted_and_cover_bfs_reachability():
    checked = 0
    for seed in range(150):
        rng = random.Random(3000 + seed)
        model = add_parallel_edges(random_model(rng), rng)
        interactions = extract_interactions(model)
        if not interactions:
            continue
        checked += 1
        for interaction in {interactions[0].i_id: interactions[0],
                            interactions[-1].i_id: interactions[-1]}.values():
            for direction in (TraceDirection.DOWNSTREAM, TraceDirection.UPSTREAM):
                downstream = direction is TraceDirection.DOWNSTREAM
                start = (interaction.target if downstream else interaction.source).id
                adjacency = trace_adjacency(model, direction)
                for max_depth in (1, 2, 3, DEFAULT_MAX_DEPTH):
                    pathways = trace(model, interaction, "stability", direction,
                                     max_depth=max_depth)
                    assert pathways, "at least the endpoint pathway must exist"
                    assert [(p.node_ids(), p.step_gains, repr(p.total_gain))
                            for p in pathways] == _brute_force_pathways(
                        model, start, downstream, "stability", max_depth), f"seed {seed}"
                    assert all(p.classification is classify(p.total_gain)
                               for p in pathways)
                    ids = [p.node_ids() for p in pathways]
                    assert ids == sorted(ids), f"seed {seed}: not sorted"
                    covered = set()
                    for pathway in pathways:
                        nodes = pathway.node_ids()
                        covered.update(nodes)
                        assert nodes[0] == start
                        assert 1 <= len(nodes) <= max_depth
                        assert len(set(nodes)) == len(nodes), "path repeats a node"
                        for here, there in zip(nodes, nodes[1:]):
                            assert there in adjacency.get(here, set())
                        if len(nodes) < max_depth:
                            successors = adjacency.get(nodes[-1], set())
                            assert successors <= set(nodes), "pathway is not maximal"
                    assert covered == reachable_within(model, start, max_depth, direction), (
                        f"seed {seed}: coverage mismatch at depth {max_depth}"
                    )
    assert checked >= 100


FIELDS = [field.name for field in dataclasses.fields(TracePathway)]


def test_traced_pathways_equal_ones_built_through_the_dataclass():
    checked = 0
    for seed in range(40):
        rng = random.Random(5000 + seed)
        model = add_parallel_edges(random_model(rng), rng)
        for interaction in extract_interactions(model)[:2]:
            for direction in TraceDirection:
                for pathway in trace(model, interaction, "stability", direction):
                    built = TracePathway(**{name: getattr(pathway, name) for name in FIELDS})
                    assert type(pathway) is TracePathway
                    assert vars(pathway) == vars(built)
                    assert list(vars(pathway)) == FIELDS
                    assert repr(pathway) == repr(built)
                    checked += 1
    assert checked >= 100


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       category=st.sampled_from(BUILTIN_CATEGORIES),
       max_depth=st.integers(min_value=1, max_value=16))
def test_trace_records_where_each_pathway_forks_from_the_one_before(seed, category, max_depth):
    rng = random.Random(seed)
    model = add_parallel_edges(random_model(rng), rng)
    for interaction in extract_interactions(model)[:2]:
        up, down = (trace(model, interaction, category, direction, max_depth=max_depth,
                          mitigation_catalog=builtin_mitigations())
                    for direction in TraceDirection)
        # Up + down keeps both walks' forks: the second walk starts at fork 0.
        for result, starts in ((up, [0]), (down, [0]), (up + down, [0, len(up)])):
            assert result.walked == tuple(result)
            assert len(result.forks) == len(result)
            assert [index for index, fork in enumerate(result.forks) if not fork] == starts
            for before, pathway, fork in zip(result, result[1:], result.forks[1:]):
                if not fork:
                    continue
                shared = 0
                while (shared < min(len(before.nodes), len(pathway.nodes))
                       and before.nodes[shared] is pathway.nodes[shared]):
                    shared += 1
                assert fork == shared >= 1
                assert all(earlier is later for earlier, later in
                           zip(before.step_gains[:fork - 1], pathway.step_gains[:fork - 1]))
            # The writer spells the nodes after each fork alone, to the same bytes.
            assert emit_json(ReportBundle(pathways=result)) == emit_json(
                ReportBundle(pathways=list(result)))


def test_traced_pathways_stay_frozen_and_replaceable():
    model, interactions, _, _ = tower_trace_inputs()
    pathway, *others = trace(model, interaction_by_id(interactions, 3), "stability",
                             TraceDirection.UPSTREAM)
    for name in FIELDS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pathway, name, getattr(others[0], name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        pathway.extra = 1
    # The pathways of one trace share their first three fields, never the rest.
    assert pathway.origin is others[0].origin
    assert pathway.nodes != others[0].nodes
    changed = dataclasses.replace(pathway, mode_category="timely", total_gain=2.0)
    assert (changed.mode_category, changed.total_gain) == ("timely", 2.0)
    assert (pathway.mode_category, pathway.total_gain) == ("stability", 1.0)
    assert changed.nodes is pathway.nodes
    assert vars(dataclasses.replace(pathway)) == vars(pathway)


# ---------------------------------------------------------------------------
# Metamorphic relations.

def _outcome(pathway):
    return (pathway.node_ids(), pathway.step_gains, repr(pathway.total_gain),
            pathway.classification)


def test_reversing_every_edge_turns_the_upstream_trace_into_the_downstream_one():
    checked = 0
    for seed in range(300):
        rng = random.Random(7000 + seed)
        model = add_parallel_edges(random_model(rng), rng)
        reversed_model = dataclasses.replace(model, edges=[
            dataclasses.replace(edge, from_id=edge.to_id, to_id=edge.from_id)
            for edge in model.edges])
        reversed_interactions = extract_interactions(reversed_model)
        for interaction in extract_interactions(model):
            category = rng.choice(BUILTIN_CATEGORIES)
            max_depth = rng.choice((1, 3, DEFAULT_MAX_DEPTH))
            upstream = trace(model, interaction, category, TraceDirection.UPSTREAM,
                             max_depth)
            downstream = trace(reversed_model,
                               interaction_by_id(reversed_interactions, interaction.i_id),
                               category, TraceDirection.DOWNSTREAM, max_depth)
            assert list(map(_outcome, downstream)) == list(map(_outcome, upstream)), (
                f"seed {seed}, interaction {interaction.i_id}")
            checked += 1
    assert checked >= 1000


def test_a_node_mitigation_lowers_the_totals_of_exactly_the_pathways_past_it():
    checked = fell = 0
    for seed in range(300):
        rng = random.Random(8000 + seed)
        model = add_parallel_edges(random_model(rng), rng)
        category = rng.choice(BUILTIN_CATEGORIES)
        catalog = builtin_mitigations() + [Mitigation(
            id="probe", name="Probe", categories=(category,), placement=Placement.NODE,
            detail="")]
        damped_id = rng.choice(model.nodes).id
        damped = dataclasses.replace(model, nodes=[
            dataclasses.replace(node, mitigation_ids=[*node.mitigation_ids, "probe"])
            if node.id == damped_id else node
            for node in model.nodes])
        pairs = zip(extract_interactions(model), extract_interactions(damped))
        for interaction, damped_interaction in list(pairs)[:3]:
            for direction in TraceDirection:
                before = trace(model, interaction, category, direction,
                               mitigation_catalog=catalog)
                after = trace(damped, damped_interaction, category, direction,
                              mitigation_catalog=catalog)
                assert [p.node_ids() for p in after] == [p.node_ids() for p in before]
                for old, new in zip(before, after):
                    assert new.total_gain <= old.total_gain, f"seed {seed}"
                    if damped_id in old.node_ids()[1:]:
                        assert new.total_gain < old.total_gain or new.total_gain == 0, (
                            f"seed {seed}")
                        fell += 1
                    else:
                        assert repr(new.total_gain) == repr(old.total_gain), f"seed {seed}"
                    checked += 1
    assert checked >= 1000 and fell >= 100


_TOWARD_AMPLIFIED = {Classification.MITIGATED: 0, Classification.NEUTRAL: 1,
                     Classification.AMPLIFIED: 2}


def test_dampening_a_node_moves_no_pathway_toward_amplified():
    checked = fell = reclassified = 0
    for seed in range(300):
        rng = random.Random(9000 + seed)
        model = add_parallel_edges(random_model(rng), rng)
        category = rng.choice(BUILTIN_CATEGORIES)
        # Amplify, neutral, or no response at all, which traces as neutral.
        candidates = [node.id for node in model.nodes
                      if category not in node.response
                      or node.response[category].kind is not GainKind.DAMPEN]
        if not candidates:
            continue
        lowered_id = rng.choice(candidates)
        dampen = rng.choice((GainBehaviour.dampen(),
                             GainBehaviour.dampen(round(rng.uniform(0.05, 0.95), 3))))
        lowered = dataclasses.replace(model, nodes=[
            dataclasses.replace(node, response={**node.response, category: dampen})
            if node.id == lowered_id else node
            for node in model.nodes])
        pairs = zip(extract_interactions(model), extract_interactions(lowered))
        for interaction, lowered_interaction in list(pairs)[:3]:
            for direction in TraceDirection:
                before = trace(model, interaction, category, direction)
                after = trace(lowered, lowered_interaction, category, direction)
                assert [p.node_ids() for p in after] == [p.node_ids() for p in before]
                for old, new in zip(before, after):
                    assert new.total_gain <= old.total_gain, f"seed {seed}"
                    assert (_TOWARD_AMPLIFIED[new.classification]
                            <= _TOWARD_AMPLIFIED[old.classification]), f"seed {seed}"
                    if lowered_id in old.node_ids()[1:]:
                        assert new.total_gain < old.total_gain or new.total_gain == 0, (
                            f"seed {seed}")
                        fell += 1
                        reclassified += new.classification is not old.classification
                    else:
                        assert _outcome(new) == _outcome(old), f"seed {seed}"
                    checked += 1
    assert checked >= 1000 and fell >= 100 and reclassified >= 10


def test_renaming_nodes_in_order_renames_every_trace_and_its_json():
    checked = 0
    for seed in range(300):
        rng = random.Random(10000 + seed)
        model = add_parallel_edges(random_model(rng), rng)
        # Fresh ids of other lengths than the old ones, assigned in sorted
        # order, so that the bijection keeps the order the walk sorts by.
        fresh: set[str] = set()
        while len(fresh) < len(model.nodes):
            fresh.add("q_" + "".join(rng.choice("abz09_") for _ in range(rng.randint(1, 6))))
        renamed_id = dict(zip(sorted(node.id for node in model.nodes), sorted(fresh)))
        original_id = {new: old for old, new in renamed_id.items()}
        renamed = dataclasses.replace(
            model,
            nodes=[dataclasses.replace(node, id=renamed_id[node.id]) for node in model.nodes],
            edges=[dataclasses.replace(edge, from_id=renamed_id[edge.from_id],
                                       to_id=renamed_id[edge.to_id])
                   for edge in model.edges])
        before: list[TracePathway] = []
        after: list[TracePathway] = []
        pairs = zip(extract_interactions(model), extract_interactions(renamed))
        for interaction, renamed_interaction in pairs:
            category = rng.choice(BUILTIN_CATEGORIES)
            max_depth = rng.choice((1, 3, DEFAULT_MAX_DEPTH))
            for direction in TraceDirection:
                old = trace(model, interaction, category, direction, max_depth)
                new = trace(renamed, renamed_interaction, category, direction, max_depth)
                assert [_outcome(p) for p in new] == [
                    (tuple(renamed_id[i] for i in ids), *rest)
                    for ids, *rest in map(_outcome, old)], f"seed {seed}"
                before += old
                after += new
                checked += 1
        renamed_json = emit_json(ReportBundle(pathways=after))
        assert re.sub('"(q_[abz09_]+)"', lambda m: f'"{original_id[m[1]]}"',
                      renamed_json) == emit_json(ReportBundle(pathways=before)), f"seed {seed}"
    assert checked >= 1000


# ---------------------------------------------------------------------------
# Bundled tower scenario.

def test_tower_downstream_pathways_all_reach_the_decision_node():
    model, interactions, _, _ = tower_trace_inputs()
    pathways = trace(model, interaction_by_id(interactions, 3), "timely",
                     TraceDirection.DOWNSTREAM)
    assert len(pathways) == 3
    for pathway in pathways:
        assert pathway.node_ids()[0] == "h_obs_reco"
        assert "h_decide" in pathway.node_ids()
        assert pathway.total_gain == 1.0
        assert pathway.classification is Classification.NEUTRAL


def test_tower_upstream_stability_trace_hits_the_tagged_causes():
    model, interactions, _, _ = tower_trace_inputs()
    pathways = trace(model, interaction_by_id(interactions, 3), "stability",
                     TraceDirection.UPSTREAM)
    assert len(pathways) == 6
    nodes_by_id = model.nodes_by_id()
    covered_causes = set()
    for pathway in pathways:
        assert pathway.node_ids()[0] == "hmi_recommend"
        assert "m_select" in pathway.node_ids()
        assert "hmi_format" in pathway.node_ids()
        # amplify 2.0 at the selector, dampen 0.5 at the hysteresis stage
        assert pathway.total_gain == 1.0
        assert pathway.classification is Classification.NEUTRAL
        for node_id in pathway.node_ids():
            covered_causes.update(nodes_by_id[node_id].causes)
    assert {"robustness", "stability"} <= covered_causes


# ---------------------------------------------------------------------------
# Second-order effects.

def test_second_order_effects_for_the_tower_bindings():
    _, interactions, catalog, sfms = tower_trace_inputs()
    effects = derive_second_order(sfms, interactions, catalog)
    assert [(e.origin_sfm_id, e.induced_mode) for e in effects] == [
        (3, InducedMode.DISUSE), (3, InducedMode.MISUSE),
        (4, InducedMode.DISUSE), (4, InducedMode.MISUSE),
        (5, InducedMode.DISUSE), (5, InducedMode.MISUSE),
    ]
    assert effects[0].rationale == "operator ignores the autonomy"
    assert effects[1].rationale == "operator accepts without understanding"


def test_single_binding_yields_exactly_disuse_and_misuse():
    _, interactions, catalog, sfms = tower_trace_inputs()
    sfm4 = next(sfm for sfm in sfms if sfm.sfm_id == 4)
    effects = derive_second_order([sfm4], interactions, catalog)
    assert {e.induced_mode for e in effects} == {InducedMode.DISUSE, InducedMode.MISUSE}
    assert len(effects) == 2


def test_second_order_skips_human_to_machine_and_other_categories():
    _, interactions, catalog, _ = tower_trace_inputs()
    to_machine = [SpecialisedFailureMode(1, 4, "misuse", "Operator enters junk")]
    assert derive_second_order(to_machine, interactions, catalog) == []
    off_category = [SpecialisedFailureMode(1, 3, "accuracy", "Sequence is wrong")]
    assert derive_second_order(off_category, interactions, catalog) == []


def test_second_order_trigger_categories_are_overridable():
    _, interactions, catalog, _ = tower_trace_inputs()
    sfms = [SpecialisedFailureMode(1, 3, "accuracy", "Sequence is wrong")]
    effects = derive_second_order(sfms, interactions, catalog,
                                  categories=("accuracy",))
    assert [e.induced_mode for e in effects] == [InducedMode.DISUSE, InducedMode.MISUSE]


def test_second_order_propagates_unknown_id_errors():
    _, interactions, catalog, _ = tower_trace_inputs()
    with pytest.raises(UnknownIdError, match="no interaction 9"):
        derive_second_order([SpecialisedFailureMode(1, 9, "timely", "t")],
                            interactions, catalog)
    with pytest.raises(UnknownIdError, match="catalog has no mode 'overload'"):
        derive_second_order([SpecialisedFailureMode(1, 3, "overload", "t")],
                            interactions, catalog)


# ---------------------------------------------------------------------------
# Pinned corpus.

CORPUS_CATEGORIES = ("stability", "robustness", "misuse")


def test_every_trace_of_a_seeded_corpus_keeps_its_text_json_and_dot_bytes():
    # One digest covers each trace's text lines, JSON and DOT, or the text of
    # the ValueError it raised, for every interaction, category, direction
    # and depth.  The corpus digest tells a changed corpus from a changed walk
    # or writer.
    models, outcomes = hashlib.sha256(), hashlib.sha256()
    counts = Counter()
    for model in pinned_corpus():
        models.update(f"{serialize_model(model)!r}\n".encode())
        for interaction in extract_interactions(model):
            for category in CORPUS_CATEGORIES:
                for direction in TraceDirection:
                    for max_depth in (1, 3, DEFAULT_MAX_DEPTH):
                        counts["traces"] += 1
                        outcomes.update(f"{interaction.i_id} {category} {direction.value} "
                                        f"{max_depth}\n".encode())
                        try:
                            pathways = trace(model, interaction, category, direction,
                                             max_depth)
                        except ValueError as exc:
                            counts["raised"] += 1
                            outcomes.update(f"{exc}\n".encode())
                            continue
                        counts["pathways"] += len(pathways)
                        counts.update(p.classification.value for p in pathways)
                        outcomes.update("".join(f"{pathway_label(p)}\n"
                                                for p in pathways).encode())
                        outcomes.update(emit_json(ReportBundle(pathways=pathways)).encode())
                        outcomes.update(emit_dot(model, pathways).encode())
    assert (dict(counts), models.hexdigest(), outcomes.hexdigest()) == (
        {"traces": 9126, "raised": 26, "pathways": 12457,
         "Mitigated": 2306, "Neutral": 9674, "Amplified": 477},
        "99803888fd8165c7852fc1ce71c7f46fe2dae37ff11c615c3f8a19475bec8f6a",
        "87be57e96cf11f2688bde93e9e6a868d018945b3516bf22a2f18c3169766f851",
    )
