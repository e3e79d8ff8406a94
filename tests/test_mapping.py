"""Tests for the interaction x lens-mode table and specialisation merging.

The generic row count has a closed form (non-benign applicable modes per
interaction direction), which serves as the oracle over random models.
Merging semantics are pinned against the bundled tower scenario: the
specialised rows land first within their interaction block, ascending by
id, and only the modes they refine lose their generic rows.  Over random
models and sfm lists, a reference that scans the whole table for each sfm
is the oracle.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_model, tower_inputs
from hatlens import (
    Direction,
    FailureModeTable,
    SpecialisationError,
    SpecialisedFailureMode,
    applicable_modes,
    apply_specialisations,
    builtin_catalog,
    extract_interactions,
    map_failure_modes,
)

MACHINE_MODE_IDS = ["accuracy", "bias", "variability", "stability", "uncertainty",
                    "robustness"]
HARMFUL_INTENT_MODE_IDS = ["misuse", "abuse", "disuse"]


def tower_mapping_inputs():
    tower = tower_inputs()
    return tower.model, tower.catalog, tower.sfms


def test_generic_row_count_has_a_closed_form_over_random_models():
    catalog = builtin_catalog()
    per_direction = {Direction.MACHINE_TO_HUMAN: 9, Direction.HUMAN_TO_MACHINE: 3}
    for seed in range(200):
        rng = random.Random(2000 + seed)
        interactions = extract_interactions(random_model(rng))
        table = map_failure_modes(interactions, catalog)
        expected = sum(per_direction[i.direction] for i in interactions)
        assert len(table.rows) == expected, f"seed {seed}"
        assert all(row.sfm_id is None for row in table.rows)
        assert all(row.specialised_text is None for row in table.rows)
        assert all(row.generic_mode_id != "use" for row in table.rows)


def test_rows_follow_interaction_then_catalog_order():
    model, catalog, _ = tower_mapping_inputs()
    table = map_failure_modes(extract_interactions(model), catalog)
    m2h_modes = MACHINE_MODE_IDS + HARMFUL_INTENT_MODE_IDS + ["unstable", "timely"]
    expected_ids = []
    for i_id, modes in [(1, m2h_modes), (2, m2h_modes), (3, m2h_modes),
                        (4, HARMFUL_INTENT_MODE_IDS)]:
        expected_ids.extend((i_id, mode) for mode in modes)
    assert [(row.i_id, row.generic_mode_id) for row in table.rows] == expected_ids


def test_rows_match_a_per_interaction_scan_of_the_catalog():
    _, catalog, _ = tower_mapping_inputs()
    for seed in range(50):
        interactions = extract_interactions(random_model(random.Random(3000 + seed)))
        expected = [(interaction.i_id, mode.id) for interaction in interactions
                    for mode in applicable_modes(catalog, interaction) if not mode.benign]
        rows = map_failure_modes(interactions, catalog).rows
        assert [(row.i_id, row.generic_mode_id) for row in rows] == expected, f"seed {seed}"


def test_rows_carry_the_interaction_columns():
    model, catalog, _ = tower_mapping_inputs()
    interactions = extract_interactions(model)
    table = map_failure_modes(interactions, catalog)
    by_interaction = {i.i_id: i for i in interactions}
    for row in table.rows:
        interaction = by_interaction[row.i_id]
        assert row.interaction_name == interaction.name
        assert row.machine_stage is interaction.machine_stage
        assert row.human_stage is interaction.human_stage
        assert row.direction is interaction.direction
    stability = next(row for row in table.rows if row.generic_mode_id == "stability")
    assert stability.generic_mode_title == "Stability"
    assert stability.generic_mode_category == "stability"


def test_specialisation_replaces_generic_rows_within_the_block():
    model, catalog, sfms = tower_mapping_inputs()
    generic = map_failure_modes(extract_interactions(model), catalog)
    table = apply_specialisations(generic, sfms)

    block = [row for row in table.rows if row.i_id == 3]
    assert [row.sfm_id for row in block] == [3, 4, 5] + [None] * 9
    assert [row.generic_mode_id for row in block[:3]] == ["unstable", "timely", "timely"]
    assert block[0].specialised_text == "The recommended sequence is changing frequently"
    assert block[1].specialised_text == (
        "The recommendation is incomprehensible to the operator"
    )
    assert block[2].specialised_text == (
        "The recommendation requires too much cognition time from the operator "
        "to understand"
    )
    # The refined modes lose their generic rows; everything else stays.
    assert [row.generic_mode_id for row in block[3:]] == (
        MACHINE_MODE_IDS + HARMFUL_INTENT_MODE_IDS
    )
    for i_id in (1, 2, 4):
        assert ([row for row in table.rows if row.i_id == i_id]
                == [row for row in generic.rows if row.i_id == i_id])
    assert len(table.rows) == len(generic.rows) + 1  # 3 sfms replace 2 generic rows


def test_apply_specialisations_returns_a_new_table():
    model, catalog, sfms = tower_mapping_inputs()
    generic = map_failure_modes(extract_interactions(model), catalog)
    before = list(generic.rows)
    table = apply_specialisations(generic, sfms)
    assert table is not generic
    assert generic.rows == before
    empty = apply_specialisations(generic, [])
    assert empty.rows == before
    assert empty is not generic


def test_specialisations_can_be_applied_incrementally():
    model, catalog, sfms = tower_mapping_inputs()
    generic = map_failure_modes(extract_interactions(model), catalog)
    at_once = apply_specialisations(generic, sfms)
    stepwise = apply_specialisations(
        apply_specialisations(generic, sfms[:1]), sfms[1:])
    assert stepwise.rows == at_once.rows


def test_first_sfm_id_is_unconstrained():
    model, catalog, _ = tower_mapping_inputs()
    generic = map_failure_modes(extract_interactions(model), catalog)
    table = apply_specialisations(
        generic, [SpecialisedFailureMode(41, 3, "unstable", "Sequence churns")])
    assert any(row.sfm_id == 41 for row in table.rows)


@pytest.mark.parametrize(
    "sfms, message",
    [
        ([SpecialisedFailureMode(3, 3, "unstable", "a"),
          SpecialisedFailureMode(3, 3, "timely", "b")],
         "duplicate sfm id 3"),
        ([SpecialisedFailureMode(3, 3, "unstable", "a"),
          SpecialisedFailureMode(5, 3, "timely", "b")],
         "sfm ids must ascend without gaps: 5 follows 3"),
        ([SpecialisedFailureMode(1, 99, "unstable", "a")],
         "sfm 1 references unknown interaction 99"),
        ([SpecialisedFailureMode(1, 4, "stability", "a")],
         "sfm 1: mode 'stability' is not applicable to interaction 4"),
        ([SpecialisedFailureMode(1, 3, "explodes", "a")],
         "sfm 1: unknown generic mode 'explodes'"),
    ],
)
def test_specialisation_errors(sfms, message):
    model, catalog, _ = tower_mapping_inputs()
    generic = map_failure_modes(extract_interactions(model), catalog)
    with pytest.raises(SpecialisationError) as excinfo:
        apply_specialisations(generic, sfms)
    assert str(excinfo.value) == message


def test_reapplying_an_sfm_id_is_rejected():
    model, catalog, sfms = tower_mapping_inputs()
    generic = map_failure_modes(extract_interactions(model), catalog)
    table = apply_specialisations(generic, sfms)
    with pytest.raises(SpecialisationError) as excinfo:
        apply_specialisations(table, sfms[:1])
    assert str(excinfo.value) == "sfm id 3 is already applied to this table"


def reference_specialisations(rows, sfms):
    """What ``apply_specialisations`` gives for ``rows``, by whole-table scans:
    each sfm is checked against every row, then the kept rows are sorted by
    interaction (first appearance), specialised before generic, and sfm id."""
    if not sfms:
        return list(rows)
    added = []
    for index, sfm in enumerate(sfms):
        if index and sfm.sfm_id == sfms[index - 1].sfm_id:
            raise SpecialisationError(f"duplicate sfm id {sfm.sfm_id}")
        if index and sfm.sfm_id != sfms[index - 1].sfm_id + 1:
            raise SpecialisationError(f"sfm ids must ascend without gaps: "
                                      f"{sfm.sfm_id} follows {sfms[index - 1].sfm_id}")
        if any(row.sfm_id == sfm.sfm_id for row in rows):
            raise SpecialisationError(
                f"sfm id {sfm.sfm_id} is already applied to this table")
        if not any(row.i_id == sfm.interaction_id for row in rows):
            raise SpecialisationError(
                f"sfm {sfm.sfm_id} references unknown interaction {sfm.interaction_id}")
        refined = [row for row in rows if (row.i_id, row.generic_mode_id)
                   == (sfm.interaction_id, sfm.generic_mode_id)]
        if not refined:
            if any(row.generic_mode_id == sfm.generic_mode_id for row in rows):
                raise SpecialisationError(
                    f"sfm {sfm.sfm_id}: mode '{sfm.generic_mode_id}' is not "
                    f"applicable to interaction {sfm.interaction_id}")
            raise SpecialisationError(
                f"sfm {sfm.sfm_id}: unknown generic mode '{sfm.generic_mode_id}'")
        added.append(replace(refined[0], sfm_id=sfm.sfm_id, specialised_text=sfm.text))
    specialised = [row for row in [*rows, *added] if row.sfm_id is not None]
    refined_modes = {(row.i_id, row.generic_mode_id) for row in specialised}
    kept = specialised + [row for row in rows if row.sfm_id is None and (
        row.i_id, row.generic_mode_id) not in refined_modes]
    block = list(dict.fromkeys(row.i_id for row in rows))
    return sorted(kept, key=lambda row: (block.index(row.i_id), row.sfm_id is None,
                                         row.sfm_id or 0))


def _outcome(apply, rows, *steps):
    try:
        for sfms in steps:
            rows = apply(rows, sfms)
    except SpecialisationError as exc:
        return str(exc)
    return rows


# Every builtin mode: benign ``use`` never has a row, and the machine modes
# do not apply to human-to-machine interactions.
_MODE_IDS = [mode.id for mode in builtin_catalog().modes()] + ["explodes"]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_specialisation_matches_a_whole_table_scan(seed, data):
    table = map_failure_modes(extract_interactions(random_model(random.Random(seed))),
                              builtin_catalog())
    pairs = [(row.i_id, row.generic_mode_id) for row in table.rows]
    last = max((i_id for i_id, _ in pairs), default=0)

    def draw_pair():
        # Mostly the pair of a row; else any builtin mode or an unknown one,
        # at any interaction up to one past the last.
        if pairs and data.draw(st.integers(0, 4)):
            return data.draw(st.sampled_from(pairs))
        return data.draw(st.integers(1, last + 1)), data.draw(st.sampled_from(_MODE_IDS))

    sfm_id = data.draw(st.integers(1, 50))
    sfms = []
    for _ in range(data.draw(st.integers(0, 8))):
        sfms.append(SpecialisedFailureMode(sfm_id, *draw_pair(), f"text {sfm_id}"))
        # Mostly the next id; sometimes the same id again or a gap.
        sfm_id += data.draw(st.sampled_from([1, 1, 1, 1, 1, 1, 0, 2]))
    split = data.draw(st.integers(0, len(sfms)))

    def apply(rows, sfms):
        return apply_specialisations(FailureModeTable(rows=list(rows)), sfms).rows

    # At once, and in two steps, in order and with the later ids first.
    for steps in [(sfms,), (sfms[:split], sfms[split:]), (sfms[split:], sfms[:split])]:
        assert (_outcome(apply, table.rows, *steps)
                == _outcome(reference_specialisations, table.rows, *steps))
