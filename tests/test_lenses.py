"""Tests for the builtin lens catalogs, merging, and applicability filters.

The builtin question texts are part of the published interface: analysts
quote them, and downstream golden files embed them.  They are pinned here
verbatim, including the typographic apostrophes.
"""

from __future__ import annotations

import pytest

from hatlens import (
    Applicability,
    CatalogError,
    Direction,
    GenericFailureMode,
    Lens,
    LensCatalog,
    UnknownIdError,
    applicable_modes,
    builtin_catalog,
    extract_interactions,
    merge_catalogs,
    parse_model,
)

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

HUMAN_INTENT_QUESTIONS = {
    "use": (
        "Is the human user intending to use the output of the AI system in the way "
        "the designer intended it to be used?"
    ),
    "misuse": (
        "Could the human act on the system’s output without the understanding "
        "its designer intended?"
    ),
    "abuse": (
        "Could the human deliberately use the system beyond or against its designed "
        "purpose?"
    ),
    "disuse": "Could the human come to ignore the system’s output entirely?",
}


def test_machine_lens_has_exactly_six_modes_with_verbatim_questions():
    machine = builtin_catalog().lens_by_id("machine")
    assert machine.name == "Machine Behaviour"
    assert [mode.id for mode in machine.modes] == [
        "accuracy", "bias", "variability", "stability", "uncertainty", "robustness",
    ]
    for mode in machine.modes:
        assert mode.question == MACHINE_QUESTIONS[mode.id]
        assert mode.applicability is Applicability.M2H
        assert mode.benign is False
        assert mode.category == mode.id
        assert mode.title == mode.id.capitalize()


def test_human_intent_lens_has_exactly_four_modes_with_verbatim_questions():
    human = builtin_catalog().lens_by_id("human_intent")
    assert human.name == "Human Intent"
    assert [mode.id for mode in human.modes] == ["use", "misuse", "abuse", "disuse"]
    for mode in human.modes:
        assert mode.question == HUMAN_INTENT_QUESTIONS[mode.id]
        assert mode.applicability is Applicability.BOTH
        assert mode.benign is (mode.id == "use")


def test_builtin_catalog_shape():
    catalog = builtin_catalog()
    assert [lens.id for lens in catalog.lenses] == ["machine", "human_intent"]
    assert len(catalog.modes()) == 10
    assert catalog.mode_by_id("disuse").lens_id == "human_intent"


def test_lookup_errors():
    catalog = builtin_catalog()
    with pytest.raises(UnknownIdError, match="catalog has no lens 'optics'"):
        catalog.lens_by_id("optics")
    with pytest.raises(UnknownIdError, match="catalog has no mode 'overload'"):
        catalog.mode_by_id("overload")
    # An id declared twice finds its first declaration.
    machine, disuse = catalog.lenses[0], catalog.mode_by_id("disuse")
    twice = LensCatalog(lenses=[*catalog.lenses, Lens(id="machine", name="again", modes=(
        GenericFailureMode(id="disuse", lens_id="machine", category="disuse", title="again",
                           question="again?", applicability=Applicability.M2H),))])
    assert twice.lens_by_id("machine") is machine
    assert twice.mode_by_id("disuse") is disuse


def _extra_lens(lens_id="timeliness", mode_id="timely"):
    return LensCatalog(lenses=[Lens(
        id=lens_id, name="Timeliness",
        modes=(GenericFailureMode(
            id=mode_id, lens_id=lens_id, category="timely",
            title="Output arrives too late to act on",
            question="Does the output arrive in time to act on it?",
            applicability=Applicability.M2H),),
    )])


def test_merge_unions_lenses_and_keeps_order():
    merged = merge_catalogs(builtin_catalog(), _extra_lens())
    assert [lens.id for lens in merged.lenses] == [
        "machine", "human_intent", "timeliness",
    ]
    assert len(merged.modes()) == 11
    assert merged.mode_by_id("timely").category == "timely"
    # The inputs are untouched.
    assert len(builtin_catalog().modes()) == 10


def test_merge_rejects_duplicate_lens_ids():
    with pytest.raises(CatalogError, match="duplicate lens id 'machine'"):
        merge_catalogs(builtin_catalog(), _extra_lens(lens_id="machine"))


def test_merge_rejects_duplicate_mode_ids_naming_both_lenses():
    with pytest.raises(CatalogError) as excinfo:
        merge_catalogs(builtin_catalog(), _extra_lens(mode_id="stability"))
    message = str(excinfo.value)
    assert "duplicate mode id 'stability'" in message
    assert "lens 'machine'" in message
    assert "lens 'timeliness'" in message


def _one_interaction(direction):
    if direction is Direction.MACHINE_TO_HUMAN:
        edge = "edge a -> b\n"
    else:
        edge = "edge c -> d\n"
    text = (
        'model "Demo"\n'
        'lane h side=human kind=operator "Human"\n'
        'lane m side=machine kind=autonomy "Machine"\n'
        'node a lane=m stage=act "Publish"\n'
        'node b lane=h stage=observe "Watch"\n'
        'node c lane=h stage=act "Send"\n'
        'node d lane=m stage=observe "Ingest"\n'
    ) + edge
    (interaction,) = extract_interactions(parse_model(text))
    assert interaction.direction is direction
    return interaction


def test_applicable_modes_filters_by_direction_only():
    catalog = merge_catalogs(builtin_catalog(), _extra_lens())
    m2h = applicable_modes(catalog, _one_interaction(Direction.MACHINE_TO_HUMAN))
    h2m = applicable_modes(catalog, _one_interaction(Direction.HUMAN_TO_MACHINE))
    # Machine-to-human admits everything here: six machine modes, four
    # human-intent modes (direction "both"), plus the extra m2h lens.
    assert [mode.id for mode in m2h] == [
        "accuracy", "bias", "variability", "stability", "uncertainty", "robustness",
        "use", "misuse", "abuse", "disuse", "timely",
    ]
    # Human-to-machine keeps only the direction-agnostic human-intent modes.
    assert [mode.id for mode in h2m] == ["use", "misuse", "abuse", "disuse"]
    # Benign modes pass the filter; exclusion happens at mapping time.
    assert any(mode.benign for mode in m2h)


def test_applicability_admits():
    assert Applicability.BOTH.admits(Direction.MACHINE_TO_HUMAN)
    assert Applicability.BOTH.admits(Direction.HUMAN_TO_MACHINE)
    assert Applicability.M2H.admits(Direction.MACHINE_TO_HUMAN)
    assert not Applicability.M2H.admits(Direction.HUMAN_TO_MACHINE)
    assert Applicability.H2M.admits(Direction.HUMAN_TO_MACHINE)
    assert not Applicability.H2M.admits(Direction.MACHINE_TO_HUMAN)
