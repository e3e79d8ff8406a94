"""Crossing interactions with lens modes into the failure-mode table.

``map_failure_modes`` produces one row per interaction and applicable
non-benign generic mode.  ``apply_specialisations`` then merges in the
analyst's refinements: a generic row that gains one or more specialised
rows is replaced by them, while untouched generic rows stay, so gaps in
the analysis remain visible to reviewers.
"""

from __future__ import annotations

from .interactions import Direction, Interaction
from .lenses import GenericFailureMode, LensCatalog, applicable_modes
from .model import _FACTORY, Stage, _EqRecord, _FieldOptions, _HashRecord, _dataclass


@_dataclass
class SpecialisedFailureMode(_HashRecord):
    """An analyst's refinement of one generic mode on one interaction."""

    sfm_id: int
    interaction_id: int
    generic_mode_id: str
    text: str
    line: int | None = _FieldOptions(default=None, compare=False, repr=False)

    def __init__(self, sfm_id, interaction_id, generic_mode_id, text, line=None):
        fields = vars(self)
        fields["sfm_id"] = sfm_id
        fields["interaction_id"] = interaction_id
        fields["generic_mode_id"] = generic_mode_id
        fields["text"] = text
        fields["line"] = line


@_dataclass
class FailureModeRow(_HashRecord):
    """One row of the table: an interaction, a generic mode and any specialisation."""

    i_id: int
    sfm_id: int | None
    interaction_name: str
    machine_stage: Stage
    human_stage: Stage
    direction: Direction
    generic_mode_id: str
    generic_mode_title: str
    generic_mode_category: str
    specialised_text: str | None

    def __init__(self, i_id, sfm_id, interaction_name, machine_stage, human_stage, direction,
                 generic_mode_id, generic_mode_title, generic_mode_category, specialised_text):
        fields = vars(self)
        fields["i_id"] = i_id
        fields["sfm_id"] = sfm_id
        fields["interaction_name"] = interaction_name
        fields["machine_stage"] = machine_stage
        fields["human_stage"] = human_stage
        fields["direction"] = direction
        fields["generic_mode_id"] = generic_mode_id
        fields["generic_mode_title"] = generic_mode_title
        fields["generic_mode_category"] = generic_mode_category
        fields["specialised_text"] = specialised_text


@_dataclass
class FailureModeTable(_EqRecord):
    """The failure-mode table, one row per interaction and mode."""

    rows: list[FailureModeRow] = _FieldOptions(default_factory=list)

    def __init__(self, rows=_FACTORY):
        self.rows = [] if rows is _FACTORY else rows


class SpecialisationError(ValueError):
    """A specialisation list cannot be applied to the table."""


def map_failure_modes(interactions: list[Interaction], catalog: LensCatalog) -> FailureModeTable:
    """One unspecialised row per (interaction, applicable non-benign mode)."""
    rows: list[FailureModeRow] = []
    modes: dict[Direction, list[GenericFailureMode]] = {}  # they depend on the direction alone
    for interaction in interactions:
        if interaction.direction not in modes:
            modes[interaction.direction] = [
                mode for mode in applicable_modes(catalog, interaction) if not mode.benign]
        for mode in modes[interaction.direction]:
            rows.append(FailureModeRow(
                interaction.i_id, None, interaction.name, interaction.machine_stage,
                interaction.human_stage, interaction.direction, mode.id, mode.title,
                mode.category, None))
    return FailureModeTable(rows=rows)


def sfm_id_problem(sfm_id: int, previous: int | None) -> str | None:
    """Why ``sfm_id`` may not follow ``previous`` in one list of sfms, or None.

    Ids ascend without gaps or duplicates; the first id may be any value, so
    a list can continue an existing numbering.
    """
    if previous is None or sfm_id == previous + 1:
        return None
    if sfm_id == previous:
        return f"duplicate sfm id {sfm_id}"
    return f"sfm ids must ascend without gaps: {sfm_id} follows {previous}"


def apply_specialisations(
    table: FailureModeTable, sfms: list[SpecialisedFailureMode]
) -> FailureModeTable:
    """Merge specialisations into the table, returning a new table.

    One pass groups the rows by interaction and indexes each group's first
    row per generic mode; each sfm is checked against these indexes in list
    order and copies the row it refines.  Each interaction, in the order of
    its first row, then lists its specialised rows (ascending sfm id), then
    its generic rows whose mode no sfm refines, in table order.  Without
    sfms the rows keep their order.
    """
    if not sfms:
        return FailureModeTable(rows=list(table.rows))
    groups: dict[int, list[FailureModeRow]] = {}
    first: dict[int, dict[str, FailureModeRow]] = {}
    for row in table.rows:
        groups.setdefault(row.i_id, []).append(row)
        first.setdefault(row.i_id, {}).setdefault(row.generic_mode_id, row)
    applied = {row.sfm_id for row in table.rows if row.sfm_id is not None}
    modes = {row.generic_mode_id for row in table.rows}

    previous: int | None = None
    for sfm in sfms:
        problem = sfm_id_problem(sfm.sfm_id, previous)
        if problem:
            raise SpecialisationError(problem)
        previous = sfm.sfm_id
        if sfm.sfm_id in applied:
            raise SpecialisationError(f"sfm id {sfm.sfm_id} is already applied to this table")
        if sfm.interaction_id not in first:
            raise SpecialisationError(
                f"sfm {sfm.sfm_id} references unknown interaction {sfm.interaction_id}"
            )
        base = first[sfm.interaction_id].get(sfm.generic_mode_id)
        if base is None:
            if sfm.generic_mode_id in modes:
                raise SpecialisationError(
                    f"sfm {sfm.sfm_id}: mode '{sfm.generic_mode_id}' is not applicable "
                    f"to interaction {sfm.interaction_id}"
                )
            raise SpecialisationError(
                f"sfm {sfm.sfm_id}: unknown generic mode '{sfm.generic_mode_id}'"
            )
        groups[sfm.interaction_id].append(FailureModeRow(
            base.i_id, sfm.sfm_id, base.interaction_name, base.machine_stage, base.human_stage,
            base.direction, base.generic_mode_id, base.generic_mode_title,
            base.generic_mode_category, sfm.text))

    new_rows: list[FailureModeRow] = []
    for rows in groups.values():
        specialised = [row for row in rows if row.sfm_id is not None]
        refined = {row.generic_mode_id for row in specialised}
        new_rows.extend(sorted(specialised, key=lambda row: row.sfm_id))
        new_rows.extend(row for row in rows
                        if row.sfm_id is None and row.generic_mode_id not in refined)
    return FailureModeTable(rows=new_rows)
