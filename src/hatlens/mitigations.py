"""Catalog of mitigation patterns matched to failure-mode categories.

A mitigation damps any traced pathway of a matching category that passes
through the node (or edge) it is attached to.  Suggestion is by category
match only; attaching a mitigation to the model is a separate, explicit
modelling step.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from .model import _FieldOptions, _HashRecord, _dataclass

if TYPE_CHECKING:
    from .mapping import FailureModeRow, FailureModeTable

DEFAULT_DAMPING = 0.5


class Placement(Enum):
    NODE = "node"
    EDGE = "edge"


@_dataclass
class Mitigation(_HashRecord):
    """A pattern that damps the traced gain of its categories where attached."""

    id: str
    name: str
    categories: tuple[str, ...]
    placement: Placement
    detail: str
    damping: float = DEFAULT_DAMPING
    line: int | None = _FieldOptions(default=None, compare=False, repr=False)

    def __init__(self, id, name, categories, placement, detail, damping=DEFAULT_DAMPING,
                 line=None):
        fields = vars(self)
        fields["id"] = id
        fields["name"] = name
        fields["categories"] = categories
        fields["placement"] = placement
        fields["detail"] = detail
        fields["damping"] = damping
        fields["line"] = line
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.categories:
            raise ValueError(f"mitigation '{self.id}' must bind at least one category")
        if not 0 < self.damping < 1:
            raise ValueError(
                f"mitigation '{self.id}' damping must be in (0, 1), got {self.damping}"
            )


def builtin_mitigations() -> list[Mitigation]:
    """The five stock mitigation patterns."""
    return [
        Mitigation(
            id="odd_notification",
            name="Edge-of-domain notification",
            categories=("robustness",),
            placement=Placement.NODE,
            detail="Alert the operator when inputs approach the edge of the operational "
                   "design domain. Caveat: edge-of-domain conditions can be difficult to "
                   "detect reliably.",
        ),
        Mitigation(
            id="odd_margin",
            name="Operational domain safety margin",
            categories=("robustness",),
            placement=Placement.NODE,
            detail="Extend the operational design domain with a safety margin around the "
                   "expected operating envelope.",
        ),
        Mitigation(
            id="trust_calibration",
            name="Trust calibration",
            categories=("misuse", "disuse"),
            placement=Placement.NODE,
            detail="Build and calibrate operator trust in the system through training and "
                   "organisational culture.",
        ),
        Mitigation(
            id="operator_monitoring",
            name="Operator acceptance monitoring",
            categories=("misuse", "disuse"),
            placement=Placement.NODE,
            detail="Monitor operators on an ongoing basis for unusual decision acceptance "
                   "patterns.",
        ),
        Mitigation(
            id="hysteresis",
            name="Input hysteresis",
            categories=("stability",),
            placement=Placement.NODE,
            detail="Apply hysteresis to the input so small fluctuations do not flip the "
                   "output.",
        ),
    ]


def suggest_mitigations(
    table: "FailureModeTable", catalog: list[Mitigation]
) -> list[tuple["FailureModeRow", Mitigation]]:
    """All (row, mitigation) pairs whose categories match, in table then catalog order."""
    pairs: list[tuple["FailureModeRow", Mitigation]] = []
    matching: dict[str, list[Mitigation]] = {}  # each category's, found on its first row
    for row in table.rows:
        category = row.generic_mode_category
        found = matching.get(category)
        if found is None:
            found = matching[category] = [mitigation for mitigation in catalog
                                          if category in mitigation.categories]
        for mitigation in found:
            pairs.append((row, mitigation))
    return pairs
