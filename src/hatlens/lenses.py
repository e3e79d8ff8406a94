"""Generic failure-mode taxonomies ("lenses") and their applicability rules.

A lens is a named group of generic failure modes.  Each mode is phrased as
an analyst question, carries a category token (the vocabulary that node
``response.*`` gains, mitigation bindings, and traces all share), and an
applicability filter saying which interaction directions it maps onto.
Catalogs are merged by union; mode ids must stay unique across the result.
"""

from __future__ import annotations

from enum import Enum

from .interactions import Direction, Interaction
from .model import _FACTORY, _EqRecord, _FieldOptions, _HashRecord, _dataclass, _first


class Applicability(Enum):
    M2H = "m2h"
    H2M = "h2m"
    BOTH = "both"

    def admits(self, direction: Direction) -> bool:
        return self is Applicability.BOTH or self.value == direction.value


@_dataclass
class GenericFailureMode(_HashRecord):
    """An analyst question of one lens, with its category and directions."""

    id: str
    lens_id: str
    category: str
    title: str
    question: str
    applicability: Applicability
    benign: bool = False
    line: int | None = _FieldOptions(default=None, compare=False, repr=False)

    def __init__(self, id, lens_id, category, title, question, applicability, benign=False,
                 line=None):
        fields = vars(self)
        fields["id"] = id
        fields["lens_id"] = lens_id
        fields["category"] = category
        fields["title"] = title
        fields["question"] = question
        fields["applicability"] = applicability
        fields["benign"] = benign
        fields["line"] = line


@_dataclass
class Lens(_HashRecord):
    """A named group of generic failure modes."""

    id: str
    name: str
    modes: tuple[GenericFailureMode, ...] = ()
    line: int | None = _FieldOptions(default=None, compare=False, repr=False)

    def __init__(self, id, name, modes=(), line=None):
        fields = vars(self)
        fields["id"] = id
        fields["name"] = name
        fields["modes"] = modes
        fields["line"] = line


@_dataclass
class LensCatalog(_EqRecord):
    """An ordered list of lenses, such as the builtins merged with ``.lens`` files."""

    lenses: list[Lens] = _FieldOptions(default_factory=list)

    def __init__(self, lenses=_FACTORY):
        self.lenses = [] if lenses is _FACTORY else lenses

    def modes(self) -> list[GenericFailureMode]:
        return [mode for lens in self.lenses for mode in lens.modes]

    def lens_by_id(self, lens_id: str) -> Lens:
        return _first(self.lenses, "id", lens_id, f"catalog has no lens '{lens_id}'")

    def mode_by_id(self, mode_id: str) -> GenericFailureMode:
        return _first(self.modes(), "id", mode_id, f"catalog has no mode '{mode_id}'")


class CatalogError(ValueError):
    """Catalog construction failed (conflicting ids)."""


def _mode(mode_id: str, lens_id: str, title: str, question: str,
          applicability: Applicability, benign: bool = False) -> GenericFailureMode:
    # Builtin modes use the mode id as their category token.
    return GenericFailureMode(
        id=mode_id, lens_id=lens_id, category=mode_id, title=title,
        question=question, applicability=applicability, benign=benign,
    )


def builtin_catalog() -> LensCatalog:
    """The two stock lenses: machine behaviour and human intent."""
    m2h = Applicability.M2H
    both = Applicability.BOTH
    machine = Lens(id="machine", name="Machine Behaviour", modes=(
        _mode("accuracy", "machine", "Accuracy",
              "For an input sampled from a given distribution, what is the probability "
              "that the system produces an acceptable response?", m2h),
        _mode("bias", "machine", "Bias",
              "Is there persistent structure to unacceptable responses produced by the "
              "system?", m2h),
        _mode("variability", "machine", "Variability",
              "If the same input is repeatedly presented to the system, how constant is "
              "the system’s response?", m2h),
        _mode("stability", "machine", "Stability",
              "If a small change is made to the system’s input, how much does the "
              "system’s output change?", m2h),
        _mode("uncertainty", "machine", "Uncertainty",
              "How does the system handle inputs with differing levels of confidence, and "
              "how does the system report the confidence level of its output?", m2h),
        _mode("robustness", "machine", "Robustness",
              "Does the system’s performance degrade gracefully for inputs sampled "
              "near the edge or slightly outside the system’s design domain?", m2h),
    ))
    human_intent = Lens(id="human_intent", name="Human Intent", modes=(
        _mode("use", "human_intent", "Use",
              "Is the human user intending to use the output of the AI system in the way "
              "the designer intended it to be used?", both, benign=True),
        _mode("misuse", "human_intent", "Misuse",
              "Could the human act on the system’s output without the understanding "
              "its designer intended?", both),
        _mode("abuse", "human_intent", "Abuse",
              "Could the human deliberately use the system beyond or against its designed "
              "purpose?", both),
        _mode("disuse", "human_intent", "Disuse",
              "Could the human come to ignore the system’s output entirely?", both),
    ))
    return LensCatalog(lenses=[machine, human_intent])


def _located(what: str, owner_id: str, line: int | None) -> str:
    where = f"lens '{owner_id}'"
    if line is not None:
        where += f" (line {line})"
    return f"{what} in {where}"


def merge_catalogs(base: LensCatalog, extra: LensCatalog) -> LensCatalog:
    """Union of two catalogs.  Conflicting lens or mode ids are errors."""
    lenses = list(base.lenses) + list(extra.lenses)
    seen_lenses: dict[str, Lens] = {}
    for lens in lenses:
        if lens.id in seen_lenses:
            first = seen_lenses[lens.id]
            raise CatalogError(
                f"duplicate lens id '{lens.id}': declared twice"
                + (f" (lines {first.line} and {lens.line})"
                   if first.line is not None and lens.line is not None else "")
            )
        seen_lenses[lens.id] = lens
    seen_modes: dict[str, GenericFailureMode] = {}
    for lens in lenses:
        for mode in lens.modes:
            if mode.id in seen_modes:
                first = seen_modes[mode.id]
                raise CatalogError(
                    f"duplicate mode id '{mode.id}': "
                    f"{_located('declared', first.lens_id, first.line)} and "
                    f"{_located('again', mode.lens_id, mode.line)}"
                )
            seen_modes[mode.id] = mode
    return LensCatalog(lenses=lenses)


def applicable_modes(catalog: LensCatalog, interaction: Interaction) -> list[GenericFailureMode]:
    """Modes whose direction filter admits the interaction, in catalog order."""
    return [mode for mode in catalog.modes() if mode.applicability.admits(interaction.direction)]
