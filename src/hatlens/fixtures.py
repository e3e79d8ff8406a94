"""Bundled worked examples: input files plus golden outputs for tests.

Each fixture is a directory under ``hatlens/fixtures/`` holding a model
(``<name>.hat``), optional lens / binding / mitigation files, and the
golden outputs the current tool must regenerate bit-identically.  The
``atc`` fixture models a landing-sequence decision support scenario; the
``minimal`` fixture is a two-lane toy with one interaction.
"""

from __future__ import annotations

from pathlib import Path

from .cli import _parse_file, load_catalogs
from .dsl import parse_model, parse_sfm_bindings
from .interactions import extract_interactions, interaction_by_id
from .lenses import LensCatalog
from .mapping import SpecialisedFailureMode, apply_specialisations, map_failure_modes
from .mitigations import Mitigation, suggest_mitigations
from .model import Ooda2Model, _HashRecord, _dataclass
from .report import ReportBundle, emit_csv, emit_dot, emit_markdown, emit_second_order_json
from .tracing import TraceDirection, derive_second_order, trace

_ROOT = Path(__file__).parent / "fixtures"

_GOLDEN_SUFFIXES = (".csv", ".dot", ".json", ".md")


@_dataclass
class GoldenFixture(_HashRecord):
    """A bundled example: its input paths and its golden outputs by file name."""

    name: str
    root: Path
    model_path: Path
    lens_path: Path | None
    sfm_path: Path | None
    mitigation_path: Path | None
    expected: dict[str, Path]

    def __init__(self, name, root, model_path, lens_path, sfm_path, mitigation_path, expected):
        fields = vars(self)
        fields["name"] = name
        fields["root"] = root
        fields["model_path"] = model_path
        fields["lens_path"] = lens_path
        fields["sfm_path"] = sfm_path
        fields["mitigation_path"] = mitigation_path
        fields["expected"] = expected


def available_fixtures() -> list[str]:
    return sorted(entry.name for entry in _ROOT.iterdir() if entry.is_dir())


def load_fixture(name: str) -> GoldenFixture:
    """Locate a bundled fixture and check that its inputs load: every file
    parses, and its lens catalog merges with the builtin one."""
    root = _ROOT / name
    model_path = root / f"{name}.hat"
    if not model_path.is_file():
        raise FileNotFoundError(f"no fixture named '{name}' under {_ROOT}")

    def optional(suffix: str) -> Path | None:
        path = root / f"{name}{suffix}"
        return path if path.is_file() else None

    fixture = GoldenFixture(
        name=name,
        root=root,
        model_path=model_path,
        lens_path=optional(".lens"),
        sfm_path=optional(".sfm"),
        mitigation_path=optional(".mit"),
        expected={
            path.name: path
            for path in sorted(root.iterdir())
            if path.suffix in _GOLDEN_SUFFIXES and path.name != "README.md"
        },
    )
    _inputs(fixture)
    for path in fixture.expected.values():
        path.read_text(encoding="utf-8")
    return fixture


def _inputs(fixture: GoldenFixture) -> tuple[
        Ooda2Model, LensCatalog, list[Mitigation], list[SpecialisedFailureMode]]:
    """The model, lens catalog, mitigations and bindings, loaded as the CLI loads them."""
    catalog, mitigations = load_catalogs(
        [fixture.lens_path] if fixture.lens_path else [],
        [fixture.mitigation_path] if fixture.mitigation_path else [])
    model = _parse_file(fixture.model_path, parse_model)
    return model, catalog, mitigations, (
        [] if fixture.sfm_path is None else _parse_file(fixture.sfm_path, parse_sfm_bindings))


def regenerate(fixture: GoldenFixture) -> dict[str, str]:
    """Recompute every golden output from the fixture's inputs."""
    model, catalog, mitigations, sfms = _inputs(fixture)
    interactions = extract_interactions(model)
    table = apply_specialisations(map_failure_modes(interactions, catalog), sfms)
    # The README's report: SFM 4's interaction and category, downstream.
    origin = next((row for row in table.rows if row.sfm_id == 4), None)
    pathways = [] if origin is None else trace(
        model, interaction_by_id(interactions, origin.i_id), origin.generic_mode_category,
        TraceDirection.DOWNSTREAM, mitigation_catalog=mitigations)
    bundle = ReportBundle(table, pathways, derive_second_order(sfms, interactions, catalog),
                          suggest_mitigations(table, mitigations))
    recipes = {
        "table.csv": lambda: emit_csv(bundle.table),
        "pathway_sfm4.dot": lambda: emit_dot(model, bundle.pathways),
        "second_order.json": lambda: emit_second_order_json(bundle.second_order),
        "report.md": lambda: emit_markdown(bundle),
    }
    return {name: recipes[name]() for name in fixture.expected if name in recipes}
