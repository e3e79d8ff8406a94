"""Bundled worked examples: input files plus golden outputs for tests.

Each fixture is a directory under ``hatlens/fixtures/`` holding a model
(``<name>.hat``), optional lens / binding / mitigation files, and the
golden outputs the current tool must regenerate bit-identically.  The
``atc`` fixture models a landing-sequence decision support scenario; the
``minimal`` fixture is a two-lane toy with one interaction.
"""

from __future__ import annotations

from pathlib import Path

from .cli import _build_parser, _bundle, _inputs
from .model import _HashRecord, _dataclass
from .report import emit_csv, emit_dot, emit_markdown, emit_second_order_json

_ROOT = Path(__file__).parent / "fixtures"

_GOLDEN_SUFFIXES = (".csv", ".dot", ".json", ".md")

# The trace of each fixture's report: the README's last quick-start command.
_TRACE_FLAGS = {"atc": [("--interaction", "3"), ("--category", "timely"), ("--direction", "down")]}


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
    """Locate a bundled fixture and load its inputs as the README's ``hatlens
    report`` command does: the files parse, the catalogs merge with the
    builtin ones and the model validates.  It raises, as ``regenerate`` does."""
    root = _ROOT / name
    model_path = root / f"{name}.hat"
    if not model_path.is_file():
        raise FileNotFoundError(f"no fixture named '{name}' under {_ROOT}")

    def optional(suffix: str) -> Path | None:
        path = root / f"{name}{suffix}"
        return path if path.is_file() else None

    fixture = GoldenFixture(
        name=name, root=root, model_path=model_path, lens_path=optional(".lens"),
        sfm_path=optional(".sfm"), mitigation_path=optional(".mit"),
        expected={path.name: path for path in sorted(root.iterdir())
                  if path.suffix in _GOLDEN_SUFFIXES and path.name != "README.md"})
    _inputs(_report_args(fixture))
    for path in fixture.expected.values():
        path.read_text(encoding="utf-8")
    return fixture


def _report_args(fixture: GoldenFixture):
    """The parsed README ``hatlens report`` command on the fixture's files and trace flags."""
    argv = ["report", str(fixture.model_path), "--format", "md"]
    for flag, value in [("--lens", fixture.lens_path), ("--mit", fixture.mitigation_path),
                        ("--sfm", fixture.sfm_path), *_TRACE_FLAGS.get(fixture.name, [])]:
        argv += [flag, str(value)] if value else []
    return _build_parser("report").parse_args(argv)


def regenerate(fixture: GoldenFixture) -> dict[str, str]:
    """Every golden, from the README's ``hatlens report`` command on the fixture's
    files and trace flags, run through ``hatlens.cli``.  It raises, never exits:
    ``OSError``, ``UnicodeDecodeError``, ``DslParseError``, ``CatalogError``,
    ``SpecialisationError``, or a ``ValueError`` for an invalid model (whose
    diagnostics go to standard error, as the command prints them) or a trace
    whose gain overflows."""
    model, bundle = _bundle(_report_args(fixture))
    recipes = {
        "table.csv": lambda: emit_csv(bundle.table),
        "pathway_sfm4.dot": lambda: emit_dot(model, bundle.pathways),
        "second_order.json": lambda: emit_second_order_json(bundle.second_order),
        "report.md": lambda: emit_markdown(bundle),
    }
    return {name: recipes[name]() for name in fixture.expected if name in recipes}
