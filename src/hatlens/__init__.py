"""Left-shift risk analysis for human-autonomy teaming.

The package models joint human/machine activities as swimlane graphs of
Observe-Orient-Decide-Act loops, extracts the boundary-crossing
interactions, maps failure-mode lens catalogs onto them, specialises the
resulting table, traces how failures propagate with amplify/dampen
semantics, and renders audit-grade reports.
"""

from .dsl import (
    DslParseError,
    ParseDiagnostic,
    parse_lens_catalog,
    parse_mitigation_catalog,
    parse_model,
    parse_sfm_bindings,
    serialize_lens_catalog,
    serialize_mitigation_catalog,
    serialize_model,
    serialize_sfm_bindings,
)
from .interactions import (
    Direction,
    Interaction,
    extract_interactions,
    interaction_by_id,
)
from .lenses import (
    Applicability,
    CatalogError,
    GenericFailureMode,
    Lens,
    LensCatalog,
    applicable_modes,
    builtin_catalog,
    merge_catalogs,
)
from .mapping import (
    FailureModeRow,
    FailureModeTable,
    SpecialisationError,
    SpecialisedFailureMode,
    apply_specialisations,
    map_failure_modes,
)
from .mitigations import (
    DEFAULT_DAMPING,
    Mitigation,
    Placement,
    builtin_mitigations,
    suggest_mitigations,
)
from .model import (
    ActionNode,
    ActivityEdge,
    Diagnostic,
    GainBehaviour,
    GainKind,
    Lane,
    LaneKind,
    Ooda2Model,
    Severity,
    Side,
    Stage,
    Strictness,
    UnknownIdError,
    has_errors,
    lane_lookup,
    node_lookup,
    node_side,
    validate,
)
from .report import (
    CSV_HEADER,
    ReportBundle,
    ReportError,
    emit_csv,
    emit_dot,
    emit_json,
    emit_markdown,
    emit_second_order_json,
    write_json,
)
from .tracing import (
    DEFAULT_MAX_DEPTH,
    Classification,
    InducedMode,
    SecondOrderEffect,
    TraceDirection,
    TracePathway,
    classify,
    derive_second_order,
    trace,
)

__version__ = "0.1.0"

# The fixture helpers are imported on first use: the CLI never needs them.
_FIXTURE_NAMES = {"GoldenFixture", "available_fixtures", "load_fixture", "regenerate"}


def __getattr__(name: str):
    if name in _FIXTURE_NAMES:
        from . import fixtures
        return getattr(fixtures, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ActionNode",
    "ActivityEdge",
    "Applicability",
    "CSV_HEADER",
    "CatalogError",
    "Classification",
    "DEFAULT_DAMPING",
    "DEFAULT_MAX_DEPTH",
    "Diagnostic",
    "Direction",
    "DslParseError",
    "FailureModeRow",
    "FailureModeTable",
    "GainBehaviour",
    "GainKind",
    "GenericFailureMode",
    "GoldenFixture",
    "InducedMode",
    "Interaction",
    "Lane",
    "LaneKind",
    "Lens",
    "LensCatalog",
    "Mitigation",
    "Ooda2Model",
    "ParseDiagnostic",
    "Placement",
    "ReportBundle",
    "ReportError",
    "SecondOrderEffect",
    "Severity",
    "Side",
    "SpecialisationError",
    "SpecialisedFailureMode",
    "Stage",
    "Strictness",
    "TraceDirection",
    "TracePathway",
    "UnknownIdError",
    "applicable_modes",
    "apply_specialisations",
    "available_fixtures",
    "builtin_catalog",
    "builtin_mitigations",
    "classify",
    "derive_second_order",
    "emit_csv",
    "emit_dot",
    "emit_json",
    "emit_markdown",
    "emit_second_order_json",
    "extract_interactions",
    "has_errors",
    "interaction_by_id",
    "lane_lookup",
    "load_fixture",
    "map_failure_modes",
    "merge_catalogs",
    "node_lookup",
    "node_side",
    "parse_lens_catalog",
    "parse_mitigation_catalog",
    "parse_model",
    "parse_sfm_bindings",
    "regenerate",
    "serialize_lens_catalog",
    "serialize_mitigation_catalog",
    "serialize_model",
    "serialize_sfm_bindings",
    "suggest_mitigations",
    "trace",
    "validate",
    "write_json",
]
