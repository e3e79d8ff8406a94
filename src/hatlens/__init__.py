"""Left-shift risk analysis for human-autonomy teaming.

The package models joint human/machine activities as swimlane graphs of
Observe-Orient-Decide-Act loops, extracts the boundary-crossing
interactions, maps failure-mode lens catalogs onto them, specialises the
resulting table, traces how failures propagate with amplify/dampen
semantics, and renders audit-grade reports.

Every public name, and each submodule, loads on first use:
``import hatlens`` imports none of the submodules, and ``hatlens.<name>``
imports only the one module that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "dsl": (
        "DslParseError",
        "ParseDiagnostic",
        "parse_lens_catalog",
        "parse_mitigation_catalog",
        "parse_model",
        "parse_sfm_bindings",
        "serialize_lens_catalog",
        "serialize_mitigation_catalog",
        "serialize_model",
        "serialize_sfm_bindings",
    ),
    "fixtures": (
        "GoldenFixture",
        "available_fixtures",
        "load_fixture",
        "regenerate",
    ),
    "interactions": (
        "Direction",
        "Interaction",
        "extract_interactions",
        "interaction_by_id",
    ),
    "lenses": (
        "Applicability",
        "CatalogError",
        "GenericFailureMode",
        "Lens",
        "LensCatalog",
        "applicable_modes",
        "builtin_catalog",
        "merge_catalogs",
    ),
    "mapping": (
        "FailureModeRow",
        "FailureModeTable",
        "SpecialisationError",
        "SpecialisedFailureMode",
        "apply_specialisations",
        "map_failure_modes",
    ),
    "mitigations": (
        "DEFAULT_DAMPING",
        "Mitigation",
        "Placement",
        "builtin_mitigations",
        "suggest_mitigations",
    ),
    "model": (
        "ActionNode",
        "ActivityEdge",
        "Diagnostic",
        "GainBehaviour",
        "GainKind",
        "Lane",
        "LaneKind",
        "Ooda2Model",
        "Severity",
        "Side",
        "Stage",
        "Strictness",
        "UnknownIdError",
        "has_errors",
        "lane_lookup",
        "node_lookup",
        "node_side",
        "validate",
    ),
    "report": (
        "CSV_HEADER",
        "ReportBundle",
        "ReportError",
        "emit_csv",
        "emit_dot",
        "emit_json",
        "emit_markdown",
        "emit_second_order_json",
        "write_json",
    ),
    "tracing": (
        "DEFAULT_MAX_DEPTH",
        "Classification",
        "InducedMode",
        "SecondOrderEffect",
        "TraceDirection",
        "TracePathway",
        "classify",
        "derive_second_order",
        "trace",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
