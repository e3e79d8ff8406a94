"""The traced run: the real ``hatlens.cli.run`` with a span at each public call.

``hatlens.cli`` imports every public function it calls by name into its own
namespace and looks each one up when it calls it.  ``instrumented`` swaps
each of those names for a wrapper that records a span around the call, so
the traced run is the CLI's own call sequence, whatever it becomes.  A span
records its name, start, end, parent span and run id; spans stay in memory
until the benchmark writes them out.  The wrappers also keep each call's
arguments and result, and counts are derived from them after the session,
outside every timed span.

After the session, a sweep calls each layer function the session did not
reach, on the session's own data, so every per-layer metric exists on
every workload.  Sweep spans hang under a ``bench.sweep`` root and never
count towards the CLI's time.
"""

from __future__ import annotations

import inspect
import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# Public functions with a per-layer ``<name>_ms`` metric, by span name.
LAYER_SPANS = (
    "dsl.parse_model", "dsl.parse_sfm_bindings", "dsl.parse_lens_catalog",
    "dsl.parse_mitigation_catalog", "dsl.serialize_model", "model.validate",
    "interactions.extract", "lenses.builtin_catalog", "lenses.merge_catalogs",
    "mapping.map_failure_modes", "mapping.apply_specialisations",
    "mitigations.suggest_mitigations", "tracing.trace", "tracing.derive_second_order",
    "report.emit_json", "report.emit_markdown", "report.emit_csv", "report.emit_dot",
)
ALLOC_SPANS = ("tracing.trace", "report.emit_json")
# A span is named ``<module>.<function>``, save where the metric names differ.
ALIASES = {"extract_interactions": "extract"}
SESSION_ROOT = "cli."
SWEEP_ROOT = "bench.sweep"


def _lines(args, result) -> dict[str, int]:
    return {"dsl.parse_model_lines": args[0].count("\n"),
            "model.nodes": len(result.nodes), "model.edges": len(result.edges)}


def _rows_added(args, result) -> dict[str, int]:
    return {"mapping.rows": len(result.rows) - len(args[0].rows)}


def _pathways(args, result) -> dict[str, int]:
    return {"tracing.pathways": len(result),
            "tracing.pathway_nodes": sum(len(pathway.nodes) for pathway in result)}


def _sized(name: str):
    return lambda args, result: {name: len(result.encode()) if isinstance(result, str)
                                 else len(getattr(result, "rows", result))}


# What each call adds to the counts, from its arguments and result.  A table's
# rows are counted where ``map_failure_modes`` makes it, plus the rows that
# ``apply_specialisations`` adds, so the count is the final table's.
COUNTS = {
    "dsl.parse_model": _lines,
    "model.validate": _sized("model.diagnostics"),
    "interactions.extract": _sized("interactions.count"),
    "mapping.map_failure_modes": _sized("mapping.rows"),
    "mapping.apply_specialisations": _rows_added,
    "mitigations.suggest_mitigations": _sized("mitigations.suggestions"),
    "tracing.trace": _pathways,
    "report.emit_json": _sized("report.emit_json_bytes"),
    "report.emit_markdown": _sized("report.emit_markdown_bytes"),
}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    run: int


@dataclass
class Call:
    """One wrapped call: its span's index, arguments and result."""

    span: int
    args: tuple
    kwargs: dict
    result: object


@dataclass
class Tracer:
    """Collects spans and calls.  With ``alloc`` it also records the peak
    memory each ``ALLOC_SPANS`` call allocates, tracing allocations with
    tracemalloc during those calls only; their times are then skewed."""

    run: int = 0
    alloc: bool = False
    spans: list[Span] = field(default_factory=list)
    calls: list[Call] = field(default_factory=list)  # since the last ``counts()``
    alloc_peaks: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter_ns(), 0, parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        measure = self.alloc and name in ALLOC_SPANS
        if measure:
            tracemalloc.start()
        try:
            yield
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()
            if measure:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peaks[name] = max(self.alloc_peaks.get(name, 0), peak)

    def call(self, name: str, function, *args, **kwargs):
        index = len(self.spans)
        with self.span(name):
            result = function(*args, **kwargs)
        self.calls.append(Call(index, args, kwargs, result))
        return result

    def wrap(self, name: str, function):
        def traced(*args, **kwargs):
            return self.call(name, function, *args, **kwargs)
        return traced

    def latest(self, name: str) -> list[Call]:
        """The calls of ``name`` under the last root span that made any."""
        calls = [call for call in self.calls if self.spans[call.span].name == name]
        if not calls:
            return []
        root = self.root(calls[-1].span)
        return [call for call in calls if self.root(call.span) == root]

    def root(self, index: int) -> int:
        while self.spans[index].parent is not None:
            index = self.spans[index].parent
        return index

    def counts(self) -> dict[str, int]:
        """Counts over the calls since the last ``counts()``, which it drops."""
        totals: dict[str, int] = {}
        for call in self.calls:
            count = COUNTS.get(self.spans[call.span].name)
            for name, amount in (count(call.args, call.result) if count else {}).items():
                totals[name] = totals.get(name, 0) + amount
        self.calls.clear()
        return totals


def public_calls(cli) -> dict[str, str]:
    """Every hatlens function that ``cli`` imports by name, with its span."""
    calls = {}
    for name, value in vars(cli).items():
        module = getattr(value, "__module__", "") or ""
        if inspect.isfunction(value) and module.startswith("hatlens.") and (
                module != cli.__name__):
            calls[name] = f"{module.rsplit('.', 1)[1]}.{ALIASES.get(name, name)}"
    return calls


@contextmanager
def instrumented(cli, tracer: Tracer):
    """``cli``'s public calls wrapped in ``tracer``'s spans, for the block."""
    originals = {name: getattr(cli, name) for name in public_calls(cli)}
    for name, span in public_calls(cli).items():
        setattr(cli, name, tracer.wrap(span, originals[name]))
    try:
        yield
    finally:
        for name, function in originals.items():
            setattr(cli, name, function)


def sweep(h, t: Tracer) -> None:
    """Call every layer function the session did not reach, on its data,
    under a ``bench.sweep`` root.  ``h`` is the imported hatlens package."""
    done = {t.spans[call.span].name for call in t.calls}

    def result(name: str, default=None):
        calls = t.latest(name)
        return calls[-1].result if calls else default

    def once(name, function, *args, **kwargs):
        return result(name) if name in done else t.call(name, function, *args, **kwargs)

    checked = t.latest("model.validate")[-1]
    model = checked.args[0]
    catalog = checked.kwargs["lens_catalog"]
    mitigations = checked.kwargs["mitigation_catalog"]
    interactions = result("interactions.extract")
    sfms = result("dsl.parse_sfm_bindings", [])
    table = result("mapping.apply_specialisations") or result("mapping.map_failure_modes")
    pathways = [pathway for call in t.latest("tracing.trace") for pathway in call.result]
    with t.span(SWEEP_ROOT):
        once("dsl.serialize_model", h.serialize_model, model)
        once("dsl.parse_lens_catalog", h.parse_lens_catalog,
             h.serialize_lens_catalog(catalog))
        once("lenses.merge_catalogs", h.merge_catalogs, catalog, h.LensCatalog(lenses=[]))
        once("dsl.parse_mitigation_catalog", h.parse_mitigation_catalog,
             h.serialize_mitigation_catalog(mitigations))
        once("dsl.parse_sfm_bindings", h.parse_sfm_bindings, h.serialize_sfm_bindings(sfms))
        if table is None:
            table = once("mapping.map_failure_modes", h.map_failure_modes, interactions,
                         catalog)
        once("mapping.apply_specialisations", h.apply_specialisations, table, sfms)
        second_order = once("tracing.derive_second_order", h.derive_second_order, sfms,
                            interactions, catalog)
        suggestions = once("mitigations.suggest_mitigations", h.suggest_mitigations, table,
                           mitigations)
        bundle = h.ReportBundle(table=table, pathways=pathways, second_order=second_order,
                                suggestions=suggestions)
        once("report.emit_csv", h.emit_csv, table)
        once("report.emit_markdown", h.emit_markdown, bundle)
        once("report.emit_json", h.emit_json, bundle)
        if pathways:
            once("report.emit_dot", h.emit_dot, model, pathways)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part its child spans cover (ns)."""
    own = [span.end_ns - span.start_ns for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end_ns - span.start_ns
    return own


def write_spans(path: Path, spans: list[Span]) -> None:
    """Every span, with its index as ``id`` and its derived self time."""
    path.parent.mkdir(parents=True, exist_ok=True)
    records = [dict(span.__dict__, id=index, self_ns=own)
               for index, (span, own) in enumerate(zip(spans, self_times(spans)))]
    path.write_text(json.dumps(records) + "\n", encoding="utf-8")
