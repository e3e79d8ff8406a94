"""Deterministic emitters for analysis results: CSV, Markdown, JSON, DOT.

Every emitter is a pure function of its arguments; identical input produces
byte-identical output.  CSV carries the failure-mode table alone, Markdown
and JSON carry a full ``ReportBundle``, DOT renders a model with one or
more trace pathways highlighted.

JSON is produced as a stream of pieces, the pathways in batches of some
64 KiB: ``emit_json`` joins them, and ``write_json`` writes each to a text
file, so a large trace never exists as one string.  Each array element is
spelled once with the text before it, and cached by a key that no other
value equal to it shares.  ``trace``'s own result, unedited, costs less: a
pathway keeps the spelled elements of the one before up to its fork.

``csv`` and ``json`` are imported by the functions that write them, so a
run that writes neither never loads them.
"""

from __future__ import annotations

import math
from itertools import repeat
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence, TextIO

from .dsl import _quote  # a DOT id is quoted and escaped as a DSL string is
from .mapping import FailureModeRow, FailureModeTable
from .mitigations import Mitigation
from .model import _FACTORY, Ooda2Model, _EqRecord, _FieldOptions, _dataclass
from .tracing import Pathways, SecondOrderEffect, TraceDirection, TracePathway

CSV_HEADER = ("I ID,SFM ID,Interaction Name,Machine Stage,Human Stage,Direction,"
              "Generic Failure Mode,Specialised Failure Mode")


class ReportError(ValueError):
    """Raised when asked to render mutually inconsistent inputs."""


@_dataclass
class ReportBundle(_EqRecord):
    """Everything one analysis run produced, ready for rendering."""

    table: FailureModeTable = _FieldOptions(default_factory=lambda: FailureModeTable(rows=[]))
    pathways: list[TracePathway] = _FieldOptions(default_factory=list)
    second_order: list[SecondOrderEffect] = _FieldOptions(default_factory=list)
    suggestions: list[tuple[FailureModeRow, Mitigation]] = _FieldOptions(default_factory=list)

    def __init__(self, table=_FACTORY, pathways=_FACTORY, second_order=_FACTORY,
                 suggestions=_FACTORY):
        self.table = FailureModeTable([]) if table is _FACTORY else table
        self.pathways = [] if pathways is _FACTORY else pathways
        self.second_order = [] if second_order is _FACTORY else second_order
        self.suggestions = [] if suggestions is _FACTORY else suggestions


def _row_cells(row: FailureModeRow) -> list[str]:
    return [
        str(row.i_id),
        "" if row.sfm_id is None else str(row.sfm_id),
        row.interaction_name,
        row.machine_stage.display(),
        row.human_stage.display(),
        row.direction.display(),
        row.generic_mode_title,
        "" if row.specialised_text is None else row.specialised_text,
    ]


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header and rows as CSV: LF endings, one trailing LF; fields holding
    commas, quotes, LF or CR are double-quoted."""
    import csv
    lines: list[str] = []
    # The writer quotes a field holding a character of its line terminator,
    # so a CRLF terminator quotes a lone CR on every Python (3.13 quotes it
    # whatever the terminator); each row's CRLF then becomes an LF.
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def emit_csv(table: FailureModeTable) -> str:
    """Failure-mode table as CSV under the exact fixed header."""
    return csv_text(CSV_HEADER.split(","), map(_row_cells, table.rows))


def _md_line(text: str) -> str:
    # A line break would end a table row or a bullet: CRLF, CR and LF each become <br>.
    return text.replace("\r\n", "<br>").replace("\r", "<br>").replace("\n", "<br>")


def _md_cell(text: str) -> str:
    return _md_line(text).replace("\\", "\\\\").replace("|", "\\|")


def pathway_label(pathway: TracePathway) -> str:
    """One line naming a pathway: origin, category, direction, chain, gain."""
    chain = " -> ".join(pathway.node_ids())
    return (f"interaction {pathway.origin.i_id} [{pathway.mode_category}, "
            f"{pathway.direction.value}]: {chain} "
            f"(gain {pathway.total_gain!r}, {pathway.classification.value})")


def _suggestion_label(row: FailureModeRow, mitigation: Mitigation) -> str:
    where = f"I{row.i_id}" if row.sfm_id is None else f"I{row.i_id}/SFM {row.sfm_id}"
    return (f"{where} [{row.generic_mode_category}]: "
            f"{mitigation.id} ({mitigation.name})")


def emit_markdown(bundle: ReportBundle) -> str:
    """Bundle as Markdown: the table as a pipe table, then pathway,
    second-order, and suggestion sections (each lists "(none)" when empty)."""
    header_cells = CSV_HEADER.split(",")
    lines = ["## Failure Modes", ""]
    lines.append("| " + " | ".join(header_cells) + " |")
    lines.append("| " + " | ".join("---" for _ in header_cells) + " |")
    cells = _Spellings(_md_cell)  # a wide table repeats a few hundred texts
    for row in bundle.table.rows:
        lines.append("| " + " | ".join(map(cells.__getitem__, _row_cells(row))) + " |")
    for title, items in (
        ("Pathways", map(pathway_label, bundle.pathways)),
        ("Second-order Effects", (f"SFM {effect.origin_sfm_id} induces "
                                  f"{effect.induced_mode.value}: {effect.rationale}"
                                  for effect in bundle.second_order)),
        ("Mitigation Suggestions", (_suggestion_label(row, mit)
                                    for row, mit in bundle.suggestions)),
    ):
        lines += ["", f"## {title}", ""]
        lines += [f"- {_md_line(item)}" for item in items] or ["(none)"]
    return "\n".join(lines) + "\n"


def _effect_json(effect: SecondOrderEffect) -> dict:
    return {
        "sfm_id": effect.origin_sfm_id,
        "induced_mode": effect.induced_mode.value,
        "rationale": effect.rationale,
    }


class _Spellings(dict):
    """Each key's spelling, made by ``spell`` on its first lookup."""

    def __init__(self, spell):
        super().__init__()
        self.spell = spell

    def __missing__(self, key):
        text = self[key] = self.spell(key)
        return text


def _pathways_json(pathways: Sequence[TracePathway]) -> Iterator[str]:
    """The pathways array, in batches of some 64 KiB, exactly as ``json.dumps(...,
    indent=2)`` writes it one level deep (``indent`` makes ``json`` use its
    pure-Python encoder), or raising what it raises.  Node ids and gains are
    cached as an array's first element and as a later one; gains by identity,
    as a trace shares one gain object per edge: by value, ``1``, ``True``,
    ``-0.0`` or ``Decimal("1.25")`` would get an equal float's spelling.
    Totals are new objects, so only the non-zero floats among them are cached."""
    import json
    from json.encoder import encode_basestring
    opening, comma, closing = "[\n        ", ",\n        ", "\n      ]"
    ids = _Spellings(lambda text: (opening + (s := encode_basestring(text)), comma + s))
    steps = {}  # each gain's forms and the gain, kept alive so that no other gets its id
    totals = _Spellings(lambda f: float.__repr__(f) if math.isfinite(f) else json.dumps(f))
    between, empty = f'{closing},\n      "step_gains": ', '[],\n      "step_gains": '
    separator = "[\n    "
    # The previous pathway's spelled nodes and step gains: in ``trace``'s own
    # result, unedited, a pathway keeps those before its fork; elsewhere none.
    spelled_nodes, spelled_gains, batch = [], [], []
    own = isinstance(pathways, Pathways) and tuple(pathways) == pathways.walked
    forks = pathways.forks if own else repeat(0)
    head_of = None
    for pathway, fork in zip(pathways, forks):
        # Past a fork the trace is the same, and so are the first three members.
        if not fork and (of := (pathway.origin, pathway.mode_category,
                                pathway.direction)) != head_of:
            head_of = of
            head = (f'{{\n      "interaction_id": {json.dumps(pathway.origin.i_id)},\n      '
                    f'"category": {json.dumps(pathway.mode_category, ensure_ascii=False)},\n'
                    f'      "direction": {json.dumps(pathway.direction.value)},\n      "nodes": ')
        kept = fork and fork - 1  # the start node has no step gain
        del spelled_nodes[fork:], spelled_gains[kept:]
        form = fork > 0  # a kept element is the array's first
        for node in pathway.nodes[fork:]:  # a loop costs less than a comprehension's call
            spelled_nodes.append(ids[node.id][form])
            form = 1
        form = kept > 0
        for gain in pathway.step_gains[kept:]:
            try:
                spelled_gains.append(steps[id(gain)][form])
            except KeyError:  # a gain object met for the first time
                steps[id(gain)] = opening + (s := json.dumps(gain)), comma + s, gain
                spelled_gains.append(steps[id(gain)][form])
            form = 1
        total = totals[t] if type(t := pathway.total_gain) is float and t else json.dumps(t)
        batch.append(separator + head)
        batch += spelled_nodes
        batch.append(between if spelled_nodes else empty)
        batch += spelled_gains
        # An empty array is "[]".  ``_value_`` is a plain attribute, and needs no JSON escape.
        batch.append(f'{closing if spelled_gains else "[]"},\n      "total_gain": {total},'
                     f'\n      "classification": "{pathway.classification._value_}"\n    }}')
        separator = ",\n    "
        if len(batch) > 3000:  # some 64 KiB where ids are short
            yield "".join(batch)
            batch.clear()
    batch.append("[]" if head_of is None else "\n  ]")
    yield "".join(batch)


def _nested(value) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it one level deep.
    JSON strings hold no raw newline, so indenting every line nests it."""
    import json
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n  ")


def _json_pieces(bundle: ReportBundle) -> Iterator[str]:
    """The bundle's JSON document, in pieces, with a fixed key order (schema
    shipped in docs/).  The pathways come in batches of some 64 KiB, so no
    caller needs the whole document in memory."""
    yield '{\n  "failure_modes": '
    yield _nested([
        {
            "i_id": row.i_id,
            "sfm_id": row.sfm_id,
            "interaction_name": row.interaction_name,
            "machine_stage": row.machine_stage.display(),
            "human_stage": row.human_stage.display(),
            "direction": row.direction.display(),
            "generic_failure_mode": row.generic_mode_title,
            "specialised_failure_mode": row.specialised_text,
            "category": row.generic_mode_category,
        }
        for row in bundle.table.rows
    ])
    yield ',\n  "pathways": '
    yield from _pathways_json(bundle.pathways)
    yield ',\n  "second_order_effects": '
    yield _nested([_effect_json(effect) for effect in bundle.second_order])
    yield ',\n  "mitigation_suggestions": '
    yield _nested([
        {
            "i_id": row.i_id,
            "sfm_id": row.sfm_id,
            "category": row.generic_mode_category,
            "mitigation_id": mitigation.id,
            "mitigation_name": mitigation.name,
        }
        for row, mitigation in bundle.suggestions
    ])
    yield "\n}\n"


def emit_json(bundle: ReportBundle) -> str:
    """Bundle as JSON with a fixed key order (schema shipped in docs/)."""
    return "".join(_json_pieces(bundle))


def write_json(bundle: ReportBundle, out: TextIO) -> None:
    """Write ``emit_json(bundle)`` to the text file ``out`` without holding the
    whole document in memory: the pathways go in batches of some 64 KiB."""
    for piece in _json_pieces(bundle):
        out.write(piece)


def emit_second_order_json(effects: Sequence[SecondOrderEffect]) -> str:
    """Second-order effects alone, as a JSON array."""
    import json
    return json.dumps([_effect_json(effect) for effect in effects],
                      indent=2, ensure_ascii=False) + "\n"


def emit_dot(model: Ooda2Model, pathway: TracePathway | Sequence[TracePathway]) -> str:
    """Model as a DOT digraph, lanes as subgraph clusters, with the given
    pathway's nodes and edges highlighted (penwidth) and each pathway's
    originating interaction edge dashed.  Accepts one pathway or several
    (the highlight is their union); every pathway must belong to the model."""
    pathways = [pathway] if isinstance(pathway, TracePathway) else list(pathway)
    highlight_nodes: set[str] = set()
    highlight_pairs: set[tuple[str, str]] = set()
    dashed_edges: set[str] = set()
    model_pairs = {(edge.from_id, edge.to_id) for edge in model.edges}
    model_edge_ids = {edge.id for edge in model.edges}
    model_nodes = model.nodes_by_id()
    for trail in pathways:
        ids = trail.node_ids()
        for node_id in ids:
            if node_id not in model_nodes:
                raise ReportError(
                    f"pathway node '{node_id}' is not part of model '{model.name}'")
        for first, second in zip(ids, ids[1:]):
            pair = ((first, second) if trail.direction is TraceDirection.DOWNSTREAM
                    else (second, first))
            if pair not in model_pairs:
                raise ReportError(
                    f"pathway step {pair[0]} -> {pair[1]} has no edge in model "
                    f"'{model.name}'")
            highlight_pairs.add(pair)
        if trail.origin.edge.id not in model_edge_ids:
            raise ReportError(
                f"pathway interaction edge '{trail.origin.edge.id}' is not part of "
                f"model '{model.name}'")
        highlight_nodes.update(ids)
        dashed_edges.add(trail.origin.edge.id)

    # Each lane's node lines, in model order; a node of no lane is not drawn.
    lane_nodes: dict[str, list[str]] = {lane.id: [] for lane in model.lanes}
    for node in model.nodes:
        if node.lane_id in lane_nodes:
            highlight = ", penwidth=3" if node.id in highlight_nodes else ""
            lane_nodes[node.lane_id].append(
                f"    {_quote(node.id)} [label={_quote(node.label)}{highlight}];")
    lines = [f"digraph {_quote(model.name)} {{", "  rankdir=LR;", "  node [shape=box];"]
    for lane in model.lanes:
        lines.append(f"  subgraph {_quote('cluster_' + lane.id)} {{")
        lines.append(f"    label={_quote(lane.display_name)};")
        lines += lane_nodes[lane.id]
        lines.append("  }")
    for edge in model.edges:
        attrs = []
        caption = edge.name if edge.name is not None else (
            f"[{edge.guard}]" if edge.guard is not None else None)
        if caption is not None:
            attrs.append(f"label={_quote(caption)}")
        if edge.id in dashed_edges:
            attrs.append("style=dashed")
        if (edge.from_id, edge.to_id) in highlight_pairs:
            attrs.append("penwidth=3")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(edge.from_id)} -> {_quote(edge.to_id)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
