"""The three benchmark workloads: their inputs, commands and reference checks.

A workload is staged into a private directory: the ATC fixture files are
copied, the synthetic models are generated from the seed.  Every command is
described once, as a ``Command``, whose argv both the cold processes and the
in-process traced run receive.

Reference checks never use hatlens code.  They compare against the fixture
goldens and the README text, or recompute the expected result from the
generator's own facts and a small reader of the ``.hat`` text format.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import generate

DEFAULT_MAX_DEPTH = 16  # the CLI's --max-depth default, as documented in its help

# The quick-start output printed in the README.
README_INTERACTIONS = """\
I ID,Interaction Name,Machine Stage,Human Stage,Direction
1,Observe traffic picture,Observe,Observe,Machine->Human
2,Observe current schedule,Observe,Observe,Machine->Human
3,Observe Landing Sequence,Decide,Observe,Machine->Human
4,Ingest controller's selected sequence,Observe,Decide,Human->Machine
"""
README_TRACE_LINE = (
    "interaction 3 [stability, up]: hmi_recommend -> hmi_format -> hmi_receive -> "
    "m_publish -> m_select -> m_project -> m_ingest (gain 1.0, Neutral)"
)
MD_SECTIONS = ("## Failure Modes", "## Pathways", "## Second-order Effects",
               "## Mitigation Suggestions")
# Mode category per mode id (builtins use the id; the ATC lens adds two) and
# how many catalog mitigations (builtins plus ``atc.mit``) bind each category.
MODE_CATEGORY = {mode: mode for mode in generate.M2H_MODES + generate.H2M_MODES}
MODE_CATEGORY.update(unstable="stability", timely="timely")
MITIGATIONS_PER_CATEGORY = {"robustness": 2, "misuse": 2, "disuse": 2, "stability": 1,
                            "timely": 1}
SECOND_ORDER_CATEGORIES = ("stability", "timely", "uncertainty")

Check = Callable[[bytes], "str | None"]


@dataclass(frozen=True)
class Command:
    """One hatlens invocation; ``argv()`` is what a cold process receives."""

    sub: str
    model: str
    lens: tuple[str, ...] = ()
    mit: tuple[str, ...] = ()
    sfm: str | None = None
    interaction: int | None = None
    category: str | None = None
    direction: str | None = None
    max_depth: int | None = None
    fmt: str | None = None

    def argv(self) -> list[str]:
        argv = [self.sub, self.model]
        for path in self.lens:
            argv += ["--lens", path]
        for path in self.mit:
            argv += ["--mit", path]
        if self.sfm is not None:
            argv += ["--sfm", self.sfm]
        if self.interaction is not None:
            argv += ["--interaction", str(self.interaction), "--category", self.category,
                     "--direction", self.direction]
        if self.max_depth is not None:
            argv += ["--max-depth", str(self.max_depth)]
        if self.fmt is not None:
            argv += ["--format", self.fmt]
        return argv

    def directions(self) -> list[str]:
        if self.interaction is None:
            return []
        return ["up", "down"] if self.direction == "both" else [self.direction]


@dataclass
class Graph:
    """What the reference reader takes from a ``.hat`` file."""

    successors: dict[str, list[str]] = field(default_factory=dict)
    predecessors: dict[str, list[str]] = field(default_factory=dict)
    interactions: list[tuple[str, str]] = field(default_factory=list)  # (source, target)

    def pathways(self, i_id: int, direction: str,
                 max_depth: int) -> tuple[list[tuple[str, ...]], int]:
        """Maximal simple paths from an interaction endpoint, sorted, and how
        many of them the depth cap cut while their tip had unvisited
        successors."""
        source, target = self.interactions[i_id - 1]
        if direction == "down":
            return maximal_paths(self.successors, target, max_depth)
        return maximal_paths(self.predecessors, source, max_depth)


@dataclass
class Staged:
    """A workload ready to run: its commands with their checks."""

    commands: list[tuple[Command, Check]]
    graph: Graph


def maximal_paths(adjacency: dict[str, list[str]], start: str,
                  max_depth: int) -> tuple[list[tuple[str, ...]], int]:
    paths: list[tuple[str, ...]] = []
    truncated = 0
    stack = [(start,)]
    while stack:
        path = stack.pop()
        onward = [node for node in adjacency.get(path[-1], ()) if node not in path]
        if len(path) == max_depth or not onward:
            paths.append(path)
            truncated += bool(onward)
            continue
        stack.extend(path + (node,) for node in onward)
    paths.sort()
    return paths, truncated


_LANE = re.compile(r"lane (\S+) side=(human|machine)\b")
_NODE = re.compile(r"node (\S+) lane=(\S+)")
_EDGE = re.compile(r"edge (\S+) -> (\S+)")


def read_graph(hat_text: str) -> Graph:
    """Edges and interactions of a well-formed model, read line by line."""
    sides: dict[str, str] = {}
    node_side: dict[str, str] = {}
    graph = Graph()
    for line in hat_text.splitlines():
        if match := _LANE.match(line):
            sides[match[1]] = match[2]
        elif match := _NODE.match(line):
            node_side[match[1]] = sides[match[2]]
        elif match := _EDGE.match(line):
            src, dst = match[1], match[2]
            for adjacency, a, b in ((graph.successors, src, dst),
                                    (graph.predecessors, dst, src)):
                onward = adjacency.setdefault(a, [])
                if b not in onward:
                    onward.append(b)
            if node_side[src] != node_side[dst]:
                graph.interactions.append((src, dst))
    return graph


def _text(output: bytes) -> str:
    return output.decode("utf-8")


_PATHWAY_LINE = re.compile(
    r"interaction (\d+) \[([a-z_]+), (up|down)\]: (.+) \(gain ([^,]+), "
    r"(Mitigated|Neutral|Amplified)\)\Z")


def _check_pathway_lines(lines: list[str], expected: list[tuple[str, tuple[str, ...]]],
                         i_id: int, category: str) -> str | None:
    if len(lines) != len(expected):
        return f"{len(lines)} pathways, reference has {len(expected)}"
    for line, (direction, nodes) in zip(lines, expected):
        match = _PATHWAY_LINE.match(line)
        if not match:
            return f"malformed pathway line: {line[:120]}"
        if (int(match[1]), match[2], match[3]) != (i_id, category, direction):
            return f"pathway line has wrong header: {line[:120]}"
        if tuple(match[4].split(" -> ")) != nodes:
            return f"pathway differs from reference: {line[:120]}"
        if not math.isfinite(float(match[5])):
            return f"non-finite gain: {line[:120]}"
    return None


def _expected_pathways(graph: Graph, command: Command) -> list[tuple[str, tuple[str, ...]]]:
    depth = command.max_depth or DEFAULT_MAX_DEPTH
    return [(direction, path) for direction in command.directions()
            for path in graph.pathways(command.interaction, direction, depth)[0]]


def _md_sections(text: str) -> dict[str, list[str]] | str:
    """Section header -> its non-blank body lines, or a failure reason."""
    lines = text.splitlines()
    starts = [lines.index(header) if header in lines else -1 for header in MD_SECTIONS]
    if -1 in starts or starts != sorted(starts):
        return "Markdown sections missing or out of order"
    bounds = starts + [len(lines)]
    return {header: [line for line in lines[bounds[k] + 1:bounds[k + 1]] if line]
            for k, header in enumerate(MD_SECTIONS)}


def _md_row(cells: list[str]) -> str:
    escaped = [cell.replace("\\", "\\\\").replace("|", "\\|") for cell in cells]
    return "| " + " | ".join(escaped) + " |"


def _bullets(body: list[str]) -> list[str]:
    return [] if body == ["(none)"] else [line[2:] for line in body]


# --- atc_session ---------------------------------------------------------


def _stage_atc(root: Path, inputs: Path) -> Staged:
    fixture = root / "src" / "hatlens" / "fixtures" / "atc"
    for name in ("atc.hat", "atc.lens", "atc.sfm", "atc.mit"):
        shutil.copyfile(fixture / name, inputs / name)
    golden_csv = (fixture / "table.csv").read_bytes()
    golden_dot = (fixture / "pathway_sfm4.dot").read_bytes()
    graph = read_graph((inputs / "atc.hat").read_text(encoding="utf-8"))
    hat, lens, sfm, mit = (str(inputs / name)
                           for name in ("atc.hat", "atc.lens", "atc.sfm", "atc.mit"))

    def equals(expected: bytes, what: str) -> Check:
        return lambda output: None if output == expected else f"output differs from {what}"

    trace_up = Command("trace", hat, interaction=3, category="stability", direction="up")

    def check_trace_up(output: bytes) -> str | None:
        lines = _text(output).splitlines()
        if not lines or lines[0] != README_TRACE_LINE:
            return "first trace line differs from the README"
        return _check_pathway_lines(lines, _expected_pathways(graph, trace_up), 3,
                                    "stability")

    report = Command("report", hat, lens=(lens,), mit=(mit,), sfm=sfm, interaction=3,
                     category="timely", direction="down", fmt="md")
    table_rows = [_md_row(row) for row in csv.reader(io.StringIO(golden_csv.decode()))]

    def check_report(output: bytes) -> str | None:
        sections = _md_sections(_text(output))
        if isinstance(sections, str):
            return sections
        rows = sections["## Failure Modes"]
        if [rows[0]] + rows[2:] != table_rows:
            return "failure-mode table differs from table.csv"
        return _check_pathway_lines(_bullets(sections["## Pathways"]),
                                    _expected_pathways(graph, report), 3, "timely")

    return Staged([
        (Command("interactions", hat), equals(README_INTERACTIONS.encode(), "the README")),
        (Command("specialise", hat, lens=(lens,), sfm=sfm), equals(golden_csv, "table.csv")),
        (trace_up, check_trace_up),
        (Command("trace", hat, interaction=3, category="timely", direction="down", fmt="dot"),
         equals(golden_dot, "pathway_sfm4.dot")),
        (report, check_report),
    ], graph)


# --- wide_model ----------------------------------------------------------


def wide_expectations(facts: generate.WideModel) -> dict[str, int]:
    """Row, suggestion and second-order counts implied by the generator."""
    bound: dict[tuple[int, str], int] = {}
    for _, i_id, mode in facts.bindings:
        bound[(i_id, mode)] = bound.get((i_id, mode), 0) + 1
    rows = suggestions = 0
    for i_id, direction in enumerate(facts.directions, start=1):
        for mode in generate.M2H_MODES if direction == "m2h" else generate.H2M_MODES:
            count = bound.get((i_id, mode), 1)
            rows += count
            suggestions += count * MITIGATIONS_PER_CATEGORY.get(MODE_CATEGORY[mode], 0)
    second_order = sum(2 for _, i_id, mode in facts.bindings
                       if facts.directions[i_id - 1] == "m2h"
                       and MODE_CATEGORY[mode] in SECOND_ORDER_CATEGORIES)
    return {"rows": rows, "suggestions": suggestions, "second_order": second_order}


def _stage_wide(root: Path, inputs: Path, seed: int) -> Staged:
    fixture = root / "src" / "hatlens" / "fixtures" / "atc"
    for name in ("atc.lens", "atc.mit"):
        shutil.copyfile(fixture / name, inputs / name)
    files = generate.write("wide_model", seed, inputs)
    facts = generate.wide_model(seed)
    graph = read_graph(facts.model)
    expected = wide_expectations(facts)
    command = Command("report", str(files["model"]), lens=(str(inputs / "atc.lens"),),
                      mit=(str(inputs / "atc.mit"),), sfm=str(files["sfm"]),
                      interaction=facts.trace_interaction, category=facts.trace_category,
                      direction="both", fmt="md")

    def check(output: bytes) -> str | None:
        sections = _md_sections(_text(output))
        if isinstance(sections, str):
            return sections
        got = {"rows": len(sections["## Failure Modes"]) - 2,
               "suggestions": len(_bullets(sections["## Mitigation Suggestions"])),
               "second_order": len(_bullets(sections["## Second-order Effects"]))}
        if got != expected:
            return f"counts {got} differ from the generator's {expected}"
        return _check_pathway_lines(_bullets(sections["## Pathways"]),
                                    _expected_pathways(graph, command),
                                    facts.trace_interaction, facts.trace_category)

    return Staged([(command, check)], graph)


# --- dense_trace ---------------------------------------------------------


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-standard JSON constant {name}")


def check_dense_json(output: bytes, facts: generate.DenseTrace,
                     expected: list[tuple[str, ...]]) -> str | None:
    try:
        document = json.loads(output, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    if list(document) != ["failure_modes", "pathways", "second_order_effects",
                          "mitigation_suggestions"]:
        return "unexpected top-level keys"
    pathways = document["pathways"]
    if len(pathways) != len(expected):
        return f"{len(pathways)} pathways, reference has {len(expected)}"
    for pathway, nodes in zip(pathways, expected):
        if tuple(pathway["nodes"]) != nodes:
            return f"pathway {pathway['nodes']} out of order or differs from reference"
        if (pathway["interaction_id"], pathway["category"], pathway["direction"]) != (
                1, facts.category, "down"):
            return "pathway has the wrong interaction, category or direction"
        gains = [facts.coefficients[node] for node in nodes[1:]]
        if pathway["step_gains"] != gains:
            return f"step gains of {nodes} differ from the generator's coefficients"
        own = math.prod(gains)
        if pathway["total_gain"] != own or math.prod(pathway["step_gains"]) != own:
            return f"total gain of {nodes} is not the product of its step gains"
        label = "Amplified" if own > 1 else "Mitigated" if own < 1 else "Neutral"
        if pathway["classification"] != label:
            return f"classification of {nodes} is not {label}"
    return None


def _stage_dense(inputs: Path, seed: int) -> Staged:
    files = generate.write("dense_trace", seed, inputs)
    facts = generate.dense_trace(seed)
    graph = read_graph(facts.model)
    command = Command("trace", str(files["model"]), interaction=1, category=facts.category,
                      direction="down", max_depth=facts.max_depth, fmt="json")
    expected = graph.pathways(1, "down", facts.max_depth)[0]
    return Staged([(command, lambda output: check_dense_json(output, facts, expected))],
                  graph)


NAMES = ("atc_session", "wide_model", "dense_trace")


def stage(name: str, seed: int, root: Path, inputs: Path) -> Staged:
    """Create ``inputs`` and fill it with the workload's files."""
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "atc_session":
        return _stage_atc(root, inputs)
    if name == "wide_model":
        return _stage_wide(root, inputs, seed)
    if name == "dense_trace":
        return _stage_dense(inputs, seed)
    raise ValueError(f"unknown workload '{name}'")
