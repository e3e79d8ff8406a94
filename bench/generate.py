"""Seeded input generators for the ``wide_model`` and ``dense_trace`` workloads.

Each generator returns the text of every input file together with the facts
the benchmark's reference checks need (interaction directions, bindings,
successor lists, gain coefficients).  Those facts come from the generator
itself, never from hatlens.

The topology of each workload is fixed; the seed picks names, labels, gain
coefficients, mitigations and bindings, and, for ``dense_trace``, a
relabelling of the fixed graph.  Different seeds therefore give different
files that cost the same amount of work, so run-to-run spread measures the
program and the machine, not the generator.

Run ``python3 bench/generate.py wide_model --seed 3 --out DIR`` to write one
workload's files.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from pathlib import Path

WORDS = (
    "alert", "track", "route", "queue", "signal", "sensor", "plan", "status",
    "vector", "window", "margin", "budget", "weather", "runway", "sector",
    "handoff", "conflict", "forecast", "priority", "schedule", "picture",
    "estimate", "request", "override", "summary", "advisory", "profile",
)
VERBS = ("Observe", "Assess", "Select", "Publish", "Review", "Weigh", "Confirm",
         "Project", "Filter", "Compare", "Rank", "Report")
STAGES = ("observe", "orient", "decide", "act")
# Categories known to the builtin catalog merged with the ATC lens.
CATEGORIES = ("accuracy", "bias", "variability", "stability", "uncertainty",
              "robustness", "misuse", "abuse", "disuse", "timely")
# Builtin mitigations plus the ATC catalog's ``hmi_summary``.
MITIGATIONS = ("odd_notification", "odd_margin", "trust_calibration",
               "operator_monitoring", "hysteresis", "hmi_summary")
# Non-benign mode ids applicable to each interaction direction once the ATC
# lens (``unstable`` and ``timely``, both m2h) is merged with the builtins.
M2H_MODES = ("accuracy", "bias", "variability", "stability", "uncertainty",
             "robustness", "misuse", "abuse", "disuse", "unstable", "timely")
H2M_MODES = ("misuse", "abuse", "disuse")

WIDE_PAIRS = 200
WIDE_BINDINGS = 100
DENSE_NODES = 40
DENSE_DEGREE = 3
DENSE_DEPTH = 11
DENSE_CATEGORY = "accuracy"
# The dense graph's topology is drawn once from this fixed stream, so every
# workload seed enumerates the same number of pathways.
DENSE_TOPOLOGY_SEED = 10


@dataclass
class WideModel:
    """Files and facts of one ``wide_model`` input."""

    model: str
    sfm: str
    directions: list[str] = field(default_factory=list)  # "m2h"/"h2m" by I-id - 1
    bindings: list[tuple[int, int, str]] = field(default_factory=list)  # (sfm, I-id, mode)
    trace_interaction: int = 0
    trace_category: str = "stability"
    lines: int = 0
    nodes: int = 0
    edges: int = 0


@dataclass
class DenseTrace:
    """Files and facts of one ``dense_trace`` input."""

    model: str
    successors: dict[str, list[str]] = field(default_factory=dict)
    coefficients: dict[str, float] = field(default_factory=dict)
    category: str = DENSE_CATEGORY
    max_depth: int = DENSE_DEPTH
    lines: int = 0


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _label(rng: random.Random) -> str:
    return f"{rng.choice(VERBS)} {rng.choice(WORDS)} {rng.choice(WORDS)}"


def _response(rng: random.Random) -> str:
    category = rng.choice(CATEGORIES)
    if rng.random() < 0.5:
        return f"response.{category}=amplify:{rng.choice((1.1, 1.25, 1.5, 2.0))}"
    return f"response.{category}=dampen:{rng.choice((0.5, 0.75, 0.8, 0.9))}"


def wide_model(seed: int) -> WideModel:
    """200 human/machine lane pairs, each two OODA loops joined by two
    interactions; machine ``act`` of each pair feeds machine ``observe`` of
    the next.  About 100 specialised failure modes are bound at random."""
    rng = random.Random(f"wide_model:{seed}")
    lanes: list[str] = []
    nodes: list[str] = []
    edges: list[str] = []
    directions: list[str] = []
    for pair in range(WIDE_PAIRS):
        for side, kind in (("h", "operator"), ("m", "autonomy")):
            lane = f"{side}{pair:03d}"
            who = "Operator" if side == "h" else "Autonomy"
            lanes.append(f"lane {lane} side={'human' if side == 'h' else 'machine'} "
                         f"kind={kind} {_quote(f'{who} {pair} {rng.choice(WORDS)}')}")
            for stage in STAGES:
                attrs = []
                if rng.random() < 0.2:
                    attrs.append(f"cause={rng.choice(CATEGORIES)}")
                if rng.random() < 0.3:
                    attrs.append(_response(rng))
                if rng.random() < 0.1:
                    attrs.append(f"mitigation={rng.choice(MITIGATIONS)}")
                nodes.append(" ".join([f"node {lane}_{stage[:3]} lane={lane} stage={stage}",
                                       _quote(_label(rng))] + attrs))
            loop = [f"{lane}_{stage[:3]}" for stage in STAGES]
            for src, dst in zip(loop, loop[1:] + loop[:1]):
                edges.append(f"edge {src} -> {dst}")
        human, machine = f"h{pair:03d}", f"m{pair:03d}"
        edges.append(f"edge {machine}_act -> {human}_obs "
                     f"name={_quote(f'{rng.choice(VERBS)} {rng.choice(WORDS)} {pair}')}")
        directions.append("m2h")
        mitigation = f" mitigation={rng.choice(MITIGATIONS)}" if rng.random() < 0.2 else ""
        edges.append(f"edge {human}_act -> {machine}_obs{mitigation}")
        directions.append("h2m")
        if pair + 1 < WIDE_PAIRS:
            edges.append(f"edge {machine}_act -> m{pair + 1:03d}_obs")
    model_lines = ([f"model {_quote(f'Wide lanes {seed}')}", ""] + lanes + [""]
                   + nodes + [""] + edges)

    bindings = []
    for sfm_id in range(1, WIDE_BINDINGS + 1):
        i_id = rng.randrange(1, len(directions) + 1)
        modes = M2H_MODES if directions[i_id - 1] == "m2h" else H2M_MODES
        bindings.append((sfm_id, i_id, rng.choice(modes)))
    sfm_lines = [f"sfm {sfm_id} interaction={i_id} mode={mode} "
                 f"{_quote(f'{rng.choice(VERBS)} the {rng.choice(WORDS)} late ({sfm_id})')}"
                 for sfm_id, i_id, mode in bindings]
    return WideModel(
        model="\n".join(model_lines) + "\n",
        sfm="\n".join(sfm_lines) + "\n",
        directions=directions,
        bindings=bindings,
        trace_interaction=2 * (WIDE_PAIRS // 2) + 1,
        lines=1 + len(lanes) + len(nodes) + len(edges),
        nodes=len(nodes),
        edges=len(edges),
    )


def dense_trace(seed: int) -> DenseTrace:
    """40 machine nodes of out-degree 3, entered by one interaction from a
    single human node.  Every machine node has a seeded gain for the traced
    category, so each pathway's product is checkable."""
    topology = random.Random(DENSE_TOPOLOGY_SEED)
    base = [topology.sample([v for v in range(DENSE_NODES) if v != u], DENSE_DEGREE)
            for u in range(DENSE_NODES)]
    rng = random.Random(f"dense_trace:{seed}")
    names = [f"n{k:02d}" for k in range(DENSE_NODES)]
    rng.shuffle(names)
    successors = {names[u]: [names[v] for v in base[u]] for u in range(DENSE_NODES)}
    coefficients: dict[str, float] = {}
    node_lines = ["node h_cue lane=op stage=act \"Issue tasking cue\""]
    for name in sorted(successors):
        kind, coefficient = rng.choice((("amplify", 1.1), ("amplify", 1.25), ("amplify", 1.5),
                                        ("dampen", 0.8), ("dampen", 0.9), ("dampen", 0.75)))
        coefficients[name] = coefficient
        node_lines.append(f"node {name} lane=bot stage=observe {_quote(_label(rng))} "
                          f"response.{DENSE_CATEGORY}={kind}:{coefficient}")
    edge_lines = [f"edge h_cue -> {names[0]} name=\"Tasking cue\""]
    edge_lines += [f"edge {name} -> {succ}" for name in sorted(successors)
                   for succ in successors[name]]
    lines = ([f"model {_quote(f'Dense graph {seed}')}", "",
              "lane op side=human kind=operator \"Operator\"",
              "lane bot side=machine kind=autonomy \"Planner\"", ""]
             + node_lines + [""] + edge_lines)
    return DenseTrace(
        model="\n".join(lines) + "\n",
        successors=successors,
        coefficients=coefficients,
        lines=3 + len(node_lines) + len(edge_lines),
    )


def write(workload: str, seed: int, out: Path) -> dict[str, Path]:
    """Write one workload's generated files into ``out``; return them by role."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "wide_model":
        generated = wide_model(seed)
        files = {"model": out / "wide.hat", "sfm": out / "wide.sfm"}
        files["sfm"].write_text(generated.sfm, encoding="utf-8")
    elif workload == "dense_trace":
        generated = dense_trace(seed)
        files = {"model": out / "dense.hat"}
    else:
        raise ValueError(f"no generator for workload '{workload}'")
    files["model"].write_text(generated.model, encoding="utf-8")
    return files


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("wide_model", "dense_trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in write(args.workload, args.seed, args.out).values():
        print(path)


if __name__ == "__main__":
    main()
