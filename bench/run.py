"""Cold-CLI benchmark for hatlens.

    python3 bench/run.py --workload atc_session --seed 1 --seconds 25 --trace 0

Each workload runs as a series of cold ``python -m hatlens.cli`` child
processes, one at a time (a closed loop with one client).  Every child is
timed from spawn to exit and its own rusage is read through ``os.wait4``;
every output is checked against a reference that does not come from
hatlens.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
spends half of ``--seconds`` on the same cold runs and half on the
in-process runs of ``hatlens.cli.run``, traced (see ``traced.py``) and
untraced, times interpreter start-up and package import in child
processes, and reports the per-layer metrics.

Bytecode mode: children get a private, initially empty
``PYTHONPYCACHEPREFIX`` and no ``PYTHONDONTWRITEBYTECODE``, so nothing is
written into ``src/``.  One untimed run fills the cache with the standard
library's bytecode, which an installed interpreter already ships.
``setup_s`` is then the median wall time of the workload's first command
after the cache's copy of ``src/`` is deleted: the compile cost a fresh
checkout pays.  These set-up runs are spread over the measured time, between
cycles of the commands (see ``Runner.loop``); every other timed run finds
the cache warm.  Hash randomisation stays on, so nondeterministic
output counts as a failure.

Pacing: the end-to-end times are paced, that is divided by the pace of a
fixed reference process run between the cold runs (see
``CALIBRATION_PROBE``), and so expressed in milliseconds of the machine
the benchmark was defined on.  The measured times are in the full result.

A human-readable report goes to standard output, then, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result and the span file are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import traced  # noqa: E402
import workloads  # noqa: E402

# Set-up runs take at most this share of the warm runs' time.
SETUP_SHARE = 0.5
IMPORT_REPEATS = 15
NOCACHE_REPEATS = 7
MIN_TRACED_REPEATS = 2  # a repeat runs each command twice in process
TAIL_BEYOND = 10
TRACEBACK = b"Traceback (most recent call last)"
# The shared machine's pace drifts by a fifth within seconds.  A fixed
# reference process runs about twice a second between the cold runs, and
# each cold run's times are divided by the reference's pace around it.  The
# reference does the kinds of work hatlens does -- start-up, the same
# standard-library imports, regex tokenizing, frozen dataclasses, CSV, JSON
# and an argparse tree -- with no hatlens code, so it tracks the machine and
# never the program under test.
CALIBRATION_PROBE = r'''
import argparse, csv, dataclasses, io, json, re
@dataclasses.dataclass(frozen=True)
class Item:
    name: str
    lane: str
    stage: str
    weight: float
TOKEN = re.compile(r'\s*(?:"((?:[^"\\]|\\.)*)"|([^\s=]+)=("(?:[^"\\]|\\.)*"|\S+)|(\S+))')
STAGES = ("observe", "orient", "decide", "act")
items = []
for i in range(2500):
    line = f'node n{i} lane=l{i % 7} stage={STAGES[i % 4]} "Label {i} text" weight={i % 13}.5'
    words, attrs = [], {}
    for match in TOKEN.finditer(line):
        if match[2]:
            attrs[match[2]] = match[3]
        else:
            words.append(match[1] or match[4])
    items.append(Item(words[1], attrs["lane"], attrs["stage"], float(attrs["weight"])))
writer = csv.writer(io.StringIO())
for item in items:
    writer.writerow([item.name, item.lane, item.stage, item.weight])
json.dumps([dataclasses.asdict(item) for item in items])
subparsers = argparse.ArgumentParser().add_subparsers()
for k in range(8):
    sub = subparsers.add_parser(f"c{k}")
    sub.add_argument("model")
    sub.add_argument("--x", action="append")
'''
# The reference process's median CPU time on the machine where the
# benchmark was defined (2 vCPUs, Python 3.11.7); paced times are in that
# machine's milliseconds.  CPU time, not wall time, sets the pace: time the
# hypervisor takes away stretches a short reference's wall time by up to
# half, and that noise would pass straight into every paced sample.
CALIBRATION_REF_S = 0.165
CALIBRATION_EVERY_S = 0.5
# After a cold run, references run for at least this share of its wall time,
# so a few long runs are paced by as many references as many short ones.
CALIBRATION_SHARE = 0.15
IMPORT_PROBE = ("import sys, time; before = len(sys.modules); start = time.perf_counter(); "
                "import hatlens.cli; print(time.perf_counter() - start, "
                "len(sys.modules) - before)")
CATALOG = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
UNITS = {metric["name"]: metric["unit"] for metric in CATALOG["metrics"]}


@dataclass
class Sample:
    """One timed cold process.  ``pace`` is the reference process's CPU time
    around it over ``CALIBRATION_REF_S``; ``wall_s / pace`` and
    ``cpu_s / pace`` are the paced times."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    middle: float  # perf_counter at the middle of the run
    pace: float = float("nan")


@dataclass
class Child:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def spawn(args: list[str], env: dict[str, str], scratch: Path) -> Child:
    """Run ``python <args>`` to completion; time it from spawn to exit."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                             file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 os.waitstatus_to_exitcode(status), out_path.read_bytes(),
                 err_path.read_bytes())


def child_env(pycache: Path, write_bytecode: bool = True) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@dataclass
class Runner:
    """Runs a workload's commands as cold processes and judges each output."""

    staged: workloads.Staged
    scratch: Path
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[int, tuple[str, str | None]] = field(default_factory=dict)
    samples: list[Sample] = field(default_factory=list)
    references: list[tuple[float, float]] = field(default_factory=list)  # (middle, cpu)
    calibrated_at: float = float("-inf")

    def calibrate(self, env: dict[str, str]) -> None:
        child = spawn(["-c", CALIBRATION_PROBE], env, self.scratch)
        if child.code != 0:
            raise RuntimeError(f"reference process failed: {child.stderr[-300:]!r}")
        self.calibrated_at = time.perf_counter()
        self.references.append((self.calibrated_at - child.wall_s / 2, child.cpu_s))

    def pace(self, env: dict[str, str]) -> None:
        """Close the run with a reference, then give every sample the median
        of the references just before and after it and of any others within
        the sample's own length (at least ``CALIBRATION_EVERY_S``) of its
        ends; a long sample spans more of the drift, so it takes more of them.
        The median, because the machine has brief fast spells, and a
        reference caught in one says little about a sample that was not."""
        self.calibrate(env)
        for sample in self.samples:
            reach = sample.wall_s / 2 + max(sample.wall_s, CALIBRATION_EVERY_S)
            before = max((ref for ref in self.references if ref[0] < sample.middle),
                         default=None)
            after = min(ref for ref in self.references if ref[0] > sample.middle)
            chosen = {ref for ref in self.references
                      if abs(ref[0] - sample.middle) <= reach} | {after}
            if before is not None:
                chosen.add(before)
            sample.pace = statistics.median(cpu for _, cpu in chosen) / CALIBRATION_REF_S

    def judge(self, index: int, output: bytes) -> str | None:
        """Check the first output of each command against its reference;
        later outputs must repeat it byte for byte."""
        digest = hashlib.sha256(output).hexdigest()
        if index not in self.digests:
            try:
                failure = self.staged.commands[index][1](output)
            except (ValueError, LookupError, TypeError) as exc:  # undecodable or misshapen
                failure = f"malformed output: {exc!r}"
            self.digests[index] = (digest, failure)
        known, failure = self.digests[index]
        if digest != known:
            return "output differs in bytes from the command's other samples"
        return failure

    def record(self, index: int, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{self.staged.commands[index][0].sub} #{index}: {failure}")

    def cold(self, index: int, env: dict[str, str]) -> Sample:
        command = self.staged.commands[index][0]
        if time.perf_counter() - self.calibrated_at >= CALIBRATION_EVERY_S:
            last = self.samples[-1].wall_s if self.samples else 0.0
            until = time.perf_counter() + CALIBRATION_SHARE * last
            self.calibrate(env)
            while time.perf_counter() < until:
                self.calibrate(env)
        child = spawn(["-m", "hatlens.cli", *command.argv()], env, self.scratch)
        if child.code != 0:
            failure = f"exit code {child.code}: {child.stderr[-300:]!r}"
        elif TRACEBACK in child.stderr:
            failure = "traceback on stderr"
        else:
            failure = self.judge(index, child.stdout)
        self.record(index, failure)
        sample = Sample(child.wall_s, child.cpu_s, child.rss_mb,
                        time.perf_counter() - child.wall_s / 2)
        self.samples.append(sample)
        return sample

    def loop(self, env: dict[str, str], seconds: float,
             compiled: Path) -> tuple[list[Sample], list[Sample]]:
        """Cycle the commands until ``seconds`` pass, ending on a whole cycle.
        A cycle starts with a set-up run -- the first command after
        ``compiled``, the cache's copy of ``src/``, is deleted -- while set-up
        runs have taken at most ``SETUP_SHARE`` of the warm runs' time.  Spread
        over the whole run, they meet the same drift as the warm runs.
        Returns the set-up runs and the warm runs."""
        count = len(self.staged.commands)
        setup: list[Sample] = []
        samples: list[Sample] = []
        deadline = time.perf_counter() + seconds
        while len(samples) < max(count, 3) or len(samples) % count or (
                time.perf_counter() < deadline):
            if len(samples) % count == 0 and sum(run.wall_s for run in setup) <= (
                    SETUP_SHARE * sum(run.wall_s for run in samples)):
                shutil.rmtree(compiled)
                setup.append(self.cold(0, env))
            samples.append(self.cold(len(samples) % count, env))
        return setup, samples


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it, and that percentile.  With too few samples, the maximum (100)."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(setup: list[Sample], samples: list[Sample],
               commands: int) -> tuple[dict, dict]:
    """Paced times; the measured ones go into ``info``.  A session's commands
    differ in cost, so ``wall_ms`` and ``cpu_ms`` average the per-command
    medians (``samples`` cycles through the commands in order)."""

    def per_command(values: list[float]) -> float:
        return statistics.fmean(statistics.median(values[k::commands])
                                for k in range(commands))

    walls = [sample.wall_s * 1000 / sample.pace for sample in samples]
    tail_ms, percentile = tail(walls)
    metrics = {
        "setup_s": statistics.median(sample.wall_s / sample.pace for sample in setup),
        "wall_ms": per_command(walls),
        "wall_ms_tail": tail_ms,
        "cpu_ms": per_command([sample.cpu_s * 1000 / sample.pace for sample in samples]),
        "peak_rss_mb": statistics.median(sample.rss_mb for sample in samples),
    }
    info = {
        "samples": len(samples), "wall_ms_tail_percentile": percentile,
        "setup_runs": len(setup),
        "pace_median": statistics.median(sample.pace for sample in samples),
        "measured_setup_s": statistics.median(sample.wall_s for sample in setup),
        "measured_wall_ms": per_command([sample.wall_s * 1000 for sample in samples]),
        "measured_cpu_ms": per_command([sample.cpu_s * 1000 for sample in samples]),
    }
    return metrics, info


def startup_and_import(work: Path, pycache: Path) -> dict[str, float]:
    """Bare interpreter and ``import hatlens.cli`` costs, each in fresh children."""
    env = child_env(pycache)
    # The standard library's bytecode without the package's: every hatlens
    # module compiles on every import, as under PYTHONDONTWRITEBYTECODE=1.
    stdlib_only = work / "pycache-stdlib"
    shutil.copytree(pycache, stdlib_only)
    shutil.rmtree(stdlib_only / SRC.relative_to(SRC.anchor))
    nocache = child_env(stdlib_only, write_bytecode=False)
    interp = [spawn(["-c", "pass"], env, work).wall_s for _ in range(IMPORT_REPEATS)]

    def probe(probe_env: dict[str, str], repeats: int) -> tuple[list[float], int]:
        times, modules = [], set()
        for _ in range(repeats):
            child = spawn(["-c", IMPORT_PROBE], probe_env, work)
            if child.code != 0:
                raise RuntimeError(f"import probe failed: {child.stderr[-300:]!r}")
            seconds, count = child.stdout.split()
            times.append(float(seconds))
            modules.add(int(count))
        if len(modules) != 1:
            raise RuntimeError(f"import.modules varies between runs: {sorted(modules)}")
        return times, modules.pop()

    warm, modules = probe(env, IMPORT_REPEATS)
    cold, _ = probe(nocache, NOCACHE_REPEATS)
    return {
        "interp.startup_ms": statistics.median(interp) * 1000,
        "import.hatlens_cli_ms": statistics.median(warm) * 1000,
        "import.hatlens_cli_nocache_ms": statistics.median(cold) * 1000,
        "import.modules": modules,
    }


def import_hatlens():
    sys.path.insert(0, str(SRC))
    import hatlens
    import hatlens.cli

    if Path(hatlens.__file__).resolve().parent != SRC / "hatlens":
        raise RuntimeError(f"hatlens imported from {hatlens.__file__}, not {SRC}")
    return hatlens, hatlens.cli


def cli_run(cli, runner: Runner, index: int, tracer: traced.Tracer | None = None) -> int:
    """One in-process ``hatlens.cli.run``; its output must match the cold
    processes' byte for byte.  With ``tracer`` the run is a root span of its
    own.  Returns nanoseconds."""
    argv = runner.staged.commands[index][0].argv()
    out_path, err_path = runner.scratch / "inproc.out", runner.scratch / "inproc.err"
    root = tracer.span(traced.SESSION_ROOT + argv[0]) if tracer else contextlib.nullcontext()
    with open(out_path, "w", encoding="utf-8", newline="") as out, \
            open(err_path, "w", encoding="utf-8") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # From a collected heap: what the sweep and earlier runs left for the
        # collector would otherwise land in one run and not the other.
        gc.collect()
        start = time.perf_counter_ns()
        with root:
            code = cli.run(argv)
        elapsed = time.perf_counter_ns() - start
    failure = f"in-process exit code {code}" if code != 0 else runner.judge(
        index, out_path.read_bytes())
    runner.record(index, failure)
    return elapsed


def repeat(h, cli, runner: Runner, tracer: traced.Tracer) -> tuple[int, int]:
    """Each command of the workload in process twice, untraced and through
    the instrumented CLI, which of the two first alternating; then the
    sweep.  Returns the nanoseconds spent in ``cli.run``, untraced and traced."""
    plain = through = 0
    for index in range(len(runner.staged.commands)):
        for traced_turn in (False, True) if (tracer.run + index) % 2 else (True, False):
            if traced_turn:
                with traced.instrumented(cli, tracer):
                    through += cli_run(cli, runner, index, tracer)
            else:
                plain += cli_run(cli, runner, index)
    traced.sweep(h, tracer)
    return plain, through


def per_layer(h, cli, runner: Runner, seconds: float, work: Path, pycache: Path,
              spans_path: Path) -> dict[str, float]:
    staged = runner.staged
    metrics: dict[str, float] = startup_and_import(work, pycache)
    tracer = traced.Tracer()
    plain_ns: list[int] = []
    traced_ns: list[int] = []
    counts: dict[str, int] = {}
    deadline = time.perf_counter() + seconds
    while len(plain_ns) < MIN_TRACED_REPEATS or time.perf_counter() < deadline:
        tracer.run = len(plain_ns)
        plain, through = repeat(h, cli, runner, tracer)
        plain_ns.append(plain)
        traced_ns.append(through)
        counts = tracer.counts()
    traced.write_spans(spans_path, tracer.spans)

    runs = range(len(plain_ns))
    by_name = [{} for _ in runs]
    layers_ns = [0 for _ in runs]
    overhead_ns = [0 for _ in runs]
    roots = {index for index, span in enumerate(tracer.spans)
             if span.parent is None and span.name.startswith(traced.SESSION_ROOT)}
    for index, (span, own) in enumerate(zip(tracer.spans, traced.self_times(tracer.spans))):
        by_name[span.run][span.name] = (by_name[span.run].get(span.name, 0)
                                        + span.end_ns - span.start_ns)
        if index in roots:
            overhead_ns[span.run] += own
        elif span.parent in roots:
            layers_ns[span.run] += span.end_ns - span.start_ns

    def median_ms(values) -> float:
        return statistics.median(values) / 1e6

    metrics["cli.run_ms"] = median_ms(plain_ns)
    metrics["cli.overhead_ms"] = median_ms(overhead_ns)
    for name in traced.LAYER_SPANS:
        metrics[f"{name}_ms"] = median_ms(by_name[r].get(name, 0) for r in runs)
    for name in ("dsl.parse_model_lines", "model.diagnostics", "model.nodes", "model.edges",
                 "interactions.count", "mapping.rows", "mitigations.suggestions",
                 "tracing.pathways", "tracing.pathway_nodes", "report.emit_json_bytes",
                 "report.emit_markdown_bytes"):
        metrics[name] = counts.get(name, 0)
    metrics["dsl.parse_model_us_per_line"] = (
        metrics["dsl.parse_model_ms"] * 1000 / metrics["dsl.parse_model_lines"])
    metrics["tracing.us_per_pathway"] = (
        metrics["tracing.trace_ms"] * 1000 / metrics["tracing.pathways"])
    metrics["tracing.truncated"] = sum(
        staged.graph.pathways(command.interaction, direction,
                              command.max_depth or workloads.DEFAULT_MAX_DEPTH)[1]
        for command, _ in staged.commands for direction in command.directions())
    metrics["bench.trace_overhead_pct"] = statistics.median(
        (traced_ns[r] - plain_ns[r]) * 100 / plain_ns[r] for r in runs)
    metrics["bench.traced_repeats"] = len(plain_ns)
    metrics["bench.session_layers_ms"] = median_ms(layers_ns)

    # A separate pass, so tracemalloc's cost skews none of the timings.
    alloc = traced.Tracer(run=-1, alloc=True)
    with traced.instrumented(cli, alloc):
        for index in range(len(staged.commands)):
            cli_run(cli, runner, index, alloc)
    traced.sweep(h, alloc)
    for name in traced.ALLOC_SPANS:
        metrics[f"{name}_alloc_peak_mb"] = alloc.alloc_peaks[name] / 2**20
    return metrics


def shares(wall: float, layer: dict[str, float], commands: int) -> dict[str, float]:
    """What share of one cold process's measured median wall time the traced
    layer spans, the package import and the bare interpreter account for."""
    return {
        "share.layers_pct": layer["bench.session_layers_ms"] / commands * 100 / wall,
        "share.import_pct": layer["import.hatlens_cli_ms"] * 100 / wall,
        "share.interp_pct": layer["interp.startup_ms"] * 100 / wall,
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "executable": sys.executable,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "bytecode": "private PYTHONPYCACHEPREFIX written by the children; its copy of "
                    "src/ is deleted before each setup run",
        "children": "PYTHONPATH=src, PYTHONPYCACHEPREFIX private, PYTHONDONTWRITEBYTECODE "
                    "and PYTHONHASHSEED unset (hash randomisation on)",
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def run(args: argparse.Namespace) -> dict:
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    pycache = work / "pycache"
    shutil.rmtree(work, ignore_errors=True)
    try:
        staged = workloads.stage(args.workload, args.seed, ROOT, work / "inputs")
        runner = Runner(staged, work)
        env = child_env(pycache)
        # Fill the cache with the standard library's bytecode.
        spawn(["-m", "hatlens.cli", *staged.commands[0][0].argv()], env, work)
        runner.calibrate(env)
        measure = args.seconds / 2 if args.trace else args.seconds
        setup, samples = runner.loop(env, measure, pycache / SRC.relative_to(SRC.anchor))
        runner.pace(env)
        e2e, info = end_to_end(setup, samples, len(staged.commands))
        info["timeline"] = {
            "samples": [(sample.middle, sample.wall_s, sample.cpu_s) for sample in samples],
            "references": runner.references}
        layer: dict[str, float] = {}
        if args.trace:
            h, cli = import_hatlens()
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            layer = per_layer(h, cli, runner, args.seconds / 2, work, pycache, spans_path)
            layer.update(shares(info["measured_wall_ms"], layer, len(staged.commands)))
            info["spans"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["error_rate"] = len(runner.failures) / runner.attempted
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(), "info": info,
            "end_to_end": e2e, "per_layer": layer, "attempted": runner.attempted,
            "failures": runner.failures}


def main() -> int:
    parser = argparse.ArgumentParser(description="Cold-CLI benchmark for hatlens.")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hatlens" / "cli.py").is_file():
        print(f"error: no hatlens sources under {SRC}", file=sys.stderr)
        return 2

    result = run(args)
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    info = result["info"]
    print(f"workload {args.workload}, seed {args.seed}: {info['samples']} cold runs after "
          f"{info['setup_runs']} setup runs; python {result['environment']['python']}, "
          f"nproc {result['environment']['nproc']}")
    for name, value in {**result["end_to_end"], **result["per_layer"]}.items():
        print(f"  {name} = {value:.6g} {UNITS[name]}")
    print(f"  measured, unpaced: setup_s = {info['measured_setup_s']:.6g} s, "
          f"wall_ms = {info['measured_wall_ms']:.6g} ms, "
          f"cpu_ms = {info['measured_cpu_ms']:.6g} ms (median pace {info['pace_median']:.4g})")
    print(f"  wall_ms_tail is p{info['wall_ms_tail_percentile']:.4g} "
          f"of {info['samples']} samples")
    print(f"  error_rate = {info['error_rate']:.6g} "
          f"({len(result['failures'])} of {result['attempted']} runs failed)")
    for failure in result["failures"][:5]:
        print(f"  failure: {failure}")
    print(f"  full result: {result_path.relative_to(ROOT)}")

    kind = "per_layer" if args.trace else "end_to_end"
    reported = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    values = {**result["end_to_end"], **result["per_layer"]}
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
