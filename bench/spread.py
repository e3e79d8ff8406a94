"""Run the benchmark once per seed and summarise each metric across seeds.

    python3 bench/spread.py --workloads atc_session dense_trace --seeds 10 \\
        --trace 0 --out .bench_out/spread.json

For every metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the quartile spread as a share of
the median; end-to-end metrics are flagged when that spread exceeds a third
of their bound in ``BENCHMARK.json``.  Runs are sequential, seeds 1..N.
The JSON it writes is one point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}

    point = {"label": args.label, "seconds": seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in range(1, args.seeds + 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            steady &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary = {"attempted": attempted, "failed": failed, "metrics": {}}
        print(f"{workload}: {args.seeds} seeds, {failed} of {attempted} runs failed")
        for name, series in values.items():
            stats = summarise(series)
            stats["unit"] = units[name]
            summary["metrics"][name] = stats
            flag = ""
            if name in bounds:
                stats["bound"] = bounds[name]
                if stats["spread"] > bounds[name] / 3:
                    flag = f"  > bound/3 = {bounds[name] / 3:.4f}"
                    steady = False
            print(f"  {name}: median {stats['median']:.6g} {units[name]}, "
                  f"spread {stats['spread']:.4f}{flag}")
        point["workloads"][workload] = summary
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
