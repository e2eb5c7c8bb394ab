"""Repeat runs, medians and quartiles, and the benchmark's self-check.

Repeat mode runs ``run.py`` N times per workload, each with another seed,
and prints every metric's median, quartiles, spread (the distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) and the values of the
runs, next to its bound from ``BENCHMARK.json``; a spread above a third of
its bound is flagged::

    python3 perfbench/report.py --runs 10 --seconds 22
    python3 perfbench/report.py --runs 5 --workloads serve_mixed.engine

With ``--runs 1`` it is the one command that runs every workload and
prints every end-to-end metric under the name the workload gives it
(``train_examples_per_s``, ``engine_p50_ms`` ...).

Self-check mode runs every workload at smoke scale, traced and untraced,
and asserts that each run exits 0, reports correct outputs, and emits
every metric of ``BENCHMARK.json`` with its unit::

    python3 perfbench/report.py --selfcheck
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# End-to-end metric of a workload -> the name a user of that workload knows.
USER_NAMES = {
    "train_paragraph": {"ops_per_s": "train_examples_per_s"},
    "decode_sentence.beam3": {"ops_per_s": "beam3_sentences_per_s"},
    "serve_mixed.engine": {
        "ops_per_s": "engine_rps",
        "p50_ms": "engine_p50_ms",
        "p95_ms": "engine_p95_ms",
    },
    "serve_mixed.pool": {
        "ops_per_s": "pool_rps",
        "p50_ms": "pool_p50_ms",
        "p95_ms": "pool_p95_ms",
    },
}


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False):
    """One run; returns (exit code, result object or None, wall seconds, stdout)."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    start = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = completed.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr[-2000:])
    return completed.returncode, result, wall, completed.stdout


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / abs(mid) if mid else float("inf")


def repeat(args, benchmark: dict) -> int:
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    status = 0
    for workload in workloads:
        runs = []
        walls = []
        for index in range(args.runs):
            code, result, wall, _ = run_once(
                workload, args.first_seed + index, args.seconds, args.trace
            )
            walls.append(wall)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {args.first_seed + index}: exit {code}, result {result}")
                status = 1
                continue
            runs.append(result)
        print(f"\n{workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        if not runs:
            continue
        names = USER_NAMES.get(workload, {})
        for metric in runs[0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            label = names.get(metric, metric)
            if len(values) < 2:
                print(f"  {label:<32} {values[0]:>12.4f} {unit}")
                continue
            mid, q1, q3, share = spread(values)
            bound = bounds.get(metric) if not args.trace else None
            flag = ""
            if bound is not None and share > bound / 3:
                flag = f"  SPREAD ABOVE {bound / 3:.3f}"
            print(
                f"  {label:<32} median {mid:>12.4f} {unit:<6} q1 {q1:>12.4f} "
                f"q3 {q3:>12.4f} spread {share:.4f}{flag}"
            )
            print("    runs in seed order: " + " ".join(f"{value:.4g}" for value in values))
        print(f"  attempted {sum(r['attempted'] for r in runs)}, failed {sum(r['failed'] for r in runs)}")
    return status


def selfcheck(benchmark: dict) -> int:
    expected = {
        0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        1: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            code, result, wall, _ = run_once(workload, 1, 1.0, trace, smoke=True)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            got = {name: body["unit"] for name, body in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json")
            zero = [name for name, body in result["metrics"].items() if not body["value"]]
            if not trace and zero:
                problems.append(f"{where}: end-to-end metrics read 0: {zero}")
            print(f"{where}: ok in {wall:.1f} s")
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repeat runs or self-check the benchmark")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    if args.selfcheck:
        return selfcheck(benchmark)
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    return repeat(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
