"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_mixed.engine --seed 1 --seconds 22 --trace 0

``--trace 0`` prints every end-to-end metric from an untraced run;
``--trace 1`` prints every per-layer metric from a traced run, with the
per-layer table before it. The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; host facts, input
properties and the output digest come on the lines before it. The exit code
is 1 when a correctness check fails and 2 when the program under test
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

# One BLAS thread per process, set before numpy loads. The host has 2 CPUs
# and the pool and the elastic phase run 2 workers beside a coordinator;
# OpenBLAS threads spinning on tiny matrices made repeated identical runs
# differ by 15%. The values are reported with the host facts.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import harness
    from decode_workloads import DecodeBeam3
    from serve_workloads import ServeEngine, ServePool
    from train_workloads import TrainParagraph
except ImportError as error:  # the program under test is not in this tree
    print(f"cannot import the program under test: {error}", file=sys.stderr)
    sys.exit(2)

import inputs
from metrics import END_TO_END, PER_LAYER, SPAN_MEANS

WORKLOADS = {
    cls.name: cls
    for cls in (TrainParagraph, DecodeBeam3, ServeEngine, ServePool)
}

SETUP_BUDGET = 2.0
MAX_SETUPS = 9

UNTRACED_SHARE = 0.35
"""Traced runs first run the workload untraced for this share of the time,
so the tracing overhead is measured on the same inputs."""


def _span_metrics(tel) -> dict[str, float]:
    spans = harness.aggregate_spans(harness.span_records(tel))

    def mean_ms(name: str) -> float:
        row = spans.get(name)
        return 1000.0 * row["total"] / row["count"] if row else 0.0

    values = {metric: mean_ms(span) for metric, span in SPAN_MEANS.items()}
    if "training.train_batch" in spans:
        values["training.other_ms"] = mean_ms("training.train_batch") - sum(
            values[name] for name in ("models.loss_ms", "tensor.backward_ms", "optim.step_ms")
        )
    return values


def _setup(cls, args, workdir: str, scale, tel):
    """Set up at least ``setup_repeats`` times, and more while they take
    less than ``SETUP_BUDGET`` in all; the median is ``setup_s`` and the
    last instance is the one measured. Traced runs set up once."""
    seconds = []
    workload = None
    index = 0
    while not seconds or (
        not args.trace
        and (len(seconds) < scale.setup_repeats
             or (sum(seconds) < SETUP_BUDGET and len(seconds) < MAX_SETUPS))
    ):
        if workload is not None:
            workload.close()
        path = os.path.join(workdir, f"setup-{index}")
        os.makedirs(path)
        workload = cls(args.seed, path, scale)
        start = harness.now()
        try:
            workload.setup(tel)
        except BaseException:
            workload.close()
            raise
        seconds.append(harness.now() - start)
        index += 1
    return workload, harness.median(seconds)


def run(args) -> int:
    cls = WORKLOADS[args.workload]
    scale = inputs.SMOKE if args.smoke else inputs.FULL
    harness.emit("host", harness.host_facts())
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    tel = harness.traced_hub() if args.trace else harness.NULL
    try:
        workload, setup_seconds = _setup(cls, args, workdir, scale, tel)
        try:
            if args.trace:
                baseline = workload.measure(args.seconds * UNTRACED_SHARE, harness.NULL)
                phase = workload.measure(args.seconds * (1 - UNTRACED_SHARE), tel)
                metrics = dict.fromkeys(PER_LAYER, 0.0)
                metrics.update(_span_metrics(tel))
                metrics.update(phase.layers)
                metrics.update(workload.after(tel))
                metrics["trace_overhead_share"] = baseline.rate / phase.rate - 1.0
                attempted = baseline.attempted + phase.attempted
                failed = baseline.failed + phase.failed
            else:
                phase = workload.measure(args.seconds, harness.NULL)
                workload.after(harness.NULL)
                metrics = {
                    "setup_s": setup_seconds,
                    "ops_per_s": phase.rate,
                    "p50_ms": 1000.0 * harness.percentile(phase.latencies, 50),
                    "p95_ms": 1000.0 * harness.percentile(phase.latencies, 95),
                }
                attempted, failed = phase.attempted, phase.failed
            workload.check()
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it
    if not args.trace:
        metrics["peak_rss_mb"] = harness.peak_rss_mb()  # after workers are reaped

    harness.emit(
        "operations",
        {"attempted": attempted, "succeeded": attempted - failed, "failed": failed},
    )
    harness.emit("inputs", workload.inputs())
    harness.emit("output_digest", workload.output_digest())
    if args.trace:
        print(harness.render_table(harness.layer_table(tel, phase.counts), metrics["trace_overhead_share"]))
    for message in workload.failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not workload.failures,
        "attempted": attempted,
        "failed": failed + len(workload.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the self-check"
    )
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
