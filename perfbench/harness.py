"""Shared machinery of the benchmark: host facts, timing proxies, statistics,
process accounting and the per-layer span table.

Everything here measures the program from outside. Timing proxies wrap the
public objects a workload hands to the program (the model, the batch
iterator, an optimizer's ``step``) and open spans on the telemetry hub the
benchmark passes in, so the program's own spans (``forward``, ``backward``,
``optimizer_step``, ``decode.batch`` ...) and the benchmark's spans land in
one tree.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import time
from typing import Callable, Iterable

import numpy as np

from repro.observability import MemorySink, NullTelemetry, Telemetry, aggregate_spans

now = time.perf_counter

NULL = NullTelemetry()


def traced_hub() -> Telemetry:
    """A hub that keeps every event in memory for the per-layer table."""
    return Telemetry([MemorySink()])


def is_traced(tel) -> bool:
    return bool(getattr(tel, "enabled", False))


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------
_THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # noqa: BLE001 - older numpy: report what is known
        return {"name": "unknown", "version": "unknown"}


def host_facts() -> dict:
    """What a speed figure needs next to it to be comparable."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 0
    return {
        "nproc": cpus,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in _THREAD_ENV},
        "mp_start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Iterable[float], q: float) -> float:
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return 0.0
    return float(np.percentile(data, q))


def mean(values: Iterable[float]) -> float:
    data = list(values)
    return float(sum(data) / len(data)) if data else 0.0


def median(values: Iterable[float]) -> float:
    data = list(values)
    return float(statistics.median(data)) if data else 0.0


def upper_quartile(repeats: list[list[float]]) -> list[float]:
    """Per unit of work, the upper quartile of its timings over the repeats.

    A run repeats the same units (a batch decode, a training step, a request
    or a stretch of completions) several times. On the shared 2-CPU host
    this benchmark was sized on, the speed of a fixed loop drifts between a
    contended level (1.3-1.7x its fastest time, most of the time, and a
    steady level) and brief fast spells whose share of a run varies from run
    to run. Over six runs of 20 s of the single-process serving and decode
    workloads, per-unit minimum and median timings spread 0.08-0.19 of their
    median between runs; the upper quartile, which stays on the contended
    level, spread 0.06-0.10.
    """
    return [float(np.percentile(times, 75)) for times in zip(*repeats)]


def digest(parts: Iterable) -> str:
    """SHA-256 over the repr of each part, for run-to-run output comparison."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


LOG_PROB_TOLERANCE = 1e-9
"""Decode paths that run the same request inside differently shaped arrays
(a batch versus one example, frontiers with different cohabitants) can
round the summed log-prob differently in the last bits; the tokens must
still match exactly."""


def same_output(expected: tuple | None, got: tuple | None) -> bool:
    """``(tokens, log_prob)`` pairs: tokens equal, scores within tolerance."""
    if expected is None or got is None:
        return expected is got
    return expected[0] == got[0] and abs(expected[1] - got[1]) <= LOG_PROB_TOLERANCE


def state_digest(model) -> str:
    hasher = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        hasher.update(name.encode())
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------
def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def self_cpu() -> float:
    return cpu_seconds(resource.RUSAGE_SELF)


def children_cpu() -> float:
    """CPU of reaped children (workers count once they have been joined)."""
    return cpu_seconds(resource.RUSAGE_CHILDREN)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (``ru_maxrss``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process, from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # Fields after the command name start at "state" (field 3): utime and
    # stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# Timing proxies
# ----------------------------------------------------------------------
class Counter:
    """Calls, busy seconds and a work count (rows, examples) of one boundary."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.work = 0

    def reset(self) -> None:
        self.__init__()

    def add(self, seconds: float, work: int = 0) -> None:
        self.calls += 1
        self.seconds += seconds
        self.work += work


class TimedModel:
    """Model proxy that times ``encode`` and ``step_log_probs``.

    Every other attribute goes to the wrapped model, the same way
    ``repro.serving.cache.CachedEncoderModel`` proxies it, so decode loops
    and the serving stack use it unchanged.
    """

    def __init__(self, model, telemetry) -> None:
        self._model = model
        self._tel = telemetry
        self.encode_counter = Counter()
        self.step_counter = Counter()

    def __getattr__(self, name: str):
        return getattr(self._model, name)

    def encode(self, batch):
        with self._tel.span("models.encode"):
            start = now()
            context = self._model.encode(batch)
            self.encode_counter.add(now() - start, batch.size)
        return context

    def step_log_probs(self, prev, state, context, **kwargs):
        with self._tel.span("models.step"):
            start = now()
            result = self._model.step_log_probs(prev, state, context, **kwargs)
            self.step_counter.add(now() - start, len(prev))
        return result


def model_layers(model: TimedModel) -> dict[str, float]:
    """The ``models.*`` per-layer metrics a :class:`TimedModel` measured."""
    encode, step = model.encode_counter, model.step_counter
    return {
        "models.encode_ms": 1000.0 * encode.seconds / max(1, encode.calls),
        "models.encode_calls": float(encode.calls),
        "models.step_ms": 1000.0 * step.seconds / max(1, step.calls),
        "models.step_calls": float(step.calls),
        "models.step_rows_mean": step.work / max(1, step.calls),
    }


class TimedIterator:
    """Batch-iterator proxy that times each ``next`` the trainer waits on."""

    def __init__(self, iterator, telemetry) -> None:
        self._iterator = iterator
        self._tel = telemetry
        self.counter = Counter()

    def __getattr__(self, name: str):
        return getattr(self._iterator, name)

    def __len__(self) -> int:
        return len(self._iterator)

    def __iter__(self):
        source = iter(self._iterator)
        while True:
            with self._tel.span("data.next_batch"):
                start = now()
                try:
                    batch = next(source)
                except StopIteration:
                    return
                self.counter.add(now() - start, batch.size)
            yield batch


def wrap_method(obj, name: str, telemetry, span: str, counter: Counter,
                after: Callable | None = None) -> None:
    """Shadow ``obj.name`` with a timed version (instance attribute only)."""
    original = getattr(obj, name)

    def timed(*args, **kwargs):
        with telemetry.span(span):
            start = now()
            result = original(*args, **kwargs)
            counter.add(now() - start)
        if after is not None:
            after(result)
        return result

    setattr(obj, name, timed)


def run_for(seconds: float, unit: Callable[[], None]) -> float:
    """Call ``unit`` at least once, and again while another call is expected
    to end within ``seconds``; returns the elapsed seconds."""
    start = now()
    longest = 0.0
    while True:
        began = now()
        unit()
        longest = max(longest, now() - began)
        if now() - start + longest > seconds:
            return now() - start


# ----------------------------------------------------------------------
# Per-layer table
# ----------------------------------------------------------------------
_SPAN_LAYERS = {
    "data.next_batch": "repro.data",
    "forward": "repro.models",
    "models.encode": "repro.models",
    "models.step": "repro.models",
    "backward": "repro.tensor",
    "optimizer_step": "repro.optim",
    "training.train_batch": "repro.training",
    "epoch": "repro.training",
    "decoding.search": "repro.decoding",
    "decode.batch": "repro.decoding",
    "encode": "repro.decoding",
    "serving.engine_step": "repro.serving",
    "pool.pump": "repro.serving.pool",
    "pool.reload": "repro.serving.pool",
}


def span_records(telemetry) -> list[dict]:
    records: list[dict] = []
    for sink in getattr(telemetry, "sinks", ()):
        if isinstance(sink, MemorySink):
            records.extend(sink.of_kind("span"))
    return records


def clear_trace(telemetry) -> None:
    """Drop what a warm-up recorded, so the table covers the measured window."""
    for sink in getattr(telemetry, "sinks", ()):
        if isinstance(sink, MemorySink):
            sink.records.clear()


def layer_table(telemetry, counts: dict[str, dict[str, float]]) -> list[dict]:
    """One row per span name: layer, calls, total and self milliseconds,
    plus the work counts the workload attributes to that layer."""
    rows = []
    for name, agg in sorted(aggregate_spans(span_records(telemetry)).items()):
        rows.append(
            {
                "layer": _SPAN_LAYERS.get(name, "other"),
                "span": name,
                "calls": int(agg["count"]),
                "total_ms": round(agg["total"] * 1000.0, 3),
                "self_ms": round(agg["self"] * 1000.0, 3),
                "counts": counts.get(name, {}),
            }
        )
    rows.sort(key=lambda row: (row["layer"], -row["self_ms"]))
    return rows


def render_table(rows: list[dict], overhead: float) -> str:
    lines = [
        f"{'layer':<20} {'span':<22} {'calls':>8} {'total_ms':>12} {'self_ms':>12}  counts"
    ]
    for row in rows:
        counts = " ".join(f"{k}={v:g}" for k, v in row["counts"].items())
        lines.append(
            f"{row['layer']:<20} {row['span']:<22} {row['calls']:>8d} "
            f"{row['total_ms']:>12.1f} {row['self_ms']:>12.1f}  {counts}"
        )
    lines.append(f"trace_overhead_share = {overhead:+.4f}")
    return "\n".join(lines)


def emit(kind: str, payload) -> None:
    """One informational JSON line on stdout (the result line comes last)."""
    print(json.dumps({kind: payload}, sort_keys=True), flush=True)


# ----------------------------------------------------------------------
# Workload interface
# ----------------------------------------------------------------------
class Phase:
    """What one measured phase produced."""

    def __init__(self) -> None:
        self.seconds = 0.0
        """Wall time of the measured window."""
        self.rate = 0.0
        """Operations of the user's unit (examples, sentences, requests) per second."""
        self.latencies: list[float] = []
        """Seconds per operation the user waits on (a step, a batch, a request)."""
        self.attempted = 0
        self.failed = 0
        self.layers: dict[str, float] = {}
        """Per-layer metrics measured by the workload itself."""
        self.counts: dict[str, dict[str, float]] = {}
        """Work counts per span name, for the per-layer table."""


class Workload:
    """One named workload: set-up, a measured phase, checks, reports.

    ``setup`` and ``measure`` receive the telemetry hub the run passes in:
    the null hub for end-to-end runs, a memory hub for the traced run.
    """

    name = ""
    why = ""

    def __init__(self, seed: int, workdir: str, scale) -> None:
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.failures: list[str] = []

    def setup(self, tel) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tel) -> Phase:
        raise NotImplementedError

    def after(self, tel) -> dict[str, float]:
        """Unmeasured follow-up phase; returns per-layer metrics."""
        return {}

    def check(self) -> None:
        """Append a message to ``self.failures`` for every failed check."""

    def inputs(self) -> dict:
        return {}

    def output_digest(self) -> str:
        return ""

    def close(self) -> None:
        pass

    def fail(self, message: str) -> None:
        self.failures.append(message)
