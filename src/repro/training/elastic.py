"""Elastic data-parallel training: a supervised worker pool that degrades
instead of dying.

The coordinator owns the canonical parameters, optimizer, schedule,
snapshots, and signal handling; N gradient workers own nothing but a model
replica and a shard of each step's micro-batches. Per step the coordinator
broadcasts parameters, dispatches the step's micro-batches over the live
membership (:class:`~repro.training.sharding.ShardPlan`), collects one
gradient contribution per micro-batch, folds them with the pinned
:func:`~repro.training.sharding.tree_reduce` order, and applies one
optimizer step. Because every micro-batch's forward/backward is a pure
function of ``(parameters, micro-batch index)`` — data order and RNG
streams are derived statelessly from the run seed — the trained parameters
are **bit-identical at every world size**, including after worker deaths,
restarts, and degraded re-sharding.

Supervision state machine (per worker)::

    SPAWNED ── heartbeat ──▶ LIVE ──┬─ death/timeout/corrupt ─▶ BACKOFF
                                    │        (budget left)        │
                                    │                        spawn after
                                    │                      backoff * 2^k
                                    └─ budget exhausted ──▶ RETIRED
    all RETIRED ──▶ coordinator computes inline (degrade, don't die)

Faults the supervisor handles: a worker process dying (non-zero exit,
kill -9), heartbeats stalling past ``worker_timeout``, and non-finite
gradient contributions (corruption). Outstanding micro-batches of a failed
worker are re-queued and recomputed — bit-exactly, see above — on the
survivors. A non-finite gradient that *reproduces* on recomputation is not
corruption but divergence, and raises
:class:`~repro.training.trainer.TrainingDiverged` (recoverable through the
same snapshot-rollback machinery as the single-process trainer).

Workers mask SIGINT, so Ctrl-C on the process group interrupts only the
coordinator, which finishes the in-flight step, writes exactly one
graceful final snapshot, shuts the pool down, and raises
:class:`~repro.training.trainer.TrainingInterrupted`.
"""

from __future__ import annotations

import math
import os
import signal as signal_module
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Mapping, Sequence

import multiprocessing

import numpy as np

from repro.data.batching import Batch, BatchIterator, collate, example_source_lengths
from repro.data.dataset import EncodedExample
from repro.data.shardstore import CorpusChangedError
from repro.models.base import QuestionGenerator
from repro.observability import (
    Telemetry,
    TerminalSink,
    emit_worker_pool,
    get_telemetry,
    param_norm,
    process_rss_bytes,
    scaling_efficiency,
)
from repro.optim import SGD, HalveAtEpoch, NonFiniteGradError, clip_grad_norm
from repro.optim.optimizers import Optimizer
from repro.optim.schedules import Schedule
from repro.training.history import EpochRecord, RecoveryEvent, TrainingHistory
from repro.training.resilience import ResilienceConfig, SnapshotStore
from repro.training.sharding import (
    ShardPlan,
    epoch_batch_plan,
    reseed_model_rngs,
    tree_reduce_gradients,
)
from repro.training.trainer import (
    TrainingDiverged,
    TrainingInterrupted,
    evaluate_mean_loss,
)

__all__ = [
    "ElasticConfig",
    "WorkerFaultPlan",
    "ElasticTrainer",
    "mask_worker_signals",
    "compute_microbatch",
]

_SNAP_FORMAT_KEY = "elastic"
_KILL_EXIT_CODE = 37
"""Exit code of a fault-injected worker kill (distinguishable in tests)."""
_STALL_SECONDS = 3600.0
"""A stalled worker sleeps this long; the supervisor kills it far sooner."""


# ----------------------------------------------------------------------
# Configuration and fault seam
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ElasticConfig:
    """Shape and supervision policy of the worker pool.

    Parameters
    ----------
    workers:
        Gradient worker processes. ``0`` runs every micro-batch inline in
        the coordinator — the same math through the same code path, useful
        for tests and as the floor the pool degrades to.
    microbatches_per_step:
        Micro-batches aggregated into one optimizer step. This — not the
        world size — defines the optimization trajectory: two runs with the
        same value produce bit-identical parameters at any worker count.
        ``None`` pins it to ``max(1, workers)`` at trainer construction.
    worker_timeout:
        Seconds without a heartbeat before a worker is declared dead.
    heartbeat_interval:
        How often workers send heartbeats (must be < ``worker_timeout``).
    poll_interval:
        Coordinator's supervision cadence while waiting on results.
    max_worker_restarts:
        Per-worker restart budget; exhausting it retires the rank and
        re-shards its slots onto the survivors (degraded mode).
    restart_backoff:
        Base delay before respawning a failed worker; doubles per restart
        of that rank (``backoff * 2^k``).
    start_method:
        Multiprocessing start method. ``fork`` (default) lets workers
        inherit the model replica and examples without pickling.
    """

    workers: int = 2
    microbatches_per_step: int | None = None
    worker_timeout: float = 10.0
    heartbeat_interval: float = 0.25
    poll_interval: float = 0.02
    max_worker_restarts: int = 2
    restart_backoff: float = 0.1
    start_method: str = "fork"

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.microbatches_per_step is not None and self.microbatches_per_step < 1:
            raise ValueError(
                f"microbatches_per_step must be >= 1, got {self.microbatches_per_step}"
            )
        if self.worker_timeout <= 0:
            raise ValueError(f"worker_timeout must be positive, got {self.worker_timeout}")
        if not 0 < self.heartbeat_interval < self.worker_timeout:
            raise ValueError(
                f"heartbeat_interval must be in (0, worker_timeout), "
                f"got {self.heartbeat_interval} vs {self.worker_timeout}"
            )
        if self.poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {self.poll_interval}")
        if self.max_worker_restarts < 0:
            raise ValueError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )
        if self.restart_backoff < 0:
            raise ValueError(f"restart_backoff must be >= 0, got {self.restart_backoff}")
        if self.workers > 0 and self.start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {self.start_method!r} unavailable on this platform "
                f"(have {multiprocessing.get_all_start_methods()}); use workers=0"
            )


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Deterministic worker-level fault seam (chaos testing only).

    Faults key on ``(rank, nth compute command)`` — 1-based, counted by the
    worker itself — so injection lands at an exact step boundary no matter
    how supervision re-shards the run. In the style of
    :mod:`repro.serving.faults`: the plan is plain data, injection is
    deterministic, and production runs simply pass ``None``.
    """

    kill_on_compute: Mapping[int, int] = field(default_factory=dict)
    """rank → die (``os._exit``) when its Nth compute command arrives."""
    stall_on_compute: Mapping[int, int] = field(default_factory=dict)
    """rank → stop heartbeating and hang on its Nth compute command."""
    corrupt_on_compute: Mapping[int, int] = field(default_factory=dict)
    """rank → poison its Nth gradient with NaN before sending."""

    def action_for(self, rank: int, nth_compute: int) -> str | None:
        if self.kill_on_compute.get(rank) == nth_compute:
            return "kill"
        if self.stall_on_compute.get(rank) == nth_compute:
            return "stall"
        if self.corrupt_on_compute.get(rank) == nth_compute:
            return "corrupt"
        return None


def mask_worker_signals() -> None:
    """Make a worker deaf to SIGINT.

    Ctrl-C delivers SIGINT to the whole foreground process group; only the
    coordinator may react (it writes the single graceful final snapshot).
    SIGTERM stays at its default so the supervisor can terminate workers.
    """
    signal_module.signal(signal_module.SIGINT, signal_module.SIG_IGN)


# ----------------------------------------------------------------------
# Micro-batch computation (shared by workers and the inline fallback)
# ----------------------------------------------------------------------
def compute_microbatch(
    model: QuestionGenerator,
    examples: Sequence[EncodedExample],
    run_seed: int,
    epoch: int,
    slot: int,
    indices: Sequence[int],
    pad_id: int = 0,
) -> tuple[list[np.ndarray], float, int, float]:
    """Forward/backward one micro-batch; returns (grads, loss_sum, tokens, seconds).

    Deterministic in ``(parameters, run_seed, epoch, slot)``: the model's
    RNG streams are reseeded for the slot first, so a worker, a restarted
    worker, and the coordinator's inline fallback all produce identical
    bytes for the same micro-batch.
    """
    start = time.perf_counter()
    reseed_model_rngs(model, run_seed, epoch, slot)
    model.train()
    batch: Batch = collate([examples[i] for i in indices], pad_id=pad_id)
    loss = model.loss(batch)
    loss_value = loss.item()
    if math.isfinite(loss_value):
        loss.backward()
    # A non-finite loss is never backpropagated: the zero grads below plus
    # the NaN loss_sum make _contribution_finite reject the contribution.
    grads = [
        param.grad.copy() if param.grad is not None else np.zeros_like(param.data)
        for param in model.parameters()
    ]
    model.zero_grad()
    tokens = batch.num_target_tokens
    return grads, loss_value * tokens, tokens, time.perf_counter() - start


def _contribution_finite(grads: Sequence[np.ndarray], loss_sum: float) -> bool:
    if not math.isfinite(loss_sum):
        return False
    return all(np.isfinite(grad).all() for grad in grads)


def _zero_accum() -> dict:
    return {"loss": 0.0, "tokens": 0, "norm": 0.0, "batches": 0}


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(
    rank: int,
    conn,
    model: QuestionGenerator,
    examples: Sequence[EncodedExample],
    run_seed: int,
    pad_id: int,
    heartbeat_interval: float,
    fault_plan: WorkerFaultPlan | None,
) -> None:
    """Worker loop: load params, compute assigned micro-batches, heartbeat."""
    mask_worker_signals()
    send_lock = threading.Lock()
    stalled = threading.Event()

    def _send(message) -> bool:
        try:
            with send_lock:
                conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _heartbeat() -> None:
        # Each heartbeat carries the worker's current RSS: with the corpus
        # mmap-shared the gauge stays near the model-replica size, which is
        # what makes the shard store's no-materialization claim observable.
        while not stalled.is_set():
            if not _send(("hb", rank, process_rss_bytes())):
                return
            stalled.wait(heartbeat_interval)

    heartbeat_thread = threading.Thread(
        target=_heartbeat, name=f"elastic-hb-{rank}", daemon=True
    )
    heartbeat_thread.start()
    computes = 0
    try:
        _send(("hello", rank, os.getpid()))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "shutdown":
                return
            if kind == "params":
                model.load_state_dict(message[1])
                continue
            if kind == "compute":
                _, epoch, slot, indices = message
                computes += 1
                action = fault_plan.action_for(rank, computes) if fault_plan else None
                if action == "kill":
                    os._exit(_KILL_EXIT_CODE)
                if action == "stall":
                    # Simulated hang: heartbeats stop, the process lingers.
                    # The supervisor must notice via the timeout and SIGKILL.
                    stalled.set()
                    time.sleep(_STALL_SECONDS)
                    continue
                grads, loss_sum, tokens, seconds = compute_microbatch(
                    model, examples, run_seed, epoch, slot, indices, pad_id
                )
                if action == "corrupt":
                    grads[0] = grads[0].copy()
                    grads[0].flat[0] = float("nan")
                _send(("grad", rank, slot, grads, loss_sum, tokens, seconds))
    except (EOFError, KeyboardInterrupt):
        return
    except Exception:  # noqa: BLE001 - a worker must report, not vanish
        _send(("error", rank, traceback.format_exc()))
        os._exit(1)


# ----------------------------------------------------------------------
# Worker handle (coordinator side)
# ----------------------------------------------------------------------
@dataclass
class _WorkerHandle:
    rank: int
    process: object | None = None
    conn: object | None = None
    last_heartbeat: float = 0.0
    rss_bytes: int = 0
    restarts_used: int = 0
    status: str = "live"  # live | backoff | retired
    backoff_until: float = 0.0
    params_version_sent: int = -1

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None


class ElasticTrainer:
    """Coordinator for multiprocess data-parallel training.

    Drop-in sibling of :class:`~repro.training.trainer.Trainer` for the
    same model families: accepts the shared :class:`TrainerConfig`,
    :class:`ResilienceConfig` (snapshots, resume, graceful signals,
    divergence rollback), telemetry, and optimizer/schedule injection —
    but scales the gradient computation over an elastic pool of worker
    processes as described in the module docstring.

    Parameters
    ----------
    model:
        Coordinator replica; holds the canonical parameters.
    examples:
        Training examples (a :class:`~repro.data.dataset.QGDataset` works).
        Workers inherit them at fork time — nothing is re-encoded per step.
    batch_size / bucket_multiplier / pad_id:
        Micro-batch composition, identical semantics to
        :class:`~repro.data.batching.BatchIterator`.
    run_seed:
        Root of the deterministic derivation tree (data order, dropout
        streams). Two runs with equal ``run_seed``, config, and
        ``microbatches_per_step`` are bit-identical at any world size.
    dev_iterator:
        Optional; enables per-epoch dev loss, early stopping, and best-dev
        parameter tracking, evaluated inline on the coordinator.
    fault_plan:
        Deterministic chaos seam (:class:`WorkerFaultPlan`); None in
        production.
    """

    def __init__(
        self,
        model: QuestionGenerator,
        examples: Sequence[EncodedExample],
        batch_size: int,
        dev_iterator: BatchIterator | None = None,
        config=None,
        elastic: ElasticConfig | None = None,
        optimizer: Optimizer | None = None,
        schedule: Schedule | None = None,
        epoch_callback: Callable[[EpochRecord], None] | None = None,
        resilience: ResilienceConfig | None = None,
        telemetry: Telemetry | None = None,
        fault_plan: WorkerFaultPlan | None = None,
        pad_id: int = 0,
        bucket_multiplier: int = 16,
        run_seed: int = 0,
    ) -> None:
        from repro.training.trainer import TrainerConfig

        self.model = model
        # Indexable containers (lists, QGDataset, the shard store's lazy
        # StreamingQGDataset) are used in place — workers inherit the mmap
        # handles at fork time and share OS pages instead of each holding a
        # materialized copy. Plain iterables are drained once into a list.
        if hasattr(examples, "__getitem__") and hasattr(examples, "__len__"):
            self.examples = examples
        else:
            self.examples = list(examples)
        if not len(self.examples):
            raise ValueError("elastic training needs a non-empty example list")
        self.corpus_digest = getattr(examples, "corpus_digest", None)
        self.batch_size = int(batch_size)
        self.bucket_multiplier = bucket_multiplier
        self.pad_id = pad_id
        self.run_seed = int(run_seed)
        self.dev_iterator = dev_iterator
        self.config = config or TrainerConfig()
        self.elastic = elastic or ElasticConfig()
        self.microbatches_per_step = (
            self.elastic.microbatches_per_step
            if self.elastic.microbatches_per_step is not None
            else max(1, self.elastic.workers)
        )
        if telemetry is None:
            telemetry = get_telemetry()
            if not telemetry.enabled:
                telemetry = Telemetry([TerminalSink()])
        self.telemetry = telemetry
        self.optimizer = optimizer or SGD(model.parameters(), lr=self.config.learning_rate)
        self.schedule = schedule or HalveAtEpoch(self.optimizer, self.config.halve_at_epoch)
        self.epoch_callback = epoch_callback
        self.resilience = resilience
        self.fault_plan = fault_plan
        self._store = (
            SnapshotStore(resilience.directory, keep_last=resilience.keep_last)
            if resilience
            else None
        )
        self.history = TrainingHistory()
        self.best_state: dict | None = None
        self._handles: dict[int, _WorkerHandle] = {}
        self._ctx = None
        self._params_version = 0
        self._step = 0
        self._best_dev = float("inf")
        self._epochs_without_improvement = 0
        self._retries_used = 0
        self._recovery_events: list[RecoveryEvent] = []
        self._pending_backoff: float | None = None
        self._resume_accum: dict | None = None
        self._interrupt_signum: int | None = None
        self._degraded = False
        self._inline_announced = False
        self.worker_deaths = 0
        self.worker_restarts = 0
        self.redispatched = 0

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def _spawn_pool(self) -> None:
        if self.elastic.workers == 0 or self._handles:
            return
        self._ctx = multiprocessing.get_context(self.elastic.start_method)
        for rank in range(self.elastic.workers):
            self._handles[rank] = _WorkerHandle(rank=rank)
            self._spawn_worker(self._handles[rank])

    def _spawn_worker(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Injected faults are transient by definition: they fire in a rank's
        # FIRST incarnation only. A restarted worker counts its compute
        # commands from 1 again, so handing it the same plan would re-fire
        # the fault every respawn and burn the whole restart budget.
        # Persistent faults are modeled with max_worker_restarts=0 instead.
        fault_plan = self.fault_plan if handle.restarts_used == 0 else None
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                handle.rank,
                child_conn,
                self.model,
                self.examples,
                self.run_seed,
                self.pad_id,
                self.elastic.heartbeat_interval,
                fault_plan,
            ),
            name=f"elastic-worker-{handle.rank}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.last_heartbeat = time.monotonic()
        handle.status = "live"
        handle.params_version_sent = -1

    def _kill_worker_process(self, handle: _WorkerHandle) -> None:
        if handle.process is not None:
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join(timeout=5.0)
            handle.process = None
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None

    def shutdown(self) -> None:
        """Stop and reap every worker; idempotent, never leaves orphans."""
        for handle in self._handles.values():
            if handle.conn is not None:
                try:
                    handle.conn.send(("shutdown",))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + 5.0
        for handle in self._handles.values():
            if handle.process is not None:
                handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            self._kill_worker_process(handle)
        self._handles.clear()

    def live_worker_pids(self) -> list[int]:
        """PIDs of workers still running (empty after a clean shutdown)."""
        return [
            handle.pid
            for handle in self._handles.values()
            if handle.process is not None and handle.process.is_alive()
        ]

    def _live_handles(self) -> list[_WorkerHandle]:
        return [h for h in self._handles.values() if h.status == "live"]

    @property
    def worker_rss(self) -> dict[int, int]:
        """Rank → latest heartbeat-reported RSS in bytes (live workers only).

        Zero until a rank's first RSS-bearing heartbeat arrives; gauged per
        step as ``elastic.worker<rank>.rss_mb``.
        """
        return {
            h.rank: h.rss_bytes for h in self._live_handles() if h.rss_bytes > 0
        }

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _fail_worker(
        self, handle: _WorkerHandle, cause: str, outstanding: dict
    ) -> list[tuple]:
        """Kill, re-queue, and either schedule a restart or retire the rank.

        Returns the failed worker's outstanding items (slot-sorted) so the
        caller can push them back onto the pending queue.
        """
        self.worker_deaths += 1
        requeued = [item for _, item in sorted(outstanding.pop(handle.rank, {}).items())]
        self.redispatched += len(requeued)
        self._kill_worker_process(handle)
        self.telemetry.counter("elastic.worker_deaths")
        self.telemetry.run_marker(
            "worker_dead", rank=handle.rank, cause=cause, step=self._step
        )
        if handle.restarts_used >= self.elastic.max_worker_restarts:
            handle.status = "retired"
            survivors = sorted(
                h.rank for h in self._handles.values() if h.status != "retired"
            )
            self._note_degraded(survivors)
            return requeued
        handle.restarts_used += 1
        self.worker_restarts += 1
        backoff = self.elastic.restart_backoff * (2 ** (handle.restarts_used - 1))
        handle.status = "backoff"
        handle.backoff_until = time.monotonic() + backoff
        self.telemetry.counter("elastic.worker_restarts")
        self.telemetry.run_marker(
            "worker_restart_scheduled",
            rank=handle.rank,
            restart=handle.restarts_used,
            backoff_seconds=backoff,
            step=self._step,
        )
        return requeued

    def _note_degraded(self, survivors: list[int]) -> None:
        self._degraded = True
        self.telemetry.run_marker(
            "degraded", survivors=survivors, step=self._step
        )
        self.telemetry.log(
            f"[elastic] degraded mode: re-sharding onto workers {survivors or '[inline]'}"
        )

    def _supervise(self, outstanding: dict, pending: deque) -> None:
        """One supervision pass: detect deaths/stalls, respawn due workers."""
        now = time.monotonic()
        for handle in list(self._handles.values()):
            if handle.status == "live":
                if handle.process is None or not handle.process.is_alive():
                    pending.extend(self._fail_worker(handle, "process_died", outstanding))
                elif now - handle.last_heartbeat > self.elastic.worker_timeout:
                    pending.extend(
                        self._fail_worker(handle, "heartbeat_timeout", outstanding)
                    )
            elif handle.status == "backoff" and now >= handle.backoff_until:
                self._spawn_worker(handle)
                self.telemetry.run_marker(
                    "worker_restarted", rank=handle.rank, step=self._step
                )

    def _broadcast_params(self, handles: Sequence[_WorkerHandle]) -> None:
        payload = None
        for handle in handles:
            if handle.params_version_sent == self._params_version or handle.conn is None:
                continue
            if payload is None:
                payload = self.model.state_dict()
            try:
                handle.conn.send(("params", payload))
                handle.params_version_sent = self._params_version
            except (BrokenPipeError, OSError):
                pass  # the next supervision pass reaps it

    def _dispatch(self, pending: deque, outstanding: dict) -> None:
        """Assign every pending micro-batch to the live membership."""
        live = sorted(self._live_handles(), key=lambda h: h.rank)
        if not live:
            return
        self._broadcast_params(live)
        plan = ShardPlan(tuple(h.rank for h in live))
        by_rank = {h.rank: h for h in live}
        while pending:
            epoch, slot, indices = pending.popleft()
            handle = by_rank[plan.owner_of(slot)]
            try:
                handle.conn.send(("compute", epoch, slot, indices))
            except (BrokenPipeError, OSError):
                pending.appendleft((epoch, slot, indices))
                return  # reaped next supervision pass, then re-dispatched
            outstanding.setdefault(handle.rank, {})[slot] = (epoch, slot, indices)

    def _drain_ready(
        self, outstanding: dict, pending: deque, results: dict, nan_counts: dict
    ) -> None:
        """Read every message currently available on worker pipes."""
        conns = {
            handle.conn: handle
            for handle in self._live_handles()
            if handle.conn is not None
        }
        if not conns:
            time.sleep(self.elastic.poll_interval)
            return
        ready = mp_connection.wait(list(conns), timeout=self.elastic.poll_interval)
        for conn in ready:
            handle = conns[conn]
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    # Pipe gone: the liveness check next pass reaps the rank.
                    break
                kind = message[0]
                if kind in ("hb", "hello"):
                    handle.last_heartbeat = time.monotonic()
                    if kind == "hb" and len(message) > 2:
                        handle.rss_bytes = int(message[2])
                elif kind == "grad":
                    _, rank, slot, grads, loss_sum, tokens, seconds = message
                    handle.last_heartbeat = time.monotonic()
                    item = outstanding.get(rank, {}).pop(slot, None)
                    if not _contribution_finite(grads, loss_sum):
                        self._record_nonfinite(slot, nan_counts)
                        # Corruption: kill the worker, recompute the slot
                        # elsewhere (bit-exactly — see module docstring).
                        if item is not None:
                            pending.append(item)
                        pending.extend(
                            self._fail_worker(handle, "corrupt_gradient", outstanding)
                        )
                        break
                    results[slot] = (grads, loss_sum, tokens, seconds, rank)
                elif kind == "error":
                    self.telemetry.log(
                        f"[elastic] worker {handle.rank} raised:\n{message[2]}"
                    )
                    pending.extend(self._fail_worker(handle, "exception", outstanding))
                    break

    def _record_nonfinite(self, slot: int, nan_counts: dict, fatal: bool = False) -> None:
        """A NaN/inf gradient arrived: corruption once, divergence twice.

        The first non-finite result for a slot is treated as a worker fault
        (the contribution is dropped and recomputed elsewhere); if the
        recomputation is non-finite too — same inputs, same parameters,
        same bytes — the model itself has diverged and the run escalates to
        :class:`TrainingDiverged` for the snapshot-rollback path. Inline
        recomputation on the coordinator is authoritative (``fatal=True``):
        there is no second machine to blame.
        """
        nan_counts[slot] = nan_counts.get(slot, 0) + (2 if fatal else 1)
        self.telemetry.counter("elastic.nonfinite_contributions")
        if nan_counts[slot] >= 2:
            raise TrainingDiverged(
                f"micro-batch {slot} produced a non-finite gradient "
                f"deterministically (step {self._step + 1}); this is "
                "divergence, not worker corruption",
                cause="nonfinite_grad",
            )

    def _execute_step(
        self, epoch: int, slot_items: Sequence[tuple[int, tuple[int, ...]]]
    ) -> dict[int, tuple]:
        """Run one global step's micro-batches over the pool; supervise.

        Returns slot → (grads, loss_sum, tokens, seconds, rank) for every
        slot, surviving worker deaths, stalls, corruption, and — when the
        whole pool is gone — computing inline on the coordinator.
        """
        pending: deque = deque((epoch, slot, indices) for slot, indices in slot_items)
        outstanding: dict[int, dict[int, tuple]] = {}
        results: dict[int, tuple] = {}
        nan_counts: dict[int, int] = {}
        want = len(slot_items)
        while len(results) < want:
            self._supervise(outstanding, pending)
            if self._live_handles():
                self._dispatch(pending, outstanding)
                self._drain_ready(outstanding, pending, results, nan_counts)
                continue
            if any(h.status == "backoff" for h in self._handles.values()):
                # Restarts are due shortly; wait for the pool to heal.
                time.sleep(self.elastic.poll_interval)
                continue
            # Degrade, don't die: no pool left — the coordinator computes.
            if not self._inline_announced and self.elastic.workers > 0:
                self._inline_announced = True
                self.telemetry.run_marker("inline_fallback", step=self._step)
                self.telemetry.log(
                    "[elastic] no live workers remain; computing inline"
                )
            while pending:
                item_epoch, slot, indices = pending.popleft()
                grads, loss_sum, tokens, seconds = compute_microbatch(
                    self.model, self.examples, self.run_seed,
                    item_epoch, slot, indices, self.pad_id,
                )
                if not _contribution_finite(grads, loss_sum):
                    self._record_nonfinite(slot, nan_counts, fatal=True)
                results[slot] = (grads, loss_sum, tokens, seconds, -1)
        return results

    # ------------------------------------------------------------------
    # Snapshots / resume
    # ------------------------------------------------------------------
    def _capture_state(
        self, phase: str, epoch: int, steps_done: int, accum: dict
    ) -> tuple[dict, dict]:
        optimizer_state = self.optimizer.state_dict()
        arrays = {f"model::{k}": v for k, v in self.model.state_dict().items()}
        arrays.update({f"opt::{k}": v for k, v in optimizer_state["arrays"].items()})
        if self.best_state is not None:
            arrays.update({f"best::{k}": v for k, v in self.best_state.items()})
        meta = {
            "phase": phase,
            "epoch": epoch,
            "steps_done": steps_done,
            "accum": accum,
            _SNAP_FORMAT_KEY: {
                "run_seed": self.run_seed,
                "microbatches_per_step": self.microbatches_per_step,
                "batch_size": self.batch_size,
                "corpus_digest": self.corpus_digest,
            },
            "best_dev": None if math.isinf(self._best_dev) else self._best_dev,
            "epochs_without_improvement": self._epochs_without_improvement,
            "retries_used": self._retries_used,
            "has_best": self.best_state is not None,
            "optimizer": optimizer_state["scalars"],
            "schedule": self.schedule.state_dict(),
            "history": self.history.to_payload(),
            "telemetry": self.telemetry.state(),
        }
        return arrays, meta

    def _snapshot(
        self, phase: str, epoch: int, steps_done: int, accum: dict | None = None
    ) -> str | None:
        if self._store is None:
            return None
        arrays, meta = self._capture_state(
            phase, epoch, steps_done, accum if accum is not None else _zero_accum()
        )
        return self._store.save(self._step, arrays, meta)

    def _restore_state(self, arrays: dict, meta: dict) -> tuple[int, int]:
        stamp = meta.get(_SNAP_FORMAT_KEY)
        if not stamp:
            raise ValueError(
                "snapshot was not written by the elastic runtime; resume it "
                "with the single-process Trainer instead"
            )
        for key, current in (
            ("run_seed", self.run_seed),
            ("microbatches_per_step", self.microbatches_per_step),
            ("batch_size", self.batch_size),
        ):
            if stamp.get(key) != current:
                raise ValueError(
                    f"elastic resume mismatch: snapshot {key}={stamp.get(key)} "
                    f"vs configured {current} — the optimization trajectory "
                    "would silently change"
                )
        # Corpus identity: snapshots taken from a shard store carry its
        # manifest digest. Resuming against a store whose manifest changed
        # (re-ingest, edited shards) is a typed rejection, not a silently
        # different trajectory. A digest-less side (in-memory lists) cannot
        # be verified and is allowed — parity there is pinned by tests.
        snapshot_digest = stamp.get("corpus_digest")
        if (
            snapshot_digest is not None
            and self.corpus_digest is not None
            and snapshot_digest != self.corpus_digest
        ):
            raise CorpusChangedError(
                f"snapshot was trained on corpus {snapshot_digest[:12]}… but the "
                f"configured shard store is {self.corpus_digest[:12]}… — the corpus "
                "changed under the run; re-ingest or point at the original store"
            )
        model_state = {
            k.split("::", 1)[1]: v for k, v in arrays.items() if k.startswith("model::")
        }
        opt_arrays = {k.split("::", 1)[1]: v for k, v in arrays.items() if k.startswith("opt::")}
        best_state = {k.split("::", 1)[1]: v for k, v in arrays.items() if k.startswith("best::")}
        self.model.load_state_dict(model_state)
        self.optimizer.load_state_dict({"scalars": meta["optimizer"], "arrays": opt_arrays})
        self.schedule.load_state_dict(meta["schedule"])
        self.best_state = {k: v.copy() for k, v in best_state.items()} if meta["has_best"] else None
        self.history = TrainingHistory.from_payload(meta["history"])
        if len(self.history.events) > len(self._recovery_events):
            self._recovery_events = list(self.history.events)
        self.history.events = list(self._recovery_events)
        self._best_dev = float("inf") if meta["best_dev"] is None else float(meta["best_dev"])
        self._epochs_without_improvement = int(meta["epochs_without_improvement"])
        self._retries_used = max(self._retries_used, int(meta["retries_used"]))
        self._step = int(meta["step"])
        self._params_version += 1

        telemetry_state = meta.get("telemetry")
        if telemetry_state and telemetry_state.get("cursor") is not None:
            self.telemetry.restore(telemetry_state)
        self.telemetry.run_marker(
            "resume", step=self._step, epoch=int(meta["epoch"]), phase=str(meta["phase"])
        )
        epoch, steps_done = int(meta["epoch"]), int(meta["steps_done"])
        mid_epoch = meta["phase"] in ("mid_epoch", "interrupt") and steps_done > 0
        self._resume_accum = dict(meta["accum"]) if mid_epoch else None
        if meta["phase"] == "epoch_end":
            return epoch + 1, 0
        return epoch, steps_done if mid_epoch else 0

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    @contextmanager
    def _signal_guard(self):
        if (
            self.resilience is None
            or not self.resilience.handle_signals
            or threading.current_thread() is not threading.main_thread()
        ):
            yield
            return

        def _flag(signum, frame):  # noqa: ARG001 - signal handler signature
            self._interrupt_signum = signum

        previous = {
            sig: signal_module.signal(sig, _flag)
            for sig in (signal_module.SIGINT, signal_module.SIGTERM)
        }
        try:
            yield
        finally:
            for sig, handler in previous.items():
                signal_module.signal(sig, handler)

    def _check_interrupt(self, epoch: int, steps_done: int, accum: dict) -> None:
        if self._interrupt_signum is None:
            return
        signum = self._interrupt_signum
        self._interrupt_signum = None
        self.telemetry.run_marker(
            "interrupt", signum=signum, epoch=epoch, steps_done=steps_done
        )
        path = self._snapshot("interrupt", epoch, steps_done, accum)
        raise TrainingInterrupted(
            f"received signal {signum} at epoch {epoch} after {steps_done} steps; "
            + (f"snapshot written to {path}" if path else "no snapshot directory configured"),
            snapshot_path=path,
        )

    # ------------------------------------------------------------------
    # Divergence recovery (same contract as Trainer)
    # ------------------------------------------------------------------
    def _attempt_recovery(self, exc: TrainingDiverged) -> tuple[dict, dict] | None:
        if self._store is None or self.resilience is None:
            return None
        if self._retries_used >= self.resilience.max_retries:
            return None
        latest = self._store.latest_valid()
        if latest is None:
            return None
        _, meta = latest
        old_lr = float(self.schedule.base_lr)
        new_lr = old_lr * self.resilience.backoff_factor
        event = RecoveryEvent(
            epoch=exc.epoch if exc.epoch is not None else -1,
            batch=exc.batches_done if exc.batches_done is not None else -1,
            reason=str(exc),
            restored_step=int(meta["step"]),
            old_lr=old_lr,
            new_lr=new_lr,
            cause=getattr(exc, "cause", ""),
        )
        self.telemetry.run_marker(
            "recovery",
            cause=event.cause,
            restored_step=event.restored_step,
            old_lr=old_lr,
            new_lr=new_lr,
        )
        self._recovery_events.append(event)
        self._retries_used += 1
        self._pending_backoff = new_lr / float(meta["schedule"]["base_lr"])
        return latest

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def train(self, resume_from: str | os.PathLike | None = None) -> TrainingHistory:
        """Run the full schedule over the pool; returns the history.

        ``resume_from`` restarts bit-exactly from the latest valid elastic
        snapshot in that directory (the global order and RNG streams are
        stateless functions of the run seed, so a resumed run replays the
        identical trajectory).
        """
        resume_state: tuple[dict, dict] | None = None
        if resume_from is not None:
            store = SnapshotStore(
                resume_from,
                keep_last=self.resilience.keep_last if self.resilience else 3,
            )
            if self._store is None:
                self._store = store
            resume_state = store.latest_valid()

        with self._signal_guard():
            try:
                self._spawn_pool()
                while True:
                    try:
                        return self._run(resume_state)
                    except TrainingDiverged as exc:
                        recovered = (
                            self._attempt_recovery(exc)
                            if getattr(exc, "allow_recovery", True)
                            else None
                        )
                        if recovered is None:
                            exc.recovery_log = list(self._recovery_events)
                            self.history.events = list(self._recovery_events)
                            raise
                        resume_state = recovered
            finally:
                self.shutdown()

    def _run(self, resume_state: tuple[dict, dict] | None) -> TrainingHistory:
        config = self.config
        telemetry = self.telemetry
        start_epoch, start_step = 1, 0

        if resume_state is not None:
            start_epoch, start_step = self._restore_state(*resume_state)
        else:
            self.history = TrainingHistory()
            self.history.events = list(self._recovery_events)
            self.best_state = None
            self._step = 0
            self._best_dev = float("inf")
            self._epochs_without_improvement = 0
            telemetry.run_marker(
                "elastic_start",
                epochs=config.epochs,
                workers=self.elastic.workers,
                microbatches_per_step=self.microbatches_per_step,
                lr=float(self.schedule.base_lr),
            )
        telemetry.set_step(self._step)

        if self._pending_backoff is not None:
            self.schedule.base_lr *= self._pending_backoff
            self._pending_backoff = None

        if start_epoch > config.epochs:
            if self.best_state is not None:
                self.model.load_state_dict(self.best_state)
            return self.history

        if resume_state is None and self._store is not None:
            self._snapshot("epoch_start", 1, 0)

        snapshot_every = self.resilience.every_n_batches if self.resilience else 0
        lengths = example_source_lengths(self.examples)
        group = self.microbatches_per_step

        for epoch in range(start_epoch, config.epochs + 1):
            lr = self.schedule.apply(epoch)
            self._params_version += 1  # schedule may have changed nothing, but
            # the epoch boundary is a natural re-broadcast point for restarts
            plan = epoch_batch_plan(
                lengths, self.batch_size, self.run_seed, epoch,
                bucket_multiplier=self.bucket_multiplier,
            )
            steps = [
                list(enumerate(plan))[start: start + group]
                for start in range(0, len(plan), group)
            ]
            resuming_mid_epoch = epoch == start_epoch and start_step > 0
            accum = (
                (self._resume_accum or _zero_accum())
                if resuming_mid_epoch
                else _zero_accum()
            )
            self._resume_accum = None
            epoch_start = time.perf_counter()
            skip = start_step if epoch == start_epoch else 0

            with telemetry.span("epoch", extra={"epoch": epoch}):
                for step_in_epoch, slot_items in enumerate(steps):
                    if step_in_epoch < skip:
                        continue
                    step_start = time.perf_counter()
                    telemetry.set_step(self._step + 1)
                    try:
                        results = self._execute_step(epoch, slot_items)
                    except TrainingDiverged as exc:
                        exc.epoch = epoch
                        exc.batches_done = step_in_epoch
                        raise
                    self._apply_step(results, accum, epoch, step_in_epoch)
                    self._step += 1
                    step_wall = time.perf_counter() - step_start
                    busy = sum(r[3] for r in results.values())
                    world = max(1, len(self._live_handles())) if self.elastic.workers else 1
                    now = time.monotonic()
                    emit_worker_pool(
                        telemetry,
                        "elastic",
                        {
                            h.rank: now - h.last_heartbeat
                            for h in self._live_handles()
                        },
                        world_size=len(self._live_handles()),
                        efficiency=scaling_efficiency(busy, step_wall, world),
                        rss_bytes=self.worker_rss,
                    )
                    telemetry.observe("elastic.step_seconds", step_wall)
                    self._check_interrupt(epoch, step_in_epoch + 1, accum)
                    if snapshot_every and self._step % snapshot_every == 0:
                        self._snapshot("mid_epoch", epoch, step_in_epoch + 1, accum)

                dev_loss = (
                    evaluate_mean_loss(self.model, self.dev_iterator)
                    if self.dev_iterator is not None
                    else None
                )

            record = EpochRecord(
                epoch=epoch,
                train_loss=accum["loss"] / max(1, accum["tokens"]),
                learning_rate=lr,
                grad_norm=accum["norm"] / max(1, accum["batches"]),
                dev_loss=dev_loss,
            )
            self.history.append(record)
            telemetry.gauge("train.lr", lr)
            telemetry.gauge("train.epoch_loss", record.train_loss)
            if dev_loss is not None:
                telemetry.gauge("train.dev_loss", dev_loss)
            telemetry.gauge("train.param_norm", param_norm(self.optimizer.parameters))
            telemetry.throughput(
                "train.tokens", accum["tokens"], time.perf_counter() - epoch_start
            )
            telemetry.flush_histograms()
            if self.epoch_callback:
                self.epoch_callback(record)

            stop = False
            if dev_loss is not None:
                if dev_loss < self._best_dev - 1e-6:
                    self._best_dev = dev_loss
                    self.best_state = self.model.state_dict()
                    self._epochs_without_improvement = 0
                else:
                    self._epochs_without_improvement += 1
                    patience = config.early_stopping_patience
                    if patience is not None and self._epochs_without_improvement >= patience:
                        stop = True

            epoch_end_path = self._snapshot("epoch_end", epoch, 0)
            if self._interrupt_signum is not None:
                signum = self._interrupt_signum
                self._interrupt_signum = None
                raise TrainingInterrupted(
                    f"received signal {signum} after epoch {epoch}; "
                    + (
                        f"snapshot written to {epoch_end_path}"
                        if epoch_end_path
                        else "no snapshot directory configured"
                    ),
                    snapshot_path=epoch_end_path,
                )
            if stop:
                break

        if self.best_state is not None:
            self.model.load_state_dict(self.best_state)
        telemetry.run_marker(
            "elastic_finish",
            step=self._step,
            epochs_run=len(self.history.records),
            worker_deaths=self.worker_deaths,
            worker_restarts=self.worker_restarts,
            degraded=self._degraded,
        )
        telemetry.flush()
        return self.history

    def _apply_step(
        self, results: dict[int, tuple], accum: dict, epoch: int, step_in_epoch: int
    ) -> None:
        """Reduce one step's contributions in pinned order and step."""
        ordered = sorted(results.items())  # pinned: ascending micro-batch slot
        contributions = [grads for _, (grads, *_rest) in ordered]
        reduced = tree_reduce_gradients(contributions)
        scale = 1.0 / len(contributions)  # numerics: ok — results is never empty
        parameters = self.optimizer.parameters
        for param, grad in zip(parameters, reduced):
            param.grad = grad * scale
        try:
            norm = clip_grad_norm(parameters, self.config.clip_norm, on_nonfinite="raise")
        except NonFiniteGradError as exc:
            diverged = TrainingDiverged(
                f"non-finite reduced gradient norm at step {self._step + 1} ({exc})",
                cause="nonfinite_grad_norm",
            )
            diverged.epoch = epoch
            diverged.batches_done = step_in_epoch
            raise diverged from exc
        self.optimizer.step()
        self.model.zero_grad()
        self._params_version += 1
        # Sum in slot order, not results' insertion (= arrival) order: float
        # addition is not associative, so an arrival-ordered sum would make
        # the reported train loss drift across world sizes.
        loss_sum = sum(value[1] for _, value in ordered)
        tokens = sum(value[2] for _, value in ordered)
        accum["loss"] += loss_sum
        accum["tokens"] += tokens
        accum["norm"] += norm
        accum["batches"] += 1
        mean_loss = loss_sum / max(1, tokens)
        self.telemetry.gauge("train.loss", mean_loss)
        self.telemetry.gauge("train.grad_norm", norm)
        self.telemetry.counter("train.tokens", tokens)
