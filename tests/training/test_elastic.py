"""Elastic runtime tests: world-size parity, chaos recovery, degrade, resume.

The determinism contracts (see ``repro/training/sharding.py``) make every
assertion here *byte-exact*: any worker count, any fault schedule, and any
resume point must reproduce the single-process parameters bit for bit, so
the chaos tests compare ``tobytes()`` instead of tolerances.
"""

import os
import signal

import numpy as np
import pytest

from repro.data import BatchIterator, QGDataset, QGExample
from repro.models import ModelConfig, build_model
from repro.training import (
    ElasticConfig,
    ElasticTrainer,
    ResilienceConfig,
    TrainerConfig,
    TrainingDiverged,
    TrainingInterrupted,
    WorkerFaultPlan,
)

from faults import assert_no_orphans, nan_loss_on_nth_batch

RUN_SEED = 7

FAST_POOL = dict(
    microbatches_per_step=2,
    worker_timeout=5.0,
    heartbeat_interval=0.1,
    restart_backoff=0.05,
)


def _make_setup(dropout=0.3):
    sentences = [
        "zorvex was born in karlin .",
        "mira designed the velkin tower .",
        "draxby is the capital of ostavia .",
        "the quen river flows through belcor .",
        "pelor wrote the sunken atlas .",
        "the omber bridge spans the fjord .",
    ]
    questions = [
        "where was zorvex born ?",
        "who designed the velkin tower ?",
        "what is the capital of ostavia ?",
        "what river flows through belcor ?",
        "who wrote the sunken atlas ?",
        "what spans the fjord ?",
    ]
    examples = [
        QGExample(sentence=tuple(s.split()), paragraph=tuple(s.split()), question=tuple(q.split()))
        for s, q in zip(sentences, questions)
    ]
    encoder, decoder = QGDataset.build_vocabs(examples, 100, 100)
    dataset = QGDataset(examples, encoder, decoder)
    config = ModelConfig(embedding_dim=8, hidden_size=8, num_layers=1, dropout=dropout, seed=0)
    model = build_model("acnn", config, len(encoder), len(decoder))
    return model, dataset


def _trainer(workers, fault_plan=None, epochs=2, resilience=None, **pool_overrides):
    model, dataset = _make_setup()
    pool = {**FAST_POOL, **pool_overrides}
    dev = BatchIterator(dataset, batch_size=2, shuffle=False)
    return ElasticTrainer(
        model,
        dataset,
        batch_size=2,
        dev_iterator=dev,
        config=TrainerConfig(epochs=epochs, learning_rate=0.5),
        elastic=ElasticConfig(workers=workers, **pool),
        fault_plan=fault_plan,
        resilience=resilience,
        run_seed=RUN_SEED,
    )


def _run(workers, fault_plan=None, epochs=2, **pool_overrides):
    trainer = _trainer(workers, fault_plan=fault_plan, epochs=epochs, **pool_overrides)
    history = trainer.train()
    assert trainer.live_worker_pids() == []
    return trainer.model.state_dict(), history, trainer


def _assert_same_params(reference, other):
    assert reference.keys() == other.keys()
    for key in reference:
        assert np.array_equal(reference[key], other[key]), f"parameter drifted: {key}"


@pytest.fixture(scope="module")
def baseline():
    """The workers=0 (inline) run every other run must reproduce exactly."""
    return _run(0)


# ----------------------------------------------------------------------
# Configuration & fault-plan plumbing
# ----------------------------------------------------------------------
def test_elastic_config_validation():
    with pytest.raises(ValueError):
        ElasticConfig(workers=-1)
    with pytest.raises(ValueError):
        ElasticConfig(microbatches_per_step=0)
    with pytest.raises(ValueError):
        ElasticConfig(worker_timeout=0)
    with pytest.raises(ValueError):
        ElasticConfig(heartbeat_interval=2.0, worker_timeout=1.0)
    with pytest.raises(ValueError):
        ElasticConfig(max_worker_restarts=-1)


def test_fault_plan_triggers_on_exact_compute():
    plan = WorkerFaultPlan(
        kill_on_compute={0: 2}, stall_on_compute={1: 1}, corrupt_on_compute={2: 3}
    )
    assert plan.action_for(0, 1) is None
    assert plan.action_for(0, 2) == "kill"
    assert plan.action_for(1, 1) == "stall"
    assert plan.action_for(2, 3) == "corrupt"
    assert plan.action_for(3, 1) is None


def test_empty_examples_rejected():
    model, dataset = _make_setup()
    with pytest.raises(ValueError):
        ElasticTrainer(model, [], batch_size=2)


# ----------------------------------------------------------------------
# World-size parity: the bit-exact determinism acceptance gate
# ----------------------------------------------------------------------
def test_any_world_size_produces_identical_parameters(baseline):
    """W=0, 1, 2, 4 with pinned microbatches_per_step: byte-identical."""
    ref_params, ref_history, _ = baseline
    for workers in (1, 2, 4):
        params, history, _ = _run(workers)
        _assert_same_params(ref_params, params)
        assert [r.train_loss for r in history.records] == [
            r.train_loss for r in ref_history.records
        ], f"train loss diverged at workers={workers}"
        assert [r.dev_loss for r in history.records] == [
            r.dev_loss for r in ref_history.records
        ], f"dev loss diverged at workers={workers}"


def test_microbatches_per_step_defines_the_trajectory():
    """Changing G changes the optimization; pinning G is what parity needs."""
    params_g2, _, _ = _run(0)
    params_g1, _, _ = _run(0, microbatches_per_step=1)
    assert any(
        not np.array_equal(params_g2[key], params_g1[key]) for key in params_g2
    )


# ----------------------------------------------------------------------
# Chaos: kill / stall / corrupt, all byte-exact after recovery
# ----------------------------------------------------------------------
def test_killed_worker_recovers_bit_exactly(baseline):
    ref_params, ref_history, _ = baseline
    params, history, trainer = _run(2, WorkerFaultPlan(kill_on_compute={1: 2}))
    _assert_same_params(ref_params, params)
    assert history.records[-1].dev_loss == ref_history.records[-1].dev_loss
    assert trainer.worker_deaths == 1
    assert trainer.worker_restarts == 1


def test_kill_plus_stall_still_completes_bit_exactly(baseline):
    """The acceptance scenario: one worker dies, another stalls past its
    heartbeat timeout; training completes without hanging, no orphans,
    identical final parameters and dev loss."""
    ref_params, ref_history, _ = baseline
    params, history, trainer = _run(
        2,
        WorkerFaultPlan(kill_on_compute={0: 1}, stall_on_compute={1: 2}),
        worker_timeout=1.5,
        heartbeat_interval=0.2,
    )
    _assert_same_params(ref_params, params)
    assert history.records[-1].dev_loss == ref_history.records[-1].dev_loss
    assert trainer.worker_deaths == 2


def test_corrupt_gradient_detected_and_recomputed(baseline):
    ref_params, _, _ = baseline
    params, _, trainer = _run(2, WorkerFaultPlan(corrupt_on_compute={0: 1}))
    _assert_same_params(ref_params, params)
    assert trainer.worker_deaths == 1  # the corrupter was declared faulty


def test_restart_budget_exhaustion_degrades_to_inline(baseline):
    """Every worker retired -> the coordinator computes inline, bit-exactly."""
    ref_params, ref_history, _ = baseline
    params, history, trainer = _run(
        2,
        WorkerFaultPlan(kill_on_compute={0: 1, 1: 1}),
        max_worker_restarts=0,
    )
    _assert_same_params(ref_params, params)
    assert [r.dev_loss for r in history.records] == [
        r.dev_loss for r in ref_history.records
    ]
    assert trainer.worker_deaths == 2
    assert trainer.worker_restarts == 0
    assert trainer._degraded is True


def test_no_orphan_processes_after_training(monkeypatch):
    spawned: list[int] = []
    original = ElasticTrainer._spawn_worker

    def recording(self, handle):
        original(self, handle)
        spawned.append(handle.process.pid)

    monkeypatch.setattr(ElasticTrainer, "_spawn_worker", recording)
    # Kill on the FIRST compute so the replacement spawns while work remains.
    _, _, trainer = _run(2, WorkerFaultPlan(kill_on_compute={0: 1}))
    assert trainer.worker_deaths == 1
    assert len(spawned) >= 2  # the initial pool; usually 3 with the respawn
    assert_no_orphans(spawned)


# ----------------------------------------------------------------------
# Divergence: reproducible non-finite gradients are NOT worker faults
# ----------------------------------------------------------------------
def test_deterministic_nan_raises_training_diverged():
    trainer = _trainer(0)
    with nan_loss_on_nth_batch(trainer.model, 2, every_after=True):
        with pytest.raises(TrainingDiverged):
            trainer.train()


def test_deterministic_nan_exhausts_recovery_budget(tmp_path):
    resilience = ResilienceConfig(directory=tmp_path / "snaps", max_retries=2)
    trainer = _trainer(0, resilience=resilience)
    with nan_loss_on_nth_batch(trainer.model, 2, every_after=True):
        with pytest.raises(TrainingDiverged) as info:
            trainer.train()
    assert len(info.value.recovery_log) == 2  # both retries were spent


# ----------------------------------------------------------------------
# Snapshots & resume
# ----------------------------------------------------------------------
def test_resume_from_epoch_end_is_bit_exact(baseline, tmp_path):
    ref_params, ref_history, _ = baseline
    snap_dir = tmp_path / "snaps"
    first = _trainer(0, epochs=1, resilience=ResilienceConfig(directory=snap_dir))
    first.train()
    resumed = _trainer(0, epochs=2, resilience=ResilienceConfig(directory=snap_dir))
    history = resumed.train(resume_from=snap_dir)
    _assert_same_params(ref_params, resumed.model.state_dict())
    assert len(history.records) == 2
    assert history.records[-1].dev_loss == ref_history.records[-1].dev_loss


def test_resume_mid_epoch_is_bit_exact(baseline, tmp_path):
    ref_params, _, _ = baseline
    snap_dir = tmp_path / "snaps"
    interrupted = _trainer(
        0, resilience=ResilienceConfig(directory=snap_dir, handle_signals=True)
    )
    # Flag an interrupt before training: the coordinator notices it after
    # the first optimizer step and writes a mid-epoch "interrupt" snapshot.
    interrupted._interrupt_signum = signal.SIGINT
    with pytest.raises(TrainingInterrupted) as info:
        interrupted.train()
    assert info.value.snapshot_path is not None

    resumed = _trainer(0, resilience=ResilienceConfig(directory=snap_dir))
    resumed.train(resume_from=snap_dir)
    _assert_same_params(ref_params, resumed.model.state_dict())


def test_resume_with_multiprocess_pool_is_bit_exact(baseline, tmp_path):
    ref_params, _, _ = baseline
    snap_dir = tmp_path / "snaps"
    first = _trainer(2, epochs=1, resilience=ResilienceConfig(directory=snap_dir))
    first.train()
    resumed = _trainer(2, epochs=2, resilience=ResilienceConfig(directory=snap_dir))
    resumed.train(resume_from=snap_dir)
    _assert_same_params(ref_params, resumed.model.state_dict())


def test_resume_rejects_mismatched_run_seed(tmp_path):
    snap_dir = tmp_path / "snaps"
    first = _trainer(0, epochs=1, resilience=ResilienceConfig(directory=snap_dir))
    first.train()
    model, dataset = _make_setup()
    mismatched = ElasticTrainer(
        model,
        dataset,
        batch_size=2,
        config=TrainerConfig(epochs=2, learning_rate=0.5),
        elastic=ElasticConfig(workers=0, **FAST_POOL),
        resilience=ResilienceConfig(directory=snap_dir),
        run_seed=RUN_SEED + 1,
    )
    with pytest.raises(ValueError, match="run_seed"):
        mismatched.train(resume_from=snap_dir)


def test_resume_rejects_single_process_snapshots(tmp_path):
    from repro.training import Trainer

    model, dataset = _make_setup()
    snap_dir = tmp_path / "snaps"
    Trainer(
        model,
        BatchIterator(dataset, batch_size=2, seed=0),
        config=TrainerConfig(epochs=1, learning_rate=0.5),
        resilience=ResilienceConfig(directory=snap_dir),
    ).train()
    elastic = _trainer(0, resilience=ResilienceConfig(directory=snap_dir))
    with pytest.raises(ValueError, match="elastic"):
        elastic.train(resume_from=snap_dir)


# ----------------------------------------------------------------------
# Telemetry surface
# ----------------------------------------------------------------------
def test_pool_telemetry_records_membership_and_efficiency():
    from repro.observability import MemorySink, Telemetry

    sink = MemorySink()
    model, dataset = _make_setup()
    trainer = ElasticTrainer(
        model,
        dataset,
        batch_size=2,
        config=TrainerConfig(epochs=1, learning_rate=0.5),
        elastic=ElasticConfig(workers=2, **FAST_POOL),
        telemetry=Telemetry([sink]),
        run_seed=RUN_SEED,
    )
    trainer.train()
    gauges = {record["name"] for record in sink.of_kind("gauge")}
    assert "elastic.world_size" in gauges
    assert "elastic.scaling_efficiency" in gauges
    assert any(name.startswith("elastic.worker") for name in gauges)
    markers = {record["name"] for record in sink.of_kind("run")}
    assert "elastic_start" in markers
    assert "elastic_finish" in markers
