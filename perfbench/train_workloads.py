"""``train_paragraph``: one epoch over the paragraph-mode training split.

Sources are paragraphs truncated at 100 tokens (the paper default), so
attention, the Eq. 2-3 copy mixture and backward sit on the critical path
and nothing decodes. The split is ingested into a shard store during set-up
and streamed from it. Each measured epoch trains a fresh copy of the same
initial weights with ``Trainer`` in-process, so every epoch is the same work
and must end in the same parameters. A follow-up phase, not timed end to
end, trains the same epoch through ``ElasticTrainer`` with 2 forked workers
for the elastic supervisor's per-layer figures: with three processes on the
2-CPU host, its epoch time moved 35% with the host's load within minutes,
three times as much as the in-process epoch.
"""

from __future__ import annotations

import copy
import math
import os

from repro.data import (
    BatchIterator,
    QGDataset,
    ShardedCorpus,
    SourceMode,
    StreamingQGDataset,
    collate,
    ingest_examples,
)
from repro.optim import SGD
from repro.tensor.profiler import TapeProfile
from repro.training import ElasticConfig, ElasticTrainer, Trainer, TrainerConfig

import inputs
from harness import (
    NULL,
    Counter,
    Phase,
    TimedIterator,
    Workload,
    children_cpu,
    digest,
    is_traced,
    mean,
    now,
    run_for,
    self_cpu,
    state_digest,
    upper_quartile,
    wrap_method,
)

ELASTIC_WORKERS = 2


class TrainParagraph(Workload):
    name = "train_paragraph"
    why = "long paragraph sources, one Trainer epoch in-process: attention, copy mixture, backward; then an untimed ElasticTrainer epoch"

    def setup(self, tel) -> None:
        data = inputs.corpus(self.seed, self.scale.train_paragraphs, 1)
        store = os.path.join(self.workdir, "store")
        start = now()
        result = ingest_examples(data.train, store)
        self.ingest_seconds = now() - start
        self.records = result.manifest.total_records
        self.shards = len(result.manifest.shards)
        self.corpus = ShardedCorpus.open(store)
        encoder_vocab, decoder_vocab = QGDataset.build_vocabs(
            iter(self.corpus),
            encoder_vocab_size=inputs.ENCODER_VOCAB,
            decoder_vocab_size=inputs.DECODER_VOCAB,
            source_mode=SourceMode.PARAGRAPH,
            paragraph_length=inputs.PARAGRAPH_LENGTH,
        )
        self.train_set = StreamingQGDataset(
            self.corpus,
            encoder_vocab,
            decoder_vocab,
            source_mode=SourceMode.PARAGRAPH,
            paragraph_length=inputs.PARAGRAPH_LENGTH,
        )
        self.initial = inputs.new_model(self.seed, encoder_vocab, decoder_vocab)
        self.tape_nodes = 0
        if is_traced(tel):
            model = copy.deepcopy(self.initial)
            model.train()
            with TapeProfile() as tape:
                model.loss(collate([self.train_set[i] for i in range(inputs.BATCH_SIZE)], 0))
            self.tape_nodes = tape.nodes
        self.epoch_digests: list[str] = []
        self.losses: list[float] = []
        self.elastic_loss: float | None = None

    def close(self) -> None:
        corpus = getattr(self, "corpus", None)
        if corpus is not None:
            corpus.close()

    def _optimizer(self, model, marks: list[float]):
        """SGD whose ``step`` stamps the time: step latency from outside."""
        optimizer = SGD(model.parameters(), lr=inputs.LEARNING_RATE)
        wrap_method(optimizer, "step", NULL, "", Counter(), after=lambda _: marks.append(now()))
        return optimizer

    def _config(self) -> TrainerConfig:
        return TrainerConfig(epochs=1, learning_rate=inputs.LEARNING_RATE)

    def check(self) -> None:
        bad = [loss for loss in self.losses if not math.isfinite(loss)]
        if bad:
            self.fail(f"{len(bad)} non-finite training losses")
        if self.elastic_loss is None or not math.isfinite(self.elastic_loss):
            self.fail(f"the elastic epoch ended with loss {self.elastic_loss}")
        if len(set(self.epoch_digests)) > 1:
            self.fail("epochs from identical weights and data ended in different parameters")

    def inputs(self) -> dict:
        lengths = self.train_set.source_lengths
        return {
            "examples": len(lengths),
            "source_tokens_mean": mean(lengths),
            "source_tokens_max": max(lengths),
            "shards": self.shards,
            "batch_size": inputs.BATCH_SIZE,
        }

    def output_digest(self) -> str:
        return self.epoch_digests[0] if self.epoch_digests else ""

    def measure(self, seconds: float, tel) -> Phase:
        phase = Phase()
        traced = is_traced(tel)
        epoch_steps: list[list[float]] = []
        batch_calls = Counter()
        waits = Counter()

        def epoch() -> None:
            model = copy.deepcopy(self.initial)
            marks: list[float] = []
            optimizer = self._optimizer(model, marks)
            iterator = BatchIterator(self.train_set, batch_size=inputs.BATCH_SIZE, seed=self.seed)
            if traced:
                iterator = TimedIterator(iterator, tel)
            trainer = Trainer(
                model, iterator, None, self._config(), optimizer=optimizer, telemetry=tel
            )
            losses: list[float] = []
            wrap_method(
                trainer, "train_batch", tel, "training.train_batch", batch_calls,
                after=lambda result: losses.append(result[0]),
            )
            marks.append(now())
            trainer.train()
            epoch_steps.append([b - a for a, b in zip(marks, marks[1:])])
            phase.attempted += len(losses)
            phase.failed += sum(not math.isfinite(loss) for loss in losses)
            self.losses.extend(losses)
            self.epoch_digests.append(digest([losses, state_digest(model)]))
            if traced:
                waits.calls += iterator.counter.calls
                waits.seconds += iterator.counter.seconds

        phase.seconds = run_for(seconds, epoch)
        # Each step at its upper-quartile time over the epochs: the latency
        # of each step, and examples per second of one epoch's steps. A
        # step's time runs from the previous optimizer step (the epoch's
        # start for the first) to its own, so it includes waiting for its
        # batch.
        phase.latencies = upper_quartile(epoch_steps)
        phase.rate = len(self.train_set) / sum(phase.latencies)
        if traced:
            phase.layers["data.batch_wait_ms"] = 1000.0 * waits.seconds / max(1, waits.calls)
            phase.layers["tensor.tape_nodes"] = float(self.tape_nodes)
            phase.layers["data.ingest_records_per_s"] = self.records / self.ingest_seconds
            phase.counts["training.train_batch"] = {"examples": float(len(self.train_set))}
        return phase

    def after(self, tel) -> dict[str, float]:
        """The elastic phase: the same epoch from the same initial weights
        through ``ElasticTrainer`` with ``ELASTIC_WORKERS`` forked workers."""
        model = copy.deepcopy(self.initial)
        trainer = None
        worker_rss: list[float] = []

        def on_epoch(record) -> None:
            rss = trainer.worker_rss
            worker_rss.append(max(rss.values(), default=0) / (1024.0 * 1024.0))

        trainer = ElasticTrainer(
            model,
            self.train_set,
            batch_size=inputs.BATCH_SIZE,
            config=self._config(),
            elastic=ElasticConfig(workers=ELASTIC_WORKERS),
            optimizer=SGD(model.parameters(), lr=inputs.LEARNING_RATE),
            epoch_callback=on_epoch,
            telemetry=tel,
            run_seed=self.seed,
        )
        cpu_start, children_start = self_cpu(), children_cpu()
        history = trainer.train()
        self.elastic_loss = history.records[-1].train_loss
        return {
            "elastic.coordinator_cpu_s": self_cpu() - cpu_start,
            "elastic.worker_cpu_s": children_cpu() - children_start,
            "elastic.worker_rss_mb": max(worker_rss, default=0.0),
        }
