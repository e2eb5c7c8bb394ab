"""Seeded inputs and the set-up every workload shares.

What a workload feeds the program is a pure function of ``--seed`` and
the scale: the paragraph corpus and initial weights of the training
workloads, the choice and order of test sentences of the decode workloads
and the request stream of the serve workloads. The ACNN model uses the ``acnn train``
defaults (embedding 32, hidden 48, 2 layers, dropout 0.3, batch 32,
1500/150 encoder/decoder vocabulary, learning rate 1.0).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.data import (
    BatchIterator,
    QGDataset,
    SourceMode,
    SyntheticConfig,
    generate_corpus,
)
from repro.models import ModelConfig, build_model
from repro.serving import GenerationRequest
from repro.training import Trainer, TrainerConfig

from harness import NULL

ENCODER_VOCAB = 1500
DECODER_VOCAB = 150
BATCH_SIZE = 32
LEARNING_RATE = 1.0
PARAGRAPH_LENGTH = 100
DECODE_MAX_LENGTH = 24
TEST_POOL = 1200


@dataclass(frozen=True)
class Scale:
    train_paragraphs: int
    """Paragraph-mode training split of the training workloads (one epoch)."""
    model_sentences: int
    """Sentence-mode split the decode/serve model is trained on in set-up."""
    test_sentences: int
    """Decode workloads: test sentences decoded per pass."""
    request_sentences: int
    """Serve workloads: test sentences the request stream draws from."""
    warmup_requests: int
    replay_requests: int
    """Serve workloads: requests in the fixed list each replay sends."""
    reload_after: int
    """Reload phase: completions before the ``reload_weights`` call."""
    reload_tail: int
    """Reload phase: requests sent after the reload returns."""
    setup_repeats: int


FULL = Scale(
    train_paragraphs=320,
    model_sentences=512,
    test_sentences=480,
    request_sentences=1200,
    warmup_requests=24,
    replay_requests=128,
    reload_after=16,
    reload_tail=48,
    setup_repeats=3,
)

SMOKE = Scale(
    train_paragraphs=64,
    model_sentences=64,
    test_sentences=64,
    request_sentences=120,
    warmup_requests=8,
    replay_requests=16,
    reload_after=4,
    reload_tail=8,
    setup_repeats=1,
)


def model_config(seed: int) -> ModelConfig:
    return ModelConfig(
        embedding_dim=32, hidden_size=48, num_layers=2, dropout=0.3, seed=seed
    )


def new_model(seed: int, encoder_vocab, decoder_vocab):
    return build_model("acnn", model_config(seed), len(encoder_vocab), len(decoder_vocab))


def corpus(seed: int, train: int, test: int):
    return generate_corpus(
        SyntheticConfig(num_train=train, num_dev=1, num_test=test, seed=seed)
    )


def train_one_epoch(model, dataset, seed: int) -> None:
    Trainer(
        model,
        BatchIterator(dataset, batch_size=BATCH_SIZE, seed=seed),
        None,
        TrainerConfig(epochs=1, learning_rate=LEARNING_RATE),
        telemetry=NULL,
    ).train()


@dataclass
class SentenceModel:
    model: object
    encoder_vocab: object
    decoder_vocab: object
    train: tuple
    test: tuple


MODEL_SEED = 13
"""The decode and serve workloads put one system under test: a model trained
in set-up on a corpus drawn with the ``acnn train`` default seed, and a pool
of test sentences from the same corpus. ``--seed`` picks which test
sentences, in which order, with which request mix. With the model drawn
from ``--seed`` too, how early each model learned to emit EOS moved decode
and serving throughput by 20% between seeds."""


def trained_sentence_model(seed: int, scale: Scale, test: int) -> SentenceModel:
    """A model trained for one epoch on sentence-mode sources, and ``test``
    test sentences of its corpus, chosen and ordered by ``seed``."""
    data = corpus(MODEL_SEED, scale.model_sentences, TEST_POOL)
    encoder_vocab, decoder_vocab = QGDataset.build_vocabs(
        data.train, ENCODER_VOCAB, DECODER_VOCAB, source_mode=SourceMode.SENTENCE
    )
    model = new_model(MODEL_SEED, encoder_vocab, decoder_vocab)
    train_one_epoch(model, QGDataset(data.train, encoder_vocab, decoder_vocab), MODEL_SEED)
    order = np.random.default_rng([seed, 100]).permutation(len(data.test))[:test]
    tests = tuple(data.test[i] for i in order)
    return SentenceModel(model, encoder_vocab, decoder_vocab, data.train, tests)


def fine_tuned_copy(bundle: SentenceModel, seed: int, examples: int = 128):
    """A second weight generation: the model after a few more steps."""
    model = copy.deepcopy(bundle.model)
    dataset = QGDataset(bundle.train[:examples], bundle.encoder_vocab, bundle.decoder_vocab)
    train_one_epoch(model, dataset, seed + 1)
    return model


# ----------------------------------------------------------------------
# Serving request stream
# ----------------------------------------------------------------------
HOT_SET = 20
_MIX = tuple(
    (hot, beam, length)
    for hot in (True, False)
    for beam in (1, 3)
    for length in (12, 20)
)


class RequestStream:
    """The serving traffic: half from a hot set of 20 sentences, half unique.

    Requests come in shuffled blocks of the eight (hot/unique, beam 1/3,
    max_length 12/20) combinations, so every prefix of the stream holds the
    mix in equal shares and a run's tail latency does not hinge on how many
    wide requests the seed happened to draw.
    """

    def __init__(self, seed: int, sentences: list[str]) -> None:
        self._rng = np.random.default_rng([seed, 101])
        order = self._rng.permutation(len(sentences))
        self.hot = [sentences[i] for i in order[:HOT_SET]]
        self.unique = [sentences[i] for i in order[HOT_SET:]]
        self._block: list[tuple[bool, int, int]] = []
        self._unique_next = 0
        self.issued = 0
        self.unique_reused = 0

    def next(self) -> tuple[GenerationRequest, bool]:
        """The next request and whether it came from the hot set."""
        if not self._block:
            self._block = [_MIX[i] for i in self._rng.permutation(len(_MIX))]
        hot, beam, length = self._block.pop()
        if hot:
            text = self.hot[int(self._rng.integers(len(self.hot)))]
        else:
            if self._unique_next >= len(self.unique):
                self.unique_reused += 1
            text = self.unique[self._unique_next % len(self.unique)]
            self._unique_next += 1
        request = GenerationRequest(
            text, request_id=f"req-{self.issued}", beam_size=beam, max_length=length
        )
        self.issued += 1
        return request, hot


def distinct_sentences(examples) -> list[str]:
    seen: dict[str, None] = {}
    for example in examples:
        seen.setdefault(" ".join(example.sentence), None)
    return list(seen)
