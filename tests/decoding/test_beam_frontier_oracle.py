"""Differential oracle: the array-state beam frontier against the per-row walk.

``batched_beam_search`` keeps its beam as arrays and walks every row's
candidate window in one vectorized pass. The reference below is the
per-row loop it replaced: one :func:`select_step_candidates` walk, one
``Hypothesis.extended`` per candidate and one :func:`should_stop_row` call
per row and step. Both must return the same full ranked pools — token ids,
``log_prob`` compared with ``==``, ``finished`` flags and order — for the
three model families, coverage ACNN, and scripted models whose windows
force the per-row fallback (EOS crowding, ``+inf`` junk,
``OOV_LOG_FLOOR`` stamps, dead slots while the beam is narrower than
``beam_size``).
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.data.batching import Batch
from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID
from repro.decoding import batched_beam
from repro.decoding.batched_beam import (
    batched_beam_search,
    select_step_candidates,
    should_stop_row,
)
from repro.decoding.hypothesis import Hypothesis
from repro.models import ModelConfig, build_model
from repro.models.base import (
    OOV_LOG_FLOOR,
    EncoderContext,
    QuestionGenerator,
    expand_encoder_context,
)
from repro.tensor import Tensor, no_grad

_WORDS = ["zorvex", "karlin", "tower", "river", "1887", "ostavia", "velkin", "where"]
_QWORDS = ["where", "what", "who", "is", "was", "the", "?"]
_ENCODER = Vocabulary.build([_WORDS])
_DECODER = Vocabulary(_QWORDS)
_KINDS = ["seq2seq", "du-attention", "acnn", "acnn-coverage"]
_PENALTIES = [0.0, 0.5, 1.0]


def reference_beam_search(model, batch, beam_size, max_length, length_penalty):
    """The per-row batched beam loop: Hypothesis objects per live row."""
    model.eval()
    with no_grad():
        context = model.encode(batch)
        num_examples = context.batch_size
        expanded = expand_encoder_context(context, beam_size)
        state = model.initial_decoder_state(expanded)
        live = [[Hypothesis((), 0.0)] for _ in range(num_examples)]
        finished = [[] for _ in range(num_examples)]
        done = np.zeros(num_examples, dtype=bool)
        prev = np.full(num_examples * beam_size, BOS_ID, dtype=np.int64)
        live_lp = np.full((num_examples, beam_size), -np.inf)
        live_lp[:, 0] = 0.0
        for step in range(max_length):
            if done.all():
                break
            step_lp, new_state = model.step_log_probs(prev, state, expanded)
            step_lp[:, PAD_ID] = -np.inf
            step_lp[:, BOS_ID] = -np.inf
            v_ext = step_lp.shape[1]
            step_rows = step_lp.reshape(num_examples, beam_size, v_ext)
            totals = step_rows + live_lp[:, :, None]
            flat = totals.reshape(num_examples, beam_size * v_ext)
            scan = min(2 * beam_size, flat.shape[1])
            window = np.argpartition(-flat, scan - 1, axis=1)[:, :scan]
            window_vals = np.take_along_axis(flat, window, axis=1)
            rank = np.lexsort((window, -window_vals), axis=1)
            ranked = np.take_along_axis(window, rank, axis=1)

            select = np.arange(num_examples * beam_size, dtype=np.int64)
            next_prev = np.full(num_examples * beam_size, EOS_ID, dtype=np.int64)
            next_lp = np.full((num_examples, beam_size), -np.inf)
            for r in range(num_examples):
                if done[r]:
                    continue
                width = len(live[r])
                order = ranked[r]
                if width < beam_size:
                    order = order[order < width * v_ext]
                eos_picks, continuations = select_step_candidates(
                    totals[r, :width], step_rows[r, :width], beam_size, order=order
                )
                for source, token_lp in eos_picks:
                    grown = live[r][source].extended(EOS_ID, token_lp, finished=True)
                    finished[r].append(
                        Hypothesis(grown.token_ids[:-1], grown.log_prob, finished=True)
                    )
                if not continuations:
                    done[r] = True
                    continue
                base = r * beam_size
                new_live = []
                for j, (source, token, token_lp) in enumerate(continuations):
                    grown = live[r][source].extended(token, token_lp, finished=False)
                    new_live.append(grown)
                    select[base + j] = base + source
                    next_prev[base + j] = token
                    next_lp[r, j] = grown.log_prob
                live[r] = new_live
                best = max((h.score(length_penalty) for h in finished[r]), default=-np.inf)
                if should_stop_row(
                    best,
                    len(finished[r]),
                    [h.log_prob for h in new_live],
                    step + 1,
                    beam_size,
                    max_length,
                    length_penalty,
                ):
                    done[r] = True
            state = new_state.select(select)
            prev = next_prev
            live_lp = next_lp

        pools = []
        for r in range(num_examples):
            pool = finished[r] or [
                Hypothesis(h.token_ids, h.log_prob, finished=False) for h in live[r]
            ]
            pools.append(sorted(pool, key=lambda h: -h.score(length_penalty)))
        return pools


def _pool_bytes(pools):
    return [
        [(h.token_ids, h.log_prob, h.finished) for h in pool] for pool in pools
    ]


def assert_same_pools(model, batch, beam_size, max_length, length_penalty):
    """Run both searches; return how often the batched path fell back."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return select_step_candidates(*args, **kwargs)

    want = reference_beam_search(model, batch, beam_size, max_length, length_penalty)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batched_beam, "select_step_candidates", counted)
        got = batched_beam_search(
            model, batch, beam_size=beam_size, max_length=max_length,
            length_penalty=length_penalty,
        )
    assert _pool_bytes(got) == _pool_bytes(want)
    for pool in got:
        for hyp in pool:
            # Plain Python scalars, as the reference builds them: outputs are
            # digested through their repr.
            assert type(hyp.log_prob) is float
            assert all(type(token) is int for token in hyp.token_ids)
    return len(calls)


# ---------------------------------------------------------------------------
# Real models
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _model(kind: str) -> QuestionGenerator:
    config = ModelConfig(embedding_dim=6, hidden_size=8, num_layers=1, dropout=0.0, seed=5)
    if kind == "acnn-coverage":
        return build_model("acnn", config, len(_ENCODER), len(_DECODER), use_coverage=True)
    return build_model(kind, config, len(_ENCODER), len(_DECODER))


def _batch(seed: int, size: int) -> Batch:
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(size):
        sentence = tuple(rng.choice(_WORDS, size=rng.integers(2, 7)))
        question = tuple(rng.choice(_QWORDS, size=rng.integers(2, 5)))
        examples.append(QGExample(sentence=sentence, paragraph=sentence, question=question))
    return collate(list(QGDataset(examples, _ENCODER, _DECODER)), pad_id=0)


@given(
    kind=st.sampled_from(_KINDS),
    seed=st.integers(0, 10_000),
    batch_size=st.integers(1, 8),
    beam_size=st.integers(1, 5),
    max_length=st.integers(1, 12),
    length_penalty=st.sampled_from(_PENALTIES),
)
@settings(max_examples=60, deadline=None)
def test_real_models_match_per_row_walk(
    kind, seed, batch_size, beam_size, max_length, length_penalty
):
    assert_same_pools(
        _model(kind), _batch(seed, batch_size), beam_size, max_length, length_penalty
    )


def test_real_model_runs_the_vectorized_walk():
    """A copy model with a full window never needs the per-row fallback, so
    the oracle above exercises the vectorized walk, not only the fallback."""
    fallbacks = assert_same_pools(
        _model("acnn"), _batch(3, 8), beam_size=3, max_length=12, length_penalty=1.0
    )
    assert fallbacks == 0


# ---------------------------------------------------------------------------
# Scripted models: windows that force the per-row fallback
# ---------------------------------------------------------------------------
_A, _B, _C, _D = 4, 5, 6, 7
_VOCAB = 9


class _ScriptedModel(QuestionGenerator):
    """Decoder whose step distribution depends on the example and the
    previous token only.

    ``scripts[k]`` maps prev-token id -> {token id: log-prob} for examples
    ``r`` with ``r % len(scripts) == k``; everything not listed is -inf.
    """

    def __init__(self, scripts):
        super().__init__(decoder_vocab_size=_VOCAB)
        self.scripts = scripts

    def encode(self, batch: Batch) -> EncoderContext:
        size = batch.size
        return EncoderContext(
            encoder_states=Tensor(np.zeros((size, 1, 1))),
            src_pad_mask=np.zeros((size, 1), dtype=bool),
            # The example index rides the context through the beam expansion.
            src_ext=np.arange(size, dtype=np.int64)[:, None],
            max_oov=0,
            initial_states=[(Tensor(np.zeros((size, 1))), Tensor(np.zeros((size, 1))))],
        )

    def step_log_probs(self, prev_tokens, state, context, row_indices=None):
        rows = []
        for prev, example in zip(np.asarray(prev_tokens), context.src_ext[:, 0]):
            script = self.scripts[int(example) % len(self.scripts)]
            row = np.full(self.decoder_vocab_size, -np.inf)
            for token, lp in script.get(int(prev), {}).items():
                row[token] = lp
            rows.append(row)
        return np.stack(rows), state


def _scripted_batch(size: int) -> Batch:
    word = ("w",)
    example = QGExample(sentence=word, paragraph=word, question=word)
    dataset = QGDataset([example] * size, Vocabulary.build([word]), Vocabulary(["w", "x"]))
    return collate(list(dataset), pad_id=0)


_FORCED = {
    # +inf junk and two EOS finishes fill the 2*beam window at full width.
    "eos_and_inf_crowd": (
        2,
        {
            BOS_ID: {_A: -0.1, _B: -0.2},
            _A: {EOS_ID: -0.01, _C: np.inf, _D: -3.0},
            _B: {EOS_ID: -0.02, _C: -3.5, _D: -4.0},
            _C: {EOS_ID: -0.5, _A: -1.0},
            _D: {EOS_ID: -0.4, _B: -1.5},
        },
    ),
    # Floor-stamped (unreachable OOV) slots crowd the window, the beam
    # narrows to one live row, and dead slots then enter the window.
    "oov_floor_then_dead_slots": (
        2,
        {
            BOS_ID: {_A: -0.1, _B: -0.2},
            _A: {EOS_ID: -1.0, _C: OOV_LOG_FLOOR, _D: OOV_LOG_FLOOR},
            _B: {_C: OOV_LOG_FLOOR, _A: -2.0},
        },
    ),
    # One viable token from BOS: width 1 of beam 3 with dead slots in the
    # window at every step.
    "narrow_beam_dead_slots": (
        3,
        {
            BOS_ID: {_A: -0.1, EOS_ID: -3.0},
            _A: {_B: -0.2, EOS_ID: -1.0},
            _B: {_A: -0.3, _C: -0.4, EOS_ID: -0.9},
            _C: {EOS_ID: -0.1},
        },
    ),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_FORCED))
@pytest.mark.parametrize("length_penalty", _PENALTIES)
def test_forced_fallback_matches_per_row_walk(case, length_penalty):
    beam_size, script = _FORCED[case]
    model = _ScriptedModel([script])
    fallbacks = assert_same_pools(model, _scripted_batch(3), beam_size, 8, length_penalty)
    assert fallbacks > 0


_LOG_PROBS = st.sampled_from(
    [-np.inf, np.inf, OOV_LOG_FLOOR, -0.25, -0.5, -1.0, -2.0]
) | st.floats(-6.0, -0.01)
_SCRIPT = st.dictionaries(
    st.integers(0, _VOCAB - 1),
    st.dictionaries(st.integers(0, _VOCAB - 1), _LOG_PROBS, max_size=_VOCAB),
    max_size=_VOCAB,
)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@given(
    scripts=st.lists(_SCRIPT, min_size=1, max_size=3),
    batch_size=st.integers(1, 8),
    beam_size=st.integers(1, 5),
    max_length=st.integers(1, 12),
    length_penalty=st.sampled_from(_PENALTIES),
)
@settings(max_examples=150, deadline=None)
def test_scripted_models_match_per_row_walk(
    scripts, batch_size, beam_size, max_length, length_penalty
):
    assert_same_pools(
        _ScriptedModel(scripts), _scripted_batch(batch_size), beam_size, max_length,
        length_penalty,
    )
