"""Oracle for the sequence-form training losses.

``DuAttentionModel.loss`` and ``ACNN.loss`` run attention, readout, the
Eq. 3 copy scores, the Eq. 4 gate and the Eq. 2 mixture once over all
target steps. The reference here is a test-local copy of the per-step loop
they replaced, driven through the step forms decoding uses
(``_decode_step``, ``copy_distribution``, ``switch``). Both sides start
from identical copies of one model, so dropout masks, scheduled-sampling
draws and every weight agree; losses must match to 1e-12 relative and
gradients to ``rtol=1e-9, atol=1e-12``. ``copy_b2`` (Eq. 3's scalar
``b_2``) is checked by ``atol`` only: softmax cancels a shift of every
score, so its true gradient is 0 and both sides read rounding noise.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.data.vocabulary import UNK_ID
from repro.models import ModelConfig, build_model
from repro.nn.loss import PROBABILITY_FLOOR
from repro.nn.numerics import np_bernoulli_entropy, safe_log
from repro.observability import gate_statistics
from repro.tensor.core import Tensor
from repro.tensor.ops import gather_rows, log_softmax, minimum, softmax

_SOURCE_WORDS = ["zorvex", "karlin", "tower", "river", "1887", "ostavia", "velkin", "born", "the"]
_QUESTION_WORDS = ["where", "what", "who", "is", "was", "the", "?", "born"]

VARIANTS = {
    "du-attention": ("du-attention", {}),
    "acnn": ("acnn", {}),
    "acnn-fixed": ("acnn", {"switch_mode": "fixed", "fixed_switch": 0.3}),
    "acnn-coverage": ("acnn", {"use_coverage": True, "coverage_loss_weight": 0.5}),
    "acnn-answer": ("acnn", {"use_answer_features": True, "answer_feature_dim": 3}),
    "acnn-sampling": ("acnn", {"scheduled_sampling_rate": 0.5, "scheduled_sampling_seed": 9}),
}


def _batch(seed: int, batch_size: int, steps: int, padded: bool, answers: bool):
    """A collated batch with ``steps`` target positions.

    Questions mix source words (copyable, some outside the decoder
    vocabulary) with question words. ``padded`` varies source and
    question lengths across rows; otherwise every row has the same.
    Questions cannot be empty, so the batch is collated one position
    longer and its target columns cut to ``steps``.
    """
    rng = np.random.default_rng(seed)
    src_len = int(rng.integers(2, 8))
    examples = []
    for row in range(batch_size):
        length = int(rng.integers(2, 8)) if padded else src_len
        sentence = tuple(rng.choice(_SOURCE_WORDS, size=length))
        q_len = steps if (row == 0 or not padded) else int(rng.integers(1, steps + 1))
        question = tuple(rng.choice(list(sentence) + _QUESTION_WORDS, size=q_len))
        answer = (sentence[0],) if answers else ()
        examples.append(
            QGExample(sentence=sentence, paragraph=sentence, question=question, answer=answer)
        )
    encoder = Vocabulary.build([ex.sentence for ex in examples])
    decoder = Vocabulary(["where", "what", "who", "is", "was", "the", "?"])
    dataset = QGDataset(examples, encoder, decoder)
    batch = collate(list(dataset), pad_id=0)
    batch = dataclasses.replace(
        batch,
        tgt_input=batch.tgt_input[:, :steps],
        tgt_output=batch.tgt_output[:, :steps],
        tgt_pad_mask=batch.tgt_pad_mask[:, :steps],
        att_allowed=batch.att_allowed[:, :steps],
        copy_match=batch.copy_match[:, :steps],
    )
    return encoder, decoder, batch


# ---------------------------------------------------------------------------
# The per-step loops the sequence form replaced (reference only)
# ---------------------------------------------------------------------------
def _per_step_nll(step_probs, pad_mask):
    valid = ~pad_mask
    total = None
    for k, prob in enumerate(step_probs):
        log_p = safe_log(prob, floor=PROBABILITY_FLOOR, ceiling=1.0)
        term = (log_p * Tensor(valid[:, k].astype(float))).sum()
        total = term if total is None else total + term
    return -total * (1.0 / float(valid.sum()))


def _reference_du_loss(model, batch):
    context = model.encode(batch)
    states = list(context.initial_states)
    embedded = model.decoder_embedding(batch.tgt_input)
    valid = ~batch.tgt_pad_mask
    total = None
    for t in range(batch.tgt_input.shape[1]):
        _, _, _, logits, states = model._decode_step(
            embedded[:, t, :], states, context.encoder_states, context.src_pad_mask
        )
        picked = gather_rows(log_softmax(logits, axis=-1), batch.tgt_output[:, t])
        weighted = (picked * Tensor(valid[:, t].astype(float))).sum()
        total = weighted if total is None else total + weighted
    return -total * (1.0 / float(valid.sum()))


def _reference_acnn_loss(model, batch):
    context = model.encode(batch)
    states = list(context.initial_states)
    embedded = model.decoder_embedding(batch.tgt_input)
    valid = ~batch.tgt_pad_mask
    coverage = Tensor(np.zeros((batch.size, batch.src.shape[1]))) if model.use_coverage else None
    coverage_penalty = None
    sampling = model.training and model.scheduled_sampling_rate > 0.0
    prev_predictions = None
    z_sum = entropy_sum = copy_sum = 0.0
    tokens = 0
    step_probs = []
    for t in range(batch.tgt_input.shape[1]):
        if sampling and t > 0:
            use_model = model._sampling_rng.random(batch.size) < model.scheduled_sampling_rate
            x_t = model.decoder_embedding(np.where(use_model, prev_predictions, batch.tgt_input[:, t]))
        else:
            x_t = embedded[:, t, :]
        d_k, c_k, attn, logits, states = model._decode_step(
            x_t, states, context.encoder_states, context.src_pad_mask, coverage=coverage
        )
        p_att = softmax(logits, axis=-1)
        p_att_target = gather_rows(p_att, batch.tgt_output[:, t]) * Tensor(batch.att_allowed[:, t])
        p_cop = model.copy_distribution(d_k, c_k, context.encoder_states, context.src_pad_mask)
        p_cop_target = (p_cop * Tensor(batch.copy_match[:, t, :])).sum(axis=1)
        z = model.switch(d_k, c_k, x_t)
        step_probs.append(z * p_cop_target + (1.0 - z) * p_att_target)
        z_values = z.data[valid[:, t]]
        z_sum += float(z_values.sum())
        entropy_sum += float(np_bernoulli_entropy(z_values).sum())
        copy_sum += float((z_values > 0.5).sum())
        tokens += int(valid[:, t].sum())
        if sampling:
            prev_predictions = model.sampled_feedback(
                p_att.data, p_cop.data, z.data, context.src_ext, context.max_oov
            )
        if coverage is not None:
            overlap = minimum(attn, coverage).sum(axis=1)
            step_penalty = (overlap * Tensor(valid[:, t].astype(float))).sum()
            coverage_penalty = step_penalty if coverage_penalty is None else coverage_penalty + step_penalty
            coverage = coverage + attn
    nll = _per_step_nll(step_probs, batch.tgt_pad_mask)
    if coverage_penalty is not None and model.coverage_loss_weight > 0:
        nll = nll + coverage_penalty * (model.coverage_loss_weight / float(valid.sum()))
    return nll, gate_statistics(z_sum, entropy_sum, copy_sum, tokens)


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("family", ["acnn", "du-attention"])
@given(
    data=st.data(),
    batch_size=st.integers(1, 6),
    steps=st.integers(1, 8),
    padded=st.booleans(),
    training=st.booleans(),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_sequence_loss_matches_per_step_loop(family, data, batch_size, steps, padded, training, seed):
    variants = sorted(name for name, (fam, _) in VARIANTS.items() if fam == family)
    _, kwargs = VARIANTS[data.draw(st.sampled_from(variants), label="variant")]
    encoder, decoder, batch = _batch(
        seed, batch_size, steps, padded, answers=kwargs.get("use_answer_features", False)
    )
    config = ModelConfig(
        embedding_dim=6, hidden_size=5, num_layers=2, dropout=0.3, seed=seed % 97
    )
    model = build_model(family, config, len(encoder), len(decoder), **kwargs)
    model.train(training)
    reference = copy.deepcopy(model)
    is_acnn = family == "acnn"
    if is_acnn:
        model.collect_gate_stats = True

    loss = model.loss(batch)
    if is_acnn:
        ref_loss, ref_stats = _reference_acnn_loss(reference, batch)
    else:
        ref_loss = _reference_du_loss(reference, batch)
    loss.backward()
    ref_loss.backward()

    assert abs(loss.item() - ref_loss.item()) <= 1e-12 * abs(ref_loss.item())
    for (name, param), (_, ref_param) in zip(
        model.named_parameters(), reference.named_parameters()
    ):
        if ref_param.grad is None:
            assert param.grad is None or not param.grad.any(), name
            continue
        rtol = 0.0 if name.endswith("copy_b2") else 1e-9
        np.testing.assert_allclose(param.grad, ref_param.grad, rtol=rtol, atol=1e-12, err_msg=name)
    if is_acnn:
        stats = model.last_gate_stats
        assert stats["tokens"] == ref_stats["tokens"]
        for key in ("z_mean", "z_entropy", "copy_rate"):
            np.testing.assert_allclose(stats[key], ref_stats[key], rtol=1e-12, atol=1e-15)


def test_reference_runs_the_copy_path():
    """The oracle batches exercise copying: some gold tokens are decoder-OOV
    but copyable, so only the copy path may explain them."""
    _, decoder, batch = _batch(3, 6, 8, padded=True, answers=False)
    assert (batch.tgt_output == UNK_ID).any() or (batch.att_allowed == 0).any()
    assert batch.copy_match.any()
