"""Training and decoding run the same math.

Teacher-forced training computes attention and the Eq. 3 copy
distribution for every target step at once (``GlobalAttention.sequence``,
``ACNN.copy_sequence``); decoding calls the one-step forms
(``GlobalAttention.forward``, ``ACNN.copy_distribution``). Step ``k`` of
the sequence form must equal the step form on step ``k``'s inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import ModelConfig, build_model
from repro.nn import GlobalAttention
from repro.tensor.core import Tensor
from repro.tensor.gradcheck import check_gradients
from repro.tensor.ops import concat

TOLERANCE = {"rtol": 1e-12, "atol": 1e-15}


def _pad_mask(rng, batch, src_len, padded):
    if not padded:
        return np.zeros((batch, src_len), dtype=bool)
    lengths = rng.integers(1, src_len + 1, size=batch)
    return np.arange(src_len)[None, :] >= lengths[:, None]


@given(
    batch=st.integers(1, 5),
    steps=st.sampled_from([1, 2, 5]),
    src_len=st.integers(1, 7),
    padded=st.booleans(),
    coverage=st.booleans(),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_attention_step_equals_sequence_slice(batch, steps, src_len, padded, coverage, seed):
    rng = np.random.default_rng(seed)
    layer = GlobalAttention(4, 6, rng, use_coverage=coverage)
    if coverage:
        layer.coverage_weight.data[:] = 0.7
    d = Tensor(rng.standard_normal((batch, steps, 4)))
    states = Tensor(rng.standard_normal((batch, src_len, 6)))
    mask = _pad_mask(rng, batch, src_len, padded)
    history = Tensor(rng.random((batch, steps, src_len))) if coverage else None

    context, weights = layer.sequence(d, states, pad_mask=mask, coverage=history)
    assert context.shape == (batch, steps, 6)
    assert weights.shape == (batch, steps, src_len)
    for k in range(steps):
        step_coverage = Tensor(history.data[:, k]) if coverage else None
        c_k, a_k = layer(Tensor(d.data[:, k]), states, pad_mask=mask, coverage=step_coverage)
        np.testing.assert_allclose(context.data[:, k], c_k.data, **TOLERANCE)
        np.testing.assert_allclose(weights.data[:, k], a_k.data, **TOLERANCE)
    if padded:
        assert not weights.data[np.broadcast_to(mask[:, None, :], weights.shape)].any()


@pytest.mark.parametrize("steps", [1, 4])
@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("switch_mode", ["adaptive", "fixed"])
def test_copy_and_switch_step_equals_sequence_slice(steps, padded, switch_mode):
    rng = np.random.default_rng(steps * 10 + padded)
    config = ModelConfig(embedding_dim=5, hidden_size=4, num_layers=1, dropout=0.0, seed=2)
    model = build_model("acnn", config, 20, 15, switch_mode=switch_mode)
    model.copy_score_bias.data[:] = 0.4
    batch, src_len = 3, 6
    d = Tensor(rng.standard_normal((batch, steps, 4)))
    c = Tensor(rng.standard_normal((batch, steps, 8)))
    y = Tensor(rng.standard_normal((batch, steps, 5)))
    states = Tensor(rng.standard_normal((batch, src_len, 8)))
    mask = _pad_mask(rng, batch, src_len, padded)

    features = concat([d, c], axis=2).reshape(batch * steps, -1)
    p_cop = model.copy_sequence(features, states, mask)
    z = model.switch(d, c, y)
    assert p_cop.shape == (batch, steps, src_len)
    assert z.shape == (batch, steps)
    for k in range(steps):
        d_k, c_k, y_k = (Tensor(t.data[:, k]) for t in (d, c, y))
        step = model.copy_distribution(d_k, c_k, states, mask)
        np.testing.assert_allclose(p_cop.data[:, k], step.data, **TOLERANCE)
        np.testing.assert_allclose(z.data[:, k], model.switch(d_k, c_k, y_k).data, **TOLERANCE)
    np.testing.assert_allclose(p_cop.data.sum(axis=2), 1.0, rtol=1e-12)


@pytest.mark.parametrize("with_mask", [False, True])
def test_attention_sequence_gradcheck(with_mask):
    rng = np.random.default_rng(0)
    layer = GlobalAttention(3, 3, rng, use_coverage=True)
    layer.coverage_weight.data[:] = 0.5
    d = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
    states = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    history = Tensor(rng.random((2, 3, 4)), requires_grad=True)
    mask = _pad_mask(rng, 2, 4, with_mask)

    def loss():
        context, weights = layer.sequence(d, states, pad_mask=mask, coverage=history)
        return (context * context).sum() + (weights * weights).sum()

    check_gradients(loss, [d, states, history, layer.weight, layer.coverage_weight])


def test_copy_sequence_gradcheck():
    rng = np.random.default_rng(1)
    config = ModelConfig(embedding_dim=3, hidden_size=2, num_layers=1, dropout=0.0, seed=2)
    model = build_model("acnn", config, 10, 8)
    features = Tensor(rng.standard_normal((2 * 3, 6)), requires_grad=True)
    states = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)
    mask = _pad_mask(rng, 2, 4, True)
    weights = Tensor(rng.standard_normal((2, 3, 4)))

    def loss():
        return (model.copy_sequence(features, states, mask) * weights).sum()

    check_gradients(
        loss,
        [features, states, model.copy_projection.weight, model.copy_projection.bias],
    )
