"""Adversarial property-based fuzzing of the stabilized kernels.

Hypothesis drives the degenerate corners a hand-written test sweep misses:
extreme-magnitude logits, rows of identical values, exact-zero probability
rows, and fully/partially masked attention patterns. The property under
test is the stability contract of :func:`check_finite_gradients`: no input
in the op's documented domain may produce a non-finite output or gradient.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.loss import sequence_nll
from repro.nn.numerics import safe_div, safe_exp, safe_log, saturating_sigmoid
from repro.tensor import Tensor, check_finite_gradients, log_softmax, masked_fill, softmax

SETTINGS = settings(max_examples=30, deadline=None)

finite_logits = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 3), st.integers(1, 6)),
    elements=st.floats(
        min_value=-1e15, max_value=1e15, allow_nan=False, allow_infinity=False
    ),
)

probabilities = arrays(
    dtype=np.float64,
    shape=st.integers(1, 8),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def _grad_tensor(data):
    return Tensor(np.asarray(data, dtype=float), requires_grad=True)


@SETTINGS
@given(finite_logits)
def test_softmax_finite_on_extreme_logits(data):
    x = _grad_tensor(data)
    value = check_finite_gradients(lambda: (softmax(x, axis=-1) * 3.0).sum(), [x])
    assert 0.0 <= value <= 3.0 * data.shape[0] + 1e-9


@SETTINGS
@given(finite_logits)
def test_log_softmax_grads_finite_on_extreme_logits(data):
    x = _grad_tensor(data)
    # log-probabilities themselves may legitimately be very negative, so
    # the scalar reduced here is softmax-weighted (finite by construction).
    check_finite_gradients(
        lambda: (softmax(x, axis=-1) * log_softmax(x, axis=-1)).sum() * -1.0, [x]
    )


@SETTINGS
@given(finite_logits, st.data())
def test_masked_attention_rows_stay_finite(data, draw):
    """Rows with arbitrary masks — including fully-masked — stay finite."""
    mask = draw.draw(
        arrays(dtype=np.bool_, shape=data.shape, elements=st.booleans()), label="mask"
    )
    x = _grad_tensor(data)
    def loss():
        filled = masked_fill(x, mask, -np.inf)
        return (softmax(filled, axis=-1) * 2.0).sum()
    check_finite_gradients(loss, [x])


@SETTINGS
@given(probabilities)
def test_safe_log_finite_on_zero_probabilities(probs):
    x = _grad_tensor(probs)
    check_finite_gradients(lambda: safe_log(x, ceiling=1.0).sum(), [x])


@SETTINGS
@given(probabilities)
def test_sequence_nll_finite_on_degenerate_probabilities(probs):
    """Eq. 7 loss: exact-zero gold-token probabilities must not produce inf."""
    step_probs = _grad_tensor(probs.reshape(-1, 1))
    targets = np.zeros((probs.size, 1), dtype=int)
    pad_mask = np.zeros((probs.size, 1), dtype=bool)
    loss = sequence_nll(step_probs, targets, pad_mask)
    assert np.isfinite(loss.item())
    loss.backward()
    assert np.isfinite(step_probs.grad).all()


@SETTINGS
@given(
    arrays(
        dtype=np.float64,
        shape=st.integers(1, 8),
        elements=st.floats(
            min_value=-1e30, max_value=1e30, allow_nan=False, allow_infinity=False
        ),
    )
)
def test_saturating_sigmoid_never_saturates_exactly(data):
    x = _grad_tensor(data)
    value = check_finite_gradients(lambda: safe_log(saturating_sigmoid(x)).sum(), [x])
    assert np.isfinite(value)
    gate = saturating_sigmoid(Tensor(data)).data
    assert (gate > 0.0).all() and (gate < 1.0).all()


@SETTINGS
@given(
    arrays(
        dtype=np.float64,
        shape=st.integers(1, 6),
        elements=st.floats(
            min_value=-700.0, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
    )
)
def test_safe_exp_finite_on_overflowing_inputs(data):
    x = _grad_tensor(data)
    check_finite_gradients(lambda: safe_log(safe_exp(x)).sum(), [x])


@SETTINGS
@given(probabilities, probabilities)
def test_safe_div_finite_on_zero_denominators(numerator, denominator):
    size = min(numerator.size, denominator.size)
    x = _grad_tensor(numerator[:size])
    y = _grad_tensor(denominator[:size])
    check_finite_gradients(lambda: safe_div(x, y).sum(), [x, y])
