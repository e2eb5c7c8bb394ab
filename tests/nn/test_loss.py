"""Tests for NLL / cross-entropy / sequence losses."""

import numpy as np
import pytest

from repro.nn import cross_entropy, nll_loss, sequence_nll
from repro.tensor import Tensor, check_gradients, log_softmax


def test_nll_loss_value():
    log_probs = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]))
    loss = nll_loss(Tensor(log_probs), np.array([0, 1]))
    expected = -(np.log(0.7) + np.log(0.8)) / 2
    assert np.isclose(loss.item(), expected)


def test_nll_loss_mask_excludes_entries():
    log_probs = np.log(np.array([[0.5, 0.5], [0.9, 0.1]]))
    loss = nll_loss(Tensor(log_probs), np.array([0, 1]), mask=np.array([1.0, 0.0]))
    assert np.isclose(loss.item(), -np.log(0.5))


def test_nll_loss_all_masked_raises():
    with pytest.raises(ValueError):
        nll_loss(Tensor(np.zeros((2, 2))), np.array([0, 1]), mask=np.zeros(2))


def test_cross_entropy_equals_manual_log_softmax():
    logits = Tensor(np.random.default_rng(0).standard_normal((3, 5)))
    targets = np.array([1, 0, 4])
    manual = nll_loss(log_softmax(logits, axis=-1), targets)
    assert np.isclose(cross_entropy(logits, targets).item(), manual.item())


def test_cross_entropy_gradcheck():
    logits = Tensor(np.random.default_rng(1).standard_normal((3, 4)), requires_grad=True)
    targets = np.array([0, 3, 2])
    check_gradients(lambda: cross_entropy(logits, targets), [logits])


def test_cross_entropy_uniform_equals_log_vocab():
    logits = Tensor(np.zeros((2, 10)))
    loss = cross_entropy(logits, np.array([3, 7]))
    assert np.isclose(loss.item(), np.log(10))


def test_sequence_nll_averages_over_valid_tokens():
    probs = Tensor(np.array([[0.5, 1.0], [0.25, 0.125]]))
    targets = np.zeros((2, 2), dtype=int)
    pad = np.array([[False, False], [False, True]])
    loss = sequence_nll(probs, targets, pad)
    expected = -(np.log(0.5) + np.log(1.0) + np.log(0.25)) / 3
    assert np.isclose(loss.item(), expected)


def test_sequence_nll_clamps_zero_probabilities():
    probs = Tensor(np.array([[0.0]]))
    loss = sequence_nll(probs, np.zeros((1, 1), dtype=int), np.array([[False]]))
    assert np.isfinite(loss.item())


def test_sequence_nll_length_mismatch_raises():
    with pytest.raises(ValueError):
        sequence_nll(Tensor(np.ones((1, 1))), np.zeros((1, 2), dtype=int), np.zeros((1, 2), dtype=bool))


def test_sequence_nll_all_padding_raises():
    with pytest.raises(ValueError):
        sequence_nll(Tensor(np.ones((1, 1))), np.zeros((1, 1), dtype=int), np.array([[True]]))


def test_sequence_nll_gradcheck():
    raw = Tensor(np.array([[0.3, 0.6], [0.9, 0.2]]), requires_grad=True)
    targets = np.zeros((2, 2), dtype=int)
    pad = np.array([[False, False], [False, True]])

    def loss():
        return sequence_nll(raw, targets, pad)

    check_gradients(loss, [raw])
