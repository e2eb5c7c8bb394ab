"""Tests for LSTMCell, stacked LSTM, and the bidirectional encoder."""

from collections import Counter

import numpy as np

import repro.nn.lstm as lstm_module
from repro.nn import LSTM, BidirectionalLSTM, LSTMCell
from repro.tensor import Tensor, check_gradients


def _rng(seed=0):
    return np.random.default_rng(seed)


def _inputs(batch, time, dim, seed=1):
    return Tensor(np.random.default_rng(seed).standard_normal((batch, time, dim)))


def test_cell_output_shapes():
    cell = LSTMCell(4, 3, _rng())
    h, c = cell.initial_state(2)
    x = Tensor(np.ones((2, 4)))
    h_new, c_new = cell(x, (h, c))
    assert h_new.shape == (2, 3)
    assert c_new.shape == (2, 3)


def test_cell_forget_bias_initialized_to_one():
    cell = LSTMCell(4, 3, _rng())
    assert np.allclose(cell.bias.data[3:6], 1.0)


def test_cell_reference_implementation():
    """Check the gate math against a direct numpy transcription."""
    cell = LSTMCell(2, 2, _rng(3))
    x = np.array([[0.5, -1.0]])
    h0 = np.array([[0.1, 0.2]])
    c0 = np.array([[-0.3, 0.4]])
    h_new, c_new = cell(Tensor(x), (Tensor(h0), Tensor(c0)))

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    gates = x @ cell.weight_ih.data.T + h0 @ cell.weight_hh.data.T + cell.bias.data
    i, f, g, o = gates[:, :2], gates[:, 2:4], gates[:, 4:6], gates[:, 6:]
    c_ref = sigmoid(f) * c0 + sigmoid(i) * np.tanh(g)
    h_ref = sigmoid(o) * np.tanh(c_ref)
    assert np.allclose(c_new.data, c_ref)
    assert np.allclose(h_new.data, h_ref)


def test_cell_gradcheck():
    cell = LSTMCell(3, 2, _rng(1))
    x = Tensor(np.random.default_rng(2).standard_normal((2, 3)), requires_grad=True)

    def loss():
        h, c = cell(x, cell.initial_state(2))
        return (h * h + c).sum()

    check_gradients(loss, [x, cell.weight_ih, cell.weight_hh, cell.bias], rtol=1e-3)


def test_lstm_output_shape_and_state_count():
    lstm = LSTM(4, 3, num_layers=2, rng=_rng())
    out, states = lstm(_inputs(2, 5, 4))
    assert out.shape == (2, 5, 3)
    assert len(states) == 2
    assert states[0][0].shape == (2, 3)


def test_lstm_rejects_zero_layers():
    import pytest

    with pytest.raises(ValueError):
        LSTM(4, 3, num_layers=0, rng=_rng())


def test_lstm_final_state_equals_last_output():
    lstm = LSTM(4, 3, num_layers=1, rng=_rng())
    out, states = lstm(_inputs(2, 5, 4))
    assert np.allclose(out.data[:, -1, :], states[0][0].data)


def test_lstm_padding_carries_state():
    """A padded batch must reproduce the unpadded sequence's final state."""
    lstm = LSTM(4, 3, num_layers=1, rng=_rng(5))
    data = np.random.default_rng(6).standard_normal((1, 3, 4))
    out_short, states_short = lstm(Tensor(data))

    padded = np.concatenate([data, np.zeros((1, 2, 4))], axis=1)
    pad_mask = np.array([[False, False, False, True, True]])
    out_long, states_long = lstm(Tensor(padded), pad_mask=pad_mask)

    assert np.array_equal(states_short[0][0].data, states_long[0][0].data)
    assert np.array_equal(states_short[0][1].data, states_long[0][1].data)
    # Padded positions emit zeros.
    assert np.array_equal(out_long.data[:, 3:, :], np.zeros((1, 2, 3)))
    assert np.array_equal(out_long.data[:, :3, :], out_short.data)


def test_lstm_reverse_matches_manual_reversal():
    """reverse=True on x equals forward on time-reversed x, outputs re-reversed."""
    lstm = LSTM(2, 3, num_layers=1, rng=_rng(7))
    data = np.random.default_rng(8).standard_normal((1, 4, 2))
    out_rev, states_rev = lstm(Tensor(data), reverse=True)
    out_fwd, states_fwd = lstm(Tensor(data[:, ::-1, :].copy()))
    assert np.allclose(out_rev.data, out_fwd.data[:, ::-1, :])
    assert np.allclose(states_rev[0][0].data, states_fwd[0][0].data)


def test_lstm_step_matches_forward():
    lstm = LSTM(4, 3, num_layers=2, rng=_rng(9))
    data = np.random.default_rng(10).standard_normal((2, 3, 4))
    out, _ = lstm(Tensor(data))

    states = lstm.initial_states(2)
    for t in range(3):
        top, states = lstm.step(Tensor(data[:, t, :]), states)
        assert np.allclose(top.data, out.data[:, t, :])


def test_lstm_gradcheck_through_time():
    lstm = LSTM(2, 2, num_layers=1, rng=_rng(11))
    x = Tensor(np.random.default_rng(12).standard_normal((1, 3, 2)), requires_grad=True)

    def loss():
        out, _ = lstm(x)
        return (out * out).sum()

    check_gradients(loss, [x] + lstm.parameters(), rtol=1e-3, atol=1e-5)


def test_bilstm_output_width_is_doubled():
    encoder = BidirectionalLSTM(4, 3, num_layers=1, rng=_rng())
    out, fwd, bwd = encoder(_inputs(2, 5, 4))
    assert out.shape == (2, 5, 6)
    assert encoder.output_size == 6


def test_bilstm_directions_are_independent_parameters():
    encoder = BidirectionalLSTM(4, 3, num_layers=1, rng=_rng())
    names = {name for name, _ in encoder.named_parameters()}
    assert any(name.startswith("forward_lstm") for name in names)
    assert any(name.startswith("backward_lstm") for name in names)


def test_bilstm_concatenates_direction_outputs():
    encoder = BidirectionalLSTM(2, 3, num_layers=1, rng=_rng(13))
    data = _inputs(1, 4, 2, seed=14)
    out, fwd_states, bwd_states = encoder(data)
    fwd_out, _ = encoder.forward_lstm(data)
    bwd_out, _ = encoder.backward_lstm(data, reverse=True)
    assert np.allclose(out.data[:, :, :3], fwd_out.data)
    assert np.allclose(out.data[:, :, 3:], bwd_out.data)


def test_bilstm_backward_final_state_summarizes_from_start():
    """The backward direction's final state is its t=0 output."""
    encoder = BidirectionalLSTM(2, 3, num_layers=1, rng=_rng(15))
    data = _inputs(1, 4, 2, seed=16)
    out, _, bwd_states = encoder(data)
    assert np.allclose(out.data[:, 0, 3:], bwd_states[0][0].data)


def test_bilstm_gradcheck():
    encoder = BidirectionalLSTM(2, 2, num_layers=1, rng=_rng(17))
    x = Tensor(np.random.default_rng(18).standard_normal((1, 3, 2)), requires_grad=True)

    def loss():
        out, _, _ = encoder(x)
        return (out * out).sum()

    check_gradients(loss, [x] + encoder.parameters(), rtol=1e-3, atol=1e-5)


def test_interlayer_dropout_only_active_in_training():
    lstm = LSTM(4, 3, num_layers=2, rng=_rng(19), dropout=0.5, dropout_seed=1)
    data = _inputs(2, 4, 4, seed=20)
    lstm.eval()
    out_a, _ = lstm(data)
    out_b, _ = lstm(data)
    assert np.allclose(out_a.data, out_b.data)


def test_bilstm_padding_equivalence():
    """Padded bidirectional encoding must match the unpadded run."""
    encoder = BidirectionalLSTM(3, 4, num_layers=1, rng=_rng(21))
    data = np.random.default_rng(22).standard_normal((1, 4, 3))
    out_short, fwd_short, bwd_short = encoder(Tensor(data))

    padded = np.concatenate([data, np.zeros((1, 3, 3))], axis=1)
    mask = np.array([[False] * 4 + [True] * 3])
    out_long, fwd_long, bwd_long = encoder(Tensor(padded), pad_mask=mask)

    assert np.array_equal(out_long.data[:, :4, :], out_short.data)
    assert np.array_equal(out_long.data[:, 4:, :], np.zeros((1, 3, 8)))
    assert np.array_equal(fwd_short[0][0].data, fwd_long[0][0].data)
    assert np.array_equal(bwd_short[0][0].data, bwd_long[0][0].data)


def test_lstm_initial_states_are_independent_tensors():
    lstm = LSTM(2, 3, num_layers=2, rng=_rng(23))
    states = lstm.initial_states(2)
    states[0][0].data[...] = 5.0
    assert np.allclose(states[1][0].data, 0.0)


def test_lstm_two_layer_stack_feeds_layer_outputs():
    """Layer 1's input is layer 0's output sequence."""
    lstm = LSTM(2, 3, num_layers=2, rng=_rng(24), dropout=0.0)
    data = np.random.default_rng(25).standard_normal((1, 3, 2))
    out, states = lstm(Tensor(data))
    # Top-layer output must equal running layer 1 over layer 0's outputs.
    layer0 = LSTM(2, 3, num_layers=1, rng=_rng(99))
    layer0.cells[0].weight_ih.data[...] = lstm.cells[0].weight_ih.data
    layer0.cells[0].weight_hh.data[...] = lstm.cells[0].weight_hh.data
    layer0.cells[0].bias.data[...] = lstm.cells[0].bias.data
    mid, _ = layer0(Tensor(data))
    layer1 = LSTM(3, 3, num_layers=1, rng=_rng(98))
    layer1.cells[0].weight_ih.data[...] = lstm.cells[1].weight_ih.data
    layer1.cells[0].weight_hh.data[...] = lstm.cells[1].weight_hh.data
    layer1.cells[0].bias.data[...] = lstm.cells[1].bias.data
    top, _ = layer1(Tensor(mid.data))
    assert np.allclose(top.data, out.data)


def _counting_cell_steps(monkeypatch):
    """Count recurrence steps per cell (keyed by the cell's ``W_hh``)."""
    calls = Counter()
    real_step = lstm_module.lstm_cell_step_preprojected

    def counting(x_projected, h_prev, c_prev, weight_hh):
        calls[id(weight_hh)] += 1
        return real_step(x_projected, h_prev, c_prev, weight_hh)

    monkeypatch.setattr(lstm_module, "lstm_cell_step_preprojected", counting)
    return calls


def test_all_padding_columns_skip_the_recurrence(monkeypatch):
    """A 9-token source padded to 200 costs 9 steps and encodes byte-equal."""
    encoder = BidirectionalLSTM(5, 4, num_layers=2, rng=_rng(26))
    data = np.random.default_rng(27).standard_normal((1, 9, 5))
    short_mask = np.zeros((1, 9), dtype=bool)
    out_short, fwd_short, bwd_short = encoder(Tensor(data), pad_mask=short_mask)

    calls = _counting_cell_steps(monkeypatch)
    padded = np.concatenate([data, np.zeros((1, 191, 5))], axis=1)
    long_mask = np.array([[False] * 9 + [True] * 191])
    out_long, fwd_long, bwd_long = encoder(Tensor(padded), pad_mask=long_mask)

    cells = encoder.forward_lstm.cells + encoder.backward_lstm.cells
    assert {id(cell.weight_hh): 9 for cell in cells} == dict(calls)
    assert np.array_equal(out_long.data[:, :9, :], out_short.data)
    assert np.array_equal(out_long.data[:, 9:, :], np.zeros((1, 191, 8)))
    for short, long in ((fwd_short, fwd_long), (bwd_short, bwd_long)):
        for (h_short, c_short), (h_long, c_long) in zip(short, long):
            assert np.array_equal(h_short.data, h_long.data)
            assert np.array_equal(c_short.data, c_long.data)


def test_partial_padding_columns_still_run_the_recurrence(monkeypatch):
    """A column where only some rows pad is computed for the whole batch."""
    lstm = LSTM(3, 2, num_layers=1, rng=_rng(28))
    mask = np.array([[False, False, True, True], [False, True, True, True]])
    calls = _counting_cell_steps(monkeypatch)
    lstm(_inputs(2, 4, 3, seed=29), pad_mask=mask)
    assert sum(calls.values()) == 2


def test_bilstm_gradcheck_with_trailing_all_padding_column():
    encoder = BidirectionalLSTM(2, 2, num_layers=2, rng=_rng(30))
    x = Tensor(np.random.default_rng(31).standard_normal((2, 4, 2)), requires_grad=True)
    mask = np.array([[False, False, False, True], [False, False, True, True]])

    def loss():
        out, fwd, bwd = encoder(x, pad_mask=mask)
        total = (out * out).sum()
        for h, c in fwd + bwd:
            total = total + (h * c).sum()
        return total

    check_gradients(loss, [x] + encoder.parameters(), rtol=1e-3, atol=1e-5)
