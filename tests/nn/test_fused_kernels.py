"""Fused LSTM cell kernel: byte identity between the fused node built
with gradients on and under ``no_grad``, agreement with the elementary-op
reference, and one tape node per step. (The test names keep the word "arena" from a removed no-grad
buffer-replay tier.)"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.lstm import LSTMCell
from repro.tensor import Tensor, no_grad

dims = st.integers(2, 5)
seeds = st.integers(0, 10_000)


# ---------------------------------------------------------------------------
# LSTM step: fused node with gradients on vs under no_grad, and the elementary reference
# ---------------------------------------------------------------------------
@given(dims, dims, dims, seeds)
@settings(max_examples=40, deadline=None)
def test_lstm_arena_step_byte_identical(batch, input_size, hidden, seed):
    rng = np.random.default_rng(seed)
    cell = LSTMCell(input_size, hidden, rng)
    x = Tensor(rng.standard_normal((batch, input_size)))
    state = cell.initial_state(batch)
    x2 = Tensor(rng.standard_normal((batch, input_size)))

    h1, c1 = cell(x, state)
    h2, c2 = cell(x2, (h1, c1))
    with no_grad():
        a_h1, a_c1 = cell(x, state)
        a_h2, a_c2 = cell(x2, (a_h1, a_c1))
    assert np.array_equal(a_h1.data, h1.data)
    assert np.array_equal(a_c1.data, c1.data)
    assert np.array_equal(a_h2.data, h2.data)
    assert np.array_equal(a_c2.data, c2.data)


def test_lstm_arena_matches_forward_reference():
    rng = np.random.default_rng(17)
    cell = LSTMCell(4, 5, rng)
    x = Tensor(rng.standard_normal((3, 4)))
    state = cell.initial_state(3)
    ref_h, ref_c = cell.forward_reference(x, state)
    with no_grad():
        h, c = cell(x, state)
    np.testing.assert_allclose(h.data, ref_h.data, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(c.data, ref_c.data, rtol=1e-12, atol=1e-14)


def test_stacked_cells_with_shared_shapes_do_not_alias():
    """Three same-shaped cells chained for many steps under no_grad: each
    cell's h/c state must stay private (a buffer shared between
    same-shaped cells would corrupt h/c after two steps)."""
    rng = np.random.default_rng(23)
    cells = [LSTMCell(6, 6, rng) for _ in range(3)]
    xs = [Tensor(rng.standard_normal((2, 6))) for _ in range(6)]

    def run_chain():
        states = [cell.initial_state(2) for cell in cells]
        for x in xs:
            inp = x
            for idx, cell in enumerate(cells):
                h, c = cell(inp, states[idx])
                states[idx] = (h, c)
                inp = h
        return [(h.data.copy(), c.data.copy()) for h, c in states]

    eager = run_chain()
    with no_grad():
        fused = run_chain()
    for (eh, ec), (fh, fc) in zip(eager, fused):
        assert np.array_equal(eh, fh)
        assert np.array_equal(ec, fc)


def test_fused_kernels_are_single_tape_nodes_under_grad():
    from repro.tensor.profiler import TapeProfile

    rng = np.random.default_rng(5)
    cell = LSTMCell(3, 4, rng)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    state = cell.initial_state(2)
    with TapeProfile() as reference_profile:
        cell.forward_reference(x, state)
    with TapeProfile() as fused_profile:
        cell(x, state)
    # one packed node + two slice views
    assert fused_profile.nodes == 3
    assert fused_profile.nodes < reference_profile.nodes


def test_anomaly_mode_disables_raw_arena_but_keeps_fusion():
    """detect_anomaly needs tape nodes for provenance: the fused cell is
    one tape node, which on_op sees."""
    from repro.tensor import NumericalAnomaly, detect_anomaly

    rng = np.random.default_rng(5)
    cell = LSTMCell(3, 4, rng)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    x.data[0, 0] = np.nan
    with pytest.raises(NumericalAnomaly):
        with detect_anomaly(emit_telemetry=False):
            cell(x, cell.initial_state(2))
