"""LSTM layers: cell, stacked unidirectional LSTM, and bidirectional encoder.

Implements the recurrences of Section 3.1 of the paper: the encoder is a
bidirectional LSTM whose per-step hidden states are concatenated,
``h_t = [h_t_fwd ; h_t_bwd]``; the decoder is a (stacked) unidirectional LSTM
driven one step at a time.

Padding is handled with a boolean pad mask: at padded positions the recurrent
state is carried through unchanged, so variable-length batches give the same
final states as running each sequence alone. A timestep where every row pads
skips the recurrence altogether, so a source padded to a fixed serving width
runs the recurrence over its real tokens only, not the width.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn import init
from repro.nn.dropout import Dropout
from repro.nn.functional import lstm_cell_step, lstm_cell_step_preprojected
from repro.nn.module import Module, Parameter
from repro.tensor.core import Tensor
from repro.tensor.ops import concat, masked_fill, sigmoid, stack, tanh, where

__all__ = ["LSTMCell", "LSTM", "BidirectionalLSTM"]

State = tuple[Tensor, Tensor]


class LSTMCell(Module):
    """Single LSTM step.

    Gate layout inside the fused weight matrices is ``[input, forget, cell,
    output]``. The forget-gate bias is initialized to 1.0, the standard
    trick for stable early training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.uniform((4 * hidden_size, input_size), rng))
        self.weight_hh = Parameter(init.uniform((4 * hidden_size, hidden_size), rng))
        bias = init.zeros((4 * hidden_size,))
        bias[hidden_size: 2 * hidden_size] = 1.0
        self.bias = Parameter(bias)

    def initial_state(self, batch_size: int) -> State:
        """Zero hidden and cell state for a batch."""
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())

    def forward(self, x: Tensor, state: State) -> State:
        """Advance one step; returns the new ``(hidden, cell)`` pair.

        Uses the fused single-op implementation; :meth:`forward_reference`
        keeps the transparent elementary-op formulation that the test suite
        checks the fused version against.
        """
        h_prev, c_prev = state
        return lstm_cell_step(x, h_prev, c_prev, self.weight_ih, self.weight_hh, self.bias)

    def forward_reference(self, x: Tensor, state: State) -> State:
        """The cell expressed in elementary tape ops (for verification)."""
        h_prev, c_prev = state
        gates = x @ self.weight_ih.T + h_prev @ self.weight_hh.T + self.bias
        hidden = self.hidden_size
        i_gate = sigmoid(gates[:, :hidden])
        f_gate = sigmoid(gates[:, hidden: 2 * hidden])
        g_gate = tanh(gates[:, 2 * hidden: 3 * hidden])
        o_gate = sigmoid(gates[:, 3 * hidden:])
        c_new = f_gate * c_prev + i_gate * g_gate
        h_new = o_gate * tanh(c_new)
        return h_new, c_new


class LSTM(Module):
    """Stacked unidirectional LSTM over a padded batch.

    Parameters
    ----------
    input_size, hidden_size:
        Feature sizes; all layers above the first take ``hidden_size`` input.
    num_layers:
        Stack depth (the paper uses 2).
    rng:
        Generator for weight init.
    dropout:
        Probability applied between stacked layers (paper: 0.3).
    dropout_seed:
        Seed for the inter-layer dropout masks.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
        dropout_seed: int = 0,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells: list[LSTMCell] = []
        for layer in range(num_layers):
            cell = LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng)
            # Register each cell under a stable dotted name.
            setattr(self, f"cell_{layer}", cell)
            self.cells.append(cell)
        self.inter_layer_dropout = Dropout(dropout, seed=dropout_seed) if dropout > 0 else None

    def initial_states(self, batch_size: int) -> list[State]:
        """Zero states for every layer."""
        return [cell.initial_state(batch_size) for cell in self.cells]

    def step(self, x: Tensor, states: Sequence[State]) -> tuple[Tensor, list[State]]:
        """Advance the whole stack one timestep.

        Returns the top layer's hidden state and the new per-layer states.
        """
        new_states: list[State] = []
        layer_input = x
        for layer, cell in enumerate(self.cells):
            h_new, c_new = cell(layer_input, states[layer])
            new_states.append((h_new, c_new))
            layer_input = h_new
            if self.inter_layer_dropout is not None and layer < self.num_layers - 1:
                layer_input = self.inter_layer_dropout(layer_input)
        return layer_input, new_states

    def forward(
        self,
        inputs: Tensor,
        pad_mask: np.ndarray | None = None,
        initial_states: Sequence[State] | None = None,
        reverse: bool = False,
    ) -> tuple[Tensor, list[State]]:
        """Run over a full ``(batch, time, features)`` tensor.

        Parameters
        ----------
        inputs:
            Embedded sequence, shape ``(B, T, input_size)``.
        pad_mask:
            Optional boolean array ``(B, T)``; True marks padding. At padded
            steps the state is carried through unchanged and the emitted
            output is zero; steps where every row pads are not computed.
        initial_states:
            Optional per-layer ``(h, c)`` to start from.
        reverse:
            Process time steps from last to first (used by the backward
            direction of the bidirectional encoder). Outputs are returned in
            natural time order either way.

        Returns
        -------
        outputs, final_states:
            ``outputs`` is ``(B, T, hidden_size)`` from the top layer;
            ``final_states`` the per-layer state after the last step.
        """
        batch_size, time_steps = inputs.shape[0], inputs.shape[1]
        states = list(initial_states) if initial_states is not None else self.initial_states(batch_size)
        time_order = range(time_steps - 1, -1, -1) if reverse else range(time_steps)

        layer_input = inputs
        final_states: list[State] = []
        all_pad = pad_mask.all(axis=0) if pad_mask is not None else None
        for layer, cell in enumerate(self.cells):
            # One batched matmul for every timestep's input projection; the
            # recurrence then only multiplies by W_hh per step.
            feature = layer_input.shape[2]
            projected = (
                layer_input.reshape(batch_size * time_steps, feature) @ cell.weight_ih.T
                + cell.bias
            ).reshape(batch_size, time_steps, 4 * cell.hidden_size)

            h, c = states[layer]
            outputs: list[Tensor | None] = [None] * time_steps
            for t in time_order:
                if all_pad is not None and all_pad[t]:
                    # Every row pads here: the step would be discarded by
                    # ``where``, so carry (h, c) without computing it.
                    outputs[t] = h
                    continue
                h_new, c_new = lstm_cell_step_preprojected(
                    projected[:, t, :], h, c, cell.weight_hh
                )
                if pad_mask is not None and pad_mask[:, t].any():
                    # Carry the state through padded positions unchanged.
                    pad_t = pad_mask[:, t: t + 1]
                    h_new = where(pad_t, h, h_new)
                    c_new = where(pad_t, c, c_new)
                h, c = h_new, c_new
                outputs[t] = h_new
            final_states.append((h, c))

            sequence = stack(outputs, axis=1)
            if pad_mask is not None:
                # Padded positions emit zeros.
                sequence = masked_fill(sequence, pad_mask[:, :, None], 0.0)
            if self.inter_layer_dropout is not None and layer < self.num_layers - 1:
                sequence = self.inter_layer_dropout(sequence)
            layer_input = sequence

        return layer_input, final_states


class BidirectionalLSTM(Module):
    """Bidirectional encoder: concatenated forward/backward hidden states.

    Produces ``h_t = [h_t_fwd ; h_t_bwd]`` of width ``2 * hidden_size`` per
    step, exactly the encoder representation of the paper's Section 3.1.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
        dropout_seed: int = 0,
    ) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.forward_lstm = LSTM(
            input_size, hidden_size, num_layers, rng, dropout=dropout, dropout_seed=dropout_seed
        )
        self.backward_lstm = LSTM(
            input_size, hidden_size, num_layers, rng, dropout=dropout, dropout_seed=dropout_seed + 1
        )

    @property
    def output_size(self) -> int:
        return 2 * self.hidden_size

    def forward(
        self, inputs: Tensor, pad_mask: np.ndarray | None = None
    ) -> tuple[Tensor, list[State], list[State]]:
        """Encode a padded batch.

        Returns
        -------
        outputs, forward_states, backward_states:
            ``outputs`` is ``(B, T, 2 * hidden_size)``; the state lists hold
            each direction's final per-layer ``(h, c)``.
        """
        fwd_out, fwd_states = self.forward_lstm(inputs, pad_mask=pad_mask)
        bwd_out, bwd_states = self.backward_lstm(inputs, pad_mask=pad_mask, reverse=True)
        outputs = concat([fwd_out, bwd_out], axis=2)
        return outputs, fwd_states, bwd_states
