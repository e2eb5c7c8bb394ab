"""Dropout layer (Srivastava et al. 2014), the paper uses p = 0.3."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor.core import Tensor
from repro.tensor.ops import dropout

__all__ = ["Dropout"]


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode.

    Each instance owns its own ``numpy.random.Generator`` so a fixed
    construction seed makes the whole training run deterministic.
    """

    def __init__(self, p: float, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor, step_axis: int | None = None) -> Tensor:
        """``step_axis``: draw the masks of a sequence in per-step order
        (see :func:`repro.tensor.ops.dropout`)."""
        return dropout(x, self.p, self._rng, training=self.training, step_axis=step_axis)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
