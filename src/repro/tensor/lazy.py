"""Lazy kernel-fusion mode: fused tape nodes for the step-loop chains.

The numpy tape executes one Python-level op at a time: every LSTM decoder
step pays ~30 tape-node creations, and in training that per-op dispatch —
in the forward and again in the backward — dominates the step. Inside a
:class:`lazy` context (a context manager, usable as a decorator) the
blessed fusable blocks switch from their elementary-op formulation to
fused kernels: the attention score→mask→softmax→context chain and the
pointer/copy score chain (:mod:`repro.nn.functional`) each become ONE tape
node with a hand-written backward. The LSTM cell is fused in both modes.

:class:`~repro.training.trainer.TrainerConfig` ``fusion`` is the switch
that turns this on: the trainer (and every elastic worker) runs its
forward inside ``lazy()``. Decoding always runs eager — with gradients
off there is no backward to save, and the fused kernels measured no
faster than the elementary chain there.

Equivalence contract
--------------------
Fused kernels perform the *same numpy operations in the same order* as the
eager formulation, so forward outputs are byte-identical; hand-written
backwards are gradcheck-pinned (tolerance equivalence — they sum in a
different order, so trained parameters differ in the last bits). NaN is
never laundered: the transcendentals route through
:mod:`repro.nn.numerics` (``scripts/lint_numerics.py`` enforces this with
waiver-proof strictness for the fused-kernel modules) and non-finite
inputs stay detectable, including by
:func:`repro.tensor.anomaly.detect_anomaly`, which sees each fused block
as one tape node. Coverage-mode attention (the See et al. extension)
mixes an accumulated history into the scores and keeps the elementary-op
path.

Reentrancy audit (``_GRAD_ENABLED`` / ``_PROFILES`` / ``_ANOMALY`` / ``_LAZY``)
-------------------------------------------------------------------------------
All four mode switches are plain module-level stacks, which is safe
because every consumer — the trainer, the decoding engines, and the
serving layer — runs tape code on one thread per process. The stacks are
exception-safe (``append`` on enter, ``remove`` of the exact entry on
exit) and reentrant (nested contexts, including reusing one
``no_grad``/``lazy`` instance, restore correctly because state is kept per
*entry*, not per instance). A multi-process worker pool gets a fresh set
of stacks per process, which is exactly the isolation it needs; sharing
one process between concurrent tape users would require promoting these
to thread-locals and is deliberately out of contract.
"""

from __future__ import annotations

import functools
from typing import Callable

__all__ = ["lazy", "is_lazy_enabled"]

# Active lazy contexts, innermost last. Same single-threaded contract as
# core._GRAD_ENABLED (see the reentrancy audit in the module docstring).
_LAZY: list["lazy"] = []


class lazy:
    """Enable fused-kernel execution inside the block.

    Usable as a context manager or as a decorator::

        with lazy():
            loss = model.loss(batch)

        @lazy()
        def forward(batch): ...

    Each entry pushes onto the module stack and pops exactly that entry on
    exit, so nesting — including reusing one instance — and exceptions
    restore the previous state correctly.
    """

    def __enter__(self) -> "lazy":
        _LAZY.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _LAZY.remove(self)

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self:
                return fn(*args, **kwargs)

        return wrapper


def is_lazy_enabled() -> bool:
    """Whether a :class:`lazy` context is currently active."""
    return bool(_LAZY)
