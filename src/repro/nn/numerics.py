"""Blessed guarded numerical helpers.

The ACNN objective chains softmax, the sigmoid switch gate, and ``log`` of
a two-way probability mixture (paper Eq. 5-7) — the exact composition that
silently produces ``-inf`` losses and NaN gradients under large logits or a
saturated gate (CopyNet's log-mixture instability; Gu et al. 2016). This
module is the single home for the guarded forms of the dangerous
primitives; ``scripts/lint_numerics.py`` flags raw ``np.log`` / ``np.exp``
/ ``np.sqrt`` and bare division on tensor data anywhere else in
``src/repro`` unless the site carries an explicit ``# numerics: ok`` waiver.

Two families:

- **Tensor helpers** (``safe_log``, ``safe_exp``, ``safe_sqrt``,
  ``safe_div``, ``saturating_sigmoid``) build on the tape ops and are
  differentiable; on well-conditioned inputs they are byte-identical to
  the raw op.
- **Array helpers** (``np_safe_log``, ``np_smoothed_log``, ``np_safe_exp``,
  ``np_safe_div``, ``np_bernoulli_entropy``) guard plain-numpy call sites
  (decode paths, statistics) without touching the tape.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.core import Tensor, ensure_tensor
from repro.tensor.ops import clip, exp, log, sigmoid, sqrt

__all__ = [
    "TINY",
    "EXP_MAX",
    "GATE_EPS",
    "safe_log",
    "safe_exp",
    "safe_sqrt",
    "safe_div",
    "saturating_sigmoid",
    "np_safe_log",
    "np_smoothed_log",
    "np_safe_exp",
    "np_safe_div",
    "np_bernoulli_entropy",
    "np_fast_sigmoid",
    "np_stable_softmax",
]

TINY = 1e-12
"""Default probability floor: small enough not to disturb any real mass,
large enough that ``log`` stays finite (``log(1e-12) ≈ -27.6``)."""

EXP_MAX = 709.0
"""Largest input ``exp`` accepts in float64 without overflowing to inf."""

GATE_EPS = 1e-12
"""The Eq. 4 switch gate is clamped to ``[GATE_EPS, 1 - GATE_EPS]`` so a
saturated gate can never zero out one side of the Eq. 2 mixture exactly."""


# ----------------------------------------------------------------------
# Tensor helpers (differentiable, tape-recorded)
# ----------------------------------------------------------------------
def safe_log(x: Tensor, floor: float = TINY, ceiling: float | None = None) -> Tensor:
    """``log`` of ``x`` clamped into ``[floor, ceiling]`` — never ``-inf``.

    The clamp uses :func:`repro.tensor.ops.clip`, so gradients are zero in
    the clamped region (the same convention as the pre-existing Eq. 7 loss
    guard) and values inside the range are untouched bit-for-bit.
    """
    high = np.inf if ceiling is None else ceiling
    return log(clip(ensure_tensor(x), floor, high))


def safe_exp(x: Tensor, max_input: float = EXP_MAX) -> Tensor:
    """``exp`` with the input clamped to ``<= max_input`` — never ``inf``."""
    return exp(clip(ensure_tensor(x), -np.inf, max_input))


def safe_sqrt(x: Tensor, floor: float = 0.0) -> Tensor:
    """``sqrt`` of ``x`` clamped to ``>= floor`` — never NaN on tiny
    negative values produced by cancellation."""
    return sqrt(clip(ensure_tensor(x), floor, np.inf))


def safe_div(x: Tensor, denominator: Tensor, eps: float = TINY) -> Tensor:
    """``x / max(denominator, eps)`` for non-negative denominators.

    Guards the division-by-a-sum pattern (attention normalizers, token
    averages) where the denominator is mathematically ``>= 0`` but can be
    exactly zero on degenerate inputs (empty rows, fully-masked spans).
    """
    return ensure_tensor(x) / clip(ensure_tensor(denominator), eps, np.inf)


def saturating_sigmoid(x: Tensor, eps: float = GATE_EPS) -> Tensor:
    """Sigmoid clamped to ``[eps, 1 - eps]`` — cannot return exact 0/1.

    Used for the Eq. 4 copy/generate switch: an exactly-saturated gate
    multiplies one mixture branch by exactly zero, so a target token only
    reachable through that branch gets probability 0 and the Eq. 7 log
    goes to the floor with a dead gradient. For any logit the stable
    sigmoid keeps strictly inside ``(eps, 1 - eps)`` (|logit| up to ~27)
    the output is byte-identical to :func:`repro.tensor.ops.sigmoid`.
    """
    return clip(sigmoid(ensure_tensor(x)), eps, 1.0 - eps)


# ----------------------------------------------------------------------
# Array helpers (plain numpy, for decode paths and statistics)
# ----------------------------------------------------------------------
def np_safe_log(array: np.ndarray, floor: float = TINY) -> np.ndarray:
    """``log(maximum(array, floor))`` — the clamped log for raw arrays."""
    return np.log(np.maximum(array, floor))  # numerics: ok — clamped input


def np_smoothed_log(array: np.ndarray, floor: float = TINY) -> np.ndarray:
    """``log(array + floor)`` — additive-floor log for probability arrays.

    Matches the decoder's historical Eq. 2 guard (``log(P + 1e-12)``)
    bit-for-bit, so switching call sites to this helper cannot move beam
    scores; prefer :func:`np_safe_log` for new code.
    """
    return np.log(array + floor)  # numerics: ok — additive floor keeps input > 0


def np_safe_exp(array: np.ndarray, max_input: float = EXP_MAX) -> np.ndarray:
    """``exp`` with the input clamped so the result never overflows."""
    return np.exp(np.minimum(array, max_input))  # numerics: ok — clamped input


def np_safe_div(
    numerator: np.ndarray, denominator: np.ndarray, eps: float = TINY
) -> np.ndarray:
    """``numerator / maximum(denominator, eps)`` for non-negative denominators."""
    return numerator / np.maximum(denominator, eps)  # numerics: ok — clamped denominator


def np_fast_sigmoid(x: np.ndarray) -> np.ndarray:
    """The LSTM gate sigmoid ``1 / (1 + exp(-x))``.

    Bit-for-bit twin of the historical ``repro.nn.functional`` gate
    nonlinearity: ``exp`` overflow for very negative inputs saturates to
    exactly 0.0 (the correct limit; the harmless warning is suppressed),
    and NaN inputs propagate to NaN outputs so anomaly detection still
    fires.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))  # numerics: ok — denominator >= 1; overflow saturates to the correct limit


def np_stable_softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax, byte-identical to :func:`repro.tensor.ops.softmax`.

    The numpy-level twin of the tape op's stabilized kernel, for the fused
    kernels and decode paths: the classic max-shift handles arbitrarily
    large finite logits, rows that are entirely ``-inf`` (fully masked)
    return all-zero rows instead of NaN, and NaN / ``+inf`` inputs are
    *not* laundered — they propagate so divergence stays detectable.
    ``tests/nn/test_numerics.py`` pins byte-identity against the tape op on
    well-conditioned and fully-masked inputs.
    """
    max_ = scores.max(axis=axis, keepdims=True)
    neginf = np.isneginf(max_)
    if neginf.any():
        max_ = np.where(neginf, 0.0, max_)
    exp_x = np.exp(scores - max_)  # numerics: ok — max-shifted input <= 0 (or -inf rows)
    denom = exp_x.sum(axis=axis, keepdims=True)
    zero = denom == 0.0
    if zero.any():
        # Fully-masked rows: no mass anywhere; return zeros, not NaN.
        denom = np.where(zero, 1.0, denom)
    return exp_x / denom  # numerics: ok — denominator guarded > 0


def np_bernoulli_entropy(z: np.ndarray, eps: float = TINY) -> np.ndarray:
    """Elementwise Bernoulli entropy ``-z ln z - (1-z) ln (1-z)`` in nats.

    ``z`` is clamped into ``[eps, 1 - eps]`` first, so saturated gate
    values report ~0 entropy instead of ``0 * log(0) = nan``.
    """
    clipped = np.clip(z, eps, 1.0 - eps)
    return -(clipped * np.log(clipped) + (1.0 - clipped) * np.log(1.0 - clipped))  # numerics: ok — clamped input
