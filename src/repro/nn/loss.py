"""Sequence losses.

Training maximizes ``P(y | x) = prod_k P(y_k | y_<k, x)`` (Eq. 1 of the
paper), i.e. minimizes the per-token negative log-likelihood, with padding
positions masked out of the average.
"""

from __future__ import annotations

import numpy as np

from repro.nn.numerics import safe_log
from repro.tensor.core import Tensor
from repro.tensor.ops import gather_rows, log_softmax

__all__ = ["nll_loss", "cross_entropy", "sequence_nll", "PROBABILITY_FLOOR"]

# Mixture probabilities (Eq. 2) are clamped here before the log so a
# confidently-wrong copy gate cannot produce -inf loss.
PROBABILITY_FLOOR = 1e-12


def nll_loss(log_probs: Tensor, targets: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean negative log-likelihood over a batch.

    Parameters
    ----------
    log_probs:
        ``(B, V)`` log-probabilities.
    targets:
        ``(B,)`` integer class ids.
    mask:
        Optional ``(B,)`` float/bool weights; masked-out entries (0/False)
        do not contribute to the mean.
    """
    picked = gather_rows(log_probs, np.asarray(targets))
    if mask is None:
        return -picked.mean()
    weights = np.asarray(mask, dtype=float)
    total = weights.sum()
    if total == 0:
        raise ValueError("nll_loss mask excludes every element")
    return -(picked * Tensor(weights)).sum() * (1.0 / total)  # numerics: ok — total == 0 raises above


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Softmax cross-entropy from raw logits."""
    return nll_loss(log_softmax(logits, axis=-1), targets, mask=mask)


def sequence_nll(
    probs: Tensor,
    targets: np.ndarray,
    pad_mask: np.ndarray,
) -> Tensor:
    """Token-averaged NLL over a decoded sequence of *probabilities*.

    Used for the ACNN mixture output, which is a probability (not a logit):
    Eq. 2 produces ``P(y_k) = z_k P_cop + (1 - z_k) P_att`` directly.

    Parameters
    ----------
    probs:
        ``(B, T)`` tensor, the model probability assigned to the gold token
        at each decoding step.
    targets:
        ``(B, T)`` gold token ids (only used for shape validation).
    pad_mask:
        ``(B, T)`` boolean array, True at padding positions (excluded).
    """
    targets = np.asarray(targets)
    if probs.shape != targets.shape:
        raise ValueError(
            f"got step probabilities of shape {probs.shape} for targets {targets.shape}"
        )
    valid = ~np.asarray(pad_mask, dtype=bool)
    total_tokens = valid.sum()
    if total_tokens == 0:
        raise ValueError("sequence_nll: every target position is padding")

    log_p = safe_log(probs, floor=PROBABILITY_FLOOR, ceiling=1.0)
    total = (log_p * Tensor(valid.astype(float))).sum()
    return -total * (1.0 / float(total_tokens))
