"""Batch-parallel beam search engine.

The paper decodes everything with beam size 3, so beam search is the hot
path of the whole evaluation pipeline. The classic per-example beam
(:func:`repro.decoding.beam.beam_decode_example`) calls ``step_log_probs``
with only ``beam_size`` rows per step, leaving the numpy backend's batched
matmuls idle. This engine decodes all ``B`` examples of a batch at once,
and keeps the beam itself as arrays:

- the hypothesis frontier is a flattened ``(B * beam_size,)`` row block —
  frontier row ``i`` belongs to example ``i // beam_size`` and beam slot
  ``i % beam_size``; live hypotheses always occupy the *leading*
  ``width[r]`` slots of their example's block, dead slots are masked to
  ``-inf`` in the ``(B, beam_size)`` running log-prob matrix;
- every live hypothesis at step ``t`` is ``t`` tokens long, so the tokens
  live in a ``(B * beam_size, max_length)`` history matrix, reordered by
  the same ``select`` index as the recurrent state; ``Hypothesis`` objects
  are built only for EOS finishes and for the returned pools;
- encoder tensors are expanded **once** via
  :func:`repro.models.base.expand_encoder_context` instead of re-gathered
  with ``row_indices`` on every step;
- one ``argpartition`` + ``lexsort`` ranks a ``(B, 2 * beam_size)``
  candidate window for all examples, and one vectorized walk over that
  window picks every row's continuations and EOS finishes: a cumulative
  count of viable non-EOS candidates selects the first ``beam_size``
  continuations and the finishes ranked above the last of them;
- each example keeps its finished pool, its running best normalized score
  and its finished count, so the early-stop rule is one vectorized
  comparison per step and short examples stop while long ones continue.

The candidate walk and the stopping rule are defined once, per row, by
:func:`select_step_candidates` and :func:`should_stop_row`; the
per-example beam, the serving engine and n-best decoding call them
directly, and the vectorized walk here reproduces them byte for byte
(``tests/decoding/test_beam_frontier_oracle.py``). A row whose window
holds fewer than ``beam_size`` viable continuations falls back to
:func:`select_step_candidates` for that row and step, which widens the
scan. That covers every window that reaches a dead slot too: dead slots
total ``-inf`` (or NaN), so they rank below every viable candidate. Two
decode-path fixes are part of these definitions:

1. **Optimistic early stop.** Under length normalization
   (``score = log_prob / len**penalty``) a live hypothesis's score can
   still *rise* as it grows, so comparing the best finished score against
   the best live *current* score prunes prematurely. The stop rule instead
   uses the standard OpenNMT/GNMT-style optimistic bound: the live raw
   log-probability normalized at whichever future length maximizes it.
2. **Adaptive candidate scan.** The scan over ranked candidates widens past
   the initial ``2 * beam_size`` window whenever it has not yet found
   ``beam_size`` viable continuations, so a window full of EOS finishes or
   non-viable junk (``-inf`` control tokens, unreachable OOV slots at
   :data:`~repro.models.base.OOV_LOG_FLOOR`) no longer kills the beam while
   expandable candidates remain further down the ranking.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.batching import Batch
from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID
from repro.decoding.hypothesis import Hypothesis
from repro.models.base import (
    NonFiniteLogits,
    OOV_LOG_FLOOR,
    QuestionGenerator,
    expand_encoder_context,
)
from repro.observability import Telemetry, emit_gate_statistics, get_telemetry, nonfinite_sentinel
from repro.tensor.core import no_grad

__all__ = [
    "NON_VIABLE_FLOOR",
    "batched_beam_decode",
    "batched_beam_search",
    "select_step_candidates",
    "should_stop_row",
]

NON_VIABLE_FLOOR = OOV_LOG_FLOOR / 10
"""Step log-probabilities at or below this are never selected as
candidates: they mark unreachable slots (models without a copy path stamp
their OOV columns with :data:`~repro.models.base.OOV_LOG_FLOOR`), not real
probability mass."""


def select_step_candidates(
    totals: np.ndarray,
    step_lp: np.ndarray,
    beam_size: int,
    order: np.ndarray | None = None,
) -> tuple[list[tuple[int, float]], list[tuple[int, int, float]]]:
    """Pick one step's EOS finishes and live continuations for one example.

    Parameters
    ----------
    totals:
        ``(width, V_ext)`` cumulative candidate scores (step log-probs plus
        the source hypothesis's log-prob).
    step_lp:
        ``(width, V_ext)`` this step's log-probs (used for viability and for
        the per-token increment).
    beam_size:
        Number of live continuations to collect.
    order:
        Optional precomputed candidate ranking (flat indices into
        ``totals``, best first) — the batched engine passes the slice of its
        shared vectorized top-k. Must cover at least the top
        ``min(2 * beam_size, totals.size)`` candidates.

    Returns
    -------
    finished, live:
        ``finished`` is ``[(source, token_log_prob), ...]`` for every EOS
        candidate ranked above the point where the walk stopped; ``live`` is
        ``[(source, token, token_log_prob), ...]``, at most ``beam_size``
        long. Both lists are in descending candidate-score order, ties
        broken by flat candidate index (deterministic).

    The walk widens its scan past the initial ``2 * beam_size`` window until
    it has ``beam_size`` live continuations or has ranked every candidate —
    a window monopolized by EOS/non-viable entries cannot starve the beam.
    """
    flat = totals.reshape(-1)
    v_ext = totals.shape[1]
    total = flat.size
    scan = min(2 * beam_size, total)

    while True:
        if order is not None and order.size >= scan:
            ranked = order[:scan]
        elif scan >= total:
            ranked = np.argsort(-flat, kind="stable")
        else:
            window = np.argpartition(-flat, scan - 1)[:scan]
            ranked = window[np.lexsort((window, -flat[window]))]

        finished: list[tuple[int, float]] = []
        live: list[tuple[int, int, float]] = []
        for flat_index in ranked:
            source, token = divmod(int(flat_index), v_ext)
            token_lp = float(step_lp[source, token])
            if not np.isfinite(token_lp) or token_lp <= NON_VIABLE_FLOOR:
                continue
            if token == EOS_ID:
                finished.append((source, token_lp))
                continue
            live.append((source, token, token_lp))
            if len(live) == beam_size:
                break
        if len(live) == beam_size or scan >= total:
            return finished, live
        # Not enough viable continuations in this window: widen and redo the
        # walk from scratch (restarting keeps the result independent of the
        # window sequence, so per-example and batched paths agree).
        scan = min(2 * scan, total)
        order = None


def should_stop_row(
    best_finished: float,
    finished_count: int,
    live_log_probs: list[float],
    current_length: int,
    beam_size: int,
    max_length: int,
    length_penalty: float,
) -> bool:
    """Early-stop rule for one example's beam.

    ``best_finished`` is the best normalized score in the example's
    finished pool and ``finished_count`` the pool's size; callers keep both
    as they append finishes, so the rule costs the same at every step.

    Stops only when the finished pool is full *and* the best finished
    normalized score beats every live hypothesis's **optimistic bound**: its
    raw log-probability normalized at whichever reachable length maximizes
    the score. Raw log-probs only decrease, but under a positive length
    penalty the normalizer grows with length, so a live (negative) score can
    still rise — comparing against the live *current* score (the old rule)
    prunes hypotheses that would have won.
    """
    if finished_count < beam_size or not live_log_probs:
        return False
    norm_now = max(1, current_length) ** length_penalty
    norm_max = max(1, max_length) ** length_penalty
    best_bound = max(
        max(lp / norm_now, lp / norm_max) for lp in live_log_probs  # numerics: ok — length-penalty norms are >= 1
    )
    return best_finished >= best_bound


def batched_beam_search(
    model: QuestionGenerator,
    batch: Batch,
    beam_size: int = 3,
    max_length: int = 30,
    length_penalty: float = 1.0,
    telemetry: Telemetry | None = None,
    deadline=None,
) -> list[list[Hypothesis]]:
    """Beam-decode every example simultaneously; returns ranked pools.

    The result has one list per example, sorted best-first by normalized
    score (ties keep finish order). Pools hold the finished hypotheses the
    beam collected; an example whose beam hit ``max_length`` without
    finishing returns its live hypotheses unfinished, like the per-example
    beam.

    ``deadline`` is an optional cooperative budget (any object with a
    ``check()`` method, e.g. :class:`repro.serving.deadline.Deadline`):
    it is consulted before the encode and once per beam step, and its own
    typed error propagates the moment the budget is exhausted — the
    serving layer catches it to fall down the degradation ladder.

    A decode step that produces NaN log-probabilities raises the typed
    :class:`~repro.models.base.NonFiniteLogits` (after firing a
    ``health.decode.logits`` sentinel) instead of silently starving the
    beam and returning empty hypotheses.

    Each call reports one ``decode.batch`` span (with an ``encode`` child),
    step/token counters, and tokens-per-second / hypotheses-per-second
    gauges through ``telemetry`` (the ambient hub when not given).
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")

    tel = telemetry if telemetry is not None else get_telemetry()
    decode_start = time.perf_counter()
    steps_run = 0
    tokens_generated = 0

    model.eval()
    with no_grad(), tel.span(
        "decode.batch", extra={"examples": batch.size, "beam_size": beam_size}
    ) as span_info:
        if deadline is not None:
            deadline.check()
        with tel.span("encode"):
            context = model.encode(batch)
        num_examples = context.batch_size
        expanded = expand_encoder_context(context, beam_size)
        state = model.initial_decoder_state(expanded)

        frontier_rows = num_examples * beam_size
        # Beam state as arrays. Slot j of example r is frontier row
        # r * beam_size + j; only the first width[r] slots are alive, and a
        # live hypothesis at step t is history[row, :t] with log-prob
        # live_lp[r, j].
        history = np.zeros((frontier_rows, max_length), dtype=np.int64)
        prev = np.full(frontier_rows, BOS_ID, dtype=np.int64)
        live_lp = np.full((num_examples, beam_size), -np.inf)
        live_lp[:, 0] = 0.0
        width = np.ones(num_examples, dtype=np.int64)
        done = np.zeros(num_examples, dtype=bool)
        # Running best normalized score and size of each finished pool, so
        # the stop rule never rescores a pool.
        best_finished = np.full(num_examples, -np.inf)
        finished_count = np.zeros(num_examples, dtype=np.int64)
        # Finished hypotheses as flat records in finish order; the ranked
        # pools are built from them at return.
        end_rows: list[np.ndarray] = []
        end_lps: list[np.ndarray] = []
        end_scores: list[np.ndarray] = []
        end_ids: list[list[int]] = []
        # Live hypotheses of rows whose beam ran out of continuations.
        stalled: dict[int, list[Hypothesis]] = {}
        norm_max = max(1, max_length) ** length_penalty

        for step in range(max_length):
            if done.all():
                break
            if deadline is not None:
                deadline.check()
            step_lp, new_state = model.step_log_probs(prev, state, expanded)
            steps_run += 1
            nan_rows = np.isnan(step_lp).any(axis=1)
            if nan_rows.any():
                nonfinite_sentinel(
                    tel, "decode.logits", float("nan"), phase="beam", beam_step=step
                )
                raise NonFiniteLogits("step_log_probs", step=step, rows=int(nan_rows.sum()))
            step_lp[:, PAD_ID] = -np.inf
            step_lp[:, BOS_ID] = -np.inf
            v_ext = step_lp.shape[1]
            step_rows = step_lp.reshape(num_examples, beam_size, v_ext)
            totals = step_rows + live_lp[:, :, None]

            # One vectorized top-k over (B, beam_size * V_ext) for all rows.
            flat = totals.reshape(num_examples, beam_size * v_ext)
            scan = min(2 * beam_size, flat.shape[1])
            window = np.argpartition(-flat, scan - 1, axis=1)[:, :scan]
            window_vals = np.take_along_axis(flat, window, axis=1)
            rank = np.lexsort((window, -window_vals), axis=1)
            ranked = np.take_along_axis(window, rank, axis=1)

            # The walk of select_step_candidates over every row's window at
            # once: a candidate is walked while fewer than beam_size viable
            # continuations rank above it. The running count of viable
            # continuations is also each continuation's new beam slot + 1.
            source, token = np.divmod(ranked, v_ext)
            token_lp = np.take_along_axis(step_lp.reshape(num_examples, -1), ranked, axis=1)
            viable = (
                (source < width[:, None])
                & np.isfinite(token_lp)
                & (token_lp > NON_VIABLE_FLOOR)
            )
            is_eos = token == EOS_ID
            grows = viable & ~is_eos
            grown = np.cumsum(grows, axis=1)
            fast = ~done & (grown[:, -1] >= beam_size)
            walked = ((grown - grows) < beam_size) & fast[:, None]
            grow_row, grow_col = np.nonzero(grows & walked)
            end_row, end_col = np.nonzero(viable & is_eos & walked)
            grow_slot = grown[grow_row, grow_col] - 1
            grow_src = source[grow_row, grow_col]
            grow_tok = token[grow_row, grow_col]
            end_src = source[end_row, end_col]

            fallback = np.flatnonzero(~done & ~fast)
            if fallback.size:
                walks, dry = _fallback_walks(
                    fallback, width, ranked, totals, step_rows, beam_size
                )
                for r in dry:
                    done[r] = True
                    stalled[r] = _live_hypotheses(history, live_lp, r, int(width[r]), step)
                grow_row, grow_slot, grow_src, grow_tok, end_row, end_src = (
                    np.concatenate([ours, theirs]).astype(np.int64)
                    for ours, theirs in zip(
                        (grow_row, grow_slot, grow_src, grow_tok, end_row, end_src), walks
                    )
                )

            if end_row.size:
                end_lp = live_lp[end_row, end_src] + step_rows[end_row, end_src, EOS_ID]
                # The EOS token scores but never surfaces: a finish at this
                # step is `step` tokens long.
                norm_end = max(1, step) ** length_penalty
                end_score = end_lp / norm_end  # numerics: ok — length-penalty norms are >= 1
                np.maximum.at(best_finished, end_row, end_score)
                finished_count += np.bincount(end_row, minlength=num_examples)
                end_rows.append(end_row)
                end_lps.append(end_lp)
                end_scores.append(end_score)
                end_ids.extend(history[end_row * beam_size + end_src, :step].tolist())

            select = np.arange(frontier_rows, dtype=np.int64)
            next_prev = np.full(frontier_rows, EOS_ID, dtype=np.int64)
            next_lp = np.full((num_examples, beam_size), -np.inf)
            base = grow_row * beam_size
            target = base + grow_slot
            select[target] = base + grow_src
            next_prev[target] = grow_tok
            next_lp[grow_row, grow_slot] = (
                live_lp[grow_row, grow_src] + step_rows[grow_row, grow_src, grow_tok]
            )
            width = np.bincount(grow_row, minlength=num_examples)
            tokens_generated += grow_row.size

            norm_now = max(1, step + 1) ** length_penalty
            bound = np.maximum(next_lp / norm_now, next_lp / norm_max).max(axis=1)  # numerics: ok — length-penalty norms are >= 1
            done |= (width > 0) & (finished_count >= beam_size) & (best_finished >= bound)

            state = new_state.select(select)
            history = history[select]
            history[:, step] = next_prev
            prev = next_prev
            live_lp = next_lp

        pools: list[list[Hypothesis]] = [[] for _ in range(num_examples)]
        if end_ids:
            rows = np.concatenate(end_rows)
            # Per example best first; lexsort is stable, so ties keep finish
            # order, as the per-example beam's sort by -score does.
            order = np.lexsort((-np.concatenate(end_scores), rows))
            log_probs = np.concatenate(end_lps)[order].tolist()
            for i, r, log_prob in zip(order.tolist(), rows[order].tolist(), log_probs):
                pools[r].append(Hypothesis(tuple(end_ids[i]), log_prob, finished=True))
        for r in range(num_examples):
            if not pools[r]:
                live = stalled.get(r) or _live_hypotheses(
                    history, live_lp, r, int(width[r]), steps_run
                )
                pools[r] = sorted(live, key=lambda h: -h.score(length_penalty))

        elapsed = time.perf_counter() - decode_start
        span_info["steps"] = steps_run
        span_info["tokens"] = tokens_generated
        tel.counter("decode.steps", steps_run)
        tel.throughput("decode.tokens", tokens_generated, elapsed)
        tel.throughput("decode.hypotheses", num_examples, elapsed)
        if hasattr(model, "pop_decode_gate_stats"):
            emit_gate_statistics(tel, "decode.gate", model.pop_decode_gate_stats())
        return pools


def _live_hypotheses(
    history: np.ndarray, live_lp: np.ndarray, example: int, width: int, length: int
) -> list[Hypothesis]:
    """The ``width`` live hypotheses of one example, unfinished."""
    beam_size = live_lp.shape[1]
    base = example * beam_size
    ids = history[base: base + width, :length].tolist()
    return [
        Hypothesis(tuple(tokens), log_prob, finished=False)
        for tokens, log_prob in zip(ids, live_lp[example, :width].tolist())
    ]


def _fallback_walks(
    rows: np.ndarray,
    width: np.ndarray,
    ranked: np.ndarray,
    totals: np.ndarray,
    step_rows: np.ndarray,
    beam_size: int,
) -> tuple[tuple[list[int], ...], list[int]]:
    """Run :func:`select_step_candidates` for the rows whose window held
    fewer than ``beam_size`` viable continuations.

    Returns the picks as ``(grow_row, grow_slot, grow_src, grow_tok,
    end_row, end_src)`` lists in walk order, and the rows that found no
    continuation at all.
    """
    v_ext = totals.shape[2]
    picks: tuple[list[int], ...] = ([], [], [], [], [], [])
    grow_row, grow_slot, grow_src, grow_tok, end_row, end_src = picks
    dry: list[int] = []
    for r in rows.tolist():
        live_width = int(width[r])
        # Restrict the shared ranking to the example's live slots: their
        # flat indices coincide with the (width, V_ext) candidate matrix
        # the per-example beam builds, so the walk sees identical
        # candidates. If dead -inf slots crowded the window, the walk
        # recomputes its own ranking over the live slice.
        order = ranked[r]
        if live_width < beam_size:
            order = order[order < live_width * v_ext]
        eos_picks, continuations = select_step_candidates(
            totals[r, :live_width], step_rows[r, :live_width], beam_size, order=order
        )
        for source, _ in eos_picks:
            end_row.append(r)
            end_src.append(source)
        if not continuations:
            dry.append(r)
        for slot, (source, token, _) in enumerate(continuations):
            grow_row.append(r)
            grow_slot.append(slot)
            grow_src.append(source)
            grow_tok.append(token)
    return picks, dry


def batched_beam_decode(
    model: QuestionGenerator,
    batch: Batch,
    beam_size: int = 3,
    max_length: int = 30,
    length_penalty: float = 1.0,
    telemetry: Telemetry | None = None,
    deadline=None,
) -> list[Hypothesis]:
    """Best hypothesis per example, via the batch-parallel engine."""
    pools = batched_beam_search(
        model,
        batch,
        beam_size=beam_size,
        max_length=max_length,
        length_penalty=length_penalty,
        telemetry=telemetry,
        deadline=deadline,
    )
    return [pool[0] for pool in pools]
