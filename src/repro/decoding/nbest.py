"""N-best beam decoding.

Question generation's flagship application (per the paper's introduction) is
producing question-answer pairs at scale for QA training; for that you want
*several* candidate questions per source, not just the best one.
:func:`beam_decode_nbest` exposes the full finished pool of the beam.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import Batch
from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID
from repro.decoding.batched_beam import select_step_candidates, should_stop_row
from repro.decoding.hypothesis import Hypothesis
from repro.models.base import EncoderContext, QuestionGenerator
from repro.tensor.core import no_grad

__all__ = ["beam_decode_nbest"]


def beam_decode_nbest(
    model: QuestionGenerator,
    batch: Batch,
    n_best: int = 3,
    beam_size: int | None = None,
    max_length: int = 30,
    length_penalty: float = 1.0,
) -> list[list[Hypothesis]]:
    """Return up to ``n_best`` finished hypotheses per example, best first.

    ``beam_size`` defaults to ``n_best`` (a beam can finish at most about
    ``beam_size`` distinct hypotheses per step, so ask for a wider beam if
    you need guaranteed-deep n-best lists).
    """
    if n_best < 1:
        raise ValueError(f"n_best must be >= 1, got {n_best}")
    beam_size = beam_size or n_best

    model.eval()
    with no_grad():
        context = model.encode(batch)
        return [
            _nbest_for_example(
                model, context, index, n_best, beam_size, max_length, length_penalty
            )
            for index in range(context.batch_size)
        ]


def _nbest_for_example(
    model: QuestionGenerator,
    context: EncoderContext,
    example_index: int,
    n_best: int,
    beam_size: int,
    max_length: int,
    length_penalty: float,
) -> list[Hypothesis]:
    live = [Hypothesis((), 0.0)]
    state = model.initial_decoder_state(context).select(np.array([example_index]))
    finished: list[Hypothesis] = []
    best_finished = -np.inf

    for step in range(max_length):
        width = len(live)
        prev = np.array(
            [hyp.token_ids[-1] if hyp.token_ids else BOS_ID for hyp in live],
            dtype=np.int64,
        )
        rows = np.full(width, example_index)
        step_lp, new_state = model.step_log_probs(prev, state, context, row_indices=rows)
        step_lp[:, PAD_ID] = -np.inf
        step_lp[:, BOS_ID] = -np.inf

        totals = step_lp + np.array([hyp.log_prob for hyp in live])[:, None]
        eos_picks, continuations = select_step_candidates(totals, step_lp, beam_size)
        for source, token_lp in eos_picks:
            grown = live[source].extended(EOS_ID, token_lp, finished=True)
            ended = Hypothesis(grown.token_ids[:-1], grown.log_prob, finished=True)
            finished.append(ended)
            best_finished = max(best_finished, ended.score(length_penalty))

        if not continuations:
            break
        state = new_state.select(np.array([source for source, _, _ in continuations]))
        live = [
            live[source].extended(token, token_lp, finished=False)
            for source, token, token_lp in continuations
        ]
        # Same stopping rule as beam_decode (optimistic live bound), but the
        # pool must cover the requested n-best depth before stopping.
        if should_stop_row(
            best_finished,
            len(finished),
            [hyp.log_prob for hyp in live],
            step + 1,
            max(n_best, beam_size),
            max_length,
            length_penalty,
        ):
            break

    if not finished:
        finished = [Hypothesis(h.token_ids, h.log_prob, finished=False) for h in live]

    # Deduplicate surface forms, rank by normalized score.
    unique: dict[tuple[int, ...], Hypothesis] = {}
    for hypothesis in finished:
        existing = unique.get(hypothesis.token_ids)
        if existing is None or hypothesis.log_prob > existing.log_prob:
            unique[hypothesis.token_ids] = hypothesis
    ranked = sorted(unique.values(), key=lambda h: -h.score(length_penalty))
    return ranked[:n_best]
