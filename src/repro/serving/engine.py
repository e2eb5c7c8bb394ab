"""Step-level continuous batching over the flattened beam frontier.

:class:`~repro.serving.batcher.MicroBatcher` runs homogeneous *fixed*
batches: a group enters the decoder together and leaves together, so one
slow (long, wide-beam) request head-of-line blocks its batchmates, idle
row slots stay idle until the whole batch returns, and a request that
arrives mid-flight waits a full batch turnaround. The continuous engine
removes the batch boundary entirely (Orca-style iteration-level
scheduling): the unit of scheduling is one *decode step* of a live
frontier of ``(sum of beam sizes)`` rows, and between every step the
engine

- **retires** finished rows immediately (EOS/stop-rule/max-length), and
  routes deadline-expired rows to the degradation ladder's floor;
- **admits** queued requests into the freed row slots (breaker-gated,
  a bounded number per step);
- runs exactly one batched ``step_log_probs`` over everything in flight.

Requests of different lengths, beam widths and ages cohabit the same
matmul. The per-request decode is byte-identical to a solo run of the
batched beam engine because three invariants hold:

1. every request decodes at the same **fixed source width**
   (``pad_to``) — attention over the extra padded positions contributes
   exactly zero, and a fixed width means the reduction shapes (and hence
   the floating-point rounding) never depend on who else is in flight;
2. candidate selection runs per request over its **own** extended-vocab
   columns (``V + its oov count``), so a neighbour with more OOV slots
   cannot widen — and thereby perturb — the candidate walk; the walk
   itself is the canonical
   :func:`~repro.decoding.batched_beam.select_step_candidates`;
3. recurrent state rows are private to their request and reordered with
   one :meth:`~repro.models.base.DecoderStepState.select` per step, the
   same bookkeeping the batched beam engine uses.

Fault isolation is per request where physics allows it: NaN rows poison
only the slot that produced them (that request falls back to the solo
ladder; cohabitants keep decoding), while a raised step fault — which
aborts the shared matmul — dumps the whole frontier onto the solo path,
where each request runs its own ladder and retry budget. Either way the
engine itself never raises: every submitted request terminates as exactly
one typed outcome (served, rejected, shed, or failed).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.data.batching import collate
from repro.data.dataset import EncodedExample
from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID
from repro.decoding.batched_beam import select_step_candidates, should_stop_row
from repro.decoding.hypothesis import Hypothesis
from repro.models.base import (
    DecoderStepState,
    EncoderContext,
    expand_encoder_context,
)
from repro.observability import nonfinite_sentinel
from repro.serving.cache import pad_batch
from repro.serving.deadline import Deadline
from repro.serving.errors import BreakerOpen, RejectedRequest, RequestFailed
from repro.serving.ladder import build_ladder
from repro.serving.requests import GenerationRequest
from repro.serving.service import InferenceService, RequestOutcome
from repro.tensor.core import Tensor, no_grad

__all__ = ["EngineConfig", "EngineStats", "ContinuousBatchingEngine"]


@dataclass(frozen=True)
class EngineConfig:
    """Capacity and pacing of the continuous frontier."""

    max_rows: int = 12
    """Frontier row budget; a request occupies ``beam_size`` rows."""
    queue_limit: int = 64
    """Bounded admission queue; submits beyond it are shed."""
    admit_per_step: int = 4
    """Most requests admitted into free slots per decode step."""
    pad_to: int | None = None
    """Fixed source width of every frontier row. ``None`` uses the
    service's admission cap (``AdmissionPolicy.max_source_tokens``).
    Requests longer than this are served on the solo path instead."""

    def __post_init__(self) -> None:
        if self.max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {self.max_rows}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.admit_per_step < 1:
            raise ValueError(f"admit_per_step must be >= 1, got {self.admit_per_step}")
        if self.pad_to is not None and self.pad_to < 1:
            raise ValueError(f"pad_to must be >= 1, got {self.pad_to}")


@dataclass
class EngineStats:
    """Engine-side ledger; request dispositions live in ``ServiceStats``."""

    submitted: int = 0
    frontier_admissions: int = 0
    steps: int = 0
    served_in_frontier: int = 0
    expired: int = 0
    poisoned: int = 0
    """Requests whose rows went NaN and were isolated to the solo path."""
    frontier_fallbacks: int = 0
    """Whole-frontier dumps caused by a raised shared-step fault."""
    solo_fallbacks: int = 0
    """Requests routed through the per-request ladder for any reason."""
    oversize: int = 0
    """Requests too long/wide for the frontier, served solo."""
    duplicate_results: int = 0
    """Same-id frontier completions dropped by the idempotency guard."""
    peak_rows: int = 0
    _served_ids: set[str] = field(default_factory=set, repr=False)

    def note_first_completion(self, request_id: str) -> bool:
        """Idempotency guard mirroring ``ServiceStats.note_first_completion``:
        a re-dispatched request may finish in two frontiers, but only the
        first completion counts. Empty ids carry no identity."""
        if not request_id:
            return True
        if request_id in self._served_ids:
            return False
        self._served_ids.add(request_id)
        return True

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "frontier_admissions": self.frontier_admissions,
            "steps": self.steps,
            "served_in_frontier": self.served_in_frontier,
            "expired": self.expired,
            "poisoned": self.poisoned,
            "frontier_fallbacks": self.frontier_fallbacks,
            "solo_fallbacks": self.solo_fallbacks,
            "oversize": self.oversize,
            "duplicate_results": self.duplicate_results,
            "peak_rows": self.peak_rows,
        }


@dataclass
class _Pending:
    request: GenerationRequest
    encoded: EncodedExample
    deadline: Deadline
    submitted_at: float


@dataclass
class _Slot:
    """One in-flight request: ``rows`` contiguous frontier rows."""

    request: GenerationRequest
    encoded: EncodedExample
    deadline: Deadline
    submitted_at: float
    context: EncoderContext
    """Beam-expanded, fixed-width encoder context for this request."""
    max_oov: int
    rows: int
    live: list[Hypothesis]
    finished: list[Hypothesis] = field(default_factory=list)
    best_finished: float = -np.inf
    """Best normalized score in ``finished``, kept as finishes append."""
    steps: int = 0
    prev: np.ndarray = None  # (rows,) previous extended-vocab tokens
    live_lp: np.ndarray = None  # (rows,) live log-probs, -inf at dead slots


def _concat_states(a: DecoderStepState, b: DecoderStepState) -> DecoderStepState:
    """Append ``b``'s rows after ``a``'s (frontier admission)."""
    layers = [
        (
            Tensor(np.concatenate([ha.data, hb.data], axis=0)),
            Tensor(np.concatenate([ca.data, cb.data], axis=0)),
        )
        for (ha, ca), (hb, cb) in zip(a.lstm_states, b.lstm_states)
    ]
    if (a.coverage is None) != (b.coverage is None):
        raise ValueError("cannot merge decoder states with mismatched coverage")
    coverage = (
        np.concatenate([a.coverage, b.coverage], axis=0)
        if a.coverage is not None
        else None
    )
    return DecoderStepState(layers, coverage=coverage)


class ContinuousBatchingEngine:
    """Continuous-batching serving over an :class:`InferenceService`.

    The API mirrors :class:`~repro.serving.batcher.MicroBatcher`:
    ``submit`` enqueues (returning an outcome only when the request never
    entered the queue), ``step`` advances the frontier by one decode step,
    and ``drain`` steps until nothing is queued or in flight. The core is
    synchronous — tests and the chaos harness decide exactly when a step
    happens.
    """

    def __init__(
        self,
        service: InferenceService,
        config: EngineConfig | None = None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else EngineConfig()
        self.stats = EngineStats()
        self.pad_to = (
            self.config.pad_to
            if self.config.pad_to is not None
            else service.validator.policy.max_source_tokens
        )
        self._queue: deque[_Pending] = deque()
        self._slots: list[_Slot] = []
        self._state: DecoderStepState | None = None
        self._context: EncoderContext | None = None

    # ------------------------------------------------------------------
    # Introspection (the property-test surface)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        return len(self._slots)

    @property
    def frontier_rows(self) -> int:
        return sum(slot.rows for slot in self._slots)

    def slot_table(self) -> list[tuple[str, int, int]]:
        """``(request_id, first_row, rows)`` per live slot, frontier order."""
        table = []
        base = 0
        for slot in self._slots:
            table.append((slot.request.request_id, base, slot.rows))
            base += slot.rows
        return table

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: GenerationRequest) -> RequestOutcome | None:
        """Admit into the queue; an outcome is returned only when the
        request never entered it (rejected, or shed on a full queue)."""
        self.stats.submitted += 1
        try:
            encoded = self.service.admit(request)
        except RejectedRequest as error:
            return RequestOutcome(
                request.request_id, "rejected", error=type(error).__name__,
                reason=error.reason,
            )
        if self.queue_depth >= self.config.queue_limit:
            self.service.note_shed("queue_full")
            return RequestOutcome(
                request.request_id, "shed", error="RequestShed", reason="queue_full"
            )
        self._queue.append(
            _Pending(
                request,
                encoded,
                self.service.start_deadline(request),
                self.service.clock.now(),
            )
        )
        self._gauges()
        return None

    # ------------------------------------------------------------------
    # The scheduler loop
    # ------------------------------------------------------------------
    def step(self) -> list[RequestOutcome]:
        """One scheduling round: retire expired, admit, decode one step."""
        outcomes: list[RequestOutcome] = []
        self._retire_expired(outcomes)
        self._admit(outcomes)
        if not self._slots:
            self._gauges()
            return outcomes

        model = self.service.model
        model.eval()
        prev = np.concatenate([slot.prev for slot in self._slots])
        try:
            with no_grad():
                step_lp, new_state = model.step_log_probs(prev, self._state, self._merged())
        except Exception:  # noqa: BLE001 - shared-step fault: solo path decides
            self._dump_frontier(outcomes)
            self._gauges()
            return outcomes

        self.stats.steps += 1
        self.service.telemetry.counter("serving.engine.steps")
        vocab = self.service.model.decoder_vocab_size
        nan_flags = np.isnan(step_lp)
        step_lp[:, PAD_ID] = -np.inf
        step_lp[:, BOS_ID] = -np.inf

        survivors: list[_Slot] = []
        select_parts: list[np.ndarray] = []
        base = 0
        for slot in self._slots:
            rows = slot.rows
            v_ext = vocab + slot.max_oov
            if nan_flags[base: base + rows, :v_ext].any():
                # Poison isolated to this slot: cohabitants keep decoding.
                self.stats.poisoned += 1
                self.service.telemetry.counter("serving.engine.poisoned")
                nonfinite_sentinel(
                    self.service.telemetry, "decode.logits", float("nan"),
                    phase="continuous", beam_step=slot.steps,
                )
                outcomes.append(self._serve_solo(slot.request, slot.encoded, slot.deadline))
                base += rows
                continue
            block = step_lp[base: base + rows, :v_ext]
            width = len(slot.live)
            totals = block[:width] + slot.live_lp[:width, None]
            eos_picks, continuations = select_step_candidates(
                totals, block[:width], rows
            )
            for source, token_lp in eos_picks:
                grown = slot.live[source].extended(EOS_ID, token_lp, finished=True)
                # The EOS token scores but never surfaces.
                ended = Hypothesis(grown.token_ids[:-1], grown.log_prob, finished=True)
                slot.finished.append(ended)
                slot.best_finished = max(
                    slot.best_finished, ended.score(self.service.config.length_penalty)
                )
            slot.steps += 1
            if not continuations:
                outcomes.append(self._finish(slot))
                base += rows
                continue
            select = np.arange(rows, dtype=np.int64)
            next_prev = np.full(rows, EOS_ID, dtype=np.int64)
            next_lp = np.full(rows, -np.inf)
            new_live: list[Hypothesis] = []
            for j, (source, token, token_lp) in enumerate(continuations):
                grown = slot.live[source].extended(token, token_lp, finished=False)
                new_live.append(grown)
                select[j] = source
                next_prev[j] = token
                next_lp[j] = grown.log_prob
            slot.live = new_live
            slot.prev = next_prev
            slot.live_lp = next_lp
            if slot.steps >= slot.request.max_length or should_stop_row(
                slot.best_finished,
                len(slot.finished),
                [h.log_prob for h in new_live],
                slot.steps,
                rows,
                slot.request.max_length,
                self.service.config.length_penalty,
            ):
                outcomes.append(self._finish(slot))
            else:
                survivors.append(slot)
                select_parts.append(base + select)
            base += rows

        changed = len(survivors) != len(self._slots)
        self._slots = survivors
        if survivors:
            self._state = new_state.select(np.concatenate(select_parts))
        else:
            self._state = None
        if changed:
            self._context = None
        self._gauges()
        return outcomes

    def drain(self) -> list[RequestOutcome]:
        """Step until nothing is queued or in flight."""
        outcomes: list[RequestOutcome] = []
        while self._queue or self._slots:
            outcomes.extend(self.step())
        return outcomes

    # ------------------------------------------------------------------
    # Scheduling phases
    # ------------------------------------------------------------------
    def _retire_expired(self, outcomes: list[RequestOutcome]) -> None:
        """Expired in-flight rows leave *now*; the ladder floor serves them."""
        if not self._slots:
            return
        survivors: list[_Slot] = []
        keep: list[int] = []
        base = 0
        for slot in self._slots:
            if slot.deadline.expired():
                self.stats.expired += 1
                self.service.telemetry.counter("serving.engine.expired")
                outcomes.append(self._serve_solo(slot.request, slot.encoded, slot.deadline))
            else:
                survivors.append(slot)
                keep.extend(range(base, base + slot.rows))
            base += slot.rows
        if len(survivors) != len(self._slots):
            self._slots = survivors
            self._state = (
                self._state.select(np.asarray(keep, dtype=np.int64)) if survivors else None
            )
            self._context = None

    def _admit(self, outcomes: list[RequestOutcome]) -> None:
        admitted = 0
        while self._queue and admitted < self.config.admit_per_step:
            pending = self._queue[0]
            if pending.deadline.expired():
                # Expired while queued: straight to the deadline-blind floor.
                self._queue.popleft()
                self.stats.expired += 1
                self.service.telemetry.counter("serving.engine.expired")
                outcomes.append(
                    self._serve_solo(pending.request, pending.encoded, pending.deadline)
                )
                continue
            rows_needed = pending.request.beam_size
            oversize = (
                rows_needed > self.config.max_rows
                or len(pending.encoded.src_ids) > self.pad_to
            )
            if oversize:
                # Too wide/long for the frontier; the solo path still serves it.
                self._queue.popleft()
                self.stats.oversize += 1
                self.service.telemetry.counter("serving.engine.oversize")
                outcomes.append(
                    self._serve_solo(pending.request, pending.encoded, pending.deadline)
                )
                continue
            if self.frontier_rows + rows_needed > self.config.max_rows:
                break  # no free slots this step; head of queue keeps its turn
            try:
                self.service.breaker.admit()
            except BreakerOpen:
                self._queue.popleft()
                self.service.note_shed("breaker_open")
                outcomes.append(
                    RequestOutcome(
                        pending.request.request_id, "shed", error="BreakerOpen",
                        reason="breaker_open",
                    )
                )
                continue
            self._queue.popleft()
            if self.service.injector is not None:
                self.service.injector.begin_request()
            try:
                solo = self._encode(pending.encoded)
            except Exception:  # noqa: BLE001 - encode fault: solo path decides
                outcomes.append(
                    self._serve_solo(pending.request, pending.encoded, pending.deadline)
                )
                continue
            self._install(pending, solo)
            admitted += 1
            self.stats.frontier_admissions += 1
            self.service.telemetry.counter("serving.engine.admitted")
            self.service.telemetry.observe(
                "serving.queue.wait_seconds",
                max(0.0, self.service.clock.now() - pending.submitted_at),
            )

    def _encode(self, encoded: EncodedExample) -> EncoderContext:
        batch = pad_batch(collate([encoded], pad_id=PAD_ID), self.pad_to)
        model = self.service.model
        model.eval()
        with no_grad():
            return model.encode(batch)

    def _install(self, pending: _Pending, solo: EncoderContext) -> None:
        beam = pending.request.beam_size
        context = expand_encoder_context(solo, beam)
        state = self.service.model.initial_decoder_state(context)
        prev = np.full(beam, BOS_ID, dtype=np.int64)
        live_lp = np.full(beam, -np.inf)
        live_lp[0] = 0.0
        slot = _Slot(
            request=pending.request,
            encoded=pending.encoded,
            deadline=pending.deadline,
            submitted_at=pending.submitted_at,
            context=context,
            max_oov=solo.max_oov,
            rows=beam,
            live=[Hypothesis((), 0.0)],
            prev=prev,
            live_lp=live_lp,
        )
        self._slots.append(slot)
        self._state = state if self._state is None else _concat_states(self._state, state)
        self._context = None
        self.stats.peak_rows = max(self.stats.peak_rows, self.frontier_rows)

    def _merged(self) -> EncoderContext:
        """The frontier's encoder context; rebuilt on membership change."""
        if self._context is None:
            contexts = [slot.context for slot in self._slots]
            self._context = EncoderContext(
                encoder_states=Tensor(
                    np.concatenate([c.encoder_states.data for c in contexts], axis=0)
                ),
                src_pad_mask=np.concatenate([c.src_pad_mask for c in contexts], axis=0),
                src_ext=np.concatenate([c.src_ext for c in contexts], axis=0),
                max_oov=max(c.max_oov for c in contexts),
                initial_states=[],
            )
        return self._context

    # ------------------------------------------------------------------
    # Completion paths
    # ------------------------------------------------------------------
    def _finish(self, slot: _Slot) -> RequestOutcome:
        service = self.service
        pool = slot.finished or [
            Hypothesis(h.token_ids, h.log_prob, finished=False) for h in slot.live
        ]
        best = sorted(pool, key=lambda h: -h.score(service.config.length_penalty))[0]
        top_rung = build_ladder(
            slot.request.beam_size, slot.request.max_length,
            service.config.truncated_length,
        )[0]
        try:
            result = service._build_result(
                slot.request, slot.encoded, best, top_rung,
                attempts=1, started=slot.submitted_at,
            )
        except Exception as error:  # noqa: BLE001 - per-request poison
            service._note_failed()
            return RequestOutcome(
                slot.request.request_id, "failed", error=type(error).__name__
            )
        service.breaker.record_success()
        service._note_served(result)
        if self.stats.note_first_completion(slot.request.request_id):
            self.stats.served_in_frontier += 1
        else:
            self.stats.duplicate_results += 1
        return RequestOutcome(slot.request.request_id, "served", result=result)

    def _serve_solo(
        self,
        request: GenerationRequest,
        encoded: EncodedExample,
        deadline: Deadline,
    ) -> RequestOutcome:
        """The per-request fallback: full ladder, retries, own accounting."""
        self.stats.solo_fallbacks += 1
        self.service.telemetry.counter("serving.engine.solo_fallback")
        try:
            result = self.service.handle_admitted(request, encoded, deadline)
        except BreakerOpen as error:
            return RequestOutcome(
                request.request_id, "shed", error=type(error).__name__,
                reason="breaker_open",
            )
        except RequestFailed as error:
            return RequestOutcome(
                request.request_id, "failed",
                error=type(error.cause).__name__ if error.cause else "unknown",
            )
        return RequestOutcome(request.request_id, "served", result=result)

    def _dump_frontier(self, outcomes: list[RequestOutcome]) -> None:
        """A shared-step fault cannot be attributed to one row: everything
        in flight falls back to the solo path (per-request ladder + retry
        budget, which owns the breaker's failure accounting)."""
        self.stats.frontier_fallbacks += 1
        self.service.telemetry.counter("serving.engine.frontier_fallback")
        slots, self._slots, self._state, self._context = self._slots, [], None, None
        for slot in slots:
            outcomes.append(self._serve_solo(slot.request, slot.encoded, slot.deadline))

    def _gauges(self) -> None:
        tel = self.service.telemetry
        tel.gauge("serving.engine.rows", float(self.frontier_rows))
        tel.gauge("serving.engine.queue_depth", float(self.queue_depth))
