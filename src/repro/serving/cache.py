"""Bounded LRU cache of encoded source states, keyed by content hash.

Millions of users asking about the same passages re-run the same encoder
over the same tokens. The cache sits directly in front of the encoder
(:class:`CachedEncoderModel` is a model proxy, so every decode path —
ladder rungs, the micro-batcher's solo fallback, the continuous engine —
hits it without knowing it exists) and stores the full
:class:`~repro.models.base.EncoderContext` of single-example batches.

The contract is **byte identity**: a cache hit must produce bit-identical
decode outputs to a miss. Three design points guarantee it:

- the key is a SHA-256 over everything the encode depends on — the
  encoder-vocabulary ids, the extended-vocabulary ids (two sources can
  share ``src_ids`` while differing in which tokens are copy-visible),
  the padded source width, and a fingerprint of the model's weights and
  configuration;
- stored contexts are frozen (every backing array is marked read-only),
  so a later request cannot mutate what an earlier one cached;
- the fingerprint changes when the weights change, so stale states from
  old weights can never poison decodes against new ones
  (:meth:`EncoderStateCache.refresh` re-hashes and drops every entry on
  drift).

Hits, misses, evictions and invalidations are counted both locally
(:class:`CacheStats`) and through telemetry (``serving.cache.*``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.data.batching import Batch
from repro.data.vocabulary import PAD_ID
from repro.models.base import EncoderContext
from repro.observability import get_telemetry

__all__ = [
    "fingerprint_model",
    "pad_batch",
    "CacheStats",
    "EncoderStateCache",
    "CachedEncoderModel",
]


def fingerprint_model(model) -> str:
    """SHA-256 of the model's identity: class, shapes, and every weight byte.

    Any weight change — fine-tuning, quantization, a corrupted load —
    yields a different fingerprint, which keys cached encoder states to
    the exact parameters that produced them.
    """
    digest = hashlib.sha256()
    digest.update(type(model).__name__.encode())
    digest.update(str(getattr(model, "decoder_vocab_size", "")).encode())
    for name, param in sorted(model.named_parameters(), key=lambda item: item[0]):
        digest.update(name.encode())
        digest.update(str(param.data.shape).encode())
        digest.update(str(param.data.dtype).encode())
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()


def pad_batch(batch: Batch, width: int) -> Batch:
    """Pad every source-axis array of ``batch`` out to ``width`` positions.

    The LSTM encoder carries state through padded positions unchanged and
    emits zeros there, and attention masks them to exactly zero weight, so
    the padded positions are numerically inert — but a *fixed* width is
    what makes the continuous engine's frontier byte-stable: every request
    decodes at the same source width whether it runs alone or next to
    requests of other lengths. The encoder skips its recurrence at columns
    where every row pads, so the added columns cost the encode only their
    share of the input projection.
    """
    current = batch.src.shape[1]
    if current == width:
        return batch
    if current > width:
        raise ValueError(f"cannot pad a width-{current} batch down to {width}")
    extra = width - current

    def pad(array: np.ndarray, value) -> np.ndarray:
        return np.pad(array, ((0, 0), (0, extra)), constant_values=value)

    return Batch(
        src=pad(batch.src, PAD_ID),
        src_pad_mask=pad(batch.src_pad_mask, True),
        src_ext=pad(batch.src_ext, PAD_ID),
        tgt_input=batch.tgt_input,
        tgt_output=batch.tgt_output,
        tgt_pad_mask=batch.tgt_pad_mask,
        att_allowed=batch.att_allowed,
        copy_match=np.pad(batch.copy_match, ((0, 0), (0, 0), (0, extra))),
        answer_mask=pad(batch.answer_mask, 0.0),
        oov_tokens=batch.oov_tokens,
        examples=batch.examples,
    )


def _freeze(context: EncoderContext) -> EncoderContext:
    """Mark every backing array read-only; cached state must be immutable."""
    context.encoder_states.data.flags.writeable = False
    context.src_pad_mask.flags.writeable = False
    context.src_ext.flags.writeable = False
    for h, c in context.initial_states:
        h.data.flags.writeable = False
        c.data.flags.writeable = False
    return context


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class EncoderStateCache:
    """Bounded LRU of :class:`EncoderContext` by content-hash key.

    Bind it to a model once (:meth:`bind`); every lookup key then carries
    that model's weight fingerprint. After a weight change, call
    :meth:`refresh` — the fingerprint moves and every cached entry is
    dropped, which is what keeps a warm cache from serving stale encoder
    states against new weights.
    """

    def __init__(self, capacity: int = 128, telemetry=None) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.stats = CacheStats()
        self._entries: OrderedDict[str, EncoderContext] = OrderedDict()
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            raise RuntimeError("cache is not bound to a model; call bind(model) first")
        return self._fingerprint

    def bind(self, model) -> str:
        """Fingerprint ``model`` and key all future lookups to it."""
        self._fingerprint = fingerprint_model(model)
        return self._fingerprint

    def refresh(self, model) -> bool:
        """Re-fingerprint after a (possible) weight change.

        Returns True when the weights drifted; the cache is then emptied —
        entries encoded under the old weights are unreachable via the new
        keys anyway, and keeping them would only squat the LRU budget.
        """
        old = self._fingerprint
        new = self.bind(model)
        if old is not None and old != new:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += dropped
            if dropped:
                self.telemetry.counter("serving.cache.invalidation", dropped)
            return True
        return False

    # ------------------------------------------------------------------
    def key_for(self, batch: Batch) -> str:
        """The content key of a single-example batch at its padded width."""
        example = batch.examples[0]
        digest = hashlib.sha256()
        digest.update(self.fingerprint.encode())
        digest.update(str(batch.src.shape[1]).encode())
        digest.update(np.asarray(example.src_ids, dtype=np.int64).tobytes())
        digest.update(np.asarray(example.src_ext_ids, dtype=np.int64).tobytes())
        digest.update(np.asarray(example.answer_positions, dtype=np.int64).tobytes())
        return digest.hexdigest()

    def get(self, key: str) -> EncoderContext | None:
        context = self._entries.get(key)
        if context is None:
            self.stats.misses += 1
            self.telemetry.counter("serving.cache.miss")
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.telemetry.counter("serving.cache.hit")
        return context

    def put(self, key: str, context: EncoderContext) -> None:
        self._entries[key] = _freeze(context)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self.telemetry.counter("serving.cache.eviction")
        self.telemetry.gauge("serving.cache.size", float(len(self._entries)))

    def __len__(self) -> int:
        return len(self._entries)

    def as_dict(self) -> dict:
        payload = self.stats.as_dict()
        payload["size"] = len(self._entries)
        payload["capacity"] = self.capacity
        return payload


class CachedEncoderModel:
    """A :class:`QuestionGenerator` proxy that memoizes single-example encodes.

    Only ``encode`` is intercepted, and only for ``batch.size == 1`` (the
    shape every serving path produces: solo ladder decodes and the
    continuous engine's per-request admission encodes). Multi-example
    training/eval batches pass straight through. Everything else delegates
    to the wrapped model, so the proxy composes with the fault-injection
    seam: stacked as ``FaultInjectingModel(CachedEncoderModel(model))``,
    injected encode faults still fire whether or not the lookup hits.
    """

    def __init__(self, model, cache: EncoderStateCache) -> None:
        self._model = model
        self.cache = cache
        cache.bind(model)

    def __getattr__(self, name: str):
        return getattr(self._model, name)

    def encode(self, batch: Batch) -> EncoderContext:
        if batch.size != 1:
            return self._model.encode(batch)
        key = self.cache.key_for(batch)
        context = self.cache.get(key)
        if context is None:
            context = self._model.encode(batch)
            self.cache.put(key, context)
        return context
