"""``serve_mixed.*``: a closed loop of 8 callers over the serving stack.

Each caller sends its next request when the previous one returns. Half the
requests come from a hot set of 20 test sentences (the encoder cache can
serve them), half are unique (every encode is a miss). Beam 1 or 3 and
``max_length`` 12 or 20 are mixed; deadlines are the service default.
The closed loop keeps load steady on a small host: a slower system simply
receives fewer requests.

The measured window replays one fixed list of requests, drawn from
``--seed`` in set-up, again and again, each replay on a fresh engine (or a
fresh pool) with an empty encoder cache, so every replay is the same work
and each request and each stretch of completions can be timed several
times.
"""

from __future__ import annotations

import copy
import gc
import os

from repro.data import collate
from repro.decoding import batched_beam_decode, extended_ids_to_tokens
from repro.serving import (
    ContinuousBatchingEngine,
    EncoderStateCache,
    InferenceService,
    PoolConfig,
    ServingPool,
)
from repro.serving.cache import pad_batch
from repro.serving.ladder import build_ladder
from repro.training.checkpoint import save_checkpoint

import inputs
from harness import (
    NULL,
    Counter,
    Phase,
    TimedModel,
    Workload,
    clear_trace,
    digest,
    is_traced,
    mean,
    model_layers,
    now,
    percentile,
    proc_cpu_seconds,
    proc_rss_mb,
    run_for,
    same_output,
    self_cpu,
    upper_quartile,
)

CALLERS = 8
CACHE_SIZE = 128
POOL_WORKERS = 2
CHECK_SAMPLE = 12
SEGMENTS = 8


class _Sent:
    __slots__ = ("request", "hot", "submitted", "first_slot")

    def __init__(self, request, hot: bool, submitted: float) -> None:
        self.request = request
        self.hot = hot
        self.submitted = submitted
        self.first_slot: float | None = None


class ClosedLoop:
    """Drives ``CALLERS`` callers through ``submit``/``pump`` from one thread.

    ``source`` returns the next ``(request, hot)`` pair to send.
    """

    def __init__(self, source, submit, pump) -> None:
        self.source = source
        self.submit = submit
        self.pump = pump
        self.in_flight: dict[str, _Sent] = {}
        self.completed = 0

    def _send(self, done: list) -> None:
        request, hot = self.source()
        sent = _Sent(request, hot, now())
        self.in_flight[request.request_id] = sent
        immediate = self.submit(request)
        if immediate is not None:
            done.append(immediate)

    def run(self, keep_sending, on_pump=None) -> list[tuple[_Sent, object, float]]:
        """Run until ``keep_sending(elapsed, sent)`` turns false and every
        request has returned; returns (sent, outcome, finished_at) rows.
        ``on_pump(loop, at)`` is called after every pump."""
        rows = []
        immediate: list = []
        issued = 0
        start = now()
        for _ in range(CALLERS):
            if keep_sending(0.0, issued):
                self._send(immediate)
                issued += 1
        while self.in_flight:
            outcomes = immediate + self.pump()
            immediate = []
            finished_at = now()
            if on_pump is not None:
                on_pump(self, finished_at)
            for outcome in outcomes:
                sent = self.in_flight.pop(outcome.request_id)
                rows.append((sent, outcome, finished_at))
                self.completed += 1
                if keep_sending(finished_at - start, issued):
                    self._send(immediate)
                    issued += 1
        return rows


def send_all(requests, submit, pump, on_pump=None) -> list[tuple[_Sent, object, float]]:
    """Send a fixed list of ``(request, hot)`` pairs through a closed loop."""
    loop = ClosedLoop(iter(requests).__next__, submit, pump)
    return loop.run(lambda elapsed, issued: issued < len(requests), on_pump)


class Replay:
    """One closed-loop pass over the workload's fixed request list.

    ``latencies`` are in list order, so the same request lines up across
    replays; ``stretches`` are the durations of ``SEGMENTS`` consecutive
    stretches of completions (the first starts with the replay).
    """

    def __init__(self, requests, submit, pump, on_pump=None) -> None:
        start = now()
        self.rows = send_all(requests, submit, pump, on_pump)
        self.wall = now() - start
        position = {request.request_id: index for index, (request, _) in enumerate(requests)}
        self.latencies = [0.0] * len(requests)
        for sent, _, done in self.rows:
            self.latencies[position[sent.request.request_id]] = done - sent.submitted
        times = sorted(done - start for _, _, done in self.rows)
        edges = [0.0] + [times[len(times) * (s + 1) // SEGMENTS - 1] for s in range(SEGMENTS)]
        self.stretches = [b - a for a, b in zip(edges, edges[1:])]


def _phase_from_replays(replays: list[Replay], seconds: float) -> Phase:
    """Each request's latency at its upper quartile over the replays, and
    requests per second of one replay with each stretch at its upper
    quartile."""
    phase = Phase()
    phase.seconds = seconds
    for replay in replays:
        phase.attempted += len(replay.rows)
        phase.failed += sum(_degraded(sent.request, outcome) for sent, outcome, _ in replay.rows)
    phase.latencies = upper_quartile([replay.latencies for replay in replays])
    stretches = upper_quartile([replay.stretches for replay in replays])
    phase.rate = len(phase.latencies) / sum(stretches)
    return phase


def _served_tokens(outcome):
    return (outcome.result.tokens, outcome.result.log_prob) if outcome.status == "served" else None


def _degraded(request, outcome) -> bool:
    """Not served at the request's own rung: shed, rejected, failed, or
    pushed down the degradation ladder by its deadline or a fault."""
    if outcome.status != "served":
        return True
    return outcome.result.rung != build_ladder(request.beam_size, request.max_length)[0].name


class _ServeMixed(Workload):
    def setup(self, tel) -> None:
        self.bundle = inputs.trained_sentence_model(
            self.seed, self.scale, self.scale.request_sentences
        )
        self.stream = inputs.RequestStream(self.seed, inputs.distinct_sentences(self.bundle.test))
        self.warmup = [self.stream.next() for _ in range(self.scale.warmup_requests)]
        self.requests = [self.stream.next() for _ in range(self.scale.replay_requests)]
        self.window_rows: list = []
        self.replays = 0
        self.hits = 0
        self.lookups = 0

    def _warm_up(self, submit, pump, tel) -> None:
        send_all(self.warmup, submit, pump)
        clear_trace(tel)

    def _direct_service(self, model) -> InferenceService:
        return InferenceService(
            model, self.bundle.encoder_vocab, self.bundle.decoder_vocab, telemetry=NULL
        )

    def _engine_outputs(self, model, requests) -> dict[str, tuple]:
        """The same requests through a fresh in-process engine."""
        engine = ContinuousBatchingEngine(self._direct_service(model))
        outcomes = []
        for request in requests:
            immediate = engine.submit(request)
            if immediate is not None:
                outcomes.append(immediate)
        outcomes.extend(engine.drain())
        return {outcome.request_id: _served_tokens(outcome) for outcome in outcomes}

    def _sample(self, rows):
        served = [row for row in rows if row[1].status == "served"]
        served.sort(key=lambda row: int(row[0].request.request_id.split("-")[1]))
        return served[:CHECK_SAMPLE]

    def inputs(self) -> dict:
        rows = self.window_rows
        validator = self._direct_service(self.bundle.model).validator
        lengths = [len(validator.admit(sent.request).src_ids) for sent, _, _ in rows]
        requests = [sent.request for sent, _, _ in rows]
        share = lambda test: sum(map(test, requests)) / max(1, len(requests))  # noqa: E731
        return {
            "requests_per_replay": len(rows),
            "replays": self.replays,
            "callers": CALLERS,
            "source_tokens_mean": mean(lengths),
            "source_tokens_max": max(lengths, default=0),
            "hot_share": sum(sent.hot for sent, _, _ in rows) / max(1, len(rows)),
            "cache_hit_share": self.hits / self.lookups if self.lookups else None,
            "beam3_share": share(lambda r: r.beam_size == 3),
            "max_length_20_share": share(lambda r: r.max_length == 20),
            "unique_reused": self.stream.unique_reused,
            "output_tokens_mean": mean(
                len(outcome.result.tokens) for _, outcome, _ in rows if outcome.status == "served"
            ),
        }

    def output_digest(self) -> str:
        # Tokens only: a log-prob may differ in its last bits with the
        # frontier's cohabitants, which in the pool depend on timing.
        return digest(
            (sent.request, outcome.result.tokens)
            for sent, outcome, _ in self._sample(self.window_rows)
        )


class ServeEngine(_ServeMixed):
    name = "serve_mixed.engine"
    why = "8 closed-loop callers replaying a hot/unique mix: InferenceService + EncoderStateCache(128) + ContinuousBatchingEngine"

    def _new_engine(self, model, tel):
        """A fresh engine over a fresh, empty encoder cache."""
        cache = EncoderStateCache(CACHE_SIZE, telemetry=tel)
        service = InferenceService(
            model,
            self.bundle.encoder_vocab,
            self.bundle.decoder_vocab,
            telemetry=tel,
            encoder_cache=cache,
        )
        return ContinuousBatchingEngine(service), cache

    def measure(self, seconds: float, tel) -> Phase:
        traced = is_traced(tel)
        model = TimedModel(self.bundle.model, tel) if traced else self.bundle.model
        engine, _ = self._new_engine(model, tel)
        self._warm_up(engine.submit, engine.step, tel)
        self.pad_to = engine.pad_to
        if traced:
            model.encode_counter.reset()
            model.step_counter.reset()
        steps = Counter()
        queue_waits: list[float] = []
        replays: list[Replay] = []
        solo = expired = 0

        def on_pump(loop: ClosedLoop, at: float) -> None:
            for request_id, _, _ in engine.slot_table():
                sent = loop.in_flight.get(request_id)
                if sent is not None and sent.first_slot is None:
                    sent.first_slot = at
                    queue_waits.append(at - sent.submitted)

        def pump():
            with tel.span("serving.engine_step"):
                start = now()
                outcomes = engine.step()
                steps.add(now() - start)
            return outcomes

        def replay() -> None:
            nonlocal engine, solo, expired
            # Free the previous replay's engine and cache first: left to the
            # cyclic collector, they lingered for a varying time and peak RSS
            # ranged 117-133 MB over ten runs (116.8-117.2 MB with this).
            engine = None
            gc.collect()
            engine, cache = self._new_engine(model, tel)
            replays.append(
                Replay(self.requests, engine.submit, pump, on_pump if traced else None)
            )
            self.hits += cache.stats.hits
            self.lookups += cache.stats.hits + cache.stats.misses
            solo += engine.stats.solo_fallbacks
            expired += engine.stats.expired

        self.hits = self.lookups = 0
        phase = _phase_from_replays(replays, run_for(seconds, replay))
        self.window_rows = replays[0].rows
        self.replays = len(replays)
        if traced:
            encode, step = model.encode_counter, model.step_counter
            rows = [row for replay in replays for row in replay.rows]
            sources = [
                len(engine.service.validator.admit(sent.request).src_ids) for sent, _, _ in rows
            ]
            phase.layers.update(model_layers(model))
            phase.layers.update(
                {
                    "serving.engine_step_ms": 1000.0 * steps.seconds / max(1, steps.calls),
                    "serving.row_fill": step.work / max(1, step.calls) / engine.config.max_rows,
                    "serving.queue_wait_p50_ms": 1000.0 * percentile(queue_waits, 50),
                    "serving.queue_wait_p99_ms": 1000.0 * percentile(queue_waits, 99),
                    "serving.pad_efficiency": mean(sources) / engine.pad_to,
                    "serving.encode_share": encode.seconds / sum(r.wall for r in replays),
                    "serving.cache_hit_rate": self.hits / max(1, self.lookups),
                    "serving.solo_fallbacks": float(solo),
                    "serving.expired": float(expired),
                }
            )
            phase.counts["models.step"] = {"rows": float(step.work)}
            phase.counts["models.encode"] = {"misses": float(encode.calls)}
            phase.counts["serving.engine_step"] = {"requests": float(len(rows))}
        return phase

    def check(self) -> None:
        """Engine outputs equal a direct batched beam decode of the same
        request at the engine's padded width."""
        service = self._direct_service(self.bundle.model)
        for sent, outcome, _ in self._sample(self.window_rows):
            request = sent.request
            if _degraded(request, outcome):
                continue  # counted as failed; not decoded by the frontier
            encoded = service.validator.admit(request)
            batch = pad_batch(collate([encoded], 0), self.pad_to)
            hypothesis = batched_beam_decode(
                self.bundle.model,
                batch,
                beam_size=request.beam_size,
                max_length=request.max_length,
                length_penalty=service.config.length_penalty,
                telemetry=NULL,
            )[0]
            tokens = tuple(
                extended_ids_to_tokens(
                    hypothesis.token_ids, self.bundle.decoder_vocab, encoded.oov_tokens
                )
            )
            if not same_output((tokens, hypothesis.log_prob), _served_tokens(outcome)):
                self.fail(f"engine output for {request.request_id} differs from direct decode")


class ServePool(_ServeMixed):
    name = "serve_mixed.pool"
    why = "the same replays through ServingPool(2 workers, cache 128), then a hot reload under load"

    def setup(self, tel) -> None:
        super().setup(tel)
        self.reloaded = inputs.fine_tuned_copy(self.bundle, self.seed)
        self.checkpoint = os.path.join(self.workdir, "reload")
        save_checkpoint(self.checkpoint, self.reloaded)
        self.pool = self._start_pool(tel)
        self.fingerprint = self.pool.fingerprint
        self.reload_rows: list = []
        self.reload_returned: float | None = None

    def _start_pool(self, tel) -> ServingPool:
        pool = ServingPool(
            copy.deepcopy(self.bundle.model),
            self.bundle.encoder_vocab,
            self.bundle.decoder_vocab,
            config=PoolConfig(workers=POOL_WORKERS),
            telemetry=tel,
            cache_size=CACHE_SIZE,
        )
        pool.start()
        return pool

    def close(self) -> None:
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.shutdown()

    def _pump(self, tel, pumps: Counter, in_flight: list[int]):
        pool = self.pool

        def pump():
            with tel.span("pool.pump"):
                start = now()
                outcomes = pool.pump()
                pumps.add(now() - start)
            in_flight.append(pool.in_flight)
            return outcomes

        return pump

    def measure(self, seconds: float, tel) -> Phase:
        self.pool.telemetry = tel
        self._warm_up(self.pool.submit, self._pump(tel, Counter(), []), tel)
        pumps = Counter()
        in_flight: list[int] = []
        replays: list[Replay] = []
        cpu = {"coordinator": 0.0, "workers": 0.0}
        faults = {"redispatched": 0, "worker_deaths": 0}

        def replay() -> None:
            # Fresh workers, so every replay starts from empty encoder caches.
            self.pool.shutdown()
            self.pool = self._start_pool(tel)
            pids = self.pool.live_worker_pids()
            workers0 = sum(proc_cpu_seconds(pid) for pid in pids)
            coordinator0 = self_cpu()
            replays.append(Replay(self.requests, self.pool.submit, self._pump(tel, pumps, in_flight)))
            cpu["coordinator"] += self_cpu() - coordinator0
            cpu["workers"] += sum(proc_cpu_seconds(pid) for pid in pids) - workers0
            for name in faults:
                faults[name] += getattr(self.pool.stats, name)

        phase = _phase_from_replays(replays, run_for(seconds, replay))
        self.window_rows = replays[0].rows
        self.replays = len(replays)
        if is_traced(tel):
            requests = sum(len(replay.rows) for replay in replays)
            per_k = 1000.0 / max(1, requests)
            phase.layers.update(
                {
                    "pool.pump_ms": 1000.0 * pumps.seconds / max(1, pumps.calls),
                    "pool.pumps_per_request": pumps.calls / max(1, requests),
                    "pool.coordinator_cpu_s": cpu["coordinator"] * per_k,
                    "pool.worker_cpu_s": cpu["workers"] * per_k,
                    "pool.in_flight_mean": mean(in_flight),
                    "pool.redispatched": float(faults["redispatched"]),
                    "pool.worker_deaths": float(faults["worker_deaths"]),
                }
            )
            phase.counts["pool.pump"] = {"requests": float(requests)}
        return phase

    def after(self, tel) -> dict[str, float]:
        """The reload phase: one ``reload_weights`` to the checkpoint saved
        in set-up while the same closed loop keeps sending."""
        pool = self.pool
        loop = ClosedLoop(self.stream.next, pool.submit, self._pump(tel, Counter(), []))
        rss_before = max(proc_rss_mb(pid) for pid in pool.live_worker_pids())
        reload: dict = {}

        def keep_sending(elapsed: float, issued: int) -> bool:
            if not reload and loop.completed >= self.scale.reload_after:
                with tel.span("pool.reload"):
                    start = now()
                    reload["fingerprint"] = pool.reload_weights(self.checkpoint)
                    reload["seconds"] = now() - start
                reload["issued_at"] = issued
                self.reload_returned = now()
            return not reload or issued < reload["issued_at"] + self.scale.reload_tail

        self.reload_rows = loop.run(keep_sending)
        self.reload_fingerprint = reload.get("fingerprint")
        self.reload_seconds = reload.get("seconds", 0.0)
        rss_after = max(proc_rss_mb(pid) for pid in pool.live_worker_pids())
        return {
            "pool.reload_s": self.reload_seconds,
            "pool.worker_rss_mb_before_reload": rss_before,
            "pool.worker_rss_mb_after_reload": rss_after,
        }

    def check(self) -> None:
        pool = self.pool
        sample = self._sample(self.window_rows)
        expected = self._engine_outputs(self.bundle.model, [sent.request for sent, _, _ in sample])
        for sent, outcome, _ in sample:
            if not same_output(expected.get(outcome.request_id), _served_tokens(outcome)):
                self.fail(f"pool output for {outcome.request_id} differs from the engine")
        if self.reload_fingerprint is None:
            self.fail("the reload phase never reloaded")
            return
        known = {self.fingerprint, self.reload_fingerprint}
        by_fingerprint: dict[str, list] = {fp: [] for fp in known}
        for sent, outcome, _ in self.reload_rows:
            if outcome.fingerprint not in known:
                self.fail(f"{outcome.request_id} carries fingerprint {outcome.fingerprint!r}")
                continue
            if sent.submitted > self.reload_returned and outcome.fingerprint != self.reload_fingerprint:
                self.fail(f"{outcome.request_id} sent after the reload was served by old weights")
            by_fingerprint[outcome.fingerprint].append((sent, outcome))
        if not by_fingerprint[self.reload_fingerprint]:
            self.fail("no reload-phase response came from the new weights")
        models = {self.fingerprint: self.bundle.model, self.reload_fingerprint: self.reloaded}
        for fingerprint, rows in by_fingerprint.items():
            sample = [row for row in rows if row[1].status == "served"][:CHECK_SAMPLE // 2]
            expected = self._engine_outputs(models[fingerprint], [sent.request for sent, _ in sample])
            for sent, outcome in sample:
                if not same_output(expected.get(outcome.request_id), _served_tokens(outcome)):
                    self.fail(f"reload-phase output for {outcome.request_id} differs from the engine")
        stats = pool.stats
        if pool.queue_depth or pool.in_flight or stats.finished != stats.submitted:
            self.fail(
                f"pool ledger does not balance: submitted {stats.submitted}, "
                f"finished {stats.finished}, queued {pool.queue_depth}, in flight {pool.in_flight}"
            )
