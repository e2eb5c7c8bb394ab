"""``decode_sentence.beam3``: the sentence-mode test split decoded in batches
of 32 through ``batched_beam_decode(beam_size=3)``.

Sources are short (~10 tokens) and nothing takes a gradient, so per-step
dispatch and the Python beam bookkeeping dominate; backward, the
optimizer, the encoder cache, the serving engine and the pool are all
bypassed. The model is trained for one epoch in set-up. Each pass decodes
the same batches, so every pass must produce the same outputs.
"""

from __future__ import annotations

from repro.data import QGDataset, collate
from repro.decoding import batched_beam_decode, beam_decode_example
from repro.tensor.core import no_grad

import inputs
from harness import (
    NULL,
    Phase,
    TimedModel,
    Workload,
    digest,
    is_traced,
    mean,
    model_layers,
    now,
    run_for,
    same_output,
    upper_quartile,
)

CHECK_SAMPLE = 8
BEAM_SIZE = 3


class DecodeBeam3(Workload):
    name = "decode_sentence.beam3"
    why = "short sources, batched beam 3: Python beam bookkeeping next to the step"

    def setup(self, tel) -> None:
        self.bundle = inputs.trained_sentence_model(
            self.seed, self.scale, self.scale.test_sentences
        )
        test = QGDataset(self.bundle.test, self.bundle.encoder_vocab, self.bundle.decoder_vocab)
        self.encoded = test.encoded
        self.batches = [
            collate(test.encoded[i: i + inputs.BATCH_SIZE], 0)
            for i in range(0, len(test.encoded), inputs.BATCH_SIZE)
        ]
        self.pass_digests: list[str] = []
        self.first_pass: list = []

    def decode(self, model, batch, tel):
        return batched_beam_decode(
            model, batch, beam_size=BEAM_SIZE, max_length=inputs.DECODE_MAX_LENGTH, telemetry=tel
        )

    def measure(self, seconds: float, tel) -> Phase:
        phase = Phase()
        traced = is_traced(tel)
        self.decode(self.bundle.model, self.batches[0], NULL)  # warm-up, unmeasured
        model = TimedModel(self.bundle.model, tel) if traced else self.bundle.model

        pass_times: list[list[float]] = []

        def one_pass() -> None:
            outputs = []
            times = []
            for batch in self.batches:
                with tel.span("decoding.search"):
                    start = now()
                    hypotheses = self.decode(model, batch, tel)
                    times.append(now() - start)
                outputs.append([(h.token_ids, h.log_prob) for h in hypotheses])
                phase.attempted += batch.size
            pass_times.append(times)
            if not self.first_pass:
                self.first_pass = outputs
            self.pass_digests.append(digest(outputs))

        phase.seconds = run_for(seconds, one_pass)
        # Each batch at its upper-quartile time over the passes: the latency
        # of each batch, and sentences per second of one pass.
        phase.latencies = upper_quartile(pass_times)
        phase.rate = len(self.encoded) / sum(phase.latencies)
        if traced:
            encode, step = model.encode_counter, model.step_counter
            batches = sum(map(len, pass_times))
            search = sum(map(sum, pass_times))
            phase.layers.update(model_layers(model))
            phase.layers.update(
                {
                    "decoding.steps_per_batch": step.calls / max(1, batches),
                    "decoding.bookkeeping_ms": 1000.0
                    * (search - encode.seconds - step.seconds)
                    / max(1, batches),
                }
            )
            phase.counts["models.step"] = {"rows": float(step.work)}
            phase.counts["models.encode"] = {"examples": float(encode.work)}
        return phase

    def check(self) -> None:
        """Repeated passes agree, and the batched beam equals the
        per-example beam over the same encoded batch."""
        if len(set(self.pass_digests)) > 1:
            self.fail("repeated passes over the same batches decoded differently")
        batch = self.batches[0]
        model = self.bundle.model
        model.eval()
        with no_grad():
            context = model.encode(batch)
            expected = [
                beam_decode_example(
                    model, context, index, beam_size=BEAM_SIZE, max_length=inputs.DECODE_MAX_LENGTH
                )
                for index in range(min(CHECK_SAMPLE, batch.size))
            ]
        for index, (want, got) in enumerate(zip(expected, self.first_pass[0])):
            if not same_output((want.token_ids, want.log_prob), got):
                self.fail(f"example {index} differs from the reference decode")

    def inputs(self) -> dict:
        lengths = [len(example.src_ids) for example in self.encoded]
        return {
            "sentences": len(lengths),
            "batches": len(self.batches),
            "source_tokens_mean": mean(lengths),
            "source_tokens_max": max(lengths),
            "max_length": inputs.DECODE_MAX_LENGTH,
            "output_tokens_mean": mean(
                len(tokens) for batch in self.first_pass for tokens, _ in batch
            ),
        }

    def output_digest(self) -> str:
        return self.pass_digests[0] if self.pass_digests else ""
