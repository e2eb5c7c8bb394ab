"""The metrics every run reports, with their units.

``END_TO_END`` is what a user of the system sees; each workload reports all
of them from an untraced run. ``PER_LAYER`` comes from one separate traced
run; a workload reports 0 for a layer it does not exercise (the layer is
bypassed on that workload by design, see README.md).
"""

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
}

PER_LAYER = {
    "data.ingest_records_per_s": "1/s",
    "data.batch_wait_ms": "ms",
    "models.loss_ms": "ms",
    "models.encode_ms": "ms",
    "models.encode_calls": "count",
    "models.step_ms": "ms",
    "models.step_calls": "count",
    "models.step_rows_mean": "count",
    "tensor.backward_ms": "ms",
    "tensor.tape_nodes": "count",
    "optim.step_ms": "ms",
    "training.other_ms": "ms",
    "decoding.search_ms": "ms",
    "decoding.bookkeeping_ms": "ms",
    "decoding.steps_per_batch": "count",
    "serving.engine_step_ms": "ms",
    "serving.row_fill": "ratio",
    "serving.queue_wait_p50_ms": "ms",
    "serving.queue_wait_p99_ms": "ms",
    "serving.pad_efficiency": "ratio",
    "serving.encode_share": "ratio",
    "serving.cache_hit_rate": "ratio",
    "serving.solo_fallbacks": "count",
    "serving.expired": "count",
    "pool.pump_ms": "ms",
    "pool.pumps_per_request": "count",
    "pool.coordinator_cpu_s": "s",
    "pool.worker_cpu_s": "s",
    "pool.in_flight_mean": "count",
    "pool.redispatched": "count",
    "pool.worker_deaths": "count",
    "pool.worker_rss_mb_before_reload": "MB",
    "pool.worker_rss_mb_after_reload": "MB",
    "pool.reload_s": "s",
    "elastic.coordinator_cpu_s": "s",
    "elastic.worker_cpu_s": "s",
    "elastic.worker_rss_mb": "MB",
    "trace_overhead_share": "ratio",
}

# Mean span durations read from the traced hub: metric -> program span.
SPAN_MEANS = {
    "models.loss_ms": "forward",
    "tensor.backward_ms": "backward",
    "optim.step_ms": "optimizer_step",
    "decoding.search_ms": "decoding.search",
}
