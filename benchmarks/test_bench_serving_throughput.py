"""Serving throughput benchmark: engine (batching + workers) vs naive per-request.

Acceptance benchmark for `repro.serving`: the same request stream is served

* **naively** — one synchronous `CompiledPipeline.infer` call per request, the
  way the experiment scripts would; and
* **through the engine** — concurrent submission into the dynamic micro-batch
  queue with patch-parallel workers.

Recorded numbers: requests/sec plus p50/p99 per-request latency for both
paths.  Batching amortizes the per-call Python/dispatch overhead across the
micro-batch, so the engine must beat naive execution on throughput.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import QuantMCUPipeline
from repro.models import build_model
from repro.runtime import ExecutionPolicy, threads
from repro.serving import (
    InferenceEngine,
    ModelSpec,
    RequestRecord,
    TelemetryRecorder,
    compile_pipeline,
)

NUM_REQUESTS = 32
RESOLUTION = 32


def _compiled_pipeline():
    rng = np.random.default_rng(0)
    model = build_model("mobilenetv2", resolution=RESOLUTION, num_classes=4, width_mult=0.35, seed=3)
    calib = rng.standard_normal((4, 3, RESOLUTION, RESOLUTION)).astype(np.float32)
    pipeline = QuantMCUPipeline(model, sram_limit_bytes=64 * 1024, num_patches=2)
    result = pipeline.run(calib)
    spec = ModelSpec("mobilenetv2", RESOLUTION, 4, 0.35, 3)
    return compile_pipeline(pipeline, result, spec=spec)


def _requests() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.standard_normal((NUM_REQUESTS, 3, RESOLUTION, RESOLUTION)).astype(np.float32)


def _naive_serve(compiled, xs: np.ndarray) -> TelemetryRecorder:
    telemetry = TelemetryRecorder()
    for i in range(len(xs)):
        start = time.perf_counter()
        compiled.infer(xs[i : i + 1])
        end = time.perf_counter()
        telemetry.record_request(
            RequestRecord(
                request_id=i,
                queue_seconds=0.0,
                service_seconds=end - start,
                total_seconds=end - start,
                batch_size=1,
            ),
            completed_at=end,
        )
        telemetry.record_batch(1)
    return telemetry


def _engine_serve(compiled, xs: np.ndarray) -> TelemetryRecorder:
    with InferenceEngine(
        compiled,
        max_batch_size=8,
        batch_timeout_s=0.002,
        policy=ExecutionPolicy(placement=threads()),
    ) as engine:
        futures = [engine.submit(xs[i]) for i in range(len(xs))]
        for future in futures:
            future.result(timeout=120)
    return engine.telemetry


def test_bench_serving_engine_vs_naive(bench_once):
    compiled = _compiled_pipeline()
    xs = _requests()
    compiled.infer(xs[:1])  # warm-up outside the timed region

    # Best of two runs per path: damps scheduler noise on loaded CI runners
    # without weakening the acceptance assertion below.
    naive = max(
        (_naive_serve(compiled, xs).snapshot() for _ in range(2)),
        key=lambda snap: snap.requests_per_second,
    )
    engine_runs = [bench_once(_engine_serve, compiled, xs).snapshot()]
    engine_runs.append(_engine_serve(compiled, xs).snapshot())
    engine = max(engine_runs, key=lambda snap: snap.requests_per_second)
    compiled.close()

    print()
    print(f"{'':14}{'req/s':>10}{'p50 ms':>10}{'p99 ms':>10}{'mean batch':>12}")
    for name, snap in [("naive", naive), ("engine", engine)]:
        print(
            f"{name:14}{snap.requests_per_second:>10.1f}{snap.latency_p50_ms:>10.1f}"
            f"{snap.latency_p99_ms:>10.1f}{snap.mean_batch_size:>12.2f}"
        )

    assert naive.num_requests == engine.num_requests == NUM_REQUESTS
    # Acceptance: batching + worker pool beats naive per-request execution.
    assert engine.requests_per_second > naive.requests_per_second
    assert engine.mean_batch_size > 1.0
