"""Serving demo: compile a quantized model and serve concurrent requests.

This walks the `repro.serving` subsystem end to end:

1. build and quantize a small MobileNetV2 with QuantMCU;
2. compile it into an immutable :class:`CompiledPipeline` (and round-trip it
   through ``save``/``load`` to show the artifact is self-contained);
3. stand up an :class:`InferenceEngine` with dynamic micro-batching, its
   patch stage sharded over host worker threads;
4. fire concurrent requests from client threads and print the telemetry
   (throughput, latency percentiles, batch-size histogram, cache hit rate)
   plus the modelled on-device latency per request.

Run with::

    python examples/serving_demo.py
"""

from __future__ import annotations

import sys
import tempfile
import threading
from pathlib import Path

# Make the examples runnable from a plain checkout (no PYTHONPATH needed).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import QuantMCUPipeline, build_model
from repro.data import SyntheticImageNet
from repro.hardware import ARDUINO_NANO_33_BLE
from repro.runtime import ExecutionPolicy
from repro.runtime import threads as threads_placement
from repro.serving import CompiledPipeline, InferenceEngine, ModelSpec, compile_pipeline


def main() -> None:
    resolution, num_classes = 48, 8
    print("== quantizing MobileNetV2-0.35 with QuantMCU ==")
    spec = ModelSpec("mobilenetv2", resolution, num_classes, width_mult=0.35, seed=1)
    model = spec.build()
    dataset = SyntheticImageNet(
        num_classes=num_classes, samples_per_class=6, resolution=resolution, seed=0
    )
    device = ARDUINO_NANO_33_BLE
    pipeline = QuantMCUPipeline(
        model, sram_limit_bytes=int(device.sram_bytes * 0.75), num_patches=2
    )
    result = pipeline.run(dataset.calibration)
    print(f"split at {result.plan.split_output_node!r}, "
          f"{result.plan.num_patches}x{result.plan.num_patches} patches")

    print("\n== compiling + save/load round trip ==")
    compiled = compile_pipeline(pipeline, result, spec=spec)
    with tempfile.TemporaryDirectory() as tmp:
        artifact = str(Path(tmp) / "mobilenetv2.quantmcu.npz")
        compiled.save(artifact)
        compiled = CompiledPipeline.load(artifact)
        print(f"artifact fingerprint: {compiled.fingerprint}")

    print("\n== serving concurrent requests with dynamic batching ==")
    images = dataset.test[0]
    num_clients, requests_per_client = 4, 24
    engine = InferenceEngine(
        compiled,
        max_batch_size=8,
        batch_timeout_s=0.002,
        policy=ExecutionPolicy(placement=threads_placement()),
        device=device,
    )

    def client(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(requests_per_client):
            image = images[rng.integers(len(images))]
            engine.infer(image)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(num_clients)]
    with engine:
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    snap = engine.telemetry.snapshot()
    print(f"requests served      : {snap.num_requests}")
    print(f"throughput           : {snap.requests_per_second:.1f} req/s")
    print(f"latency p50 / p99    : {snap.latency_p50_ms:.1f} / {snap.latency_p99_ms:.1f} ms")
    print(f"mean batch size      : {snap.mean_batch_size:.2f}")
    print(f"batch histogram      : {dict(sorted(snap.batch_size_histogram.items()))}")
    print(f"max queue depth      : {snap.max_queue_depth}")
    print(f"pipeline cache hits  : {snap.cache_hit_rate:.0%}")
    print(f"modelled {device.name} latency/request: {snap.mean_modelled_device_ms:.1f} ms")
    compiled.close()


if __name__ == "__main__":
    main()
