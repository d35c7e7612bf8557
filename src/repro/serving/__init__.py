"""Compiled-pipeline inference serving.

This subsystem turns the one-shot QuantMCU experiment flow into a reusable,
concurrent inference service:

* :class:`CompiledPipeline` — an immutable artifact freezing a model, its
  quantization configuration and its patch plan, with ``save``/``load``
  round-tripping (:mod:`repro.serving.pipeline`); its ``threads(n)``
  placement shards the independent dataflow branches over n host workers
  through :class:`~repro.distributed.DistributedExecutor`, bit-identical to
  sequential execution (instrument every branch under ``backend="loop"``);
* :class:`InferenceEngine` — a thread-safe request queue with dynamic
  micro-batching and an LRU :class:`PipelineCache` of compiled pipelines
  (:mod:`repro.serving.engine`, :mod:`repro.serving.cache`);
* :class:`TelemetryRecorder` — per-request latency, queue depth, batch-size
  histogram, cache hit rate and streaming reuse counters
  (:mod:`repro.serving.telemetry`);
* :class:`StreamSession` (re-exported from :mod:`repro.streaming`) — open one
  with :meth:`CompiledPipeline.open_stream` or
  :meth:`InferenceEngine.open_stream` to serve video/sensor streams with
  incremental patch recomputation.

Quickstart::

    result = pipeline.run(calibration)          # QuantMCUPipeline as usual
    compiled = compile_pipeline(pipeline, result, spec=ModelSpec("mobilenetv2", 48, 8, 0.35))
    with InferenceEngine(compiled, max_batch_size=8) as engine:
        logits = engine.infer(image)            # or engine.submit(...) -> Future
    print(engine.telemetry.snapshot())
"""

from ..streaming import FrameStats, StreamSession, StreamStats
from .cache import CacheStats, PipelineCache
from .engine import EngineClosed, InferenceEngine
from .pipeline import CompiledPipeline, ModelSpec, compile_pipeline
from .telemetry import RequestRecord, TelemetryRecorder, TelemetrySnapshot, percentile

__all__ = [
    "CompiledPipeline",
    "ModelSpec",
    "compile_pipeline",
    "PipelineCache",
    "CacheStats",
    "InferenceEngine",
    "EngineClosed",
    "TelemetryRecorder",
    "TelemetrySnapshot",
    "RequestRecord",
    "percentile",
    "StreamSession",
    "StreamStats",
    "FrameStats",
]
