"""What the benchmark runs and reports: workloads, latency limits, metric names.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics; ``test_arithmetic.py`` checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``kind`` is ``closed`` (one client waits for each reply), ``open``
    (seeded Poisson arrivals at ``rate_rps``) or ``stream`` (one video
    through one :class:`~repro.streaming.StreamSession`).
    """

    name: str
    kind: str
    resolution: int
    #: Latency limit for ``slo_met_frac``, in milliseconds.
    slo_ms: float
    rate_rps: float = 0.0


#: Every model is MobileNetV2, width 0.35, 4 classes, fixed weights, served
#: from an 8x8 patch grid under a 64 KiB SRAM budget.
MODEL_NAME = "mobilenetv2"
WIDTH_MULT = 0.35
NUM_CLASSES = 4
WEIGHT_SEED = 3
NUM_PATCHES = 8
SRAM_LIMIT_BYTES = 64 * 1024
CALIBRATION_SAMPLES = 4

#: Distinct request inputs per engine workload; requests cycle through them
#: so each reply can be checked against a batch-1 reference computed once.
REQUEST_POOL = 32
#: Distinct frames of the stream workload's video, played back and forth so
#: consecutive frames always differ by one step of the object's walk.
VIDEO_FRAMES = 160
#: The object covers 5% of the frame.  Its walk (``SyntheticVideo``'s default
#: 4-pixel wander) then stays inside one 3x3 block of patches, so a frame
#: either re-executes those 9 of 64 branches or, when the object stood still,
#: none, and the median frame is a 9-branch frame on every seed tried.  At 10%
#: motion frames re-execute 6 to 16 branches and the median sat on the border
#: between the 12- and 16-branch groups, so it moved with the seed.
VIDEO_MOTION = 0.05

#: Engine replies are checked against batch-1 ``CompiledPipeline.infer``
#: within this tolerance: a different batch size lets BLAS pick another GEMM
#: kernel, which moves float32 logits by ~1e-6.  Stream frames must match
#: their reference bit for bit.
ENGINE_RTOL = 1e-4
ENGINE_ATOL = 1e-5

#: Set-up (build + search + compile + warm-up) repeats per run; the median is
#: reported as ``setup_s``.
SETUP_REPEATS = 5

#: Self time plus child time must equal each span's duration within this.
SPAN_TOLERANCE_S = 1e-6

WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed_mnv2_64", "closed", 64, slo_ms=50.0),
        Workload("open_mnv2_96", "open", 96, slo_ms=200.0, rate_rps=20.0),
        Workload("stream_mnv2_96", "stream", 96, slo_ms=33.0),
    )
}

#: The workloads ``BENCHMARK.json`` gates.  ``open_mnv2_96`` stays runnable
#: by hand but is not gated: at 20 rps its p99 spread 0.17-0.28 (IQR over
#: median) and its peak RSS 0.11 across seeds on a 2-core host, and the 902
#: requests its p99 needs take 45 s a run.
GATED = ("closed_mnv2_64", "stream_mnv2_96")

#: End-to-end metrics (untraced run): name -> unit.  The gated tail is p75;
#: p90 and p99 are printed and recorded but not gated.  In three sets of ten
#: seeded 50 s runs on a 2-core VM their spread (IQR over median) reached
#: 0.23 (p90) and 0.34 (p99) on the closed loop, against 0.10 for p75:
#: bursts of stolen CPU time hit a few percent of operations.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
    "throughput_rps": "1/s",
    "slo_met_frac": "frac",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit.  A layer a workload does not
#: exercise reads 0 there (e.g. ``streaming.*`` on the engine workloads).
PER_LAYER = {
    "core.search_s": "s",
    "serving.compile_s": "s",
    "serving.engine.queue_wait_p50_ms": "ms",
    "serving.engine.queue_wait_p99_ms": "ms",
    "serving.engine.batch_size_mean": "req/batch",
    "serving.engine.failed": "count",
    "serving.pipeline.infer_ms_p50": "ms",
    "serving.pipeline.infer_calls": "count",
    "patch.suffix_ms_p50": "ms",
    "patch.stage_self_ms_p50": "ms",
    "patch.suffix_share": "suffix/infer",
    "streaming.process_self_ms_p50": "ms",
    "streaming.stitch_ms_p50": "ms",
    "streaming.suffix_ms_p50": "ms",
    "streaming.reuse_rate": "reused/branches",
    "streaming.mac_fraction": "executed/full",
    "hardware.modelled_total_ms": "ms",
    "hardware.modelled_suffix_mac_share": "suffix/total",
    "bench.generator_lag_p99_ms": "ms",
    "bench.trace_overhead_frac": "traced/plain-1",
}
