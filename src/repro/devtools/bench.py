"""Perf snapshots and the perf-regression gate (ROADMAP BENCH_*.json convention).

Two benchmark runners live here:

:func:`run_lint_bench`
    The lint gate runs on every CI push, so its own wall time is on the perf
    trajectory like any hot path; writes ``BENCH_devtools.json``.
:func:`run_kernel_bench`
    The patch-stage compute kernels behind :mod:`repro.backend`: single-image
    patch-stage latency for the loop reference vs the vectorized backend (the
    headline speedup), full-forward latency, batched throughput, streaming
    reuse, and the im2col micro-kernel; writes ``BENCH_kernels.json``.

:func:`run_stale_halo_bench`
    The displaced (stale-halo) pipeline schedule vs the blocking halo
    exchange: modelled pipelined makespans across cluster sizes, a real
    verify-and-patch execution checked bit-identical to sequential, and the
    stale tier's sampled drift; writes ``BENCH_stale_halo.json``.

:func:`compare_snapshots` is the regression gate they all feed: a fresh snapshot
is compared metric-by-metric against the checked-in baseline, and any gated
metric that regressed by more than the tolerance fails CI
(``python -m repro.devtools perfgate``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .lint import lint_paths

__all__ = [
    "run_lint_bench",
    "run_kernel_bench",
    "run_stale_halo_bench",
    "compare_snapshots",
]


def run_lint_bench(
    paths: tuple[str, ...] = ("src",),
    out: str | None = "BENCH_devtools.json",
    repeats: int = 3,
) -> dict:
    """Time ``lint_paths`` over ``paths`` and write the snapshot JSON."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    durations: list[float] = []
    report = None
    for _ in range(repeats):
        started = time.perf_counter()
        report = lint_paths(paths)
        durations.append(time.perf_counter() - started)
    best = min(durations)
    total_lines = 0
    for path in paths:
        base = Path(path)
        files = base.rglob("*.py") if base.is_dir() else [base]
        for file_path in files:
            try:
                total_lines += len(file_path.read_text().splitlines())
            except OSError:
                continue
    snapshot = {
        "benchmark": "devtools_lint",
        "paths": list(paths),
        "repeats": repeats,
        "files_checked": report.files_checked,
        "total_lines": total_lines,
        "findings": len(report.findings),
        "wall_seconds_best": best,
        "wall_seconds_mean": sum(durations) / len(durations),
        "lines_per_second": (total_lines / best) if best > 0 else None,
        "rules": sorted(report.counts_by_rule()),
    }
    if out is not None:
        Path(out).write_text(json.dumps(snapshot, indent=2) + "\n")
    return snapshot


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn()`` — the standard noise filter for
    sub-100ms kernels (the minimum estimates the noise-free cost)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_kernel_bench(
    out: str | None = "BENCH_kernels.json",
    model_name: str = "mobilenetv2",
    resolution: int = 64,
    num_patches: int = 8,
    repeats: int = 5,
    batch: int = 8,
) -> dict:
    """Measure the patch-stage compute kernels and write the snapshot JSON.

    The default configuration (MobileNetV2 at 64x64 with an 8x8 patch grid)
    is the one the perf-regression gate pins: dense enough that batching
    amortizes, small enough to quantize and measure in seconds.  Every
    metric in ``gate_metrics`` is a higher-is-better ratio, so the gate is
    machine-independent — both sides of each ratio are measured on the same
    host in the same process.
    """
    # Imported lazily: devtools must stay importable without pulling the
    # whole model/serving stack in (the lint CLI is numpy-only).
    import numpy as np

    from ..core import QuantMCUPipeline
    from ..nn import functional as F
    from ..serving.pipeline import CompiledPipeline, ModelSpec

    spec = ModelSpec(model_name, resolution, 4, 0.35, 3)
    rng = np.random.default_rng(0)
    calib = rng.standard_normal((4, 3, resolution, resolution)).astype(np.float32)
    pipeline = QuantMCUPipeline(
        spec.build(), sram_limit_bytes=64 * 1024, num_patches=num_patches
    )
    result = pipeline.run(calib)
    loop = CompiledPipeline.from_result(pipeline, result, spec=spec, backend="loop")
    vec = CompiledPipeline.from_result(pipeline, result, spec=spec, backend="vectorized")

    x1 = rng.standard_normal((1, 3, resolution, resolution)).astype(np.float32)
    xb = rng.standard_normal((batch, 3, resolution, resolution)).astype(np.float32)

    try:
        loop_ex, vec_ex = loop.executor(), vec.executor()
        if not np.array_equal(loop_ex.forward(x1), vec_ex.forward(x1)):
            raise AssertionError(
                "vectorized backend is not bit-identical to the loop reference; "
                "refusing to benchmark a wrong kernel"
            )

        # Single-image patch stage: the headline loop-vs-vectorized number.
        loop_stage = _best_of(lambda: loop_ex.stitched_split_feature_map(x1), repeats)
        vec_stage = _best_of(lambda: vec_ex.stitched_split_feature_map(x1), repeats)

        # End-to-end single-image and batched inference (vectorized backend).
        loop_full = _best_of(lambda: loop_ex.forward(x1), repeats)
        vec_full = _best_of(lambda: vec_ex.forward(x1), repeats)
        vec_batched = _best_of(lambda: vec_ex.forward(xb), max(repeats // 2, 1))

        # Streaming reuse: one dirty corner of the frame vs full recompute.
        session = vec.open_stream()
        frame0 = x1[0]
        frame1 = frame0.copy()
        frame1[:, : resolution // 8, : resolution // 8] += 0.5
        session.process(frame0)
        session.process(frame1)

        def _stream_pair():
            session.process(frame0)
            session.process(frame1)

        stream_pair = _best_of(_stream_pair, repeats)
        reuse_rate = session.last_frame.reuse_rate

        # im2col micro-kernel vs its loop oracle, timed over repeated calls
        # (a single ~1ms call is dominated by cache state, not the kernel).
        img = rng.standard_normal((4, 16, 32, 32)).astype(np.float32)
        col_args = (img, (3, 3), 1, 1)

        def _many(fn, calls=50):
            def run():
                for _ in range(calls):
                    fn()
            return _best_of(run, repeats) / calls

        im2col_loop = _many(lambda: F.im2col_reference(*col_args))
        im2col_vec = _many(lambda: F.im2col(*col_args))

        # Serving latency distribution: single-image requests through the
        # dynamic-batching engine.  Tail percentiles (not just means) are
        # what a serving change regresses first — a lock added on the submit
        # path shows up in p99 long before it moves p50.
        from ..serving.engine import InferenceEngine

        serving_samples = []
        with InferenceEngine(vec, max_batch_size=4, batch_timeout_s=0.0005) as engine:
            engine.infer(frame0)  # warm the executor and batcher path
            for _ in range(50):
                t0 = time.perf_counter()
                engine.infer(frame0)
                serving_samples.append(time.perf_counter() - t0)
        serving_p50 = float(np.percentile(serving_samples, 50))
        serving_p99 = float(np.percentile(serving_samples, 99))
    finally:
        loop.close()
        vec.close()

    snapshot = {
        "benchmark": "patch_kernels",
        "config": {
            "model": model_name,
            "resolution": resolution,
            "num_patches": num_patches,
            "batch": batch,
            "repeats": repeats,
        },
        "patch_stage_ms_loop": loop_stage * 1e3,
        "patch_stage_ms_vectorized": vec_stage * 1e3,
        "patch_stage_speedup": loop_stage / vec_stage,
        "forward_ms_loop": loop_full * 1e3,
        "forward_ms_vectorized": vec_full * 1e3,
        "forward_speedup": loop_full / vec_full,
        "batched_images_per_second": batch / vec_batched,
        "batched_vs_single_throughput": (batch / vec_batched) / (1.0 / vec_full),
        "streaming_pair_ms": stream_pair * 1e3,
        "streaming_reuse_rate": reuse_rate,
        "streaming_speedup_vs_two_full": (2 * vec_full) / stream_pair,
        "im2col_ms_loop": im2col_loop * 1e3,
        "im2col_ms_vectorized": im2col_vec * 1e3,
        "im2col_speedup": im2col_loop / im2col_vec,
        # Engine-served request latency percentiles (informational: absolute
        # wall times are machine-dependent, so they never join gate_metrics).
        "serving_p50_ms": serving_p50 * 1e3,
        "serving_p99_ms": serving_p99 * 1e3,
        # Ratio metrics the perf gate enforces (higher-is-better; wall times
        # are machine-dependent, ratios within one process are not).  The
        # streaming and im2col ratios stay informational: their margins over
        # 1.0 are too small for a 20% tolerance to catch anything real.
        "gate_metrics": [
            "patch_stage_speedup",
            "forward_speedup",
        ],
    }
    if out is not None:
        Path(out).write_text(json.dumps(snapshot, indent=2) + "\n")
    return snapshot


def run_stale_halo_bench(
    out: str | None = "BENCH_stale_halo.json",
    model_name: str = "mobilenetv2",
    resolution: int = 32,
    num_patches: int = 4,
    num_microbatches: int = 8,
    device_counts: tuple[int, ...] = (1, 2, 4, 6, 8),
    link_bytes_per_second: float = 2e5,
    slow_link_bytes_per_second: float = 1e5,
) -> dict:
    """Measure the displaced pipeline schedule and write the snapshot JSON.

    Three schedules over the same shard assignments, as pipelined makespans
    across growing clusters:

    * **blocking** — fresh halo exchange on the critical path every round;
    * **stale** — displaced rounds, correction skipped (approximate tier);
    * **verify** — displaced rounds plus the rim recomputation that restores
      bit-exactness.

    The sweep runs on a link-bound cluster (``link_bytes_per_second``,
    default 200 KB/s — a serial inter-MCU link): displaced scheduling removes
    halo bytes from the critical path, so its advantage scales with how much
    of the round the link occupies, and at the default 10 MB/s the win on
    this small model is real but fractions of a percent.  The stale tier wins
    everywhere in the swept regime, so its 4- and max-device speedups plus
    the absolute makespan savings are the gated headline.  The verify tier
    only wins when the skipped halo wait exceeds the rim recompute, so its
    gated ratio is measured on the even slower ``slow_link_bytes_per_second``
    link.  All gated metrics are deterministic cost-model numbers — no
    wall-clock noise.

    The snapshot also records a *real* displaced execution: verify-and-patch
    outputs are asserted bit-identical to sequential execution before
    anything is written, and the stale tier's sampled drift is included.
    """
    import numpy as np

    from ..core import QuantMCUPipeline
    from ..distributed import DistributedExecutor, PipelineParallelScheduler, ShardPlanner
    from ..hardware import (
        estimate_cluster_latency,
        estimate_displaced_cluster_latency,
        make_cluster,
    )
    from ..models import build_model
    from ..runtime import ExecutionPolicy

    rng = np.random.default_rng(0)
    model = build_model(
        model_name, resolution=resolution, num_classes=4, width_mult=0.35, seed=3
    )
    calib = rng.standard_normal((4, 3, resolution, resolution)).astype(np.float32)
    pipeline = QuantMCUPipeline(
        model, sram_limit_bytes=64 * 1024, num_patches=num_patches
    )
    result = pipeline.run(calib)
    plan = result.plan

    def _pipelined_ms(breakdown) -> float:
        return breakdown.pipelined_makespan_seconds(num_microbatches) * 1e3

    rows = []
    by_devices: dict[int, dict] = {}
    for num_devices in device_counts:
        cluster = make_cluster(
            "stm32h743", num_devices, link_bytes_per_second=link_bytes_per_second
        )
        assignment = ShardPlanner(cluster).plan_shards(plan).assignment()
        blocking = estimate_cluster_latency(plan, assignment, cluster)
        verify = estimate_displaced_cluster_latency(
            plan, assignment, cluster, accuracy_mode="verify_patch"
        )
        stale = estimate_displaced_cluster_latency(
            plan, assignment, cluster, accuracy_mode="stale_halo"
        )
        row = {
            "devices": num_devices,
            "blocking_stage_ms": blocking.stage_seconds * 1e3,
            "verify_stage_ms": verify.stage_seconds * 1e3,
            "stale_stage_ms": stale.stage_seconds * 1e3,
            "blocking_pipelined_ms": _pipelined_ms(blocking),
            "verify_pipelined_ms": _pipelined_ms(verify),
            "stale_pipelined_ms": _pipelined_ms(stale),
        }
        rows.append(row)
        by_devices[num_devices] = row
        if num_devices >= 4 and row["stale_pipelined_ms"] >= row["blocking_pipelined_ms"]:
            raise AssertionError(
                f"stale tier lost to blocking at {num_devices} devices; "
                "refusing to snapshot a schedule that does not pay for itself"
            )

    # The verify tier's regime: a link slow enough that skipping the halo
    # wait buys more than the rim recompute costs.
    slow_cluster = make_cluster(
        "stm32h743", 4, link_bytes_per_second=slow_link_bytes_per_second
    )
    slow_assignment = ShardPlanner(slow_cluster).plan_shards(plan).assignment()
    slow_blocking = estimate_cluster_latency(plan, slow_assignment, slow_cluster)
    slow_verify = estimate_displaced_cluster_latency(
        plan, slow_assignment, slow_cluster, accuracy_mode="verify_patch"
    )

    # Real displaced execution on 4 devices: verify-and-patch must match
    # sequential execution bit-for-bit, and the stale tier reports drift.
    branch_hook, suffix_hook = pipeline.make_hooks(result)
    base = rng.standard_normal((1, 3, resolution, resolution)).astype(np.float32)
    batches = [base]
    for _ in range(num_microbatches - 1):
        nxt = batches[-1].copy()
        r0 = int(rng.integers(0, resolution // 2))
        c0 = int(rng.integers(0, resolution // 2))
        nxt[:, :, r0 : r0 + resolution // 2, c0 : c0 + resolution // 2] += (
            rng.standard_normal((1, 3, resolution // 2, resolution // 2)).astype(np.float32)
        )
        batches.append(nxt)
    cluster = make_cluster("stm32h743", 4)
    shard_plan = ShardPlanner(cluster).plan_shards(plan)
    with pipeline.quantized_weights():
        with DistributedExecutor(
            plan, branch_hook=branch_hook, suffix_hook=suffix_hook, shard_plan=shard_plan
        ) as executor:
            reference = [executor.forward(x) for x in batches]
            verify_sched = PipelineParallelScheduler(
                executor, policy=ExecutionPolicy(tier="displaced")
            )
            started = time.perf_counter()
            outputs = verify_sched.run(batches)
            verify_wall = time.perf_counter() - started
            if not all(np.array_equal(a, b) for a, b in zip(outputs, reference)):
                raise AssertionError(
                    "displaced verify-and-patch diverged from sequential execution; "
                    "refusing to benchmark a wrong schedule"
                )
            corrected = sum(r.corrected_branches for r in verify_sched.rounds)
            total = sum(r.total_branches for r in verify_sched.rounds if r.displaced)
            stale_sched = PipelineParallelScheduler(
                executor, policy=ExecutionPolicy(tier="stale_halo", drift_sample_every=2)
            )
            started = time.perf_counter()
            stale_sched.run(batches)
            stale_wall = time.perf_counter() - started
            drift_max_abs = max((s.max_abs for s in stale_sched.drift_samples), default=0.0)

    at4, at8 = by_devices.get(4), by_devices.get(max(device_counts))
    snapshot = {
        "benchmark": "stale_halo_pipeline",
        "config": {
            "model": model_name,
            "resolution": resolution,
            "num_patches": num_patches,
            "num_microbatches": num_microbatches,
            "device_counts": list(device_counts),
            "link_bytes_per_second": link_bytes_per_second,
            "slow_link_bytes_per_second": slow_link_bytes_per_second,
        },
        "scaling": rows,
        "execution": {
            "devices": 4,
            "verify_bit_identical": True,
            "corrected_branches": corrected,
            "displaced_branch_rounds": total,
            "verify_wall_ms": verify_wall * 1e3,
            "stale_wall_ms": stale_wall * 1e3,
            "drift_samples": len(stale_sched.drift_samples),
            "drift_max_abs": drift_max_abs,
        },
        "stale_speedup_4dev": at4["blocking_pipelined_ms"] / at4["stale_pipelined_ms"],
        "stale_speedup_maxdev": at8["blocking_pipelined_ms"] / at8["stale_pipelined_ms"],
        "stale_savings_ms_4dev": at4["blocking_pipelined_ms"] - at4["stale_pipelined_ms"],
        "verify_speedup_slowlink_4dev": (
            slow_blocking.pipelined_makespan_seconds(num_microbatches)
            / slow_verify.pipelined_makespan_seconds(num_microbatches)
        ),
        # Deterministic cost-model numbers (higher-is-better): safe to gate
        # tightly — the wall-clock fields above stay informational.  The
        # absolute savings metric is the sharp one: a schedule regression
        # that erodes the displaced advantage barely moves a ~1.0x ratio but
        # collapses the savings.
        "gate_metrics": [
            "stale_speedup_4dev",
            "stale_speedup_maxdev",
            "stale_savings_ms_4dev",
            "verify_speedup_slowlink_4dev",
        ],
    }
    if out is not None:
        Path(out).write_text(json.dumps(snapshot, indent=2) + "\n")
    return snapshot


def compare_snapshots(
    current: dict, baseline: dict, max_regression: float = 0.20
) -> list[str]:
    """Compare a fresh snapshot against the checked-in baseline.

    Returns a list of human-readable failures — one per gated metric that is
    more than ``max_regression`` below the baseline value.  Gated metrics are
    the baseline's ``gate_metrics`` list (higher is better); improvements and
    unlisted metrics never fail.  A metric missing from the fresh snapshot is
    itself a failure: silently dropping a measurement must not pass the gate.
    """
    failures: list[str] = []
    for metric in baseline.get("gate_metrics", []):
        base_value = baseline.get(metric)
        if not isinstance(base_value, (int, float)) or base_value <= 0:
            continue  # nothing enforceable recorded
        value = current.get(metric)
        if not isinstance(value, (int, float)):
            failures.append(f"{metric}: missing from the fresh snapshot")
            continue
        floor = base_value * (1.0 - max_regression)
        if value < floor:
            failures.append(
                f"{metric}: {value:.3f} is {(1 - value / base_value) * 100:.1f}% below "
                f"baseline {base_value:.3f} (allowed {max_regression * 100:.0f}%)"
            )
    return failures
