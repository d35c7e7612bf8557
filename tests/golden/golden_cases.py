"""Golden-fingerprint computation shared by the test and the refresh script.

A *golden case* runs one zoo model end-to-end through the full serving flow —
build → QuantMCU quantize → compile → patch-based inference — and fingerprints
everything a refactor could silently change:

* the compiled pipeline fingerprint (weights + deployment configuration);
* the chosen patch schedule and searched bitwidth totals (BitOPs, peak SRAM);
* a SHA-256 over the exact output logits bytes for a fixed input batch;
* the analytic latency-model numbers (single device, serving batch, and the
  2-/4-device cluster makespans with their pipelined variant);
* the ``stale_halo`` approximation tier's behaviour on a crafted halo-only
  perturbation (exact staleness geometry plus bounded drift magnitudes).

Logit *bytes* are only reproducible on one BLAS/NumPy build, so each golden
file records the environment it was produced on; the test enforces the exact
hash when the environment matches and falls back to a numeric tolerance
otherwise.  Everything else (fingerprints, schedules, latency arithmetic) is
pure Python/float64 and must match everywhere.

Refresh with ``python tests/golden/refresh.py`` after an *intentional*
numeric change, and commit the updated JSON together with the change that
explains it.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
REPO_ROOT = GOLDEN_DIR.parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # refresh.py runs without PYTHONPATH
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.core import QuantMCUPipeline
from repro.distributed import ShardPlanner
from repro.hardware import (
    STM32H743,
    estimate_cluster_latency,
    estimate_layer_based_latency,
    estimate_patch_based_latency,
    estimate_serving_latency,
    make_cluster,
)
from repro.runtime import ExecutionPolicy
from repro.serving import ModelSpec, compile_pipeline

#: The two zoo models pinned by the golden suite.  ``streaming=True`` also
#: pins the streaming reuse fingerprint (per-frame dirty sets and reuse rate
#: of a fixed synthetic video) — pure integer geometry plus exact float
#: comparisons of deterministically generated frames, so it is environment-
#: independent, unlike the logit bytes.
CASES: dict[str, dict] = {
    "mobilenetv2": dict(model_name="mobilenetv2", resolution=32, streaming=True),
    "mcunet": dict(model_name="mcunet", resolution=48),
}


def _blas_fingerprint() -> str:
    """Identify the BLAS backend: same NumPy version over OpenBLAS vs MKL
    rounds GEMMs differently, so it must be part of the environment key."""
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name', 'unknown')}-{blas.get('version', 'unknown')}"
    except Exception:  # pragma: no cover - very old NumPy
        return "unknown"


def environment_fingerprint() -> dict:
    """What exact logit bytes depend on: the NumPy/BLAS build and the CPU."""
    return {
        "numpy": np.__version__,
        "blas": _blas_fingerprint(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def golden_path(case_name: str) -> Path:
    return GOLDEN_DIR / f"golden_{case_name}.json"


def _halo_only_pixel(plan) -> tuple[int, int, int, int]:
    """A pixel inside some branch's halo band that another branch owns.

    Perturbing it core-dirties the owner while only halo-dirtying the other
    branch — the minimal deterministic scenario that exercises the
    ``stale_halo`` approximation tier (a wandering-object video on these
    small grids either misses the one-pixel halo bands entirely or
    core-dirties every quadrant, so the scenario is crafted from geometry).
    """
    from repro.patch.stale import plan_stale_geometry

    geometry = plan_stale_geometry(plan)
    for geo in geometry.values():
        for band in geo.halo_bands:
            if band.area == 0:
                continue
            row, col = band.row_start, band.col_start
            owner = next(
                g.patch_id
                for g in geometry.values()
                if g.owned_input.row_start <= row < g.owned_input.row_stop
                and g.owned_input.col_start <= col < g.owned_input.col_stop
            )
            if owner != geo.patch_id:
                return row, col, owner, geo.patch_id
    raise AssertionError("plan has no cross-owned halo band")


def _stale_drift_record(compiled) -> dict:
    """Fingerprint the stale-halo tier on a crafted halo-only perturbation.

    Which branches go stale, how many frames lag, and the sampling counts are
    pure geometry over deterministically generated frames — pinned exactly.
    The drift magnitudes are float accumulations and move with the BLAS
    build, so the record stores the measured values for reference plus
    generous ``*4 + 1e-3`` upper bounds that every environment must respect.
    """
    plan = compiled.plan
    row, col, owner, lagging = _halo_only_pixel(plan)
    session = compiled.open_stream(
        policy=ExecutionPolicy(
            tier="stale_halo", drift_sample_every=1, max_stale_frames=None
        )
    )
    frame = (
        np.random.default_rng(7)
        .standard_normal(plan.graph.input_shape)
        .astype(np.float32)
    )
    session.process(frame)
    stale_per_frame = [list(session.last_frame.stale_branches)]
    for _ in range(5):
        frame = frame.copy()
        frame[:, row, col] += 1.0
        session.process(frame)
        stale_per_frame.append(list(session.last_frame.stale_branches))
    stats = session.stats()
    assert stats.max_drift_abs > 0.0, "crafted scenario must actually drift"
    return {
        "perturbed_pixel": [row, col],
        "owner_branch": owner,
        "lagging_branch": lagging,
        "frames": stats.frames,
        "stale_frames": stats.stale_frames,
        "stale_branches_served": stats.stale_branches_served,
        "drift_samples": stats.drift_samples,
        "stale_branches_per_frame": stale_per_frame,
        "max_abs": round(stats.max_drift_abs, 6),
        "max_rms": round(stats.max_drift_rms, 6),
        "max_abs_bound": round(4 * stats.max_drift_abs + 1e-3, 6),
        "max_rms_bound": round(4 * stats.max_drift_rms + 1e-3, 6),
    }


def compute_case(case_name: str) -> dict:
    """Run one case end-to-end and return its fingerprint record."""
    params = CASES[case_name]
    model_name, resolution = params["model_name"], params["resolution"]
    spec = ModelSpec(model_name, resolution, 4, 0.35, 3)
    model = spec.build()
    calib = (
        np.random.default_rng(0)
        .standard_normal((4, 3, resolution, resolution))
        .astype(np.float32)
    )
    pipeline = QuantMCUPipeline(model, sram_limit_bytes=64 * 1024, num_patches=2)
    result = pipeline.run(calib)
    compiled = compile_pipeline(pipeline, result, spec=spec)

    x = (
        np.random.default_rng(1)
        .standard_normal((2, 3, resolution, resolution))
        .astype(np.float32)
    )
    logits = compiled.infer(x)

    plan = compiled.plan
    suffix_config, branch_configs = compiled.quantization_configs()
    layer_based = estimate_layer_based_latency(plan.fm_index, suffix_config, STM32H743)
    patch_based = estimate_patch_based_latency(plan, STM32H743, suffix_config, branch_configs)
    serving4 = estimate_serving_latency(
        plan, STM32H743, batch_size=4, config=suffix_config, branch_configs=branch_configs
    )
    cluster_ms = {}
    for num_devices in (2, 4):
        cluster = make_cluster("stm32h743", num_devices)
        assignment = ShardPlanner(cluster, config=suffix_config).plan_shards(plan).assignment()
        breakdown = estimate_cluster_latency(
            plan, assignment, cluster, config=suffix_config, branch_configs=branch_configs
        )
        cluster_ms[str(num_devices)] = {
            "makespan_ms": breakdown.makespan_seconds * 1e3,
            "stage_ms": breakdown.stage_seconds * 1e3,
            "pipelined_x4_ms": breakdown.pipelined_makespan_seconds(4) * 1e3,
        }

    streaming = None
    if params.get("streaming"):
        from repro.data import SyntheticVideo

        video = SyntheticVideo(
            num_frames=4, resolution=resolution, motion_fraction=0.3, seed=2
        )
        session = compiled.open_stream()
        for frame in video:
            incremental = session.process(frame)
            assert np.array_equal(incremental, compiled.infer(frame[None])[0])
        session.process(video.frames[-1].copy())  # identical frame: full reuse
        stream_stats = session.stats()
        streaming = {
            "frames": stream_stats.frames,
            "num_branches": compiled.plan.num_branches,
            "dirty_branches_per_frame": [
                list(frame.dirty_branches) for frame in session.frame_stats
            ],
            "reuse_rate": round(stream_stats.reuse_rate, 6),
            "mac_fraction": round(stream_stats.mac_fraction, 6),
        }

    stale_drift = _stale_drift_record(compiled)

    return {
        "environment": environment_fingerprint(),
        "model": {"name": model_name, "resolution": resolution},
        "schedule": {
            "split_output_node": plan.split_output_node,
            "num_patches": plan.num_patches,
            "num_branches": plan.num_branches,
            "weight_bits": result.weight_bits,
        },
        "quantization": {
            "bitops": result.bitops,
            "peak_memory_bytes": result.peak_memory_bytes,
            "suffix_bits": {str(k): v for k, v in sorted(result.suffix_bits.items())},
        },
        "pipeline_fingerprint": compiled.fingerprint,
        "logits": {
            "sha256": hashlib.sha256(np.ascontiguousarray(logits).tobytes()).hexdigest(),
            "shape": list(logits.shape),
            "values": [round(float(v), 6) for v in logits.ravel()],
        },
        "latency_model": {
            "layer_based_ms": layer_based.total_ms,
            "patch_based_ms": patch_based.total_ms,
            "serving_batch4_ms": serving4.total_ms,
            "cluster": cluster_ms,
        },
        "stale_drift": stale_drift,
        **({"streaming": streaming} if streaming is not None else {}),
    }


def write_case(case_name: str) -> Path:
    path = golden_path(case_name)
    record = compute_case(case_name)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_case(case_name: str) -> dict:
    return json.loads(golden_path(case_name).read_text())
