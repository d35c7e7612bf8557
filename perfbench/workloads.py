"""Set-up and the three workloads, driven through the public serving surface.

Every workload runs under the default :class:`~repro.runtime.ExecutionPolicy`
(local placement, the default kernel backend, the exact tier) in one
process: one load-generating thread (the caller) plus, for the engine
workloads, the engine's batcher thread.  Inputs come from a NumPy generator
seeded by the caller; the program only ever receives the generated arrays.

Every operation's output is checked after the timed region: engine replies
against batch-1 :meth:`~repro.serving.CompiledPipeline.infer` references
within :data:`~perfbench.spec.ENGINE_RTOL` / ``ENGINE_ATOL``, stream frames
bit for bit against ``infer(frame[None])``.  A wrong output or a raised
exception marks the operation failed.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import QuantMCUPipeline
from repro.data import SyntheticVideo
from repro.hardware import STM32H743, branch_op_costs, estimate_patch_based_latency, suffix_op_costs
from repro.serving import CompiledPipeline, InferenceEngine, ModelSpec, compile_pipeline
from repro.streaming import StreamSession

from . import spec
from .stats import (
    due_time_latencies,
    generator_lags,
    min_samples_for,
    percentile,
    self_times,
    slo_met_frac,
    tail_percentile,
)
from .trace import Tracer

#: Enough operations that p99 has at least ten samples beyond it.
MIN_SAMPLES = min_samples_for(99.0)


@dataclass
class Inputs:
    """Everything a run feeds the program, generated from one seed."""

    calibration: np.ndarray
    pool: np.ndarray  # engine request inputs, or the stream's distinct frames
    gaps_s: np.ndarray  # open-loop inter-arrival gaps (empty otherwise)


def make_inputs(workload: spec.Workload, seed: int, seconds: float) -> Inputs:
    rng = np.random.default_rng(seed)
    shape = (3, workload.resolution, workload.resolution)
    calibration = rng.standard_normal((spec.CALIBRATION_SAMPLES, *shape)).astype(np.float32)
    if workload.kind == "stream":
        video = SyntheticVideo(
            num_frames=spec.VIDEO_FRAMES,
            resolution=workload.resolution,
            motion_fraction=spec.VIDEO_MOTION,
            seed=int(rng.integers(2**31)),
        )
        pool = video.frames
    else:
        pool = rng.standard_normal((spec.REQUEST_POOL, *shape)).astype(np.float32)
    gaps = np.empty(0)
    if workload.kind == "open":
        count = max(math.ceil(workload.rate_rps * seconds), MIN_SAMPLES)
        gaps = rng.exponential(1.0 / workload.rate_rps, count)
    return Inputs(calibration, pool, gaps)


@dataclass
class Served:
    """One set-up's products and how long each step took."""

    compiled: CompiledPipeline
    engine: InferenceEngine | None
    setup_s: float
    search_s: float
    compile_s: float

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.compiled.close()


def set_up(workload: spec.Workload, inputs: Inputs) -> Served:
    """Model build + QuantMCU search + compile + warm-up, timed."""
    started = time.perf_counter()
    model_spec = ModelSpec(
        spec.MODEL_NAME, workload.resolution, spec.NUM_CLASSES, spec.WIDTH_MULT, spec.WEIGHT_SEED
    )
    quantizer = QuantMCUPipeline(
        model_spec.build(), sram_limit_bytes=spec.SRAM_LIMIT_BYTES, num_patches=spec.NUM_PATCHES
    )
    search_started = time.perf_counter()
    result = quantizer.run(inputs.calibration)
    compile_started = time.perf_counter()
    compiled = compile_pipeline(quantizer, result, spec=model_spec)
    compiled_at = time.perf_counter()
    engine = None
    if workload.kind == "stream":
        for _ in range(2):
            compiled.infer(inputs.pool[:1])
    else:
        engine = InferenceEngine(compiled)
        for _ in range(2):
            engine.infer(inputs.pool[0])
    return Served(
        compiled=compiled,
        engine=engine,
        setup_s=time.perf_counter() - started,
        search_s=compile_started - search_started,
        compile_s=compiled_at - compile_started,
    )


def set_up_repeatedly(workload: spec.Workload, inputs: Inputs) -> tuple[Served, list[Served]]:
    """Set up :data:`~perfbench.spec.SETUP_REPEATS` times; keep the last one.

    Returns the kept set-up and all of them (for their timings); every
    earlier one is already closed.
    """
    runs: list[Served] = []
    for _ in range(spec.SETUP_REPEATS):
        if runs:
            runs[-1].close()
        runs.append(set_up(workload, inputs))
    return runs[-1], runs


def references(compiled: CompiledPipeline, pool: np.ndarray) -> list[np.ndarray]:
    """Batch-1 ``infer`` output for each pool entry (computed untimed)."""
    return [compiled.infer(pool[i : i + 1])[0] for i in range(len(pool))]


@dataclass
class Phase:
    """One timed pass of a workload.

    ``latencies`` has one entry per attempted operation, in seconds, and
    ``None`` for an operation that raised or returned a wrong output.
    """

    latencies: list[float | None]
    wall_s: float
    lags: list[float] = field(default_factory=list)
    queue_waits: list[float] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)
    reuse_rate: float = 0.0
    mac_fraction: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(1 for value in self.latencies if value is None)

    @property
    def ok(self) -> list[float]:
        return [value for value in self.latencies if value is not None]


def _engine_matches(output, reference: np.ndarray) -> bool:
    return (
        isinstance(output, np.ndarray)
        and output.shape == reference.shape
        and bool(np.allclose(output, reference, rtol=spec.ENGINE_RTOL, atol=spec.ENGINE_ATOL))
    )


def _engine_telemetry(phase: Phase, engine: InferenceEngine, first_record: int) -> Phase:
    records = engine.telemetry.records()[first_record:]
    phase.queue_waits = [r.queue_seconds for r in records]
    phase.batch_sizes = [r.batch_size for r in records]
    return phase


def closed_loop(engine: InferenceEngine, inputs: Inputs, refs, seconds: float) -> Phase:
    """One client calls ``InferenceEngine.infer`` with single samples, back to back."""
    first_record = len(engine.telemetry.records())
    pool = inputs.pool
    outputs: list = []
    latencies: list[float] = []
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline or len(outputs) < MIN_SAMPLES:
        x = pool[len(outputs) % len(pool)]
        sent = time.perf_counter()
        try:
            output = engine.infer(x)
        except Exception as exc:  # a failed request is counted, not fatal
            output = exc
        latencies.append(time.perf_counter() - sent)
        outputs.append(output)
    wall = time.perf_counter() - started
    checked = [
        latency if _engine_matches(output, refs[i % len(refs)]) else None
        for i, (latency, output) in enumerate(zip(latencies, outputs))
    ]
    return _engine_telemetry(Phase(checked, wall), engine, first_record)


def open_loop(engine: InferenceEngine, inputs: Inputs, refs, seconds: float) -> Phase:
    """Seeded Poisson arrivals into ``InferenceEngine.submit``.

    Latency runs from each request's due time to its reply, so a late
    generator charges its delay to the requests it held back; how late it ran
    is reported separately.  ``seconds`` is already folded into the schedule.
    """
    first_record = len(engine.telemetry.records())
    pool = inputs.pool
    count = len(inputs.gaps_s)
    completed: list[float | None] = [None] * count
    futures: list = [None] * count
    sent = [0.0] * count
    lock = threading.Lock()

    def on_done(index: int):
        def record(_future) -> None:
            now = time.perf_counter()
            with lock:
                completed[index] = now

        return record

    start = time.perf_counter() + 0.01
    due = (start + np.cumsum(inputs.gaps_s)).tolist()
    for i, when in enumerate(due):
        delay = when - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent[i] = time.perf_counter()
        try:
            future = engine.submit(pool[i % len(pool)])
        except Exception as exc:  # a refused request is counted, not fatal
            futures[i] = exc
            continue
        futures[i] = future
        future.add_done_callback(on_done(i))
    outputs = []
    for future in futures:
        if isinstance(future, Exception):
            outputs.append(future)
            continue
        try:
            outputs.append(future.result(timeout=120))
        except Exception as exc:
            outputs.append(exc)
    with lock:
        done = list(completed)
    finished = [t for t in done if t is not None]
    wall = (max(finished) if finished else time.perf_counter()) - due[0]
    latencies = [
        latency if _engine_matches(output, refs[i % len(refs)]) else None
        for i, (latency, output) in enumerate(zip(due_time_latencies(due, done), outputs))
    ]
    phase = Phase(latencies, wall, lags=generator_lags(due, sent))
    return _engine_telemetry(phase, engine, first_record)


def ping_pong(count: int) -> list[int]:
    """Frame order 0, 1, .., n-1, n-2, .., 1 (then repeat): every step is one
    step of the object's walk, never a jump back to the first frame."""
    return list(range(count)) + list(range(count - 2, 0, -1))


def stream(session: StreamSession, inputs: Inputs, refs, seconds: float) -> Phase:
    """One exact-tier ``StreamSession`` over the seeded video, played back and forth."""
    order = ping_pong(len(inputs.pool))
    outputs: list = []
    latencies: list[float] = []
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline or len(outputs) < MIN_SAMPLES:
        frame = inputs.pool[order[len(outputs) % len(order)]]
        sent = time.perf_counter()
        try:
            output = session.process(frame)
        except Exception as exc:  # a failed frame is counted, not fatal
            output = exc
        latencies.append(time.perf_counter() - sent)
        outputs.append(output)
    wall = time.perf_counter() - started
    totals = session.stats()
    checked = [
        latency
        if isinstance(output, np.ndarray)
        and np.array_equal(output, refs[order[i % len(order)]])
        else None
        for i, (latency, output) in enumerate(zip(latencies, outputs))
    ]
    return Phase(checked, wall, reuse_rate=totals.reuse_rate, mac_fraction=totals.mac_fraction)


def run_phase(
    workload: spec.Workload,
    served: Served,
    inputs: Inputs,
    refs,
    seconds: float,
    tracer: Tracer | None = None,
) -> Phase:
    """One timed pass; with a ``tracer``, the layers it calls into are traced.

    The tracer wraps public methods on the instances this run built and
    unwraps them before returning, so references and later phases run
    untraced.
    """
    executor = served.compiled.executor()
    session = served.compiled.open_stream() if workload.kind == "stream" else None
    try:
        if tracer is not None:
            if session is not None:
                tracer.wrap(session, "process", "streaming.process")
                tracer.wrap(executor, "stitch_tiles", "patch.stitch_tiles")
            else:
                tracer.wrap(served.compiled, "infer", "serving.pipeline.infer")
            tracer.wrap(executor, "run_suffix", "patch.run_suffix")
        if session is not None:
            return stream(session, inputs, refs, seconds)
        driver = closed_loop if workload.kind == "closed" else open_loop
        return driver(served.engine, inputs, refs, seconds)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
        if session is not None:
            session.close()


def end_to_end(workload: spec.Workload, phase: Phase, setups: list[Served], peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced phase."""
    ok = phase.ok
    return {
        "setup_s": statistics.median(s.setup_s for s in setups),
        "latency_p50_ms": percentile(ok, 50.0) * 1e3,
        "latency_p75_ms": tail_percentile(ok, 75.0) * 1e3,
        "throughput_rps": len(ok) / phase.wall_s,
        "slo_met_frac": slo_met_frac(phase.latencies, workload.slo_ms / 1e3),
        "peak_rss_mb": peak_rss_mb,
    }


def _ms(values: list[float], q: float = 50.0) -> float:
    """A percentile in milliseconds; 0 when the workload never reached the layer."""
    return percentile(values, q) * 1e3 if values else 0.0


def per_layer(
    workload: spec.Workload, phase: Phase, tracer: Tracer, served: Served, setups: list[Served]
) -> dict:
    """The per-layer metrics of a phase whose odd root calls were traced.

    On the closed loop and the stream each operation is exactly one root
    call, so odd operations were traced and even ones were not; the tracing
    overhead compares their median latencies.  An open-loop batch serves
    several requests with one call, so there the overhead reads 0.
    """
    spans = tracer.snapshot()
    own = self_times(spans)
    by_id = {span.span_id: span for span in spans}

    def durations(name: str, parent: str | None = None) -> list[float]:
        return [
            s.duration
            for s in spans
            if s.name == name
            and (parent is None or (s.parent is not None and by_id[s.parent].name == parent))
        ]

    def self_of(name: str) -> list[float]:
        return [own[s.span_id] for s in spans if s.name == name]

    infer = durations("serving.pipeline.infer")
    infer_suffix = durations("patch.run_suffix", parent="serving.pipeline.infer")
    plan = served.compiled.plan
    suffix_config, branch_configs = served.compiled.quantization_configs()
    branch_macs = sum(
        op.macs
        for b in range(plan.num_branches)
        for op in branch_op_costs(plan, b, branch_configs[b])
    )
    suffix_macs = sum(op.macs for op in suffix_op_costs(plan, suffix_config))
    modelled = estimate_patch_based_latency(
        plan, STM32H743, config=suffix_config, branch_configs=branch_configs
    )
    batches = phase.batch_sizes
    overhead = 0.0
    if workload.kind != "open":
        untraced = [t for t in phase.latencies[0::2] if t is not None]
        traced = [t for t in phase.latencies[1::2] if t is not None]
        overhead = percentile(traced, 50.0) / percentile(untraced, 50.0) - 1.0
    return {
        "core.search_s": statistics.median(s.search_s for s in setups),
        "serving.compile_s": statistics.median(s.compile_s for s in setups),
        "serving.engine.queue_wait_p50_ms": _ms(phase.queue_waits),
        "serving.engine.queue_wait_p99_ms": _ms(phase.queue_waits, 99.0),
        "serving.engine.batch_size_mean": statistics.fmean(batches) if batches else 0.0,
        "serving.engine.failed": phase.failed if workload.kind != "stream" else 0,
        "serving.pipeline.infer_ms_p50": _ms(infer),
        "serving.pipeline.infer_calls": tracer.root_calls if workload.kind != "stream" else 0,
        "patch.suffix_ms_p50": _ms(infer_suffix),
        "patch.stage_self_ms_p50": _ms(self_of("serving.pipeline.infer")),
        "patch.suffix_share": sum(infer_suffix) / sum(infer) if infer else 0.0,
        "streaming.process_self_ms_p50": _ms(self_of("streaming.process")),
        "streaming.stitch_ms_p50": _ms(durations("patch.stitch_tiles", "streaming.process")),
        "streaming.suffix_ms_p50": _ms(durations("patch.run_suffix", "streaming.process")),
        "streaming.reuse_rate": phase.reuse_rate,
        "streaming.mac_fraction": phase.mac_fraction,
        "hardware.modelled_total_ms": modelled.total_ms,
        "hardware.modelled_suffix_mac_share": suffix_macs / (branch_macs + suffix_macs),
        "bench.generator_lag_p99_ms": _ms(phase.lags, 99.0),
        "bench.trace_overhead_frac": overhead,
    }
