"""InferenceEngine.open_stream: session wiring, telemetry, lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SyntheticVideo
from repro.runtime import ExecutionPolicy, threads
from repro.serving import EngineClosed, InferenceEngine, PipelineCache


def _video(num_frames=3, resolution=32, seed=1):
    return SyntheticVideo(num_frames=num_frames, resolution=resolution, seed=seed)


def test_open_stream_serves_bit_identical_frames(compiled_mobilenet):
    with InferenceEngine(compiled_mobilenet, batch_timeout_s=0.001) as engine:
        session = engine.open_stream()
        for frame in _video():
            assert np.array_equal(
                session.process(frame), compiled_mobilenet.infer(frame[None])[0]
            )


def test_open_stream_records_reuse_telemetry(compiled_mobilenet):
    with InferenceEngine(compiled_mobilenet, batch_timeout_s=0.001) as engine:
        session = engine.open_stream()
        video = _video()
        for frame in video:
            session.process(frame)
        session.process(video.frames[-1].copy())  # identical: pure reuse
        snap = engine.telemetry.snapshot()
    num_branches = compiled_mobilenet.plan.num_branches
    assert snap.stream_frames == 4
    assert snap.stream_branches_executed + snap.stream_branches_reused == 4 * num_branches
    assert snap.stream_branches_reused >= num_branches  # at least the identical frame
    assert snap.stream_reuse_rate == pytest.approx(
        snap.stream_branches_reused / (4 * num_branches)
    )
    # The engine-side counters mirror the session's own accounting exactly.
    stats = session.stats()
    assert snap.stream_branches_executed == stats.executed_branches
    assert snap.stream_branches_reused == stats.reused_branches


def test_open_stream_uses_engine_execution_mode(compiled_mobilenet):
    threaded = ExecutionPolicy(placement=threads())
    with InferenceEngine(
        compiled_mobilenet, batch_timeout_s=0.001, policy=threaded
    ) as engine:
        session = engine.open_stream()
        frame = _video(num_frames=1).frames[0]
        assert np.array_equal(
            session.process(frame), compiled_mobilenet.infer(frame[None])[0]
        )
        # The session's executor is the pipeline's patch-parallel one.
        assert session.executor is compiled_mobilenet.executor(policy=threaded)


def test_open_stream_after_close_raises(compiled_mobilenet):
    engine = InferenceEngine(compiled_mobilenet, batch_timeout_s=0.001)
    engine.close()
    with pytest.raises(EngineClosed):
        engine.open_stream()


def test_open_stream_requires_key_for_multi_model_cache():
    cache = PipelineCache(lambda key: None, capacity=2)
    engine = InferenceEngine(cache, batch_timeout_s=0.001)
    try:
        with pytest.raises(ValueError, match="key"):
            engine.open_stream()
    finally:
        engine.close()
