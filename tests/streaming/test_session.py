"""StreamSession: bit-identical incremental recomputation across executors."""

from __future__ import annotations

import numpy as np
import pytest

from fixtures import quantize_and_compile

from repro.data import SyntheticVideo
from repro.hardware import make_cluster
from repro.patch import analyze_streaming
from repro.runtime import ExecutionPolicy, cluster, threads
from repro.streaming import StreamSession, changed_mask, dirty_branch_ids

#: The same two zoo deployments the golden suite pins.
ZOO_CASES = [
    dict(model_name="mobilenetv2", resolution=32),
    dict(model_name="mcunet", resolution=48),
]


@pytest.fixture(scope="module", params=[case["model_name"] for case in ZOO_CASES])
def zoo_compiled(request):
    params = next(c for c in ZOO_CASES if c["model_name"] == request.param)
    _, _, compiled = quantize_and_compile(**params)
    yield params, compiled
    compiled.close()


def _video(resolution: int, num_frames: int = 4, **kwargs):
    kwargs.setdefault("motion_fraction", 0.3)
    kwargs.setdefault("seed", 1)
    return SyntheticVideo(num_frames=num_frames, resolution=resolution, **kwargs)


# ------------------------------------------------------------- bit identity
def test_incremental_is_bit_identical_on_zoo_models(zoo_compiled):
    """Acceptance: streaming output == full recompute, byte for byte."""
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    for frame in _video(params["resolution"]):
        incremental = session.process(frame)
        full = compiled.infer(frame[None])[0]
        assert np.array_equal(incremental, full)


def test_incremental_is_bit_identical_with_parallel_executor(zoo_compiled):
    params, compiled = zoo_compiled
    session = compiled.open_stream(policy=ExecutionPolicy(placement=threads()))
    for frame in _video(params["resolution"]):
        assert np.array_equal(session.process(frame), compiled.infer(frame[None])[0])


def test_incremental_is_bit_identical_on_cluster(zoo_compiled):
    params, compiled = zoo_compiled
    session = compiled.open_stream(
        policy=ExecutionPolicy(placement=cluster(make_cluster("stm32h743", 2)))
    )
    for frame in _video(params["resolution"]):
        assert np.array_equal(session.process(frame), compiled.infer(frame[None])[0])


# ------------------------------------------------------------- reuse limits
def test_identical_frame_reuses_everything(zoo_compiled):
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    frame = _video(params["resolution"]).frames[0]
    session.process(frame)
    out = session.process(frame.copy())  # identical content, distinct array
    assert session.last_frame.executed_branches == 0
    assert session.last_frame.reuse_rate == 1.0
    assert session.last_frame.executed_macs == 0
    assert np.array_equal(out, compiled.infer(frame[None])[0])


def test_fully_changed_frame_reuses_nothing(zoo_compiled):
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    frame = _video(params["resolution"]).frames[0]
    session.process(frame)
    session.process(frame + 1.0)  # every pixel moved
    assert session.last_frame.executed_branches == session.plan.num_branches
    assert session.last_frame.reuse_rate == 0.0
    assert session.last_frame.executed_macs == session.last_frame.total_macs


def test_first_frame_and_reset_recompute_everything(zoo_compiled):
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    frame = _video(params["resolution"]).frames[0]
    session.process(frame)
    assert session.frame_stats[0].executed_branches == session.plan.num_branches
    session.process(frame)
    assert session.last_frame.executed_branches == 0
    session.reset()  # scene cut: the cached tiles must not be trusted
    out = session.process(frame)
    assert session.last_frame.executed_branches == session.plan.num_branches
    assert np.array_equal(out, compiled.infer(frame[None])[0])


# ---------------------------------------------------------------- accounting
def test_stats_accumulate_and_match_analysis(zoo_compiled):
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    for frame in _video(params["resolution"], num_frames=3):
        session.process(frame)
    stats = session.stats()
    assert stats.frames == 3
    assert stats.executed_branches + stats.reused_branches == 3 * session.plan.num_branches
    assert stats.executed_macs == sum(f.executed_macs for f in session.frame_stats)
    # Per-frame MACs agree with the analysis-layer dirty-MAC accounting.
    for frame_stats in session.frame_stats:
        report = analyze_streaming(session.plan, list(frame_stats.dirty_branches))
        assert report.executed_macs == frame_stats.executed_macs
        assert report.total_macs == frame_stats.total_macs
        assert report.reuse_rate == frame_stats.reuse_rate


def test_frame_shape_validation(zoo_compiled):
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    resolution = params["resolution"]
    with pytest.raises(ValueError, match="does not match"):
        session.process(np.zeros((3, resolution + 1, resolution + 1), dtype=np.float32))
    with pytest.raises(ValueError, match="one sample"):
        session.process(np.zeros((2, 3, resolution, resolution), dtype=np.float32))
    # batched single-sample input returns a batched output
    frame = np.zeros((1, 3, resolution, resolution), dtype=np.float32)
    assert session.process(frame).shape[0] == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_frame_is_rejected_without_touching_state(zoo_compiled, bad):
    """Regression: an all-NaN/Inf frame used to be served as finite logits."""
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    video = _video(params["resolution"], num_frames=2)
    first = session.process(video.frames[0])
    with pytest.raises(ValueError, match="NaN or Inf"):
        session.process(np.full_like(video.frames[1], bad))
    assert session.num_frames == 1
    # The cache still holds frame 0, so repeating it reuses every branch.
    assert np.array_equal(session.process(video.frames[0]), first)
    assert session.last_frame.executed_branches == 0
    session.close()


def test_failed_frame_resets_the_cache(zoo_compiled):
    """A frame that fails mid-serve must not leave half-updated tiles behind."""
    params, compiled = zoo_compiled
    session = compiled.open_stream()
    video = _video(params["resolution"])
    session.process(video.frames[0])

    original = session.executor.run_suffix
    session.executor.run_suffix = lambda x, stitched: (_ for _ in ()).throw(RuntimeError("boom"))
    try:
        with pytest.raises(RuntimeError, match="boom"):
            session.process(video.frames[1])
    finally:
        session.executor.run_suffix = original
    # The stitched buffer may hold a frame-0/frame-1 mix: the session must
    # recompute the next frame in full rather than diff against stale state.
    out = session.process(video.frames[0])
    assert session.last_frame.executed_branches == session.plan.num_branches
    assert np.array_equal(out, compiled.infer(video.frames[0][None])[0])


def test_frame_history_is_capped_but_totals_are_not(zoo_compiled):
    params, compiled = zoo_compiled
    executor = compiled.executor()
    from repro.streaming import StreamSession as Session

    session = Session(executor, history_frames=2)
    frame = _video(params["resolution"]).frames[0]
    for _ in range(5):
        session.process(frame)
    assert len(session.frame_stats) == 2  # bounded history
    stats = session.stats()
    assert stats.frames == session.num_frames == 5  # uncapped counters
    assert stats.executed_branches == session.plan.num_branches  # first frame only
    assert stats.reused_branches == 4 * session.plan.num_branches


# ------------------------------------------------------ distributed reuse
def test_distributed_reuse_is_per_shard(zoo_compiled):
    """Only devices owning dirty patches run branches; clean shards stay idle."""
    params, compiled = zoo_compiled
    # Instrumentation observes every branch under the loop backend, the one
    # backend that calls run_branch per branch.
    executor = compiled.executor(
        policy=ExecutionPolicy(
            placement=cluster(make_cluster("stm32h743", 2)), backend="loop"
        )
    )
    executed: list[int] = []
    original = executor.run_branch

    def recording_run_branch(branch, x):
        executed.append(branch.patch_id)
        return original(branch, x)

    executor.run_branch = recording_run_branch
    try:
        session = StreamSession(executor)
        video = _video(params["resolution"], num_frames=3)
        session.process(video.frames[0])
        assert sorted(executed) == list(range(session.plan.num_branches))
        executed.clear()
        session.process(video.frames[0].copy())  # identical: no device works
        assert executed == []
        session.process(video.frames[1])
        assert sorted(executed) == list(session.last_frame.dirty_branches)
    finally:
        executor.run_branch = original


def test_close_shuts_pools_revived_by_live_sessions(zoo_compiled):
    """A session's executor must not leak its pool when the pipeline serves
    another worker count in between: close() reaches it."""
    params, compiled = zoo_compiled
    three = ExecutionPolicy(placement=threads(3))
    session = compiled.open_stream(policy=three)
    held = session.executor
    frame = _video(params["resolution"]).frames[0]
    session.process(frame)
    # A different worker count gets its own executor; the session's stays
    # cached rather than being retired under it.
    compiled.infer(frame[None], policy=ExecutionPolicy(placement=threads(2)))
    assert compiled.executor(policy=ExecutionPolicy(placement=threads(2))) is not held
    assert compiled.executor(policy=three) is held
    # The live session keeps (lazily re-creating) the workers it runs on.
    session.process(frame)
    session.process(frame + 1.0)  # force real branch work through the workers
    assert held._workers is not None
    compiled.close()
    assert held._workers is None  # close() reached the session's workers too


# ----------------------------------------------------------------- diffing
def test_changed_mask_and_dirty_ids_are_halo_aware(zoo_compiled):
    """A pixel inside a branch's halo — outside its tile — still dirties it."""
    _, compiled = zoo_compiled
    plan = compiled.plan
    _, height, width = plan.graph.input_shape
    prev = np.zeros((1, 3, height, width), dtype=np.float32)
    # Flip one pixel in the exact centre: with a 2x2 grid every branch's
    # halo-inclusive input region contains it even though it lies in only
    # one branch's own tile.
    curr = prev.copy()
    curr[0, 0, height // 2, width // 2] = 1.0
    mask = changed_mask(prev, curr)
    assert mask.sum() == 1
    dirty = dirty_branch_ids(plan, mask)
    expected = [
        b.patch_id
        for b in plan.branches
        if b.clamped_regions["input"].row_start <= height // 2 < b.clamped_regions["input"].row_stop
        and b.clamped_regions["input"].col_start <= width // 2 < b.clamped_regions["input"].col_stop
    ]
    assert dirty == expected
    assert len(dirty) >= 1


def test_changed_mask_rejects_shape_changes():
    prev = np.zeros((3, 8, 8), dtype=np.float32)
    with pytest.raises(ValueError, match="shape changed"):
        changed_mask(prev, np.zeros((3, 8, 9), dtype=np.float32))
