"""Stale-halo streaming sessions: approximation contract, staleness bounds,
drift telemetry, and the MAC-accounting regression.

The ``accuracy_mode="stale_halo"`` tier skips recomputing branches whose
changes are confined to their halo; these tests pin its contract:

* ``max_stale_frames=0`` degenerates to the exact tier (bit-identical);
* a halo-only change is skipped and aged, a core change recomputes, and an
  overdue branch is force-recomputed (restoring exactness);
* drift sampling populates the per-frame and cumulative telemetry fields;
* serving-layer plumbing (``CompiledPipeline.open_stream`` /
  ``InferenceEngine.open_stream``) maps a ``stale_halo`` policy onto the
  session and mirrors the stale /
  drift counters into :class:`~repro.serving.telemetry.TelemetrySnapshot`.

Plus the satellite regression: ``executed_macs`` must be keyed by
``patch_id``, not branch-list position.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from fixtures import property_cases, quantize_and_compile, random_property_graph

from repro.patch import PatchExecutor, build_patch_plan, candidate_split_nodes
from repro.patch.analysis import branch_macs
from repro.patch.stale import plan_stale_geometry
from repro.runtime import ExecutionPolicy
from repro.serving import InferenceEngine
from repro.streaming import StreamSession


def _random_plan(rng: np.random.Generator):
    graph = random_property_graph(rng)
    candidates = candidate_split_nodes(graph)
    split = candidates[int(rng.integers(len(candidates)))]
    _, split_h, split_w = graph.shapes()[split]
    num_patches = int(rng.integers(2, min(split_h, split_w, 4) + 1))
    return build_patch_plan(graph, split, num_patches)


def _perturbed(rng: np.random.Generator, frame: np.ndarray) -> np.ndarray:
    _, _, height, width = frame.shape
    out = frame.copy()
    r0, c0 = int(rng.integers(0, height)), int(rng.integers(0, width))
    r1, c1 = int(rng.integers(r0 + 1, height + 1)), int(rng.integers(c0 + 1, width + 1))
    out[:, :, r0:r1, c0:c1] += rng.standard_normal(
        (1, frame.shape[1], r1 - r0, c1 - c0)
    ).astype(np.float32)
    return out


def _halo_only_pixel(plan) -> tuple[int, int, int, int] | None:
    """A pixel inside some branch's halo band, with the owning branch.

    Returns ``(row, col, owner_patch_id, halo_patch_id)`` — perturbing that
    pixel core-dirties the owner while only halo-dirtying the other branch.
    """
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
    return None


# ------------------------------------------------------------ stale semantics
@property_cases(max_examples=10)
def test_max_stale_zero_degenerates_to_exact(seed):
    rng = np.random.default_rng(seed)
    plan = _random_plan(rng)
    executor = PatchExecutor(plan)
    session = StreamSession(executor, accuracy_mode="stale_halo", max_stale_frames=0)
    frame = rng.standard_normal((1, *plan.graph.input_shape)).astype(np.float32)
    for _ in range(4):
        assert np.array_equal(session.process(frame), executor.forward(frame))
        frame = _perturbed(rng, frame)
    assert session.stats().stale_branches_served == 0


def test_halo_only_change_is_skipped_aged_and_force_recomputed():
    rng = np.random.default_rng(2)
    plan = _random_plan(rng)
    located = _halo_only_pixel(plan)
    assert located is not None, "plan should have at least one halo band"
    row, col, owner, lagging = located

    executor = PatchExecutor(plan)
    session = StreamSession(executor, accuracy_mode="stale_halo", max_stale_frames=1)
    frame = rng.standard_normal((1, *plan.graph.input_shape)).astype(np.float32)
    session.process(frame)

    # Frame 1: one halo-band pixel changes.  The owner is core-dirty and
    # recomputes; the lagging branch is halo-only-dirty and is skipped.
    frame = frame.copy()
    frame[0, :, row, col] += 1.0
    session.process(frame)
    stats = session.last_frame
    assert owner in stats.dirty_branches
    assert lagging not in stats.dirty_branches
    assert lagging in stats.stale_branches

    # Frame 2 (quiet): the lag would exceed max_stale_frames=1, so the
    # branch is force-recomputed — and the session is exact again.
    out = session.process(frame)
    stats = session.last_frame
    assert lagging in stats.dirty_branches
    assert stats.stale_branches == ()
    assert np.array_equal(out, executor.forward(frame))

    cumulative = session.stats()
    assert cumulative.stale_frames == 1
    assert cumulative.stale_branches_served >= 1


def test_unbounded_staleness_persists_across_quiet_frames():
    rng = np.random.default_rng(6)
    plan = _random_plan(rng)
    located = _halo_only_pixel(plan)
    assert located is not None
    row, col, _, lagging = located
    executor = PatchExecutor(plan)
    session = StreamSession(executor, accuracy_mode="stale_halo", max_stale_frames=None)
    frame = rng.standard_normal((1, *plan.graph.input_shape)).astype(np.float32)
    session.process(frame)
    frame = frame.copy()
    frame[0, :, row, col] += 1.0
    session.process(frame)
    for _ in range(3):  # quiet frames: the lag persists, nothing recomputes
        session.process(frame)
        stats = session.last_frame
        assert stats.dirty_branches == ()
        assert lagging in stats.stale_branches
    session.reset()
    assert session.process(frame) is not None
    assert session.last_frame.stale_branches == ()


def test_drift_sampling_populates_frame_and_cumulative_fields():
    rng = np.random.default_rng(9)
    plan = _random_plan(rng)
    executor = PatchExecutor(plan)
    session = StreamSession(
        executor, accuracy_mode="stale_halo", drift_sample_every=1
    )
    frame = rng.standard_normal((1, *plan.graph.input_shape)).astype(np.float32)
    out = session.process(frame)
    # First frame is a full recompute: sampled drift is exactly zero.
    assert session.last_frame.drift_max_abs == 0.0
    assert session.last_frame.drift_rms == 0.0
    assert np.array_equal(out, executor.forward(frame))
    for _ in range(3):
        frame = _perturbed(rng, frame)
        session.process(frame)
        stats = session.last_frame
        assert stats.drift_max_abs is not None and stats.drift_max_abs >= 0.0
        assert stats.drift_rms is not None and stats.drift_rms <= stats.drift_max_abs + 1e-12
    cumulative = session.stats()
    assert cumulative.drift_samples == 4
    assert cumulative.max_drift_abs >= cumulative.max_drift_rms


def test_session_validates_parameters():
    rng = np.random.default_rng(1)
    plan = _random_plan(rng)
    executor = PatchExecutor(plan)
    with pytest.raises(ValueError, match="accuracy_mode"):
        StreamSession(executor, accuracy_mode="sloppy")
    with pytest.raises(ValueError, match="drift_sample_every"):
        StreamSession(executor, drift_sample_every=-1)
    with pytest.raises(ValueError, match="max_stale_frames"):
        StreamSession(executor, max_stale_frames=-1)


# ------------------------------------------------- MAC accounting (satellite)
class _StubExecutor:
    """Just enough executor surface for a session; never computes tiles."""

    def __init__(self, plan) -> None:
        self.plan = plan

    def stitch_tiles(self, x, branch_ids, out):
        return out

    def run_suffix(self, x, stitched):
        return np.zeros((x.shape[0], 4), dtype=np.float32)


def test_executed_macs_keyed_by_patch_id_not_position():
    """Regression: ``executed_macs`` used to index a positional list with
    patch ids — an IndexError (or silent misattribution) whenever ids are
    not dense positional indices."""
    rng = np.random.default_rng(4)
    base = _random_plan(rng)
    renumbered = replace(
        base,
        branches=[
            replace(branch, patch_id=branch.patch_id * 10 + 5) for branch in base.branches
        ],
    )
    session = StreamSession(_StubExecutor(renumbered))
    shape = (1, *renumbered.graph.input_shape)
    first = rng.standard_normal(shape).astype(np.float32)
    session.process(first)
    stats = session.last_frame
    expected_total = sum(
        branch_macs(renumbered, branch) for branch in renumbered.branches
    )
    assert stats.executed_macs == expected_total  # first frame executes all
    assert stats.total_macs == expected_total

    second = _perturbed(rng, first)
    session.process(second)
    stats = session.last_frame
    by_id = {b.patch_id: branch_macs(renumbered, b) for b in renumbered.branches}
    assert stats.executed_macs == sum(by_id[i] for i in stats.dirty_branches)


# ----------------------------------------------------------- serving plumbing
def test_pipeline_and_engine_streams_carry_stale_telemetry():
    _, _, compiled = quantize_and_compile()
    try:
        located = _halo_only_pixel(compiled.plan)
        assert located is not None
        row, col, _, lagging = located
        rng = np.random.default_rng(13)
        shape = compiled.plan.graph.input_shape

        with pytest.raises(ValueError, match="tier"):
            compiled.open_stream(policy=ExecutionPolicy(tier="sloppy"))

        session = compiled.open_stream(
            policy=ExecutionPolicy(
                tier="stale_halo", drift_sample_every=1, max_stale_frames=3
            )
        )
        assert session.accuracy_mode == "stale_halo"
        assert session.max_stale_frames == 3

        with InferenceEngine(compiled) as engine:
            stream = engine.open_stream(
                policy=ExecutionPolicy(tier="stale_halo", drift_sample_every=1)
            )
            frame = rng.standard_normal(shape).astype(np.float32)
            stream.process(frame)
            frame = frame.copy()
            frame[:, row, col] += 1.0  # halo-only change for `lagging`
            stream.process(frame)
            assert lagging in stream.last_frame.stale_branches
            snapshot = engine.telemetry.snapshot()
        assert snapshot.stream_frames == 2
        assert snapshot.stream_branches_stale >= 1
        assert snapshot.stream_drift_samples == 2
        assert snapshot.stream_max_drift_abs >= snapshot.stream_max_drift_rms >= 0.0
    finally:
        compiled.close()
