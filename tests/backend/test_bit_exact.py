"""Bit-exactness acceptance suite for the batched compute backends.

The contract pinned here is the one :mod:`repro.backend` documents: every
backend produces the exact same output bytes as the per-branch loop
reference — on both golden zoo models, across all four execution styles
(sequential, threads host shards, distributed, streaming), and on random small
graphs via the property sweep.  ``np.array_equal`` throughout: no tolerances,
the comparison is bitwise.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from fixtures import property_cases, quantize_zoo_model, random_property_graph

from repro.backend import BackendUnavailable, MultiprocessBackend
from repro.hardware import make_cluster
from repro.patch import PatchExecutor, build_patch_plan, candidate_split_nodes
from repro.runtime import ExecutionPolicy, cluster, threads
from repro.serving.pipeline import CompiledPipeline

#: The two golden zoo deployments (matching tests/golden/golden_cases.py).
ZOO_CASES = [("mobilenetv2", 32), ("mcunet", 48)]

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _compiled_pair(model_name, resolution):
    """The same quantized deployment compiled twice: loop reference + vectorized."""
    spec, pipeline, result = quantize_zoo_model(
        model_name=model_name, resolution=resolution
    )
    loop = CompiledPipeline.from_result(pipeline, result, spec=spec, backend="loop")
    vec = CompiledPipeline.from_result(pipeline, result, spec=spec, backend="vectorized")
    return loop, vec


@pytest.mark.parametrize("model_name,resolution", ZOO_CASES)
class TestZooModelsBitExact:
    """ISSUE 8 acceptance: batched backend == loop reference on both zoo
    models under every executor."""

    def test_all_four_executors(self, model_name, resolution):
        loop, vec = _compiled_pair(model_name, resolution)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 3, resolution, resolution)).astype(np.float32)
        try:
            reference = loop.infer(x)

            # Sequential.
            assert np.array_equal(vec.infer(x), reference)
            # Patch-parallel (chunk-per-worker over the vectorized kernel).
            threaded = ExecutionPolicy(placement=threads(2))
            assert np.array_equal(vec.infer(x, policy=threaded), reference)
            # Distributed (per-shard batched kernel on each simulated device).
            sharded = ExecutionPolicy(placement=cluster(make_cluster("stm32h743", 2)))
            assert np.array_equal(vec.infer(x, policy=sharded), reference)

            # Streaming (incremental recompute through stitch_tiles).
            frame0 = x[:1]
            frame1 = frame0.copy()
            frame1[:, :, : resolution // 3, : resolution // 3] += 0.5
            session = vec.open_stream()
            assert np.array_equal(session.process(frame0), loop.infer(frame0))
            assert np.array_equal(session.process(frame1), loop.infer(frame1))
            # The second frame actually exercised partial recomputation.
            assert 0 < session.last_frame.executed_branches
        finally:
            loop.close()
            vec.close()

    def test_partial_tiles_match(self, model_name, resolution):
        loop, vec = _compiled_pair(model_name, resolution)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 3, resolution, resolution)).astype(np.float32)
        try:
            num = loop.plan.num_branches
            subset = [num - 1, 0, num // 2]  # out of plan order on purpose
            expected = loop.executor().compute_tiles(x, subset)
            got = vec.executor().compute_tiles(x, subset)
            assert [b.patch_id for b, _ in got] == [b.patch_id for b, _ in expected]
            for (_, tile_ref), (_, tile_vec) in zip(expected, got):
                assert np.array_equal(tile_vec, tile_ref)
        finally:
            loop.close()
            vec.close()


@pytest.mark.skipif(not HAVE_FORK, reason="multiprocess backend requires fork")
class TestMultiprocessBitExact:
    def test_forward_and_tiles_match_loop(self):
        spec, pipeline, result = quantize_zoo_model()
        loop = CompiledPipeline.from_result(pipeline, result, spec=spec, backend="loop")
        mp = CompiledPipeline.from_result(
            pipeline, result, spec=spec, backend="multiprocess"
        )
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        try:
            assert np.array_equal(mp.infer(x), loop.infer(x))
            subset = [0, loop.plan.num_branches - 1]
            expected = loop.executor().compute_tiles(x, subset)
            got = mp.executor().compute_tiles(x, subset)
            for (_, tile_ref), (_, tile_mp) in zip(expected, got):
                assert np.array_equal(tile_mp, tile_ref)
        finally:
            loop.close()
            mp.close()

    def test_worker_count_caps_at_branches(self):
        graph = random_property_graph(np.random.default_rng(5))
        split = candidate_split_nodes(graph)[0]
        plan = build_patch_plan(graph, split, 2)
        with PatchExecutor(plan) as executor:
            backend = MultiprocessBackend(executor, workers=16)
            try:
                assert backend._workers <= max(plan.num_branches, 1)
            finally:
                backend.close()


@pytest.mark.skipif(HAVE_FORK, reason="covers the no-fork platforms")
def test_multiprocess_unavailable_without_fork():
    graph = random_property_graph(np.random.default_rng(5))
    split = candidate_split_nodes(graph)[0]
    plan = build_patch_plan(graph, split, 2)
    with PatchExecutor(plan) as executor:
        with pytest.raises(BackendUnavailable):
            MultiprocessBackend(executor)


# ------------------------------------------------------------------ property
@property_cases(max_examples=15)
def test_vectorized_matches_loop_on_random_graphs(seed):
    """Property: vectorized tiles/outputs are bit-identical to the loop
    reference for random graphs, grids, batch sizes and branch subsets."""
    rng = np.random.default_rng(seed)
    graph = random_property_graph(rng)
    candidates = candidate_split_nodes(graph)
    split = candidates[int(rng.integers(len(candidates)))]
    _, split_h, split_w = graph.shapes()[split]
    num_patches = int(rng.integers(2, min(split_h, split_w, 4) + 1))
    plan = build_patch_plan(graph, split, num_patches)

    n = int(rng.integers(1, 3))
    x = rng.standard_normal((n, *graph.input_shape)).astype(np.float32)

    with PatchExecutor(plan, backend="loop") as loop_ex, PatchExecutor(
        plan, backend="vectorized"
    ) as vec_ex:
        assert np.array_equal(vec_ex.forward(x), loop_ex.forward(x))

        ids = [b.patch_id for b in plan.branches]
        size = int(rng.integers(1, len(ids) + 1))
        subset = list(rng.permutation(ids)[:size])
        expected = loop_ex.compute_tiles(x, subset)
        got = vec_ex.compute_tiles(x, subset)
        assert [b.patch_id for b, _ in got] == [b.patch_id for b, _ in expected]
        for (_, ref), (_, vec) in zip(expected, got):
            assert ref.dtype == vec.dtype
            assert np.array_equal(vec, ref)


@property_cases(max_examples=8)
def test_vectorized_matches_loop_under_content_dependent_hook(seed):
    """A hook without ``static_params`` forces per-member application; the
    batched execution must still reproduce the reference bytes exactly."""
    rng = np.random.default_rng(seed)
    graph = random_property_graph(rng)
    split = candidate_split_nodes(graph)[0]
    plan = build_patch_plan(graph, split, 2)

    def crush(patch_id, fm, array):
        # Content-dependent (per-array max) and patch-dependent: exercises the
        # "member" hook mode on exactly the clamped regions.
        scale = np.float32(np.abs(array).max() + 1.0 + patch_id)
        return np.round(array * scale) / scale

    x = rng.standard_normal((1, *graph.input_shape)).astype(np.float32)
    with PatchExecutor(plan, branch_hook=crush, backend="loop") as loop_ex:
        with PatchExecutor(plan, branch_hook=crush, backend="vectorized") as vec_ex:
            assert np.array_equal(vec_ex.forward(x), loop_ex.forward(x))
