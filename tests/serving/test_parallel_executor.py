"""The ``threads(n)`` placement: host shards of the sharded executor, bit-exact
vs. the sequential executor."""

from __future__ import annotations

import numpy as np
import pytest

from fixtures import quantize_and_compile, quantize_zoo_model

from repro.core import QuantMCUPipeline
from repro.distributed import DistributedExecutor
from repro.patch import PatchExecutor, build_patch_plan
from repro.runtime import ExecutionPolicy, threads
from repro.serving.pipeline import _host_cluster


def test_plain_plan_parallel_matches_sequential(residual_graph, rng):
    plan = build_patch_plan(residual_graph, "add", 2)
    x = rng.standard_normal((3, 3, 16, 16)).astype(np.float32)
    sequential = PatchExecutor(plan).forward(x)
    with DistributedExecutor(plan, _host_cluster(plan, 4)) as parallel:
        assert np.array_equal(parallel.forward(x), sequential)


def test_single_worker_falls_back_to_sequential_path(residual_graph, rng):
    plan = build_patch_plan(residual_graph, "add", 2)
    x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    with DistributedExecutor(plan, _host_cluster(plan, 1)) as parallel:
        assert np.array_equal(parallel.forward(x), PatchExecutor(plan).forward(x))
    assert parallel._workers is None  # never spun up a worker


def test_default_worker_count_bounds(residual_graph):
    plan = build_patch_plan(residual_graph, "add", 2)
    assert 1 <= _host_cluster(plan, None).num_devices <= plan.num_branches


@pytest.fixture(scope="module")
def compiled():
    _, _, compiled = quantize_and_compile()
    yield compiled
    compiled.close()


@pytest.mark.parametrize("num_workers", [1, 2, 3])
def test_threads_placement_is_host_shards(compiled, num_workers, rng):
    """threads(n) is a sharded executor over n host workers: n shards that
    cover every branch once, bit-identical to local, and no worker thread at
    all for n = 1."""
    policy = ExecutionPolicy(placement=threads(num_workers))
    executor = compiled.executor(policy=policy)
    assert isinstance(executor, DistributedExecutor)
    assert executor.num_devices == num_workers
    assignment = executor.shard_plan.assignment()
    assert len(assignment) == num_workers
    assert sorted(b for shard in assignment for b in shard) == list(
        range(compiled.plan.num_branches)
    )
    x = rng.standard_normal((2, *compiled.graph.input_shape)).astype(np.float32)
    assert np.array_equal(compiled.infer(x, policy=policy), compiled.infer(x))
    assert (executor._workers is None) == (num_workers == 1)


@pytest.mark.parametrize("model_name,resolution", [("mobilenetv2", 32), ("mcunet", 48)])
def test_quantized_parallel_bit_identical_on_zoo_models(model_name, resolution, rng):
    """Acceptance: host-sharded serving output == sequential PatchExecutor
    output, under the full QuantMCU quantization, on two zoo models."""
    _, pipeline, result = quantize_zoo_model(model_name=model_name, resolution=resolution)

    branch_hook, suffix_hook = pipeline.make_hooks(result)
    x = rng.standard_normal((3, 3, resolution, resolution)).astype(np.float32)
    with pipeline.quantized_weights():
        sequential = PatchExecutor(
            result.plan, branch_hook=branch_hook, suffix_hook=suffix_hook
        ).forward(x)
        with DistributedExecutor(
            result.plan,
            _host_cluster(result.plan, 4),
            branch_hook=branch_hook,
            suffix_hook=suffix_hook,
        ) as parallel:
            assert np.array_equal(parallel.forward(x), sequential)


def test_run_branch_tiles_cover_split_feature_map(tiny_mobilenet, rng):
    plan = QuantMCUPipeline(tiny_mobilenet, sram_limit_bytes=64 * 1024, num_patches=2).build_plan()
    executor = PatchExecutor(plan)
    x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    stitched = executor.stitched_split_feature_map(x)
    rebuilt = np.zeros_like(stitched)
    for branch in plan.branches:
        tile = branch.output_region
        rebuilt[:, :, tile.row_start : tile.row_stop, tile.col_start : tile.col_stop] = (
            executor.run_branch(branch, x)
        )
    assert np.array_equal(rebuilt, stitched)
