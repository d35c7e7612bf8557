"""InferenceEngine: dynamic batching, correctness under concurrency, caching."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import QuantMCUPipeline
from repro.serving import (
    EngineClosed,
    InferenceEngine,
    PipelineCache,
    compile_pipeline,
)


# A sample's result does not depend on which other samples share its batch,
# but BLAS may pick a different GEMM kernel per batch *size*, perturbing
# results at float32 rounding level — so comparisons against a reference
# computed at a different batch size use a tolerance instead of bit equality.
BATCH_SIZE_TOL = dict(rtol=1e-4, atol=5e-2)


def test_results_match_direct_inference(compiled_mobilenet, rng):
    x = rng.standard_normal((6, 3, 32, 32)).astype(np.float32)
    direct = compiled_mobilenet.infer(x)
    with InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=0.002) as engine:
        futures = [engine.submit(x[i]) for i in range(6)]
        outputs = [f.result(timeout=30) for f in futures]
    for i, out in enumerate(outputs):
        assert np.allclose(out, direct[i], **BATCH_SIZE_TOL)


def test_single_mini_batch_request_is_bit_exact(compiled_mobilenet, rng):
    """A request served alone runs the exact same batch as direct inference."""
    x = rng.standard_normal((5, 3, 32, 32)).astype(np.float32)
    direct = compiled_mobilenet.infer(x)
    with InferenceEngine(compiled_mobilenet, max_batch_size=5, batch_timeout_s=10.0) as engine:
        out = engine.infer(x)
    assert np.array_equal(out, direct)


def test_flush_on_max_batch_size(compiled_mobilenet, rng):
    """A full batch must flush without waiting for the timeout."""
    x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    with InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=60.0) as engine:
        futures = [engine.submit(x[i]) for i in range(4)]
        for f in futures:
            f.result(timeout=30)  # would block for 60s if only timeout flushed
    histogram = engine.telemetry.snapshot().batch_size_histogram
    assert histogram.get(4, 0) >= 1


def test_flush_on_timeout(compiled_mobilenet, rng):
    """A lone request must complete after batch_timeout_s, not wait for a full batch."""
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(compiled_mobilenet, max_batch_size=64, batch_timeout_s=0.02) as engine:
        start = time.perf_counter()
        out = engine.submit(x).result(timeout=30)
        elapsed = time.perf_counter() - start
    assert out.shape == compiled_mobilenet.graph.output_shape()
    # generous bound: service time dominates, but it must not be the 64-batch wait
    assert elapsed < 25
    assert engine.telemetry.snapshot().batch_size_histogram.get(1, 0) >= 1


def test_mini_batch_requests_and_shape_validation(compiled_mobilenet, rng):
    x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    with InferenceEngine(compiled_mobilenet, max_batch_size=8, batch_timeout_s=0.002) as engine:
        out = engine.infer(x)
        assert out.shape[0] == 2
        with pytest.raises(ValueError, match="does not match"):
            engine.submit(rng.standard_normal((3, 16, 16)).astype(np.float32))


def test_concurrent_clients(compiled_mobilenet, rng):
    x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
    direct = compiled_mobilenet.infer(x)
    errors: list[Exception] = []

    with InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=0.002) as engine:

        def client(i: int) -> None:
            try:
                for _ in range(3):
                    out = engine.infer(x[i])
                    assert np.allclose(out, direct[i], **BATCH_SIZE_TOL)
            except Exception as exc:  # pragma: no cover - assertion carrier
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors
    assert engine.telemetry.snapshot().num_requests == 24


def test_cancelled_request_does_not_kill_the_batcher(compiled_mobilenet, rng):
    """A Future cancelled while queued is dropped; later requests still serve."""
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(compiled_mobilenet, max_batch_size=64, batch_timeout_s=0.05) as engine:
        doomed = engine.submit(x)
        assert doomed.cancel()
        out = engine.submit(x).result(timeout=30)  # batcher must still be alive
    assert out.shape == compiled_mobilenet.graph.output_shape()
    assert doomed.cancelled()
    assert engine.telemetry.snapshot().num_requests == 1


def test_submit_after_close_raises(compiled_mobilenet, rng):
    engine = InferenceEngine(compiled_mobilenet, batch_timeout_s=0.001)
    engine.close()
    with pytest.raises(EngineClosed):
        engine.submit(rng.standard_normal((3, 32, 32)).astype(np.float32))


def test_cache_eviction_under_multi_model_serving(tiny_mobilenet, rng):
    """LRU capacity 2 serving 3 configs: the coldest pipeline is evicted."""
    calib = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    closed: list = []

    def factory(key):
        weight_bits = key[1]
        pipeline = QuantMCUPipeline(
            tiny_mobilenet, sram_limit_bytes=64 * 1024, num_patches=2, weight_bits=weight_bits
        )
        return compile_pipeline(pipeline, pipeline.run(calib))

    cache = PipelineCache(factory, capacity=2, on_evict=lambda k, p: closed.append(k))
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(cache, max_batch_size=2, batch_timeout_s=0.002) as engine:
        engine.infer(x, key=("mobilenetv2", 8))
        engine.infer(x, key=("mobilenetv2", 4))
        engine.infer(x, key=("mobilenetv2", 2))   # evicts the 8-bit pipeline
        engine.infer(x, key=("mobilenetv2", 4))   # still resident -> hit

    stats = cache.stats()
    assert stats.misses == 3
    assert stats.hits == 1
    assert stats.evictions == 1
    assert closed == [("mobilenetv2", 8)]
    assert engine.telemetry.snapshot().cache_evictions == 1


def test_engine_requires_key_for_multi_model_cache(tiny_mobilenet, rng):
    cache = PipelineCache(lambda key: None, capacity=2)
    engine = InferenceEngine(cache, batch_timeout_s=0.001)
    try:
        with pytest.raises(ValueError, match="key"):
            engine.submit(rng.standard_normal((3, 32, 32)).astype(np.float32))
    finally:
        engine.close()


def test_modelled_device_latency_recorded(compiled_mobilenet, rng):
    from repro.hardware import ARDUINO_NANO_33_BLE

    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(
        compiled_mobilenet, max_batch_size=2, batch_timeout_s=0.002, device=ARDUINO_NANO_33_BLE
    ) as engine:
        engine.infer(x)
    snap = engine.telemetry.snapshot()
    assert snap.mean_modelled_device_ms > 0


def test_zero_timeout_flushes_immediately(compiled_mobilenet, rng):
    """batch_timeout_s=0 degrades gracefully to flush-per-drain, not a busy hang."""
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(compiled_mobilenet, max_batch_size=64, batch_timeout_s=0.0) as engine:
        outputs = [engine.submit(x).result(timeout=30) for _ in range(3)]
    for out in outputs:
        assert out.shape == compiled_mobilenet.graph.output_shape()
    snap = engine.telemetry.snapshot()
    assert snap.num_requests == 3
    # Each request was awaited before the next was submitted, so a correct
    # zero-timeout engine flushes each alone; a regression that treats 0 as
    # "wait for a full batch" would instead hang until the result() timeout.
    assert snap.batch_size_histogram == {1: 3}


def test_close_is_idempotent_and_blocks_all_submission_paths(compiled_mobilenet, rng):
    engine = InferenceEngine(compiled_mobilenet, batch_timeout_s=0.001)
    engine.close()
    engine.close()  # second close must be a no-op, not an error
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with pytest.raises(EngineClosed):
        engine.submit(x)
    with pytest.raises(EngineClosed):
        engine.infer(x)  # the blocking wrapper goes through the same gate


def test_max_batch_size_never_exceeded_by_multi_sample_requests(compiled_mobilenet, rng):
    """Regression: a multi-sample request landing on an almost-full group used
    to be concatenated into a served batch larger than ``max_batch_size``."""
    x = rng.standard_normal((6, 3, 32, 32)).astype(np.float32)
    direct = compiled_mobilenet.infer(x)
    with InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=10.0) as engine:
        # Three singles accumulate (the timeout is far away), then a 3-sample
        # request pushes the group to 6 samples and triggers the size flush.
        futures = [engine.submit(x[i]) for i in range(3)]
        futures.append(engine.submit(x[3:6]))
        singles = [f.result(timeout=30) for f in futures[:3]]
        multi = futures[3].result(timeout=30)
    histogram = engine.telemetry.snapshot().batch_size_histogram
    assert histogram, "no batches recorded"
    assert max(histogram) <= 4, f"served a batch over the bound: {histogram}"
    for i, out in enumerate(singles):
        assert np.allclose(out, direct[i], **BATCH_SIZE_TOL)
    assert np.allclose(multi, direct[3:6], **BATCH_SIZE_TOL)


def test_oversized_single_request_is_served_alone(compiled_mobilenet, rng):
    """A single request larger than max_batch_size is the one allowed exception."""
    x = rng.standard_normal((7, 3, 32, 32)).astype(np.float32)
    direct = compiled_mobilenet.infer(x)
    with InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=0.01) as engine:
        out = engine.infer(x)
    assert np.array_equal(out, direct)  # served alone: the identical batch
    histogram = engine.telemetry.snapshot().batch_size_histogram
    assert histogram.get(7) == 1


def test_device_breakdown_memo_is_bounded(compiled_mobilenet):
    """Regression: the modelled-latency memo grew without bound per batch size."""
    from repro.hardware import ARDUINO_NANO_33_BLE

    engine = InferenceEngine(
        compiled_mobilenet, batch_timeout_s=0.001, device=ARDUINO_NANO_33_BLE
    )
    try:
        for batch_size in range(1, 200):
            engine._modelled_device_seconds(compiled_mobilenet, batch_size)
        memo = engine._device_breakdowns[compiled_mobilenet.fingerprint]
        assert len(memo) <= 32
        # LRU: the most recent batch sizes are the ones retained.
        assert max(memo) == 199
        assert 1 not in memo
    finally:
        engine.close()


def test_device_breakdowns_dropped_when_pipeline_evicted(tiny_mobilenet, rng):
    """Regression: latency memo entries outlived their evicted pipeline."""
    from repro.hardware import ARDUINO_NANO_33_BLE

    calib = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    compiled_by_key = {}

    def factory(key):
        pipeline = QuantMCUPipeline(
            tiny_mobilenet, sram_limit_bytes=64 * 1024, num_patches=2, weight_bits=key[1]
        )
        compiled_by_key[key] = compile_pipeline(pipeline, pipeline.run(calib))
        return compiled_by_key[key]

    cache = PipelineCache(factory, capacity=1)
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(
        cache, max_batch_size=2, batch_timeout_s=0.002, device=ARDUINO_NANO_33_BLE
    ) as engine:
        engine.infer(x, key=("mobilenetv2", 8))
        fingerprint_8 = compiled_by_key[("mobilenetv2", 8)].fingerprint
        assert fingerprint_8 in engine._device_breakdowns
        engine.infer(x, key=("mobilenetv2", 4))  # capacity 1: evicts the 8-bit one
        assert fingerprint_8 not in engine._device_breakdowns
        assert compiled_by_key[("mobilenetv2", 4)].fingerprint in engine._device_breakdowns


def test_race_discard_keeps_resident_pipeline_breakdowns(compiled_mobilenet):
    """Releasing a compile-race duplicate must not drop the resident's memo:
    both carry the same fingerprint, and the memo entries are still valid."""
    from repro.hardware import ARDUINO_NANO_33_BLE

    cache = PipelineCache(lambda key: compiled_mobilenet, capacity=2)
    engine = InferenceEngine(cache, batch_timeout_s=0.001, device=ARDUINO_NANO_33_BLE)
    try:
        cache.get("model")
        engine._modelled_device_seconds(compiled_mobilenet, 2)
        assert compiled_mobilenet.fingerprint in engine._device_breakdowns
        # A losing duplicate carries the resident's fingerprint; the eviction
        # hook must see the key still resident and keep the memo.
        engine._drop_pipeline_breakdowns("model", compiled_mobilenet)
        assert compiled_mobilenet.fingerprint in engine._device_breakdowns
    finally:
        engine.close()


def test_engine_chains_existing_cache_on_evict(compiled_mobilenet):
    """Wrapping the cache's eviction hook must preserve a caller-installed one."""
    seen: list = []
    cache = PipelineCache(lambda key: compiled_mobilenet, capacity=1, on_evict=lambda k, p: seen.append(k))
    engine = InferenceEngine(cache, batch_timeout_s=0.001)
    try:
        cache.get("a")
        cache.get("b")  # evicts "a"; the engine hook must delegate onward
        assert seen == ["a"]
    finally:
        engine.close()


def test_close_unhooks_engine_from_shared_cache(compiled_mobilenet):
    """Sequentially created engines on one shared cache must not chain up."""
    sentinel_calls: list = []

    def sentinel(key, pipeline):
        sentinel_calls.append(key)

    cache = PipelineCache(lambda key: compiled_mobilenet, capacity=1, on_evict=sentinel)
    for _ in range(3):
        engine = InferenceEngine(cache, batch_timeout_s=0.001)
        engine.close()
    # Every closed engine restored the hook it found; the caller's survives.
    assert cache.on_evict is sentinel
    cache.get("a")
    cache.get("b")  # evicts "a"
    assert sentinel_calls == ["a"]


def test_non_lifo_close_does_not_retain_closed_engines(compiled_mobilenet):
    """An engine stranded mid-chain by out-of-order closes must not be rooted
    by the shared cache: its eviction hook holds it weakly and delegates."""
    import gc
    import weakref

    sentinel_calls: list = []
    cache = PipelineCache(
        lambda key: compiled_mobilenet, capacity=1, on_evict=lambda k, p: sentinel_calls.append(k)
    )
    first = InferenceEngine(cache, batch_timeout_s=0.001)
    second = InferenceEngine(cache, batch_timeout_s=0.001)
    first.close()   # not at the head of the chain: must stay installed...
    second.close()  # ...and second's unhook re-exposes first's hook
    telemetry_ref = weakref.ref(first.telemetry)
    del first
    gc.collect()
    assert telemetry_ref() is None  # the stranded hook kept no engine alive
    cache.get("x")
    cache.get("y")  # evicts "x"; the chain still reaches the caller's hook
    assert sentinel_calls == ["x"]


def test_mixed_key_batching_never_mixes_deployments(tiny_mobilenet, rng):
    """Requests for different deployment keys must never share a micro-batch.

    Each compiled pipeline's ``infer`` is wrapped to assert every row of every
    batch it serves carries that deployment's marker sign; interleaved
    submission under a batch size large enough to fit all requests would
    surface any cross-key mixing.
    """
    calib = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    served: list[tuple[tuple, int]] = []

    def factory(key):
        pipeline = QuantMCUPipeline(
            tiny_mobilenet, sram_limit_bytes=64 * 1024, num_patches=2, weight_bits=key[1]
        )
        compiled = compile_pipeline(pipeline, pipeline.run(calib))
        marker = 1.0 if key[1] == 8 else -1.0
        original = compiled.infer

        def recording_infer(x, *args, _marker=marker, _original=original, _key=key, **kwargs):
            assert np.all(np.sign(x[:, 0, 0, 0]) == _marker), "batch mixes deployments"
            served.append((_key, x.shape[0]))
            return _original(x, *args, **kwargs)

        compiled.infer = recording_infer
        return compiled

    cache = PipelineCache(factory, capacity=2)
    eight_bit = np.abs(rng.standard_normal((3, 3, 32, 32))).astype(np.float32) + 0.01
    four_bit = -np.abs(rng.standard_normal((3, 3, 32, 32))).astype(np.float32) - 0.01
    with InferenceEngine(cache, max_batch_size=6, batch_timeout_s=0.05) as engine:
        futures = []
        for i in range(3):  # interleave the two deployments
            futures.append(engine.submit(eight_bit[i], key=("mobilenetv2", 8)))
            futures.append(engine.submit(four_bit[i], key=("mobilenetv2", 4)))
        for future in futures:
            future.result(timeout=30)

    assert sum(n for key, n in served if key == ("mobilenetv2", 8)) == 3
    assert sum(n for key, n in served if key == ("mobilenetv2", 4)) == 3


def test_close_wait_after_nonblocking_close_still_joins(compiled_mobilenet, rng):
    """Regression: ``close(wait=True)`` after ``close(wait=False)`` used to
    hit the closed-guard's early return and skip the join, so the caller
    could not actually wait for the batcher to finish flushing."""
    engine = InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=0.01)
    futures = [
        engine.submit(rng.standard_normal((3, 32, 32)).astype(np.float32))
        for _ in range(3)
    ]
    engine.close(wait=False)  # initiates shutdown, returns immediately
    engine.close(wait=True)  # must block until the batcher flushed and exited
    assert not engine._batcher.is_alive()
    for future in futures:
        assert future.done()
        assert future.result().shape == compiled_mobilenet.graph.output_shape()


def test_modelling_cluster_latency_builds_no_executor(compiled_mobilenet):
    """Regression: ``_modelled_device_seconds`` used to construct a
    DistributedExecutor (device worker pools included) just to read the shard
    plan's branch->device assignment, leaking it into the pipeline's executor
    cache even when no batch was ever served on the cluster."""
    from repro.distributed import ShardPlanner
    from repro.hardware import get_cluster
    from repro.runtime import ExecutionPolicy
    from repro.runtime import cluster as cluster_placement

    spec = get_cluster("stm32h743_x4")
    engine = InferenceEngine(
        compiled_mobilenet,
        batch_timeout_s=0.001,
        policy=ExecutionPolicy(placement=cluster_placement(spec)),
    )
    try:
        seconds = engine._modelled_device_seconds(compiled_mobilenet, 2)
        assert seconds > 0
        # Latency was modelled without ever instantiating a cluster executor.
        assert compiled_mobilenet._executors == {}
        # And the memoized assignment matches what a real executor would use.
        planned = ShardPlanner(spec).plan_shards(compiled_mobilenet.plan).assignment()
        assert engine._shard_assignments[compiled_mobilenet.fingerprint] == planned
        executor = compiled_mobilenet.executor(policy=engine.policy)
        assert executor.shard_plan.assignment() == planned
    finally:
        engine.close()
        compiled_mobilenet.close()


def test_bad_request_fails_alone_at_submit(compiled_mobilenet, rng):
    """A non-finite or misshapen request is rejected by submit() itself, so
    it never joins (or poisons) a micro-batch with healthy requests."""
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=0.01) as engine:
        good = engine.submit(x)
        with pytest.raises(ValueError, match="NaN or Inf"):
            engine.submit(np.full((3, 32, 32), np.nan, dtype=np.float32))
        with pytest.raises(ValueError, match="NaN or Inf"):
            engine.submit(np.full((3, 32, 32), np.inf, dtype=np.float32))
        with pytest.raises(ValueError, match="does not match"):
            engine.submit(np.zeros((32, 32), dtype=np.float32))
        assert np.allclose(good.result(timeout=30), compiled_mobilenet.infer(x), **BATCH_SIZE_TOL)
    snapshot = engine.telemetry.snapshot()
    assert snapshot.num_requests == 1
    assert snapshot.requests_failed == 0


def test_failed_flush_is_counted_in_telemetry(compiled_mobilenet, rng, monkeypatch):
    """Every request of a batch that raised is counted as failed; before,
    the except path returned without recording anything."""
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)

    def broken_infer(*args, **kwargs):
        raise RuntimeError("flush exploded")

    with InferenceEngine(compiled_mobilenet, max_batch_size=3, batch_timeout_s=5.0) as engine:
        monkeypatch.setattr(compiled_mobilenet, "infer", broken_infer)
        futures = [engine.submit(x) for _ in range(3)]  # one full batch
        for future in futures:
            with pytest.raises(RuntimeError, match="flush exploded"):
                future.result(timeout=30)
        monkeypatch.undo()
        engine.submit(x).result(timeout=30)
    snapshot = engine.telemetry.snapshot()
    assert snapshot.requests_failed == 3
    assert snapshot.num_requests == 1
