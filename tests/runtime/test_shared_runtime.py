"""Two tenants, one Runtime: pools are shared, one close() frees them all."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import ExecutionPolicy, Runtime, threads
from repro.serving import InferenceEngine, compile_pipeline

from fixtures import quantize_zoo_model


@pytest.fixture(scope="module")
def artifact():
    return quantize_zoo_model()


@pytest.fixture
def frame(artifact):
    spec, _, _ = artifact
    rng = np.random.default_rng(5)
    shape = (1, 3, spec.resolution, spec.resolution)
    return rng.standard_normal(shape).astype(np.float32)


THREADS2 = ExecutionPolicy(placement=threads(2))


def test_two_pipelines_share_one_thread_pool(artifact, frame):
    spec, pipeline, result = artifact
    with Runtime() as runtime:
        a = compile_pipeline(pipeline, result, spec=spec, runtime=runtime)
        b = compile_pipeline(pipeline, result, spec=spec, runtime=runtime)
        expected = a.infer(frame)
        np.testing.assert_array_equal(a.infer(frame, policy=THREADS2), expected)
        np.testing.assert_array_equal(b.infer(frame, policy=THREADS2), expected)
        stats = runtime.stats()
        # Both pipelines lease the SAME keyed per-shard pools: one serial
        # pool per host shard, each leased by both pipelines.
        assert stats.pool_keys == (("device-0", 1), ("device-1", 1))
        assert stats.thread_pools == 2
        assert stats.active_leases == 4
        a.close()
        b.close()
        assert runtime.stats().active_leases == 0


def test_two_engines_share_one_runtime(artifact, frame):
    spec, pipeline, result = artifact
    runtime = Runtime()
    a_pipe = compile_pipeline(pipeline, result, spec=spec, runtime=runtime)
    b_pipe = compile_pipeline(pipeline, result, spec=spec, runtime=runtime)
    engine_a = InferenceEngine(a_pipe, batch_timeout_s=0.001, policy=THREADS2, runtime=runtime)
    engine_b = InferenceEngine(b_pipe, batch_timeout_s=0.001, policy=THREADS2, runtime=runtime)
    try:
        out_a = engine_a.infer(frame[0])
        out_b = engine_b.infer(frame[0])
        np.testing.assert_array_equal(out_a, out_b)
        stats = runtime.stats()
        assert stats.thread_pools == 2
        assert stats.pool_keys == (("device-0", 1), ("device-1", 1))
    finally:
        engine_a.close()
        engine_b.close()
        a_pipe.close()
        b_pipe.close()
    # One close tears down every pool both engines used.
    runtime.close()
    stats = runtime.stats()
    assert stats.closed and stats.thread_pools == 0 and stats.active_leases == 0


def test_shared_runtime_bits_match_private_runtime(artifact, frame):
    spec, pipeline, result = artifact
    solo = compile_pipeline(pipeline, result, spec=spec)
    expected = solo.infer(frame, policy=THREADS2)
    solo.close()
    with Runtime() as runtime:
        shared = compile_pipeline(pipeline, result, spec=spec, runtime=runtime)
        np.testing.assert_array_equal(shared.infer(frame, policy=THREADS2), expected)
        shared.close()


def test_executor_cache_keys_on_runtime_token(artifact, frame):
    spec, pipeline, result = artifact
    compiled = compile_pipeline(pipeline, result, spec=spec)
    with Runtime() as one, Runtime() as two:
        first = compiled.executor(policy=THREADS2, runtime=one)
        again = compiled.executor(policy=THREADS2, runtime=one)
        other = compiled.executor(policy=THREADS2, runtime=two)
        assert first is again
        # A different runtime must not reuse an executor leasing pools from
        # the first one.
        assert other is not first
    compiled.close()
