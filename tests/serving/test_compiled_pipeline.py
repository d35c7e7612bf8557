"""CompiledPipeline: freezing, bit-exactness, fingerprints and save/load."""

from __future__ import annotations

import numpy as np
import pytest

from fixtures import MOBILENET_SPEC as SPEC

from repro.core import QuantMCUPipeline
from repro.patch import PatchExecutor
from repro.runtime import ExecutionPolicy, threads
from repro.serving import CompiledPipeline, compile_pipeline


def test_compiled_matches_experiment_executor(quantized_mobilenet, rng):
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result, spec=SPEC)
    x = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
    with pipeline.quantized_weights():
        reference = pipeline.make_executor(result).forward(x)
    assert np.array_equal(compiled.infer(x), reference)
    threaded = ExecutionPolicy(placement=threads())
    assert np.array_equal(compiled.infer(x, policy=threaded), reference)
    compiled.close()


def _held_executors(compiled) -> set[int]:
    """Identities of every executor the pipeline object keeps alive."""
    held: set[int] = set()

    def walk(value) -> None:
        if isinstance(value, PatchExecutor):
            held.add(id(value))
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    walk(vars(compiled))
    return held


def test_alternating_worker_counts_reuse_one_executor_each(quantized_mobilenet, rng):
    """Regression: alternating threads(2)/threads(3) retired and rebuilt the
    patch-parallel executor on every switch (one worker pool torn down, one
    started) and kept every retired executor alive until close().  Each
    placement now has one cached executor, reused with its pool."""
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result, spec=SPEC)
    x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
    reference = compiled.infer(x)
    policies = [ExecutionPolicy(placement=threads(n)) for n in (2, 3)]
    first: dict[int, tuple] = {}
    try:
        for i in range(40):
            policy = policies[i % 2]
            assert np.array_equal(compiled.infer(x, policy=policy), reference)
            executor = compiled.executor(policy=policy)
            seen, workers = first.setdefault(i % 2, (executor, executor._workers))
            assert executor is seen
            assert executor._workers is workers
        assert [first[k][0].num_devices for k in (0, 1)] == [2, 3]
        # The default local executor plus one per worker count.
        assert len(_held_executors(compiled)) == 3
    finally:
        compiled.close()


def test_compiled_is_isolated_from_source_model(quantized_mobilenet, rng):
    """Mutating the original model after compile must not change the artifact."""
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result, spec=SPEC)
    x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    before = compiled.infer(x)
    for _, layer in pipeline.graph.layers():
        if "weight" in layer.params:
            layer.params["weight"] = layer.params["weight"] + 1.0
    assert np.array_equal(compiled.infer(x), before)


def test_compiled_weights_are_read_only(quantized_mobilenet):
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result, spec=SPEC)
    for _, _, arr in compiled.graph.parameters():
        assert not arr.flags.writeable


def test_save_load_round_trip(quantized_mobilenet, rng, tmp_path):
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result, spec=SPEC)
    path = str(tmp_path / "artifact.npz")
    compiled.save(path)
    restored = CompiledPipeline.load(path)
    x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    assert np.array_equal(restored.infer(x), compiled.infer(x))
    assert restored.fingerprint == compiled.fingerprint
    assert restored.cache_key == compiled.cache_key


def test_save_requires_spec(quantized_mobilenet):
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result)
    with pytest.raises(ValueError, match="ModelSpec"):
        compiled.save("/tmp/never-written.npz")


def test_fingerprint_distinguishes_weights(quantized_mobilenet, rng, tmp_path):
    pipeline, result = quantized_mobilenet
    a = compile_pipeline(pipeline, result, spec=SPEC)
    node, pname, arr = pipeline.graph.parameters()[0]
    pipeline.graph.nodes[node].layer.params[pname] = arr + 0.5
    b = compile_pipeline(pipeline, result, spec=SPEC)
    assert a.fingerprint != b.fingerprint


def test_dynamic_mode_rejected(tiny_mobilenet, rng):
    calib = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    pipeline = QuantMCUPipeline(
        tiny_mobilenet,
        sram_limit_bytes=64 * 1024,
        num_patches=2,
        classification_mode="dynamic",
    )
    result = pipeline.run(calib)
    with pytest.raises(ValueError, match="static"):
        compile_pipeline(pipeline, result)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_infer_rejects_non_finite_input(compiled_mobilenet, bad):
    """Regression: an all-NaN/Inf input used to come back as finite logits
    (the fake-quantizers clamp it), a confident answer to garbage."""
    x = np.full((1, 3, 32, 32), bad, dtype=np.float32)
    with pytest.raises(ValueError, match="NaN or Inf"):
        compiled_mobilenet.infer(x)
    partly = np.zeros((2, 3, 32, 32), dtype=np.float32)
    partly[1, 2, 5, 7] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        compiled_mobilenet.infer(partly)


def test_infer_checks_rank_and_shape(compiled_mobilenet, rng):
    """Regression: a 16x16 input failed deep in the patch stage ("could not
    broadcast") and a 3-D input raised IndexError."""
    with pytest.raises(ValueError, match="does not match"):
        compiled_mobilenet.infer(np.zeros((1, 3, 16, 16), dtype=np.float32))
    for shape in [(32, 32), (1, 1, 3, 32, 32), (1, 4, 32, 32)]:
        with pytest.raises(ValueError, match="does not match"):
            compiled_mobilenet.infer(np.zeros(shape, dtype=np.float32))
    # One (C, H, W) sample is served like an engine request: unbatched output.
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    assert np.array_equal(compiled_mobilenet.infer(x), compiled_mobilenet.infer(x[None])[0])
