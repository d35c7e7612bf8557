"""The deprecated keyword surface is removed; its policy spellings remain.

``ExecutionPolicy`` is the only way to choose placement, backend and
freshness tier.  The keywords it replaced — ``parallel=``/``max_workers=``/
``cluster=`` on ``CompiledPipeline.executor``/``infer``/``open_stream``,
``accuracy_mode=``/``drift_sample_every=``/``max_stale_frames=`` on both
``open_stream`` methods, ``parallel_patches=``/``cluster=`` on
``InferenceEngine`` — are rejected with a :class:`TypeError` rather than
silently accepted.  Each test pins one removed keyword and checks that its
policy spelling (the README's "Removed keyword surface" table) yields what
the keyword used to: the same executor kind, the same bits, no warnings.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.hardware.cluster import make_cluster
from repro.runtime import ExecutionPolicy, Placement, cluster, threads
from repro.serving import InferenceEngine, compile_pipeline
from repro.distributed import DistributedExecutor

from fixtures import quantize_zoo_model


@pytest.fixture(scope="module")
def artifact():
    return quantize_zoo_model()


@pytest.fixture(scope="module")
def compiled(artifact):
    spec, pipeline, result = artifact
    compiled = compile_pipeline(pipeline, result, spec=spec)
    yield compiled
    compiled.close()


@pytest.fixture
def frame(artifact):
    spec, _, _ = artifact
    rng = np.random.default_rng(23)
    return rng.standard_normal((1, 3, spec.resolution, spec.resolution)).astype(
        np.float32
    )


class TestPipelineShims:
    def test_executor_parallel_kwarg(self, compiled):
        for removed, value in (("parallel", True), ("max_workers", 2)):
            with pytest.raises(TypeError, match=removed):
                compiled.executor(**{removed: value})
        modern = compiled.executor(policy=ExecutionPolicy(placement=threads(2)))
        assert isinstance(modern, DistributedExecutor)
        assert modern.num_devices == 2

    def test_executor_cluster_kwarg(self, compiled):
        spec = make_cluster("stm32h743", 2)
        with pytest.raises(TypeError, match="cluster"):
            compiled.executor(cluster=spec)
        modern = compiled.executor(policy=ExecutionPolicy(placement=cluster(spec)))
        assert isinstance(modern, DistributedExecutor)

    def test_infer_parallel_kwarg_matches_policy(self, compiled, frame):
        expected = compiled.infer(frame)
        for removed, value in (
            ("parallel", True),
            ("max_workers", 2),
            ("cluster", make_cluster("stm32h743", 2)),
        ):
            with pytest.raises(TypeError, match=removed):
                compiled.infer(frame, **{removed: value})
        modern = compiled.infer(frame, policy=ExecutionPolicy(placement=threads()))
        np.testing.assert_array_equal(modern, expected)

    def test_open_stream_accuracy_mode_kwarg(self, compiled, frame):
        for removed, value in (
            ("accuracy_mode", "stale_halo"),
            ("drift_sample_every", 1),
            ("max_stale_frames", 2),
            ("parallel", True),
            ("max_workers", 2),
            ("cluster", make_cluster("stm32h743", 2)),
        ):
            with pytest.raises(TypeError, match=removed):
                compiled.open_stream(**{removed: value})
        modern = compiled.open_stream(
            policy=ExecutionPolicy(tier="stale_halo", max_stale_frames=2)
        )
        try:
            assert modern.accuracy_mode == "stale_halo"
            assert modern.max_stale_frames == 2
            # A first frame has no history to go stale against: exact bits.
            np.testing.assert_array_equal(modern.process(frame[0]), compiled.infer(frame)[0])
        finally:
            modern.close()

    def test_modern_surface_is_warning_free(self, compiled, frame):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            compiled.infer(frame, policy=ExecutionPolicy(placement=threads(2)))
            session = compiled.open_stream(policy=ExecutionPolicy())
            session.process(frame[0])
            session.close()


class TestEngineShims:
    def test_parallel_patches_kwarg(self, artifact, compiled, frame):
        with pytest.raises(TypeError, match="parallel_patches"):
            InferenceEngine(compiled, batch_timeout_s=0.001, parallel_patches=True)
        expected = compiled.infer(frame)[0]
        modern = InferenceEngine(
            compiled,
            batch_timeout_s=0.001,
            policy=ExecutionPolicy(placement=threads()),
        )
        try:
            assert modern.policy.placement.kind == "threads"
            np.testing.assert_array_equal(modern.infer(frame[0]), expected)
        finally:
            modern.close()

    def test_cluster_kwarg(self, compiled):
        spec = make_cluster("stm32h743", 2)
        with pytest.raises(TypeError, match="cluster"):
            InferenceEngine(compiled, batch_timeout_s=0.001, cluster=spec)
        engine = InferenceEngine(
            compiled, batch_timeout_s=0.001, policy=ExecutionPolicy(placement=cluster(spec))
        )
        try:
            assert engine.cluster is spec
            assert engine.policy.placement == cluster(spec)
        finally:
            engine.close()

    def test_historical_mutual_exclusion_error_preserved(self, compiled):
        # parallel_patches=True with cluster=spec has no policy spelling:
        # the placement refuses to be both, and the keywords are gone.
        spec = make_cluster("stm32h743", 2)
        with pytest.raises(ValueError, match="does not take a cluster"):
            Placement("threads", cluster=spec)
        with pytest.raises(TypeError):
            InferenceEngine(compiled, parallel_patches=True, cluster=spec)

    def test_engine_open_stream_accuracy_mode(self, compiled, frame):
        engine = InferenceEngine(compiled, batch_timeout_s=0.001)
        try:
            for removed, value in (
                ("accuracy_mode", "stale_halo"),
                ("drift_sample_every", 1),
                ("max_stale_frames", 2),
            ):
                with pytest.raises(TypeError, match=removed):
                    engine.open_stream(**{removed: value})
            session = engine.open_stream(policy=ExecutionPolicy(tier="stale_halo"))
            assert session.accuracy_mode == "stale_halo"
            session.close()
        finally:
            engine.close()

    def test_modern_engine_is_warning_free(self, compiled, frame):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine = InferenceEngine(
                compiled,
                batch_timeout_s=0.001,
                policy=ExecutionPolicy(placement=threads(2)),
            )
            try:
                engine.infer(frame[0])
                session = engine.open_stream()
                session.process(frame[0])
                session.close()
            finally:
                engine.close()
