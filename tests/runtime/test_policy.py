"""ExecutionPolicy / Placement: validation, and how entry points resolve a policy."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from fixtures import quantize_and_compile

from repro.distributed import DistributedExecutor, PipelineParallelScheduler
from repro.hardware.cluster import make_cluster as build_cluster
from repro.runtime import (
    ExecutionPolicy,
    FRESHNESS_TIERS,
    PLACEMENT_KINDS,
    Placement,
    cluster,
    local,
    threads,
)
from repro.serving import InferenceEngine


def make_cluster(num_devices=2):
    return build_cluster("stm32h743", num_devices)


class TestPlacement:
    def test_default_is_local(self):
        assert Placement().kind == "local"
        assert local() == Placement("local")

    def test_factories(self):
        assert threads().kind == "threads"
        assert threads(4).max_workers == 4
        spec = make_cluster()
        assert cluster(spec).cluster is spec

    def test_kind_validated(self):
        with pytest.raises(ValueError, match="placement kind"):
            Placement("gpu")

    def test_cluster_kind_requires_spec(self):
        with pytest.raises(ValueError, match="requires a ClusterSpec"):
            Placement("cluster")
        with pytest.raises(TypeError, match="ClusterSpec"):
            Placement("cluster", cluster="stm32h743")

    def test_non_cluster_kind_rejects_spec(self):
        with pytest.raises(ValueError, match="does not take a cluster"):
            Placement("local", cluster=make_cluster())

    def test_max_workers_only_for_threads(self):
        with pytest.raises(ValueError, match="does not take max_workers"):
            Placement("local", max_workers=2)
        with pytest.raises(ValueError, match=">= 1"):
            Placement("threads", max_workers=0)

    def test_cache_key_distinguishes_placements(self):
        keys = {
            local().cache_key,
            threads().cache_key,
            threads(2).cache_key,
            cluster(make_cluster()).cache_key,
        }
        assert len(keys) == 4

    def test_frozen(self):
        with pytest.raises(AttributeError):
            local().kind = "threads"


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.placement.kind == "local"
        assert policy.backend is None
        assert policy.tier == "exact"

    def test_tier_validated(self):
        with pytest.raises(ValueError, match="tier"):
            ExecutionPolicy(tier="fuzzy")
        for tier in FRESHNESS_TIERS:
            assert ExecutionPolicy(tier=tier).tier == tier

    def test_backend_validated(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionPolicy(backend="cuda")

    def test_placement_type_validated(self):
        with pytest.raises(TypeError, match="Placement"):
            ExecutionPolicy(placement="local")

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError, match="drift_sample_every"):
            ExecutionPolicy(drift_sample_every=-1)
        with pytest.raises(ValueError, match="max_stale_frames"):
            ExecutionPolicy(max_stale_frames=-1)

    def test_resolved_backend_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert ExecutionPolicy().resolved_backend() == "vectorized"
        assert ExecutionPolicy(backend="loop").resolved_backend() == "loop"
        monkeypatch.setenv("REPRO_BACKEND", "loop")
        assert ExecutionPolicy().resolved_backend() == "loop"
        # An explicit policy backend beats the environment.
        assert ExecutionPolicy(backend="vectorized").resolved_backend() == "vectorized"

    def test_with_tier(self):
        policy = ExecutionPolicy(placement=threads(2))
        stale = policy.with_tier("stale_halo", max_stale_frames=3, drift_sample_every=5)
        assert stale.tier == "stale_halo"
        assert stale.max_stale_frames == 3
        assert stale.drift_sample_every == 5
        assert stale.placement == policy.placement
        # Original is untouched (frozen value semantics).
        assert policy.tier == "exact"

    def test_placement_kinds_exported(self):
        assert set(PLACEMENT_KINDS) == {"local", "threads", "cluster"}


@pytest.fixture(scope="module")
def compiled():
    _, _, compiled = quantize_and_compile()
    yield compiled
    compiled.close()


@pytest.fixture(scope="module")
def frame(compiled):
    rng = np.random.default_rng(5)
    return rng.standard_normal((1, *compiled.graph.input_shape)).astype(np.float32)


class TestResolve:
    """How each entry point settles the policy it runs under, now that
    ``policy=`` is its only execution keyword: a given policy is used as is,
    no policy means the default (an engine's streams default to the engine's
    own), and a removed keyword is a :class:`TypeError`.  Tests named after
    a removed keyword pin the policy spelling that replaced it."""

    def test_policy_passes_through(self, compiled):
        policy = ExecutionPolicy(placement=threads(2))
        engine = InferenceEngine(compiled, batch_timeout_s=0.001, policy=policy)
        try:
            assert engine.policy is policy
        finally:
            engine.close()
        scheduler = PipelineParallelScheduler(
            compiled.executor(policy=ExecutionPolicy(placement=cluster(make_cluster()))),
            policy=policy,
        )
        assert scheduler.policy is policy

    def test_policy_plus_legacy_is_an_error(self, compiled, frame):
        with pytest.raises(TypeError, match="parallel"):
            compiled.infer(frame, policy=ExecutionPolicy(), parallel=True)
        with pytest.raises(TypeError, match="accuracy_mode"):
            compiled.open_stream(policy=ExecutionPolicy(), accuracy_mode="stale_halo")

    def test_no_arguments_yields_default(self, compiled):
        engine = InferenceEngine(compiled, batch_timeout_s=0.001)
        try:
            assert engine.policy == ExecutionPolicy()
        finally:
            engine.close()
        assert compiled.executor() is compiled.executor(policy=ExecutionPolicy())
        assert compiled.executor(policy=ExecutionPolicy(placement=local())) is compiled.executor()

    def test_base_used_when_no_legacy(self, compiled):
        base = ExecutionPolicy(placement=threads(3))
        engine = InferenceEngine(compiled, batch_timeout_s=0.001, policy=base)
        try:
            session = engine.open_stream()
            assert session.executor is compiled.executor(policy=base)
            session.close()
        finally:
            engine.close()

    def test_legacy_parallel_maps_to_threads(self, compiled):
        # pipeline.infer(x, parallel=True, max_workers=3) is now:
        executor = compiled.executor(policy=ExecutionPolicy(placement=threads(3)))
        assert isinstance(executor, DistributedExecutor)
        assert executor.num_devices == 3

    def test_legacy_parallel_patches_maps_to_threads(self, compiled, frame):
        # InferenceEngine(parallel_patches=True) is now:
        policy = ExecutionPolicy(placement=threads())
        engine = InferenceEngine(compiled, batch_timeout_s=0.001, policy=policy)
        try:
            np.testing.assert_array_equal(engine.infer(frame[0]), compiled.infer(frame)[0])
            assert isinstance(compiled.executor(policy=engine.policy), DistributedExecutor)
            assert engine.cluster is None  # host shards are not a modelled cluster
            assert not hasattr(engine, "parallel_patches")
        finally:
            engine.close()

    def test_legacy_cluster_maps_to_cluster(self, compiled):
        # InferenceEngine(cluster=spec) / pipeline.executor(cluster=spec) are now:
        spec = make_cluster()
        policy = ExecutionPolicy(placement=cluster(spec))
        engine = InferenceEngine(compiled, batch_timeout_s=0.001, policy=policy)
        try:
            assert engine.cluster is spec  # the makespan model's devices
        finally:
            engine.close()
        executor = compiled.executor(policy=policy)
        assert isinstance(executor, DistributedExecutor)
        assert executor.cluster == spec  # cached per cluster identity

    def test_historical_mutual_exclusion_message_preserved(self):
        # A cluster owns its parallelism: no placement can ask for both.
        spec = make_cluster()
        with pytest.raises(ValueError, match="does not take a cluster"):
            Placement("threads", cluster=spec)
        with pytest.raises(ValueError, match="does not take max_workers"):
            Placement("cluster", cluster=spec, max_workers=2)

    def test_accuracy_mode_vocabularies(self, compiled, frame):
        """The scheduler maps tiers onto schedules: exact -> fresh rounds,
        displaced -> verify-and-patch (bit-identical), stale_halo -> stale
        rounds sampled for drift."""
        executor = compiled.executor(
            policy=ExecutionPolicy(placement=cluster(make_cluster(4)))
        )
        batches = [frame, frame + 0.5, frame + 0.5]
        expected = [executor.forward(x) for x in batches]
        fresh = PipelineParallelScheduler(executor)
        verify = PipelineParallelScheduler(executor, policy=ExecutionPolicy(tier="displaced"))
        stale = PipelineParallelScheduler(
            executor, policy=ExecutionPolicy(tier="stale_halo", drift_sample_every=1)
        )
        for scheduler in (fresh, verify):
            for out, ref in zip(scheduler.run(batches), expected):
                np.testing.assert_array_equal(out, ref)
        stale.run(batches)
        assert not any(r.displaced for r in fresh.rounds)
        assert all(r.displaced for r in verify.rounds[1:]) and not verify.drift_samples
        assert all(r.displaced for r in stale.rounds[1:])
        assert [s.microbatch for s in stale.drift_samples] == [1, 2]

    def test_stale_knobs_carried(self, compiled):
        session = compiled.open_stream(
            policy=ExecutionPolicy(tier="stale_halo", max_stale_frames=2, drift_sample_every=4)
        )
        try:
            assert session.accuracy_mode == "stale_halo"
            assert session.max_stale_frames == 2
            assert session.drift_sample_every == 4
        finally:
            session.close()

    def test_warn_false_is_silent(self, compiled, frame):
        # The policy surface never warns (there is no deprecated path left).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            policy = ExecutionPolicy(placement=threads(2), tier="stale_halo")
            compiled.infer(frame, policy=policy)
            compiled.open_stream(policy=policy).close()

    def test_explicit_false_parallel_forces_local(self, compiled):
        # An explicit local policy beats the engine's threaded one for a stream.
        engine = InferenceEngine(
            compiled, batch_timeout_s=0.001, policy=ExecutionPolicy(placement=threads(2))
        )
        try:
            session = engine.open_stream(policy=ExecutionPolicy(placement=local()))
            assert session.executor is compiled.executor()
            session.close()
        finally:
            engine.close()
