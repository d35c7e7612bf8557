"""Unit tests for the compute-backend layer (:mod:`repro.backend`).

Covers backend selection (names, ``REPRO_BACKEND``, defaults), the scratch
arena's reuse and thread-locality guarantees, and the dispatch rules the
executor applies: dispatch always goes through the configured backend, so
instrumentation that wraps ``run_branch`` runs under ``backend="loop"``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from fixtures import random_property_graph

from repro.backend import (
    DEFAULT_BACKEND,
    Backend,
    LoopBackend,
    ScratchArena,
    VectorizedBackend,
    available_backends,
    make_backend,
)
from repro.distributed import DistributedExecutor
from repro.patch import PatchExecutor, build_patch_plan, candidate_split_nodes
from repro.serving.pipeline import _host_cluster


@pytest.fixture
def small_plan():
    graph = random_property_graph(np.random.default_rng(0))
    split = candidate_split_nodes(graph)[0]
    return build_patch_plan(graph, split, 2)


@pytest.fixture
def small_input(rng, small_plan):
    return rng.standard_normal((1, *small_plan.graph.input_shape)).astype(np.float32)


# ---------------------------------------------------------------- selection
class TestBackendSelection:
    def test_default_is_vectorized(self, small_plan, monkeypatch):
        # The env-free default: an inherited REPRO_BACKEND (e.g. the CI
        # multiprocess smoke job) must not leak into this assertion.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert DEFAULT_BACKEND == "vectorized"
        with PatchExecutor(small_plan) as executor:
            assert isinstance(executor.backend, VectorizedBackend)

    def test_explicit_name(self, small_plan):
        with PatchExecutor(small_plan, backend="loop") as executor:
            assert isinstance(executor.backend, LoopBackend)

    def test_backend_instance_passthrough(self, small_plan):
        executor = PatchExecutor(small_plan)
        try:
            instance = LoopBackend(executor)
            executor2 = PatchExecutor(small_plan, backend=instance)
            assert executor2.backend is instance
        finally:
            executor.close()

    def test_env_var_override(self, small_plan, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "loop")
        with PatchExecutor(small_plan) as executor:
            assert isinstance(executor.backend, LoopBackend)

    def test_explicit_name_beats_env_var(self, small_plan, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "loop")
        with PatchExecutor(small_plan, backend="vectorized") as executor:
            assert isinstance(executor.backend, VectorizedBackend)

    def test_unknown_name_raises(self, small_plan):
        executor = PatchExecutor(small_plan, backend="definitely-not-a-backend")
        try:
            with pytest.raises(ValueError, match="unknown backend"):
                executor.backend
        finally:
            executor.close()

    def test_available_backends(self):
        assert set(available_backends()) >= {"loop", "vectorized", "multiprocess"}

    def test_make_backend_binds_executor(self, small_plan):
        with PatchExecutor(small_plan) as executor:
            backend = make_backend("loop", executor)
            assert backend.executor is executor
            assert backend.plan is small_plan


# ------------------------------------------------------------------ scratch
class TestScratchArena:
    def test_take_reuses_buffer(self):
        arena = ScratchArena()
        a = arena.take(("k",), (2, 3))
        b = arena.take(("k",), (2, 3))
        assert a is b
        assert arena.buffer_count == 1

    def test_shape_change_reallocates(self):
        arena = ScratchArena()
        a = arena.take(("k",), (2, 3))
        b = arena.take(("k",), (4, 3))
        assert a is not b
        assert b.shape == (4, 3)

    def test_dtype_change_reallocates(self):
        arena = ScratchArena()
        a = arena.take(("k",), (2,), dtype=np.float32)
        b = arena.take(("k",), (2,), dtype=np.float64)
        assert a is not b
        assert b.dtype == np.float64

    def test_clear_and_nbytes(self):
        arena = ScratchArena()
        arena.take(("a",), (4,), dtype=np.float32)
        arena.take(("b",), (2, 2), dtype=np.float32)
        assert arena.buffer_count == 2
        assert arena.nbytes == 4 * 4 + 4 * 4
        arena.clear()
        assert arena.buffer_count == 0
        assert arena.nbytes == 0

    def test_buffers_are_thread_local(self):
        arena = ScratchArena()
        mine = arena.take(("k",), (2,))
        seen = {}

        def worker():
            seen["buf"] = arena.take(("k",), (2,))
            seen["count"] = arena.buffer_count

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["buf"] is not mine
        assert seen["count"] == 1
        assert arena.buffer_count == 1  # this thread still has exactly its own


# ----------------------------------------------------------------- dispatch
class TestDispatchRules:
    def test_loop_backend_observes_every_branch(self, small_plan, small_input):
        with PatchExecutor(small_plan, backend="loop") as executor:
            reference = executor.forward(small_input)
            observed = []
            original = executor.run_branch

            def spy(branch, x):
                observed.append(branch.patch_id)
                return original(branch, x)

            executor.run_branch = spy
            assert np.array_equal(executor.forward(small_input), reference)
            assert sorted(observed) == [b.patch_id for b in small_plan.branches]

    def test_kernel_backend_is_in_process(self, small_plan):
        with PatchExecutor(small_plan, backend="multiprocess") as executor:
            kernel = executor._kernel_backend()
            assert kernel.in_process
            assert isinstance(kernel, VectorizedBackend)

    def test_close_is_idempotent(self, small_plan):
        executor = PatchExecutor(small_plan)
        executor.backend  # force creation
        executor.close()
        executor.close()

    def test_backend_tiles_are_owned_copies(self, small_plan, small_input):
        # run_branches must never return views into reused scratch: a second
        # call with different content must not mutate previously returned tiles.
        with PatchExecutor(small_plan, backend="vectorized") as executor:
            ids = [b.patch_id for b in small_plan.branches]
            first = [tile.copy() for _, tile in executor.compute_tiles(small_input, ids)]
            executor.compute_tiles(small_input * 3.0, ids)
            again = executor.compute_tiles(small_input, ids)
            for before, (_, after) in zip(first, again):
                assert np.array_equal(before, after)


# ----------------------------------------------------------------- parallel
class TestParallelChunking:
    """threads(n) chunks are the host shards of the sharded executor."""

    def test_chunks_cover_in_order(self, small_plan):
        with DistributedExecutor(small_plan, _host_cluster(small_plan, 3)) as executor:
            chunks = executor.shard_plan.assignment()
            assert len(chunks) == 3
            assert all(chunk == sorted(chunk) for chunk in chunks)
            covered = sorted(i for chunk in chunks for i in chunk)
            assert covered == [b.patch_id for b in small_plan.branches]

    def test_chunks_never_exceed_ids(self, small_plan, small_input):
        num_branches = small_plan.num_branches
        with DistributedExecutor(
            small_plan, _host_cluster(small_plan, num_branches + 4)
        ) as executor:
            chunks = executor.shard_plan.assignment()
            assert all(len(chunk) <= 1 for chunk in chunks)
            assert sum(len(chunk) for chunk in chunks) == num_branches
            with PatchExecutor(small_plan) as sequential:
                assert np.array_equal(
                    executor.forward(small_input), sequential.forward(small_input)
                )


# -------------------------------------------------------------- multiprocess
class TestMultiprocessLifecycle:
    def test_close_releases_fork_state_and_executor(self, small_plan, small_input):
        """Regression: the ``_FORK_STATE`` token used to outlive ``close()``,
        pinning the executor (plan + weights) in long-lived parents."""
        import gc
        import weakref

        from repro.backend.base import BackendUnavailable
        from repro.backend.multiprocess import _FORK_STATE

        try:
            executor = PatchExecutor(small_plan, backend="multiprocess")
        except BackendUnavailable:
            pytest.skip("platform has no fork start method")
        reference = executor.forward(small_input)
        assert any(state is executor for state in _FORK_STATE.values())
        ref = weakref.ref(executor)
        executor.close()
        assert all(state is not executor for state in _FORK_STATE.values())
        del executor
        gc.collect()  # executor<->backend is a cycle; the token must not pin it
        assert ref() is None
        assert reference.shape[0] == small_input.shape[0]

    def test_close_pops_token_even_when_pool_teardown_raises(self, small_plan):
        from repro.backend.base import BackendUnavailable
        from repro.backend.multiprocess import _FORK_STATE, MultiprocessBackend

        with PatchExecutor(small_plan) as executor:
            try:
                backend = MultiprocessBackend(executor, workers=1)
            except BackendUnavailable:
                pytest.skip("platform has no fork start method")

            class _ExplodingPool:
                def terminate(self):
                    raise RuntimeError("terminate failed")

                def join(self):  # pragma: no cover - never reached
                    pass

            backend._pool = _ExplodingPool()
            token = backend._token
            with pytest.raises(RuntimeError, match="terminate failed"):
                backend.close()
            assert token not in _FORK_STATE
