"""Optional multiprocessing backend: forked workers over shared memory.

Sidesteps the GIL for the patch stage: branches are chunked across a pool of
**forked** worker processes, each executing its chunk through the executor's
in-process kernel backend (the vectorized one).  Arrays never travel through
pickle — the input image and the result tiles live in one :class:`multiprocessing.shared_memory.SharedMemory`
segment with precomputed per-tile offsets; only patch ids and offsets cross
the process boundary.

Fork is load-bearing twice over: workers inherit the executor (plan, weights,
hook closures) by address-space copy instead of serialization, and the
executor object is looked up through a module-level token table
(:data:`_FORK_STATE`) so nothing about the executor needs to be picklable.
On platforms without ``fork`` the constructor raises
:class:`~repro.backend.base.BackendUnavailable` and callers should select
another backend.

Results are bit-identical to the loop reference because the per-worker kernel
is: process boundaries only move bytes.
"""

from __future__ import annotations

import multiprocessing
import os
from itertools import count

import numpy as np

from ..runtime.resources import attach_segment
from .base import Backend, BackendUnavailable

__all__ = ["MultiprocessBackend"]

#: token -> executor, inherited by forked workers at pool creation time.
_FORK_STATE: dict = {}
_TOKENS = count()


def _run_chunk(token: int, shm_name: str, x_shape: tuple, chunk: list) -> None:
    """Worker side: compute a chunk of branches, writing tiles into shm."""
    executor = _FORK_STATE[token]
    shm = attach_segment(shm_name)
    try:
        x = np.ndarray(x_shape, dtype=np.float32, buffer=shm.buf)
        ids = [patch_id for patch_id, _, _ in chunk]
        pairs = executor._kernel_backend().run_branches(x, ids)
        for (_, offset, shape), (_, tile) in zip(chunk, pairs):
            np.ndarray(shape, dtype=np.float32, buffer=shm.buf, offset=offset)[...] = tile
    finally:
        shm.close()


class MultiprocessBackend(Backend):
    """Fork-pool patch-stage execution over shared memory (see module docstring)."""

    name = "multiprocess"
    in_process = False

    def __init__(self, executor, workers: int | None = None) -> None:
        super().__init__(executor)
        if "fork" not in multiprocessing.get_all_start_methods():
            raise BackendUnavailable(
                "multiprocess backend requires the fork start method "
                "(unavailable on this platform)"
            )
        # More processes than branches is pure fork cost: a run hands each
        # worker at least one chunk, and there are at most num_branches chunks.
        requested = workers if workers is not None else (os.cpu_count() or 1)
        self._workers = max(1, min(self.plan.num_branches, requested))
        self._pool = None
        self._pool_runtime = None
        self._token = next(_TOKENS)
        # Registered before the pool ever forks, so workers inherit the entry.
        _FORK_STATE[self._token] = executor

    def _ensure_pool(self):
        if self._pool is None:
            # Fork pools are runtime-tracked but never shared: the workers
            # inherit _FORK_STATE at fork time, so this pool only knows
            # executors registered before it was created.
            runtime = self.executor.runtime
            self._pool = runtime.fork_pool(self._workers)
            self._pool_runtime = runtime
        return self._pool

    def run_branches(self, x, branch_ids):
        if not branch_ids:
            return []
        branches = self.plan.branches
        x = np.ascontiguousarray(x, dtype=np.float32)
        n = x.shape[0]
        channels = self.executor._shapes[self.plan.split_output_node][0]

        # Segment layout: [input image | tile 0 | tile 1 | ...] as float32.
        jobs = []
        cursor = x.nbytes
        for patch_id in branch_ids:  # repro: noqa[REP007] - job descriptors only
            tile = branches[patch_id].output_region
            shape = (n, channels, tile.height, tile.width)
            jobs.append((patch_id, cursor, shape))
            cursor += int(np.prod(shape)) * 4

        pool = self._ensure_pool()
        runtime = self._pool_runtime
        shm = runtime.shared_segment(cursor)
        try:
            np.ndarray(x.shape, dtype=np.float32, buffer=shm.buf)[...] = x
            chunk_size = -(-len(jobs) // self._workers)  # ceil division
            pending = [
                pool.apply_async(
                    _run_chunk, (self._token, shm.name, x.shape, jobs[i : i + chunk_size])
                )
                for i in range(0, len(jobs), chunk_size)
            ]
            for result in pending:
                result.get()
            tiles = [
                np.ndarray(shape, dtype=np.float32, buffer=shm.buf, offset=offset).copy()
                for _, offset, shape in jobs
            ]
        finally:
            runtime.release_segment(shm)
        return [(branches[patch_id], tile) for patch_id, tile in zip(branch_ids, tiles)]

    def close(self) -> None:
        # The fork-state token must be dropped even if pool teardown raises:
        # a surviving token would keep the executor (plan + weights) alive in
        # the parent for the life of the process.
        try:
            pool = self._pool
            if pool is not None:
                try:
                    pool.terminate()
                    pool.join()
                    self._pool = None
                finally:
                    if self._pool_runtime is not None:
                        self._pool_runtime.discard_fork_pool(pool)
                        self._pool_runtime = None
        finally:
            _FORK_STATE.pop(self._token, None)
        super().close()
