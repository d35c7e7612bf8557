"""Compute-backend interface for the patch stage.

A :class:`Backend` owns *how* the dataflow branches of a
:class:`~repro.patch.plan.PatchPlan` are computed — one at a time
(:class:`~repro.backend.loop.LoopBackend`, the reference), batched across
branches per layer (:class:`~repro.backend.vectorized.VectorizedBackend`), or
fanned out to forked worker processes over shared memory
(:class:`~repro.backend.multiprocess.MultiprocessBackend`).  The executor in
:mod:`repro.patch.executor` owns *what* is computed (the plan, the
quantization hooks, the suffix) and always dispatches through the configured
backend.  Only the loop reference calls
:meth:`~repro.patch.executor.PatchExecutor.run_branch` per branch, so
instrumentation that wraps it runs under ``backend="loop"``.

Every backend must be **bit-identical** to the loop reference: same float
operations, same order, per output element.  That contract is what lets the
golden-logits suite pin one set of bytes regardless of the selected backend.

Backends are selected by name through :func:`make_backend`; the
``REPRO_BACKEND`` environment variable overrides the default for executors
that were not given an explicit backend.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (executor imports us)
    from ..patch.executor import PatchExecutor
    from ..patch.plan import BranchPlan

__all__ = [
    "DEFAULT_BACKEND",
    "Backend",
    "BackendUnavailable",
    "ScratchArena",
    "available_backends",
    "make_backend",
]

#: Default compute backend for executors constructed without an explicit one.
DEFAULT_BACKEND = "vectorized"


class BackendUnavailable(RuntimeError):
    """The requested backend cannot run in this environment (e.g. no fork)."""


class ScratchArena:
    """Reusable, thread-local scratch buffers keyed by call site.

    The vectorized backend executes the same per-group buffer shapes on every
    call, so allocating them once and reusing them removes per-inference
    allocation from the hot path.  Buffers are **thread-local**: concurrent
    shards run by the sharded executor's workers each get their own set,
    so no synchronization (and no sharing hazard) exists between workers.

    Buffers come back *uninitialized* — callers own the content invariants
    (the vectorized backend re-zeroes halo margins explicitly each call).
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def _store(self) -> dict:
        store = getattr(self._local, "store", None)
        if store is None:
            store = {}
            self._local.store = store
        return store

    def take(self, key: tuple, shape: tuple, dtype=np.float32) -> np.ndarray:
        """Return the reusable buffer for ``key`` (uninitialized contents)."""
        store = self._store()
        buf = store.get(key)
        if buf is None or buf.shape != tuple(shape) or buf.dtype != np.dtype(dtype):
            buf = np.empty(shape, dtype=dtype)
            store[key] = buf
        return buf

    def clear(self) -> None:
        """Drop this thread's buffers (other threads keep theirs)."""
        self._store().clear()

    @property
    def buffer_count(self) -> int:
        """Number of live buffers on the calling thread (introspection/tests)."""
        return len(self._store())

    @property
    def nbytes(self) -> int:
        """Total bytes held by the calling thread's buffers."""
        return sum(buf.nbytes for buf in self._store().values())


class Backend:
    """Base class: patch-stage compute strategy bound to one executor.

    Subclasses implement :meth:`run_branches`; the stitching entry points and
    the suffix default to the executor's reference implementations.  A
    backend holds no model state of its own — the plan, hooks and weights all
    live on the executor — so backends are cheap to construct and swap.
    """

    #: Registry name, set by subclasses.
    name: str = "base"
    #: Whether compute happens in the calling process (False for multiprocess).
    in_process: bool = True

    def __init__(self, executor: "PatchExecutor") -> None:
        self.executor = executor
        self.plan = executor.plan
        self.scratch = ScratchArena()

    # ------------------------------------------------------------- interface
    def run_branches(
        self, x: np.ndarray, branch_ids: list[int]
    ) -> list[tuple["BranchPlan", np.ndarray]]:
        """Compute the tiles of ``branch_ids``; returns ``[(branch, tile), ...]``.

        Tiles are owned by the caller (never views into reused scratch), in
        ``branch_ids`` order, bit-identical to
        :meth:`~repro.patch.executor.PatchExecutor.run_branch`.
        """
        raise NotImplementedError

    def run_patch_stage(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Run every branch and stitch the tiles into ``out`` in place."""
        all_ids = [branch.patch_id for branch in self.plan.branches]
        for branch, tile_array in self.run_branches(x, all_ids):
            tile = branch.output_region
            out[:, :, tile.row_start : tile.row_stop, tile.col_start : tile.col_stop] = (
                tile_array
            )
        return out

    def run_suffix(self, x: np.ndarray, stitched: np.ndarray) -> np.ndarray:
        """Run the layer-by-layer suffix on a stitched split feature map.

        The reference suffix already executes whole feature maps (one NumPy
        call per layer), so backends share it unless they have a reason not
        to.
        """
        return self.executor._run_suffix(x, stitched)

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        self.scratch.clear()


def _registry() -> dict:
    # Imported lazily: the concrete backends import nn/patch modules that in
    # turn may import the executor, which imports this module.
    from .loop import LoopBackend
    from .multiprocess import MultiprocessBackend
    from .vectorized import VectorizedBackend

    return {
        LoopBackend.name: LoopBackend,
        VectorizedBackend.name: VectorizedBackend,
        MultiprocessBackend.name: MultiprocessBackend,
    }


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`make_backend` (and ``REPRO_BACKEND``)."""
    return tuple(sorted(_registry()))


def make_backend(name: str | None, executor: "PatchExecutor") -> Backend:
    """Build the backend ``name`` for ``executor``.

    ``None`` resolves through the ``REPRO_BACKEND`` environment variable and
    falls back to :data:`DEFAULT_BACKEND`.  Unknown names raise
    :class:`ValueError`; a known backend that cannot run here raises
    :class:`BackendUnavailable`.
    """
    resolved = name or os.environ.get("REPRO_BACKEND") or DEFAULT_BACKEND
    registry = _registry()
    if resolved not in registry:
        raise ValueError(
            f"unknown backend {resolved!r}; available: {', '.join(sorted(registry))}"
        )
    return registry[resolved](executor)
