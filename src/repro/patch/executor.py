"""Exact patch-based execution.

:class:`PatchExecutor` runs a model according to a :class:`~repro.patch.plan.PatchPlan`:
each dataflow branch computes only the spatial region its patch needs (with
halo), the split feature map is stitched together from the branch outputs, and
the remaining layers run layer-by-layer.  The result is numerically identical
to ordinary layer-based execution — the integration tests assert bit-exact
stitching — which is the defining property of patch-based inference: it trades
extra (redundant) computation for a smaller activation working set, never
accuracy.

Quantization is injected through two optional hooks so that the QuantMCU core
(and the baselines) can apply per-branch, per-feature-map bitwidths without
the patch machinery knowing anything about quantization:

``branch_hook(patch_id, fm, array)``
    Called with every feature-map activation computed inside a branch.
``suffix_hook(fm, array)``
    Called with every feature-map activation computed in the suffix.

Both return the (possibly fake-quantized) array to propagate.

*How* the branches are computed is delegated to a pluggable compute backend
(:mod:`repro.backend`): the serial per-branch loop reference, the batched
vectorized default, or a fork-pool multiprocess backend — all bit-identical.
Dispatch always goes through the configured backend.
:meth:`PatchExecutor.run_branch` remains the single-branch reference kernel
that the loop backend drives; instrumentation that wants to observe every
branch wraps ``run_branch`` on an executor built with ``backend="loop"``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..nn import AvgPool2d, Conv2d, DepthwiseConv2d, MaxPool2d
from ..nn import functional as F
from ..nn.graph import INPUT_NODE
from ..quant.points import FeatureMap
from .plan import BranchPlan, PatchPlan
from .regions import Region, backward_region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backend import Backend
    from ..runtime.resources import Runtime

__all__ = ["PatchExecutor"]

BranchHook = Callable[[int, FeatureMap, np.ndarray], np.ndarray]
SuffixHook = Callable[[FeatureMap, np.ndarray], np.ndarray]


def _as_input_batch(x, input_shape: tuple[int, ...]) -> tuple[np.ndarray, bool]:
    """Check a serving input and normalise it to a float32 ``(N, C, H, W)`` batch.

    Accepts one ``(C, H, W)`` sample or an ``(N, C, H, W)`` batch and returns
    ``(batch, single)``, where ``single`` says the caller passed an unbatched
    sample.  Raises :class:`ValueError` for any other rank, for a sample shape
    other than ``input_shape``, and for NaN/Inf values: the fake-quantizers
    would otherwise clamp them into finite, confident-looking logits.
    """
    batch = np.asarray(x, dtype=np.float32)
    single = batch.ndim == 3
    if single:
        batch = batch[None]
    if batch.ndim != 4 or tuple(batch.shape[1:]) != tuple(input_shape):
        raise ValueError(
            f"input shape {np.shape(x)} does not match the model input "
            f"{tuple(input_shape)} (pass (C, H, W) or (N, C, H, W))"
        )
    if not np.isfinite(batch).all():
        raise ValueError("input contains NaN or Inf values")
    return batch, single


class PatchExecutor:
    """Execute a model patch-by-patch according to a plan (see module docstring)."""

    def __init__(
        self,
        plan: PatchPlan,
        branch_hook: BranchHook | None = None,
        suffix_hook: SuffixHook | None = None,
        backend: "str | Backend | None" = None,
        runtime: "Runtime | None" = None,
    ) -> None:
        self.plan = plan
        self.branch_hook = branch_hook
        self.suffix_hook = suffix_hook
        self._shapes = plan.graph.shapes()
        self._fm_by_output = {fm.output_node: fm for fm in plan.fm_index}
        # Backend instances are built lazily (and the spec may name one by
        # string) so constructing an executor never pays backend setup costs.
        self._backend_spec = backend
        self._configured_backend: "Backend | None" = None
        self._inproc_backend: "Backend | None" = None
        # Resource ownership: an injected runtime is shared (close() leaves it
        # alone); without one, a private runtime is created on demand — and
        # re-created after close(), preserving the historical "closed
        # executors revive their pools on next use" lifecycle.
        self._runtime = runtime
        self._private_runtime: "Runtime | None" = None

    # ---------------------------------------------------------------- runtime
    @property
    def runtime(self) -> "Runtime":
        """The resource runtime this executor leases pools/segments from."""
        if self._runtime is not None:
            return self._runtime
        if self._private_runtime is None or self._private_runtime.closed:
            from ..runtime.resources import Runtime

            self._private_runtime = Runtime(name=f"{type(self).__name__}-private")
        return self._private_runtime

    @property
    def owns_runtime(self) -> bool:
        """Whether close() tears the runtime down (False when injected)."""
        return self._runtime is None

    def _close_runtime(self) -> None:
        if self._private_runtime is not None:
            self._private_runtime.close()
            self._private_runtime = None

    # ---------------------------------------------------------------- backend
    @property
    def backend(self) -> "Backend":
        """The configured compute backend (built on first access)."""
        from ..backend import Backend, make_backend

        if isinstance(self._backend_spec, Backend):
            return self._backend_spec
        if self._configured_backend is None:
            self._configured_backend = make_backend(self._backend_spec, self)
        return self._configured_backend

    def _kernel_backend(self) -> "Backend":
        """In-process compute backend, for worker pools and forked processes.

        The configured backend when it runs in-process; never the
        multiprocess backend itself (a worker must not recursively fan out).
        """
        configured = self.backend
        if configured.in_process:
            return configured
        if self._inproc_backend is None:
            from ..backend import VectorizedBackend

            self._inproc_backend = VectorizedBackend(self)
        return self._inproc_backend

    def close(self) -> None:
        """Release backend resources (scratch buffers, worker pools); idempotent.

        Backends close first (they release fork pools / segments back to the
        runtime), then a *private* runtime is torn down; an injected runtime
        is shared infrastructure and stays up for its other tenants.
        """
        from ..backend import Backend

        for backend in (self._configured_backend, self._inproc_backend):
            if backend is not None:
                backend.close()
        if isinstance(self._backend_spec, Backend):
            self._backend_spec.close()
        self._close_runtime()

    def __enter__(self) -> "PatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------------- public
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run patch-based inference on a batch ``x`` of shape ``(N, C, H, W)``."""
        stitched = self._run_patch_stage(x)
        return self.run_suffix(x, stitched)

    __call__ = forward

    def stitched_split_feature_map(self, x: np.ndarray) -> np.ndarray:
        """Return only the stitched split feature map (useful for testing)."""
        return self._run_patch_stage(x)

    def compute_tiles(
        self, x: np.ndarray, branch_ids: list[int]
    ) -> list[tuple[BranchPlan, np.ndarray]]:
        """Run only the branches in ``branch_ids``; returns ``[(branch, tile), ...]``.

        The partial-execution entry point used by streaming inference: a
        caller that knows some tiles are still valid (their input regions did
        not change) asks for just the dirty subset.  The sharded
        :class:`~repro.distributed.DistributedExecutor` overrides this to
        send each branch to its shard; the base implementation hands the
        subset to the compute backend.  The returned tiles are owned by the
        caller (never backend scratch).
        """
        return self.backend.run_branches(x, list(branch_ids))

    def stitch_tiles(
        self, x: np.ndarray, branch_ids: list[int], out: np.ndarray
    ) -> np.ndarray:
        """Compute ``branch_ids`` and write their tiles into ``out`` in place.

        The streaming entry point for callers that keep the stitched split
        feature map alive across frames: only the dirty tiles are recomputed
        and overwritten, everything else in ``out`` is left untouched.
        """
        for branch, tile_array in self.compute_tiles(x, branch_ids):
            tile = branch.output_region
            out[:, :, tile.row_start : tile.row_stop, tile.col_start : tile.col_stop] = (
                tile_array
            )
        return out

    def run_suffix(self, x: np.ndarray, stitched: np.ndarray) -> np.ndarray:
        """Run the layer-by-layer suffix on an already-stitched split feature map.

        Public counterpart of the internal suffix pass so callers that manage
        the stitched buffer themselves (the streaming session keeps it alive
        across frames) can finish the forward pass through the same hooks.
        """
        return self.backend.run_suffix(x, stitched)

    def run_branch(self, branch: BranchPlan, x: np.ndarray) -> np.ndarray:
        """Run one dataflow branch and return its tile of the split feature map.

        This is the independent unit of patch-stage work: branches share no
        intermediate state (each recomputes its halo), so callers — notably
        the sharded :class:`~repro.distributed.DistributedExecutor` — may run
        branches concurrently and stitch the returned tiles in any order.
        The returned array has shape ``(N, C, tile.height, tile.width)``
        where ``tile`` is ``branch.output_region``.
        """
        plan = self.plan
        values: dict[str, tuple[np.ndarray, Region]] = {}
        input_region = branch.clamped_regions[INPUT_NODE]
        values[INPUT_NODE] = (
            x[:, :, input_region.row_start : input_region.row_stop,
              input_region.col_start : input_region.col_stop],
            input_region,
        )
        for name in plan.prefix_nodes:
            if name not in branch.clamped_regions:
                continue
            out_array, out_region = self._compute_node(branch, name, values)
            fm = self._fm_by_output.get(name)
            if fm is not None and self.branch_hook is not None:
                out_array = self.branch_hook(branch.patch_id, fm, out_array)
            values[name] = (out_array, out_region)

        split_array, split_region = values[plan.split_output_node]
        tile = branch.output_region
        row0 = tile.row_start - split_region.row_start
        col0 = tile.col_start - split_region.col_start
        return split_array[:, :, row0 : row0 + tile.height, col0 : col0 + tile.width]

    # ------------------------------------------------------------ patch stage
    def _allocate_split(self, x: np.ndarray) -> np.ndarray:
        split_shape = self._shapes[self.plan.split_output_node]
        return np.zeros((x.shape[0], *split_shape), dtype=np.float32)

    def _run_patch_stage(self, x: np.ndarray) -> np.ndarray:
        return self.backend.run_patch_stage(x, self._allocate_split(x))

    def _compute_node(
        self,
        branch: BranchPlan,
        name: str,
        values: dict[str, tuple[np.ndarray, Region]],
    ) -> tuple[np.ndarray, Region]:
        """Compute the clamped demanded region of ``name`` for one branch."""
        graph = self.plan.graph
        node = graph.nodes[name]
        layer = node.layer
        out_region = branch.clamped_regions[name]
        kernel, stride, padding = layer.spatial_params()

        if isinstance(layer, (Conv2d, DepthwiseConv2d, MaxPool2d, AvgPool2d)):
            desired = backward_region(out_region, kernel, stride, padding)
            src_array, src_region = values[node.inputs[0]]
            window = self._extract_padded(src_array, src_region, desired, name)
            out = self._run_spatial_layer(layer, window)
            return out, out_region

        # Elementwise / merge layers: gather each input over exactly out_region.
        inputs = []
        for src in node.inputs:
            src_array, src_region = values[src]
            inputs.append(self._extract_exact(src_array, src_region, out_region, name))
        return layer.forward(*inputs), out_region

    def _extract_padded(
        self, array: np.ndarray, available: Region, desired: Region, consumer: str
    ) -> np.ndarray:
        """Slice ``desired`` out of ``array`` (covering ``available``), zero-padding
        the parts of ``desired`` that fall outside the feature map."""
        inner = Region(
            max(desired.row_start, available.row_start),
            min(desired.row_stop, available.row_stop),
            max(desired.col_start, available.col_start),
            min(desired.col_stop, available.col_stop),
        )
        if inner.height <= 0 or inner.width <= 0:  # pragma: no cover - defensive
            raise RuntimeError(f"empty overlap while computing {consumer}")
        sliced = array[
            :,
            :,
            inner.row_start - available.row_start : inner.row_stop - available.row_start,
            inner.col_start - available.col_start : inner.col_stop - available.col_start,
        ]
        pad_top = inner.row_start - desired.row_start
        pad_bottom = desired.row_stop - inner.row_stop
        pad_left = inner.col_start - desired.col_start
        pad_right = desired.col_stop - inner.col_stop
        if pad_top or pad_bottom or pad_left or pad_right:
            sliced = np.pad(
                sliced,
                [(0, 0), (0, 0), (pad_top, pad_bottom), (pad_left, pad_right)],
                mode="constant",
            )
        return sliced

    @staticmethod
    def _extract_exact(
        array: np.ndarray, available: Region, wanted: Region, consumer: str
    ) -> np.ndarray:
        """Slice exactly ``wanted`` (must lie inside ``available``)."""
        if not available.contains(wanted):  # pragma: no cover - defensive
            raise RuntimeError(
                f"branch region bookkeeping error at {consumer}: "
                f"wanted {wanted}, available {available}"
            )
        return array[
            :,
            :,
            wanted.row_start - available.row_start : wanted.row_stop - available.row_start,
            wanted.col_start - available.col_start : wanted.col_stop - available.col_start,
        ]

    @staticmethod
    def _run_spatial_layer(layer, window: np.ndarray) -> np.ndarray:
        """Run a spatial layer on a pre-padded window (padding handled by caller)."""
        if isinstance(layer, Conv2d):
            out, _ = F.conv2d_forward(
                window, layer.params["weight"], layer.params.get("bias"), layer.stride, 0
            )
            return out
        if isinstance(layer, DepthwiseConv2d):
            out, _ = F.depthwise_conv2d_forward(
                window, layer.params["weight"], layer.params.get("bias"), layer.stride, 0
            )
            return out
        if isinstance(layer, MaxPool2d):
            out, _ = F.maxpool2d_forward(window, layer.kernel_size, layer.stride, 0)
            return out
        if isinstance(layer, AvgPool2d):
            return F.avgpool2d_forward(window, layer.kernel_size, layer.stride, 0)
        raise TypeError(f"unsupported spatial layer {type(layer).__name__}")  # pragma: no cover

    # ---------------------------------------------------------------- suffix
    def _run_suffix(self, x: np.ndarray, stitched: np.ndarray) -> np.ndarray:
        plan = self.plan
        graph = plan.graph
        values: dict[str, np.ndarray] = {INPUT_NODE: x, plan.split_output_node: stitched}
        for name in plan.suffix_nodes:
            node = graph.nodes[name]
            inputs = [values[src] for src in node.inputs]
            out = node.layer.forward(*inputs)
            fm = self._fm_by_output.get(name)
            if fm is not None and self.suffix_hook is not None:
                out = self.suffix_hook(fm, out)
            values[name] = out
        return values[graph.output_node]
