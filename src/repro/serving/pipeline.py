"""Compiled inference pipelines: freeze a quantized model for serving.

A :class:`CompiledPipeline` is the immutable serving artifact of the QuantMCU
flow: one model graph (with the fake-quantized weights already baked in), one
:class:`~repro.patch.plan.PatchPlan`, and one static deployment configuration
(per-branch activation bitwidths, suffix bitwidths and calibrated activation
ranges).  Compiling once and invoking many times is what separates serving
from the one-shot experiment scripts: calibration, bitwidth search and plan
construction happen at compile time, so a request only pays for the forward
pass itself.

Compiled pipelines are cheap to invoke, safe to share between threads (the
weights are frozen read-only and the quantization hooks are pure functions of
their inputs), and round-trip through :meth:`CompiledPipeline.save` /
:meth:`CompiledPipeline.load` for models built through the registry
(:class:`ModelSpec` records the builder arguments).

The serving execution is bit-identical to the experiment-side
:meth:`~repro.core.quantmcu.QuantMCUPipeline.make_executor` path: the same
:class:`~repro.patch.executor.PatchExecutor` machinery runs under hooks that
apply the same calibrated fake-quantization.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
import threading
from dataclasses import asdict, dataclass

import numpy as np

from ..core.quantmcu import QuantMCUPipeline, QuantMCUResult, make_static_hooks
from ..distributed.executor import DistributedExecutor
from ..hardware.cluster import ClusterSpec
from ..hardware.device import MCUDevice
from ..models import build_model
from ..nn import Graph
from ..patch.executor import PatchExecutor, _as_input_batch
from ..patch.plan import PatchPlan, build_patch_plan
from ..quant.config import QuantizationConfig
from ..quant.quantizers import quantize_weight_per_channel
from ..runtime.policy import ExecutionPolicy
from ..runtime.resources import Runtime
from ..streaming.session import StreamSession

__all__ = ["ModelSpec", "CompiledPipeline", "compile_pipeline"]

_DEFAULT_POLICY = ExecutionPolicy()

#: One host worker of the ``threads(n)`` placement.  Its SRAM budget is one no
#: shard can exceed, so the shard planner balances MACs alone.
_HOST_WORKER = MCUDevice(
    name="host",
    core="host",
    clock_hz=1.0,
    sram_bytes=sys.maxsize,
    flash_bytes=sys.maxsize,
)


def _host_cluster(plan: PatchPlan, max_workers: int | None) -> ClusterSpec:
    """The ``threads(max_workers)`` placement as n identical host workers.

    Unset, n is one worker per branch capped at the CPU count.
    """
    if max_workers is None:
        max_workers = max(1, min(plan.num_branches, os.cpu_count() or 1))
    return ClusterSpec.homogeneous(_HOST_WORKER, max_workers)


@dataclass(frozen=True)
class ModelSpec:
    """Arguments that rebuild a zoo model through the registry.

    Recording the spec (rather than the graph object) is what makes a
    compiled pipeline serializable: :meth:`CompiledPipeline.load` rebuilds
    the graph from the spec and restores the saved weights into it.
    """

    name: str
    resolution: int
    num_classes: int = 1000
    width_mult: float = 1.0
    seed: int = 0

    def build(self) -> Graph:
        return build_model(
            self.name,
            resolution=self.resolution,
            num_classes=self.num_classes,
            width_mult=self.width_mult,
            seed=self.seed,
        )


def _freeze_graph(graph: Graph) -> None:
    """Put ``graph`` in inference mode and mark every parameter read-only."""
    graph.eval()
    for _, layer in graph.layers():
        layer._cache = {}
        for arr in layer.params.values():
            arr.flags.writeable = False
        for buf_name in ("running_mean", "running_var"):
            buf = getattr(layer, buf_name, None)
            if isinstance(buf, np.ndarray):
                buf.flags.writeable = False
    if hasattr(graph, "_values"):
        del graph._values


def _buffers(graph: Graph) -> dict[str, np.ndarray]:
    """Non-parameter state (BatchNorm running statistics) keyed like params."""
    out: dict[str, np.ndarray] = {}
    for name, layer in graph.layers():
        for buf_name in ("running_mean", "running_var"):
            buf = getattr(layer, buf_name, None)
            if isinstance(buf, np.ndarray):
                out[f"{name}.{buf_name}"] = buf
    return out


class CompiledPipeline:
    """An immutable, reusable quantized-inference artifact (see module docstring).

    Use :func:`compile_pipeline` (or :meth:`from_result`) to build one from a
    finished :class:`~repro.core.quantmcu.QuantMCUResult`; construct directly
    only when restoring from :meth:`load`.
    """

    def __init__(
        self,
        graph: Graph,
        plan: PatchPlan,
        state: dict,
        spec: ModelSpec | None = None,
        backend: str | None = None,
        runtime: Runtime | None = None,
    ) -> None:
        if state.get("classification_mode") != "static":
            raise ValueError(
                "only static-mode QuantMCU results can be compiled for serving; "
                "dynamic per-input classification keeps mutable per-batch state"
            )
        self.graph = graph
        self.plan = plan
        self.state = state
        self.spec = spec
        _freeze_graph(graph)
        self._ranges = {
            int(k): (float(lo), float(hi))
            for k, (lo, hi) in state["activation_ranges"].items()
        }
        self._suffix_bits = {int(k): int(v) for k, v in state["suffix_bits"].items()}
        self._branch_bits = [
            {int(k): int(v) for k, v in bits.items()} for bits in state["branch_bits"]
        ]
        self.fingerprint = self._fingerprint()
        # The same hook builder the experiment-side make_executor uses — the
        # single source of the static quantization semantics.
        self._branch_hook, self._suffix_hook = make_static_hooks(
            self._ranges, self._branch_bits, self._suffix_bits
        )
        # Compute-backend *name* shared by every executor this pipeline builds
        # (each executor owns its own backend instance; see repro.backend).
        self._backend_spec = backend
        # The shared resource runtime every executor leases pools from; None
        # means each executor manages a private runtime (historical lifecycle).
        self._runtime = runtime
        # The default executor: local placement, the pipeline's backend and
        # runtime.  Built eagerly so the common path never takes the lock.
        self._default = PatchExecutor(
            plan,
            branch_hook=self._branch_hook,
            suffix_hook=self._suffix_hook,
            backend=backend,
            runtime=runtime,
        )
        # Every other executor, keyed by (placement, backend, runtime token).
        self._executors: dict[tuple, PatchExecutor] = {}
        self._executor_lock = threading.Lock()

    # ----------------------------------------------------------- construction
    @classmethod
    def from_result(
        cls,
        pipeline: QuantMCUPipeline,
        result: QuantMCUResult,
        spec: ModelSpec | None = None,
        backend: str | None = None,
        runtime: Runtime | None = None,
    ) -> "CompiledPipeline":
        """Freeze ``result`` into a serving artifact.

        The source graph is deep-copied, its weights are replaced by their
        fake-quantized deployment values, and the patch plan is rebuilt on the
        copy, so later mutation (further training, re-quantization) of the
        original model cannot affect the compiled pipeline.
        """
        state = result.deployment_state()
        graph = copy.deepcopy(pipeline.graph)
        if result.weight_bits < 32:
            # Same coverage as QuantMCUPipeline.quantized_weights: only the
            # feature-map compute nodes (the classifier head stays float).
            for fm in pipeline.fm_index:
                layer = graph.nodes[fm.compute_node].layer
                if "weight" in layer.params:
                    layer.params["weight"] = quantize_weight_per_channel(
                        layer.params["weight"], result.weight_bits
                    )
        plan = build_patch_plan(graph, state["split_output_node"], state["num_patches"])
        return cls(graph, plan, state, spec=spec, backend=backend, runtime=runtime)

    # ------------------------------------------------------------- inference
    def executor(
        self,
        policy: ExecutionPolicy | None = None,
        runtime: Runtime | None = None,
    ) -> PatchExecutor:
        """The (cached) executor backing :meth:`infer`.

        ``policy`` selects placement and kernel backend (see
        :class:`~repro.runtime.ExecutionPolicy`); ``runtime`` overrides the
        resource runtime executors lease pools from (defaults to the
        pipeline's).  Executors are cached per ``(placement, backend,
        runtime)`` and live until :meth:`close`.

        ``local`` runs the backend on the calling thread.  ``threads(n)`` and
        ``cluster(spec)`` both run a
        :class:`~repro.distributed.DistributedExecutor` with one serial shard
        per worker: for ``threads(n)`` the workers are n identical host
        threads, planned by MACs alone.
        """
        runtime = runtime if runtime is not None else self._runtime
        policy = policy if policy is not None else _DEFAULT_POLICY
        backend = policy.backend if policy.backend is not None else self._backend_spec
        placement = policy.placement
        if (
            placement.kind == "local"
            and backend == self._backend_spec
            and runtime is self._runtime
        ):
            return self._default
        key = (placement.cache_key, backend, runtime.token if runtime is not None else None)
        with self._executor_lock:
            executor = self._executors.get(key)
            if executor is None:
                hooks = {"branch_hook": self._branch_hook, "suffix_hook": self._suffix_hook}
                if placement.kind == "local":
                    executor = PatchExecutor(
                        self.plan, backend=backend, runtime=runtime, **hooks
                    )
                else:
                    cluster = (
                        placement.cluster
                        if placement.kind == "cluster"
                        else _host_cluster(self.plan, placement.max_workers)
                    )
                    executor = DistributedExecutor(
                        self.plan, cluster, backend=backend, runtime=runtime, **hooks
                    )
                self._executors[key] = executor
            return executor

    @staticmethod
    def _reject_displaced(policy: ExecutionPolicy | None, surface: str) -> None:
        if policy is not None and policy.tier == "displaced":
            raise ValueError(
                "the 'displaced' tier is a pipeline-parallel schedule over "
                "micro-batches; drive it through PipelineParallelScheduler, "
                f"not {surface}"
            )

    def infer(
        self,
        x: np.ndarray,
        policy: ExecutionPolicy | None = None,
        runtime: Runtime | None = None,
    ) -> np.ndarray:
        """Run quantized patch-based inference on a batch ``(N, C, H, W)``.

        A single ``(C, H, W)`` sample returns its unbatched output.  Any other
        rank, a wrong sample shape or a NaN/Inf value raises
        :class:`ValueError` before any work runs.  A one-shot batch has no
        frame history, so the ``stale_halo`` tier serves exactly the same bits
        as ``exact`` here; the ``displaced`` tier is a pipeline-parallel
        schedule and is rejected (drive it through
        :class:`~repro.distributed.PipelineParallelScheduler`).
        """
        self._reject_displaced(policy, "CompiledPipeline.infer")
        batch, single = _as_input_batch(x, self.graph.input_shape)
        try:
            output = self.executor(policy, runtime).forward(batch)
        finally:
            self._clear_layer_caches()
        return output[0] if single else output

    __call__ = infer

    def _clear_layer_caches(self) -> None:
        # Layers stash backward-pass caches (im2col matrices, BN x_hat)
        # on every forward; a resident serving pipeline must not keep a
        # full activation set alive between requests.
        for _, layer in self.graph.layers():
            layer._cache = {}

    def open_stream(
        self,
        policy: ExecutionPolicy | None = None,
        runtime: Runtime | None = None,
    ) -> StreamSession:
        """Open a :class:`~repro.streaming.StreamSession` on this pipeline.

        Successive frames fed to the session recompute only the patch
        branches whose input regions changed, bit-identical to full
        recomputation (see :mod:`repro.streaming`).  ``policy`` picks the
        executor exactly as :meth:`infer` does; the executor is owned (and
        eventually closed) by the pipeline, so the session must not outlive
        it.

        The policy's freshness tier is the stream's accuracy mode: ``exact``
        (default) or ``stale_halo``, where branches whose changes are
        confined to their halo are served stale (bounded by
        ``max_stale_frames``) with drift vs the exact path sampled every
        ``drift_sample_every`` frames — see
        :class:`~repro.streaming.StreamSession`.  The ``displaced`` tier
        belongs to the pipeline-parallel scheduler and is rejected here.
        """
        policy = policy if policy is not None else _DEFAULT_POLICY
        self._reject_displaced(policy, "a stream")
        session = StreamSession(
            self.executor(policy, runtime),
            accuracy_mode=policy.tier,
            drift_sample_every=policy.drift_sample_every,
            max_stale_frames=policy.max_stale_frames,
        )
        session.add_observer(lambda stats: self._clear_layer_caches())
        return session

    def close(self) -> None:
        """Release executor resources: worker pools, device pools, backend scratch.

        Executors leasing from an injected :class:`~repro.runtime.Runtime`
        release their leases here but leave the (shared) pools up; closing
        the runtime itself is its owner's job.
        """
        with self._executor_lock:
            self._default.close()
            for executor in self._executors.values():
                executor.close()
            self._executors.clear()

    # ----------------------------------------------------------- fingerprint
    def _fingerprint(self) -> str:
        # Canonicalized so a save/load round trip (which stringifies the int
        # dict keys through JSON) produces the identical fingerprint.
        digest = hashlib.sha256()
        meta = {
            "split_output_node": self.state["split_output_node"],
            "num_patches": int(self.state["num_patches"]),
            "weight_bits": int(self.state["weight_bits"]),
            "suffix_bits": sorted(self._suffix_bits.items()),
            "branch_bits": [sorted(bits.items()) for bits in self._branch_bits],
            "ranges": sorted((k, lo, hi) for k, (lo, hi) in self._ranges.items()),
            "spec": asdict(self.spec) if self.spec else None,
        }
        digest.update(json.dumps(meta, sort_keys=True).encode())
        arrays = {f"{n}.{p}": arr for n, p, arr in self.graph.parameters()}
        arrays.update(_buffers(self.graph))  # BN running stats shape outputs too
        for key in sorted(arrays):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(arrays[key]).tobytes())
        return digest.hexdigest()[:16]

    def quantization_configs(self) -> tuple["QuantizationConfig", list["QuantizationConfig"]]:
        """``(suffix_config, branch_configs)`` for the hardware latency model."""
        weight_bits = int(self.state["weight_bits"])
        suffix_config = QuantizationConfig(
            activation_bits=dict(self._suffix_bits),
            default_activation_bits=8,
            default_weight_bits=weight_bits,
        )
        branch_configs = []
        for bits in self._branch_bits:
            merged = dict(self._suffix_bits)
            merged.update(bits)
            branch_configs.append(
                QuantizationConfig(
                    activation_bits=merged,
                    default_activation_bits=8,
                    default_weight_bits=weight_bits,
                )
            )
        return suffix_config, branch_configs

    @property
    def cache_key(self) -> tuple:
        """Default :class:`~repro.serving.cache.PipelineCache` key."""
        model = self.spec.name if self.spec is not None else self.graph.name
        return (model, self.fingerprint)

    # ------------------------------------------------------------- save/load
    def save(self, path: str) -> None:
        """Serialize to a single ``.npz`` file.

        Requires a :class:`ModelSpec` (the graph structure itself is not
        serialized; :meth:`load` rebuilds it through the model registry).
        """
        if self.spec is None:
            raise ValueError("cannot save a CompiledPipeline without a ModelSpec")
        # np.savez appends ".npz" to bare paths; normalize so save/load agree.
        if not path.endswith(".npz"):
            path += ".npz"
        arrays: dict[str, np.ndarray] = {}
        for key, arr in self.graph.state_dict().items():
            arrays[f"param:{key}"] = arr
        for key, arr in _buffers(self.graph).items():
            arrays[f"buffer:{key}"] = arr
        meta = {"spec": asdict(self.spec), "state": self.state}
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
        )
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path: str) -> "CompiledPipeline":
        """Restore a pipeline previously written by :meth:`save`."""
        if not path.endswith(".npz"):
            path += ".npz"
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["__meta__"]).decode())
            params = {
                key[len("param:") :]: archive[key]
                for key in archive.files
                if key.startswith("param:")
            }
            buffers = {
                key[len("buffer:") :]: archive[key]
                for key in archive.files
                if key.startswith("buffer:")
            }
        spec = ModelSpec(**meta["spec"])
        graph = spec.build()
        graph.load_state_dict(params)
        for key, arr in buffers.items():
            node, buf_name = key.rsplit(".", 1)
            setattr(graph.nodes[node].layer, buf_name, arr.copy())
        state = meta["state"]
        plan = build_patch_plan(graph, state["split_output_node"], state["num_patches"])
        return cls(graph, plan, state, spec=spec)


def compile_pipeline(
    pipeline: QuantMCUPipeline,
    result: QuantMCUResult,
    spec: ModelSpec | None = None,
    backend: str | None = None,
    runtime: Runtime | None = None,
) -> CompiledPipeline:
    """Functional alias for :meth:`CompiledPipeline.from_result`."""
    return CompiledPipeline.from_result(
        pipeline, result, spec=spec, backend=backend, runtime=runtime
    )
