"""Concurrent inference engine: request queue, dynamic batching, pipeline cache.

:class:`InferenceEngine` turns compiled pipelines into a service.  Callers
submit single samples (or small batches) from any thread and get a
:class:`concurrent.futures.Future` back; a background batcher thread groups
requests for the same pipeline into micro-batches and flushes a group when it
reaches ``max_batch_size`` samples **or** its oldest request has waited
``batch_timeout_s`` — the standard dynamic-batching latency/throughput
trade-off.

Batching is numerically faithful: every operator in the NumPy framework
treats batch rows independently in inference mode (convolutions, pooling,
eval-mode batch norm, per-tensor fake quantization with calibrated ranges),
so a sample's result does not depend on *which* other samples share its
micro-batch.  The one caveat is batch *size*: BLAS may select a different
GEMM kernel for different matrix shapes, which perturbs results at the level
of float32 rounding (~1e-6 relative).  Patch-parallel execution, by contrast,
is bit-exact — it never changes any array shape.

Pipelines come from a :class:`~repro.serving.cache.PipelineCache` keyed by
``(model, device, quant config)``; the engine mirrors the cache's hit/miss/
eviction counters into its :class:`~repro.serving.telemetry.TelemetryRecorder`
so a single snapshot describes the whole serving path.  When a target
:class:`~repro.hardware.device.MCUDevice` is attached, each request also gets
an amortized modelled on-device latency from
:func:`~repro.hardware.latency.estimate_serving_latency`.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from ..distributed.planner import ShardPlanner
from ..hardware.cluster import estimate_cluster_serving_latency
from ..hardware.device import MCUDevice
from ..hardware.latency import estimate_serving_latency
from ..patch.executor import _as_input_batch
from ..runtime.policy import ExecutionPolicy
from ..runtime.resources import Runtime
from ..streaming.session import StreamSession
from .cache import PipelineCache
from .pipeline import CompiledPipeline
from .telemetry import RequestRecord, TelemetryRecorder

__all__ = ["InferenceEngine", "EngineClosed"]


class EngineClosed(RuntimeError):
    """Raised when submitting to an engine that has been shut down."""


@dataclass
class _PendingRequest:
    request_id: int
    pipeline: CompiledPipeline
    x: np.ndarray  # always (N, C, H, W)
    single: bool  # caller passed an unbatched (C, H, W) sample
    enqueued_at: float
    future: Future = field(default_factory=Future)

    @property
    def num_samples(self) -> int:
        return self.x.shape[0]


@dataclass
class _Group:
    """Requests for one pipeline awaiting a flush."""

    key: Hashable
    pipeline: CompiledPipeline
    requests: list[_PendingRequest] = field(default_factory=list)

    @property
    def num_samples(self) -> int:
        return sum(r.num_samples for r in self.requests)

    @property
    def oldest_enqueued_at(self) -> float:
        return self.requests[0].enqueued_at


_SHUTDOWN = object()

#: Bound on memoized modelled-latency entries per pipeline fingerprint.  Batch
#: sizes are mostly confined to ``1..max_batch_size``, but multi-sample
#: requests can exceed the bound, so the memo is LRU-capped rather than sized
#: exactly.
_MAX_BATCH_MEMO = 32


class InferenceEngine:
    """Thread-safe serving engine with dynamic micro-batching (see module docstring).

    Parameters
    ----------
    pipelines:
        Either a single :class:`CompiledPipeline` (single-model serving) or a
        :class:`PipelineCache` for multi-model serving; with a cache, callers
        pass the pipeline key to :meth:`submit`.
    max_batch_size:
        Flush a group as soon as it holds this many *samples*.
    batch_timeout_s:
        Flush a group once its oldest request has waited this long, even if
        the batch is not full.
    policy:
        The :class:`~repro.runtime.ExecutionPolicy` every flush and stream
        executes under — the one description of placement, kernel backend and
        freshness tier (default: local, exact).  ``threads(n)`` shards each
        flush's patch stage over n host workers and ``cluster(spec)`` over
        the cluster's devices, both through the one patch-sharded executor
        (bit-identical to local execution); under a cluster placement the
        modelled telemetry latency switches to the cluster makespan model.
    runtime:
        Optional shared :class:`~repro.runtime.Runtime`; executors built for
        this engine lease their pools from it, so two engines given the same
        runtime share one pool set and one ``Runtime.close()`` releases
        everything.  Without one, executors manage private runtimes.
    device:
        Optional MCU target; attaches an amortized modelled per-request
        on-device latency to the telemetry.  Ignored for the compute model
        under a cluster placement (the cluster's own devices are used).
    telemetry:
        Recorder to use; a fresh one is created by default.
    """

    def __init__(
        self,
        pipelines: CompiledPipeline | PipelineCache,
        max_batch_size: int = 8,
        batch_timeout_s: float = 0.005,
        device: MCUDevice | None = None,
        telemetry: TelemetryRecorder | None = None,
        policy: ExecutionPolicy | None = None,
        runtime: Runtime | None = None,
    ) -> None:
        self.policy = policy if policy is not None else ExecutionPolicy()
        if self.policy.tier == "displaced":
            raise ValueError(
                "the 'displaced' tier is a pipeline-parallel schedule over "
                "micro-batches; InferenceEngine serves 'exact'/'stale_halo' "
                "policies — use PipelineParallelScheduler instead"
            )
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if batch_timeout_s < 0:
            raise ValueError("batch_timeout_s must be >= 0")
        if isinstance(pipelines, CompiledPipeline):
            pipeline = pipelines
            self.cache: PipelineCache = PipelineCache(
                factory=lambda key: pipeline, capacity=1
            )
            self._default_key: Hashable | None = pipeline.cache_key
        else:
            self.cache = pipelines
            self._default_key = None
        self.max_batch_size = max_batch_size
        self.batch_timeout_s = batch_timeout_s
        # The cluster the latency model charges (None off cluster placement).
        self.cluster = self.policy.placement.cluster
        self._runtime = runtime
        self.device = device
        self.telemetry = telemetry if telemetry is not None else TelemetryRecorder()
        self._queue: queue.Queue = queue.Queue()
        self._request_ids = itertools.count()
        self._closed = False
        # Serializes the closed-check + enqueue against close(), so no request
        # can slip into the queue after the shutdown sentinel.
        self._submit_lock = threading.Lock()
        # Modelled-latency memo: fingerprint -> LRU of batch_size -> seconds.
        # Bounded two ways: entries for a pipeline die with its cache entry
        # (the eviction hook below) and batch-size keys are capped per
        # fingerprint, so a long-lived engine cannot grow it without bound.
        self._device_breakdowns: dict[str, OrderedDict[int, float]] = {}
        # Shard-assignment memo for the cluster latency model, keyed by
        # fingerprint.  Planned directly (ShardPlanner is deterministic LPT)
        # instead of read off a DistributedExecutor: building an executor just
        # to inspect its plan used to leak device worker pools into the
        # pipeline's executor cache.
        self._shard_assignments: dict[str, list[list[int]]] = {}
        self._breakdown_lock = threading.Lock()
        # Chain onto the cache's eviction callback (preserving any existing
        # one) so a pipeline leaving the cache drops its memoized latencies.
        # The hook holds the engine weakly: if close-order interleaving on a
        # shared cache strands the hook mid-chain, it delegates onward without
        # keeping the dead engine (and its telemetry) alive.
        self._chained_on_evict = self.cache.on_evict
        self._evict_hook = _eviction_hook(weakref.ref(self), self._chained_on_evict)
        self.cache.on_evict = self._evict_hook
        self._batcher = threading.Thread(
            target=self._batch_loop, name="inference-batcher", daemon=True
        )
        self._batcher.start()

    # ---------------------------------------------------------------- public
    def submit(self, x: np.ndarray, key: Hashable | None = None) -> Future:
        """Enqueue one request; the Future resolves to the model output.

        ``x`` is a single ``(C, H, W)`` sample (resolved to its ``(classes,)``
        output row) or a ``(N, C, H, W)`` mini-batch (resolved to ``(N, ...)``).
        Any other rank, a wrong sample shape or a NaN/Inf value raises
        :class:`ValueError` here, so a bad request fails alone instead of
        failing (or poisoning) the micro-batch it would have joined.
        """
        if self._closed:
            # Fail fast before the cache lookup: a miss would run the factory
            # (a full compile) and mutate cache/telemetry state for a request
            # that can never be served.  The authoritative check happens again
            # under _submit_lock below, so a close() racing past this line
            # still cannot let the request slip into the queue.
            raise EngineClosed("engine is closed")
        if key is None:
            if self._default_key is None:
                raise ValueError("engine serves multiple pipelines; a key is required")
            key = self._default_key
        pipeline = self.cache.get(key)
        stats = self.cache.stats()
        self.telemetry.record_cache(stats.hits, stats.misses, stats.evictions)

        x, single = _as_input_batch(x, pipeline.graph.input_shape)
        request = _PendingRequest(
            request_id=next(self._request_ids),
            pipeline=pipeline,
            x=x,
            single=single,
            enqueued_at=time.perf_counter(),
        )
        with self._submit_lock:
            if self._closed:
                raise EngineClosed("engine is closed")
            self.telemetry.record_queue_depth(self._queue.qsize() + 1)
            self._queue.put((key, request))
        return request.future

    def infer(self, x: np.ndarray, key: Hashable | None = None) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(x, key=key).result()

    def open_stream(
        self,
        key: Hashable | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> StreamSession:
        """Open a streaming session against one of this engine's pipelines.

        The returned :class:`~repro.streaming.StreamSession` serves successive
        frames of one video/sensor stream with incremental patch
        recomputation.  ``policy`` defaults to the engine's own, so placement
        and backend follow batched requests; under the default ``exact`` tier
        every frame is bit-identical to full recomputation.  Frames are
        processed synchronously in the caller's thread: a stream is stateful
        (each frame diffs against the previous one), so its frames cannot be
        re-ordered or batched with other traffic.  Every processed frame
        records its reuse counters into the engine telemetry
        (``stream_frames``, ``stream_branches_executed``,
        ``stream_branches_reused``, ``stream_reuse_rate``).

        A ``stale_halo`` policy opts the stream into the approximate tier
        (halo-only-dirty branches served stale, bounded by the policy's
        ``max_stale_frames``); its stale tile counts land in
        ``stream_branches_stale`` and every drift sample (taken each
        ``drift_sample_every`` frames) updates ``stream_drift_samples`` /
        ``stream_max_drift_abs`` / ``stream_max_drift_rms``.
        """
        stream_policy = policy if policy is not None else self.policy
        if self._closed:
            raise EngineClosed("engine is closed")
        if key is None:
            if self._default_key is None:
                raise ValueError("engine serves multiple pipelines; a key is required")
            key = self._default_key
        pipeline = self.cache.get(key)
        stats = self.cache.stats()
        self.telemetry.record_cache(stats.hits, stats.misses, stats.evictions)
        session = pipeline.open_stream(policy=stream_policy, runtime=self._runtime)

        def _record(frame) -> None:
            self.telemetry.record_stream_frame(
                frame.executed_branches,
                frame.reused_branches,
                len(frame.stale_branches),
            )
            if frame.drift_max_abs is not None:
                self.telemetry.record_stream_drift(
                    frame.drift_max_abs, frame.drift_rms or 0.0
                )

        session.add_observer(_record)
        return session

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; flush whatever is queued, then stop the batcher.

        Idempotent, and ``wait=True`` always waits: a ``close(wait=True)``
        after an earlier ``close(wait=False)`` still joins the batcher thread
        (shutdown is only *initiated* once, but the join must not be skipped
        by the closed-guard).
        """
        with self._submit_lock:
            already_closed = self._closed
            if not already_closed:
                self._closed = True
                self._queue.put(_SHUTDOWN)
        # Unhook from the (possibly shared, possibly longer-lived) cache when
        # we are at the head of the chain.  If a later engine wrapped on top
        # of us we must stay mid-chain — but the hook only weak-references us,
        # so staying costs a small closure, not the engine.
        if not already_closed and self.cache.on_evict is self._evict_hook:
            self.cache.on_evict = self._chained_on_evict
        if wait:
            self._batcher.join()

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- batch loop
    def _batch_loop(self) -> None:
        groups: dict[Hashable, _Group] = {}
        shutting_down = False
        while True:
            timeout = self._next_timeout(groups)
            if shutting_down and not groups and self._queue.empty():
                return
            items = []
            try:
                items.append(self._queue.get(timeout=timeout if not shutting_down else 0.0))
            except queue.Empty:
                pass
            # Greedily drain whatever else is already queued, so that requests
            # arriving while a previous batch was being served form a real
            # micro-batch instead of flushing one at a time.
            while True:
                try:
                    items.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            for item in items:
                if item is _SHUTDOWN:
                    shutting_down = True
                    continue
                key, request = item
                group = groups.get(key)
                if group is None or group.pipeline is not request.pipeline:
                    # A key remapped to a recompiled pipeline starts a new
                    # group; flush the stale one immediately.
                    if group is not None:
                        self._flush(groups.pop(key))
                    group = groups.setdefault(key, _Group(key=key, pipeline=request.pipeline))
                group.requests.append(request)
                if group.num_samples >= self.max_batch_size:
                    self._flush(groups.pop(key))
            # Flush everything whose oldest request has exceeded the timeout
            # (or everything, when draining for shutdown).
            now = time.perf_counter()
            expired = [
                key
                for key, group in groups.items()
                if shutting_down or now - group.oldest_enqueued_at >= self.batch_timeout_s
            ]
            for key in expired:
                self._flush(groups.pop(key))

    def _next_timeout(self, groups: dict[Hashable, _Group]) -> float | None:
        if not groups:
            return None
        now = time.perf_counter()
        deadline = min(g.oldest_enqueued_at for g in groups.values()) + self.batch_timeout_s
        return max(0.0, deadline - now)

    # ---------------------------------------------------------------- flush
    def _flush(self, group: _Group) -> None:
        # Drop requests whose Future was cancelled while queued; marking the
        # survivors running also blocks a cancel() racing the flush, so the
        # set_result/set_exception calls below cannot raise InvalidStateError.
        requests = [r for r in group.requests if r.future.set_running_or_notify_cancel()]
        if not requests:
            return
        # Chunk so no served micro-batch exceeds max_batch_size.  A group can
        # hold more samples than the bound when a multi-sample request lands
        # on an almost-full group; serving the concatenation whole would
        # violate the configured bound.  Requests are atomic (one caller, one
        # result), so the only batch ever allowed over the bound is a single
        # request that is itself oversized — and it is served alone.
        chunk: list[_PendingRequest] = []
        chunk_samples = 0
        for request in requests:
            if chunk and chunk_samples + request.num_samples > self.max_batch_size:
                self._serve_batch(group.pipeline, chunk)
                chunk, chunk_samples = [], 0
            chunk.append(request)
            chunk_samples += request.num_samples
        self._serve_batch(group.pipeline, chunk)

    def _serve_batch(self, pipeline: CompiledPipeline, requests: list[_PendingRequest]) -> None:
        num_samples = sum(r.num_samples for r in requests)
        self.telemetry.record_batch(num_samples)
        started = time.perf_counter()
        try:
            batch = (
                requests[0].x
                if len(requests) == 1
                else np.concatenate([r.x for r in requests], axis=0)
            )
            output = pipeline.infer(batch, policy=self.policy, runtime=self._runtime)
        except Exception as exc:  # propagate the failure to every caller
            for request in requests:
                request.future.set_exception(exc)
            self.telemetry.record_failed(len(requests))
            return
        completed = time.perf_counter()
        service = completed - started
        device_share = self._modelled_device_seconds(pipeline, num_samples)
        offset = 0
        for request in requests:
            rows = output[offset : offset + request.num_samples]
            offset += request.num_samples
            request.future.set_result(rows[0] if request.single else rows)
            self.telemetry.record_request(
                RequestRecord(
                    request_id=request.request_id,
                    queue_seconds=started - request.enqueued_at,
                    service_seconds=service,
                    total_seconds=completed - request.enqueued_at,
                    batch_size=num_samples,
                    modelled_device_seconds=device_share * request.num_samples,
                ),
                completed_at=completed,
            )

    def _modelled_device_seconds(self, pipeline: CompiledPipeline, batch_size: int) -> float:
        """Amortized modelled on-device seconds per sample of this batch.

        With a cluster attached the model is the multi-device makespan of
        :func:`~repro.hardware.cluster.estimate_cluster_serving_latency` (for
        the same shard assignment the flush actually executed); otherwise the
        single-device serving model against :attr:`device`.
        """
        if self.device is None and self.cluster is None:
            return 0.0
        with self._breakdown_lock:
            memo = self._device_breakdowns.get(pipeline.fingerprint)
            seconds = memo.get(batch_size) if memo is not None else None
            if seconds is not None:
                memo.move_to_end(batch_size)
        if seconds is None:
            suffix_config, branch_configs = pipeline.quantization_configs()
            if self.cluster is not None:
                breakdown = estimate_cluster_serving_latency(
                    pipeline.plan,
                    self._shard_assignment(pipeline),
                    self.cluster,
                    batch_size=batch_size,
                    config=suffix_config,
                    branch_configs=branch_configs,
                )
                seconds = breakdown.makespan_seconds
            else:
                breakdown = estimate_serving_latency(
                    pipeline.plan,
                    self.device,
                    batch_size=batch_size,
                    config=suffix_config,
                    branch_configs=branch_configs,
                )
                seconds = breakdown.total_seconds
            with self._breakdown_lock:
                memo = self._device_breakdowns.setdefault(pipeline.fingerprint, OrderedDict())
                memo[batch_size] = seconds
                memo.move_to_end(batch_size)
                while len(memo) > _MAX_BATCH_MEMO:
                    memo.popitem(last=False)
        return seconds / batch_size

    def _shard_assignment(self, pipeline: CompiledPipeline) -> list[list[int]]:
        """Branch ids per device (``[d] -> [branch, ...]``) of the attached
        cluster for ``pipeline``.

        Planned directly (and memoized by fingerprint) rather than read off
        the pipeline's cluster executor: the planner is deterministic, so
        the assignment is identical to the one a flush's executor uses, and
        no :class:`~repro.distributed.DistributedExecutor` (with its device
        worker pools) is constructed just to model latency.
        """
        with self._breakdown_lock:
            assignment = self._shard_assignments.get(pipeline.fingerprint)
        if assignment is None:
            assignment = (
                ShardPlanner(self.cluster).plan_shards(pipeline.plan).assignment()
            )
            with self._breakdown_lock:
                self._shard_assignments.setdefault(pipeline.fingerprint, assignment)
        return assignment

    def _drop_pipeline_breakdowns(self, key: Hashable, pipeline: object) -> None:
        """On cache eviction, drop the evicted pipeline's modelled latencies.

        A compile-race discard releases a *duplicate* whose fingerprint
        matches the still-resident winner; its memo entries are still valid
        (they are keyed by fingerprint, not object), so they are kept.
        """
        fingerprint = getattr(pipeline, "fingerprint", None)
        if fingerprint is not None:
            resident = self.cache.peek(key)
            if getattr(resident, "fingerprint", None) != fingerprint:
                with self._breakdown_lock:
                    self._device_breakdowns.pop(fingerprint, None)
                    self._shard_assignments.pop(fingerprint, None)


def _eviction_hook(engine_ref: "weakref.ref[InferenceEngine]", chained):
    """A cache ``on_evict`` callback that does not root its engine."""

    def hook(key: Hashable, pipeline: object) -> None:
        engine = engine_ref()
        if engine is not None:
            engine._drop_pipeline_breakdowns(key, pipeline)
        if chained is not None:
            chained(key, pipeline)

    return hook
