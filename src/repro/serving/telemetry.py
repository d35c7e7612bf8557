"""Serving telemetry: per-request latency, queue depth, batching and caching.

The engine records one :class:`RequestRecord` per completed request, a count
of the requests whose batch raised, the batch sizes it executed and samples of
the queue depth; :meth:`snapshot` aggregates them into the numbers the
throughput benchmark (and an operator) cares about — requests/sec, p50/p99
latency, failed requests, mean batch size, cache hit rate.

The recorder is thread-safe and append-only; ``snapshot()`` is cheap enough
to call while traffic is flowing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["RequestRecord", "TelemetrySnapshot", "TelemetryRecorder", "percentile"]


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100, linear interpolation), 0.0 if empty."""
    if not values:
        return 0.0
    return float(np.percentile(values, q))


@dataclass(frozen=True)
class RequestRecord:
    """Timing of one completed request (all durations in seconds)."""

    request_id: int
    queue_seconds: float
    service_seconds: float
    total_seconds: float
    batch_size: int
    #: Modelled on-device latency share of this request (0 when the engine
    #: has no target device attached).
    modelled_device_seconds: float = 0.0


@dataclass
class TelemetrySnapshot:
    """Aggregated view of the recorder at one point in time."""

    num_requests: int
    wall_seconds: float
    requests_per_second: float
    latency_p50_ms: float
    latency_p99_ms: float
    mean_queue_ms: float
    mean_service_ms: float
    mean_batch_size: float
    batch_size_histogram: dict[int, int]
    max_queue_depth: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    mean_modelled_device_ms: float = 0.0
    #: Streaming-session reuse counters (see :meth:`TelemetryRecorder.record_stream_frame`).
    stream_frames: int = 0
    stream_branches_executed: int = 0
    stream_branches_reused: int = 0
    #: Stale-halo drift counters (see :meth:`TelemetryRecorder.record_stream_drift`).
    stream_branches_stale: int = 0
    stream_drift_samples: int = 0
    stream_max_drift_abs: float = 0.0
    stream_max_drift_rms: float = 0.0
    #: Requests whose micro-batch raised (no :class:`RequestRecord` exists
    #: for them; ``num_requests`` counts completed requests only).
    requests_failed: int = 0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def stream_reuse_rate(self) -> float:
        """Fraction of stream patch branches served from cache instead of recomputed."""
        total = self.stream_branches_executed + self.stream_branches_reused
        return self.stream_branches_reused / total if total else 0.0


class TelemetryRecorder:
    """Collects serving metrics (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[RequestRecord] = []
        self._batch_histogram: dict[int, int] = {}
        self._queue_depths: list[int] = []
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        self._first_seconds: float | None = None
        self._last_seconds: float | None = None
        self._stream_frames = 0
        self._stream_executed = 0
        self._stream_reused = 0
        self._stream_stale = 0
        self._stream_drift_samples = 0
        self._stream_max_drift_abs = 0.0
        self._stream_max_drift_rms = 0.0
        self._requests_failed = 0

    # ------------------------------------------------------------- recording
    def record_request(self, record: RequestRecord, completed_at: float) -> None:
        """Add one completed request; ``completed_at`` is a perf-counter time."""
        with self._lock:
            self._records.append(record)
            started = completed_at - record.total_seconds
            if self._first_seconds is None or started < self._first_seconds:
                self._first_seconds = started
            if self._last_seconds is None or completed_at > self._last_seconds:
                self._last_seconds = completed_at

    def record_failed(self, count: int) -> None:
        """Count ``count`` requests that failed (their batch raised)."""
        with self._lock:
            self._requests_failed += count

    def record_batch(self, batch_size: int) -> None:
        """Count one executed micro-batch of ``batch_size`` requests."""
        with self._lock:
            self._batch_histogram[batch_size] = self._batch_histogram.get(batch_size, 0) + 1

    def record_queue_depth(self, depth: int) -> None:
        """Sample the request-queue depth (taken at enqueue time)."""
        with self._lock:
            self._queue_depths.append(depth)

    def record_cache(self, hits: int, misses: int, evictions: int) -> None:
        """Overwrite the cache counters (mirrored from :class:`PipelineCache`)."""
        with self._lock:
            self._cache_hits = hits
            self._cache_misses = misses
            self._cache_evictions = evictions

    def record_stream_frame(
        self, executed_branches: int, reused_branches: int, stale_branches: int = 0
    ) -> None:
        """Count one streaming frame: branches recomputed vs served from cache.

        ``stale_branches`` counts tiles served while lagging their halo (only
        nonzero for ``accuracy_mode="stale_halo"`` sessions).
        """
        with self._lock:
            self._stream_frames += 1
            self._stream_executed += executed_branches
            self._stream_reused += reused_branches
            self._stream_stale += stale_branches

    def record_stream_drift(self, max_abs: float, rms: float) -> None:
        """Record one stale-halo drift sample (deviation vs the exact path)."""
        with self._lock:
            self._stream_drift_samples += 1
            self._stream_max_drift_abs = max(self._stream_max_drift_abs, max_abs)
            self._stream_max_drift_rms = max(self._stream_max_drift_rms, rms)

    # ------------------------------------------------------------- reporting
    def records(self) -> list[RequestRecord]:
        with self._lock:
            return list(self._records)

    def snapshot(self) -> TelemetrySnapshot:
        """Aggregate everything recorded so far."""
        with self._lock:
            records = list(self._records)
            histogram = dict(self._batch_histogram)
            depths = list(self._queue_depths)
            hits, misses, evictions = self._cache_hits, self._cache_misses, self._cache_evictions
            first, last = self._first_seconds, self._last_seconds
            stream_frames = self._stream_frames
            stream_executed, stream_reused = self._stream_executed, self._stream_reused
            stream_stale = self._stream_stale
            drift_samples = self._stream_drift_samples
            drift_abs, drift_rms = self._stream_max_drift_abs, self._stream_max_drift_rms
            failed = self._requests_failed

        totals = [r.total_seconds for r in records]
        wall = (last - first) if (first is not None and last is not None) else 0.0
        batch_total = sum(size * count for size, count in histogram.items())
        batch_count = sum(histogram.values())
        return TelemetrySnapshot(
            num_requests=len(records),
            wall_seconds=wall,
            requests_per_second=len(records) / wall if wall > 0 else 0.0,
            latency_p50_ms=percentile(totals, 50.0) * 1e3,
            latency_p99_ms=percentile(totals, 99.0) * 1e3,
            mean_queue_ms=(
                sum(r.queue_seconds for r in records) / len(records) * 1e3 if records else 0.0
            ),
            mean_service_ms=(
                sum(r.service_seconds for r in records) / len(records) * 1e3 if records else 0.0
            ),
            mean_batch_size=batch_total / batch_count if batch_count else 0.0,
            batch_size_histogram=histogram,
            max_queue_depth=max(depths, default=0),
            cache_hits=hits,
            cache_misses=misses,
            cache_evictions=evictions,
            mean_modelled_device_ms=(
                sum(r.modelled_device_seconds for r in records) / len(records) * 1e3
                if records
                else 0.0
            ),
            stream_frames=stream_frames,
            stream_branches_executed=stream_executed,
            stream_branches_reused=stream_reused,
            stream_branches_stale=stream_stale,
            stream_drift_samples=drift_samples,
            stream_max_drift_abs=drift_abs,
            stream_max_drift_rms=drift_rms,
            requests_failed=failed,
        )
