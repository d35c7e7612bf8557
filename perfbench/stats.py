"""The benchmark's own arithmetic: percentiles, open-loop timing, SLOs, self time.

Pure Python on plain lists so that every rule the benchmark reports by can be
unit-tested without building a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

#: A reported percentile needs at least this many samples strictly beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between ranks.

    Matches ``numpy.percentile``'s default method, so the benchmark's numbers
    agree with the engine's own telemetry.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_count(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie at ranks strictly above the
    ``q``-th percentile's interpolation rank."""
    if n < 1:
        return 0
    return (n - 1) - math.floor(q / 100.0 * (n - 1))


def tail_percentile(values: Sequence[float], q: float) -> float:
    """:func:`percentile`, refusing a tail the sample cannot support.

    Raises ``ValueError`` unless at least :data:`MIN_TAIL_SAMPLES` samples lie
    beyond the percentile, so a p99 is never read off a handful of requests.
    """
    beyond = tail_count(len(values), q)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond} samples beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are required"
        )
    return percentile(values, q)


def min_samples_for(q: float) -> int:
    """The smallest sample size whose ``q``-th percentile has enough tail."""
    n = 1
    while tail_count(n, q) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def due_time_latencies(
    due: Sequence[float], completed: Sequence[float | None]
) -> list[float | None]:
    """Open-loop latency of each request, measured from when it was *due*.

    Timing from the scheduled send time rather than the actual one charges a
    stalled generator's delay to the requests it held back.  A request that
    never completed (``None``) has no latency.
    """
    if len(due) != len(completed):
        raise ValueError("due and completed must have one entry per request")
    return [None if done is None else done - when for when, done in zip(due, completed)]


def generator_lags(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late the load generator sent each request (never negative)."""
    if len(due) != len(sent):
        raise ValueError("due and sent must have one entry per request")
    return [max(0.0, actual - when) for when, actual in zip(due, sent)]


def slo_met_frac(latencies: Sequence[float | None], limit: float) -> float:
    """Share of attempted operations that finished correctly within ``limit``.

    ``None`` marks an operation that raised or returned a wrong output; it
    counts as a miss, as does any latency over the limit.
    """
    if not latencies:
        raise ValueError("no operations attempted")
    met = sum(1 for value in latencies if value is not None and value <= limit)
    return met / len(latencies)


@dataclass(frozen=True)
class Span:
    """One timed call into a layer: ``parent`` is the enclosing span's id."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping intervals are counted once, so children that ran concurrently
    never push a parent's self time below zero.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    run_start: float | None = None
    run_end = lo
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def check_span_tree(spans: Sequence[Span], tolerance: float) -> None:
    """Raise ``ValueError`` unless the spans form a consistent call tree.

    Every parent must exist, and each span's self time plus the summed
    durations of its children must equal its duration within ``tolerance``
    seconds.  That fails when a child sticks out of its parent or when two
    children overlap, which a sequential call stack never produces.
    """
    by_id = {span.span_id: span for span in spans}
    child_sum: dict[int, float] = {}
    for span in spans:
        if span.end < span.start:
            raise ValueError(f"span {span.name}#{span.span_id} ends before it starts")
        if span.parent is not None:
            if span.parent not in by_id:
                raise ValueError(f"span {span.name}#{span.span_id} has a missing parent")
            child_sum[span.parent] = child_sum.get(span.parent, 0.0) + span.duration
    for span_id, own in self_times(spans).items():
        span = by_id[span_id]
        children = child_sum.get(span_id, 0.0)
        if abs(own + children - span.duration) > tolerance:
            raise ValueError(
                f"span {span.name}#{span_id}: self {own:.9f} s + children "
                f"{children:.9f} s != duration {span.duration:.9f} s"
            )
