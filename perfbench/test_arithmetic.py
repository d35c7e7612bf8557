"""Tests for the benchmark's own arithmetic and its agreement with BENCHMARK.json."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from perfbench import spec
from perfbench.stats import (
    MIN_TAIL_SAMPLES,
    Span,
    check_span_tree,
    covered_length,
    due_time_latencies,
    generator_lags,
    min_samples_for,
    percentile,
    self_times,
    slo_met_frac,
    tail_count,
    tail_percentile,
)
from perfbench.trace import Tracer

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# ---------------------------------------------------------------- percentiles
@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
@pytest.mark.parametrize("q", [0.0, 50.0, 90.0, 99.0, 100.0])
def test_percentile_matches_numpy_linear(n, q):
    values = np.random.default_rng(n).exponential(size=n).tolist()
    assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)), rel=1e-12)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_tail_count_counts_samples_strictly_beyond_the_rank():
    # p99 of 1000 samples interpolates between ranks 989 and 990: ranks
    # 990..999 lie beyond it.
    assert tail_count(1000, 99.0) == 10
    assert tail_count(100, 99.0) == 1
    assert tail_count(100, 50.0) == 50
    assert tail_count(0, 99.0) == 0


def test_sample_count_rule_for_p99():
    n = min_samples_for(99.0)
    assert tail_count(n, 99.0) >= MIN_TAIL_SAMPLES
    assert tail_count(n - 1, 99.0) < MIN_TAIL_SAMPLES
    values = list(range(n))
    assert tail_percentile(values, 99.0) == percentile(values, 99.0)
    with pytest.raises(ValueError, match="at least 10"):
        tail_percentile(values[:-1], 99.0)


# ------------------------------------------------------------------ open loop
def test_due_time_latency_charges_generator_stalls():
    due = [0.0, 1.0, 2.0, 3.0]
    # The generator stalled: request 1 went out 0.5 s late and request 2
    # was held back until 2.4 s.  Request 3 never completed.
    sent = [0.0, 1.5, 2.4, 3.0]
    completed = [0.2, 1.7, 2.6, None]
    assert due_time_latencies(due, completed) == pytest.approx([0.2, 0.7, 0.6, None])
    assert generator_lags(due, sent) == pytest.approx([0.0, 0.5, 0.4, 0.0])


def test_generator_lag_is_never_negative():
    assert generator_lags([1.0], [0.999]) == [0.0]


def test_open_loop_helpers_reject_mismatched_lengths():
    with pytest.raises(ValueError):
        due_time_latencies([0.0, 1.0], [0.5])
    with pytest.raises(ValueError):
        generator_lags([0.0], [0.0, 1.0])


# ------------------------------------------------------------------------ SLO
def test_failures_count_as_slo_misses():
    latencies = [0.010, None, 0.050, 0.020, None]
    assert slo_met_frac(latencies, 0.030) == pytest.approx(2 / 5)
    assert slo_met_frac([None, None], 1.0) == 0.0
    # The limit itself is met.
    assert slo_met_frac([0.030], 0.030) == 1.0
    with pytest.raises(ValueError):
        slo_met_frac([], 1.0)


# ------------------------------------------------------------------ self time
def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "parent", 0.0, 10.0),
        Span(1, "a", 1.0, 4.0, parent=0),
        Span(2, "b", 3.0, 6.0, parent=0),  # overlaps a on [3, 4]
        Span(3, "c", 8.0, 12.0, parent=0),  # sticks out past the parent
    ]
    own = self_times(spans)
    # Children cover [1, 6] and [8, 10]: 7 of the parent's 10 seconds.
    assert own[0] == pytest.approx(3.0)
    assert own[1] == pytest.approx(3.0)
    assert covered_length([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(7.0)


def test_self_time_of_nested_spans():
    spans = [
        Span(0, "infer", 0.0, 10.0),
        Span(1, "run_suffix", 6.0, 9.0, parent=0),
        Span(2, "inner", 7.0, 8.0, parent=1),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 7.0, 1: 2.0, 2: 1.0})
    check_span_tree(spans, tolerance=1e-9)


def test_span_tree_check_rejects_overlap_and_orphans():
    overlapping = [
        Span(0, "parent", 0.0, 10.0),
        Span(1, "a", 1.0, 4.0, parent=0),
        Span(2, "b", 3.0, 6.0, parent=0),
    ]
    with pytest.raises(ValueError, match="self"):
        check_span_tree(overlapping, tolerance=1e-9)
    with pytest.raises(ValueError, match="missing parent"):
        check_span_tree([Span(1, "a", 0.0, 1.0, parent=7)], tolerance=1e-9)


# --------------------------------------------------------------------- tracer
class _Layer:
    def __init__(self, inner=None):
        self.inner = inner

    def call(self, x):
        return self.inner.call(x) + 1 if self.inner is not None else x


def test_tracer_nests_spans_per_thread_and_unwraps():
    inner = _Layer()
    outer = _Layer(inner)
    tracer = Tracer()
    tracer.wrap(outer, "call", "outer")
    tracer.wrap(inner, "call", "inner")
    assert outer.call(1) == 2
    worker = threading.Thread(target=inner.call, args=(5,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.unwrap_all()
    assert "call" not in vars(outer) and "call" not in vars(inner)
    assert outer.call(1) == 2  # untraced again

    spans = tracer.snapshot()
    assert len(spans) == 3
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    (outer_span,) = by_name["outer"]
    nested, alone = sorted(by_name["inner"], key=lambda s: s.parent is None)
    assert outer_span.parent is None
    assert nested.parent == outer_span.span_id
    assert alone.parent is None  # other thread: no enclosing span
    check_span_tree(spans, tolerance=1e-9)


def test_tracer_every_second_root_call_with_its_children():
    inner = _Layer()
    outer = _Layer(inner)
    tracer = Tracer(every=2)
    tracer.wrap(outer, "call", "outer")
    tracer.wrap(inner, "call", "inner")
    for x in range(4):
        assert outer.call(x) == x + 1
    tracer.unwrap_all()

    spans = tracer.snapshot()
    # Root calls 1 and 3 are recorded, each with its nested call; roots 0
    # and 2 pass through, children included.
    assert tracer.root_calls == 4
    assert sorted(span.name for span in spans) == ["inner", "inner", "outer", "outer"]
    outers = {span.span_id for span in spans if span.name == "outer"}
    assert {span.parent for span in spans if span.name == "inner"} == outers
    check_span_tree(spans, tolerance=1e-9)
    with pytest.raises(ValueError):
        Tracer(every=0)


def test_tracer_records_a_span_when_the_call_raises():
    class Broken:
        def call(self):
            raise RuntimeError("boom")

    broken = Broken()
    tracer = Tracer()
    tracer.wrap(broken, "call", "broken")
    with pytest.raises(RuntimeError):
        broken.call()
    assert [span.name for span in tracer.snapshot()] == ["broken"]


# ------------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_matches_the_spec():
    config = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in config["workloads"]] == list(spec.GATED)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == spec.PER_LAYER
    for entry in config["workloads"]:
        limit = spec.WORKLOADS[entry["name"]].slo_ms
        assert f"SLO {limit:g} ms" in entry["why"], entry
