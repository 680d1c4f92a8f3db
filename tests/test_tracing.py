"""Unit tests for the zero-dependency tracer (repro.serving.tracing).

Covers the pieces in isolation — traceparent parsing, the sampling
decision, span nesting and lifecycle, ring-buffer bounds, the Perfetto
export, the slow-query log, counters and resets —
plus the telemetry contract pins that ride along in this PR
(empty-histogram percentiles, stable ``LatencySnapshot.as_dict`` order).
The end-to-end serving-path integration lives in
``tests/test_tracing_serving.py``.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.serving.telemetry import LatencyHistogram, LatencySnapshot
from repro.serving.tracing import (
    Span,
    TraceContext,
    Tracer,
    format_traceparent,
    make_span_id,
    make_trace_id,
    monotonic_wall,
    parse_traceparent,
    validate_trace_events,
)


class TestTraceparent:
    def test_roundtrip(self):
        trace_id = make_trace_id()
        span_id = make_span_id()
        header = format_traceparent(trace_id, span_id, sampled=True)
        assert parse_traceparent(header) == (trace_id, span_id, True)

    def test_unsampled_flag(self):
        header = format_traceparent("ab" * 16, "cd" * 8, sampled=False)
        parsed = parse_traceparent(header)
        assert parsed == ("ab" * 16, "cd" * 8, False)

    def test_case_and_whitespace_tolerated(self):
        header = "  00-" + "AB" * 16 + "-" + "CD" * 8 + "-01  "
        parsed = parse_traceparent(header)
        assert parsed == ("ab" * 16, "cd" * 8, True)

    @pytest.mark.parametrize(
        "header",
        [
            "",
            "not-a-header",
            "00-" + "0" * 32 + "-" + "cd" * 8 + "-01",  # all-zero trace id
            "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # all-zero span id
            "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # forbidden version
            "00-" + "ab" * 15 + "-" + "cd" * 8 + "-01",  # short trace id
            "00-" + "ab" * 16 + "-" + "cd" * 8 + "-1",  # short flags
            "00-" + "xy" * 16 + "-" + "cd" * 8 + "-01",  # non-hex
            None,
            123,
        ],
    )
    def test_malformed_headers_return_none(self, header):
        assert parse_traceparent(header) is None

    def test_ids_have_spec_shape(self):
        assert len(make_trace_id()) == 32
        assert len(make_span_id()) == 16
        int(make_trace_id(), 16)  # hex
        int(make_span_id(), 16)


class TestSampling:
    def test_rate_zero_never_samples(self):
        tracer = Tracer(sample_rate=0.0)
        assert all(tracer.start_trace() is None for _ in range(50))
        stats = tracer.stats()
        assert stats.started == 50
        assert stats.sampled == 0

    def test_rate_one_always_samples(self):
        tracer = Tracer(sample_rate=1.0)
        contexts = [tracer.start_trace() for _ in range(10)]
        assert all(ctx is not None for ctx in contexts)
        assert tracer.stats().sampled == 10

    def test_fractional_rate_follows_the_rng(self):
        # A seeded rng makes the sequence deterministic: the decision is
        # rng.random() < rate, checked against the same stream.
        rng = random.Random(1234)
        expected = [rng.random() < 0.3 for _ in range(200)]
        tracer = Tracer(sample_rate=0.3, rng=random.Random(1234))
        got = [tracer.start_trace() is not None for _ in range(200)]
        assert got == expected

    def test_traceparent_sampled_flag_forces_tracing(self):
        tracer = Tracer(sample_rate=0.0)
        header = format_traceparent(make_trace_id(), make_span_id(), sampled=True)
        ctx = tracer.start_trace(traceparent=header)
        assert ctx is not None
        assert ctx.trace_id == header.split("-")[1]
        assert ctx.root.parent_id == header.split("-")[2]

    def test_traceparent_unsampled_flag_defers_to_local_rate(self):
        tracer = Tracer(sample_rate=0.0)
        header = format_traceparent(make_trace_id(), make_span_id(), sampled=False)
        assert tracer.start_trace(traceparent=header) is None

    def test_malformed_traceparent_falls_back_to_fresh_trace(self):
        tracer = Tracer(sample_rate=1.0)
        ctx = tracer.start_trace(traceparent="garbage")
        assert ctx is not None
        assert len(ctx.trace_id) == 32
        assert ctx.root.parent_id is None

    def test_set_sample_rate_validates_and_applies(self):
        tracer = Tracer(sample_rate=0.0)
        tracer.set_sample_rate(1.0)
        assert tracer.sample_rate == 1.0
        assert tracer.start_trace() is not None
        with pytest.raises(ValueError, match="sample_rate"):
            tracer.set_sample_rate(1.5)
        with pytest.raises(ValueError, match="sample_rate"):
            tracer.set_sample_rate(-0.1)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="sample_rate"):
            Tracer(sample_rate=2.0)
        with pytest.raises(ValueError, match="ring_size"):
            Tracer(ring_size=0)

    @pytest.mark.parametrize(
        "threshold", [-1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_slow_threshold_must_be_finite_and_non_negative(self, threshold):
        # A NaN threshold compares false against every duration, so no
        # trace would ever reach the slow log.
        with pytest.raises(ValueError, match="slow_threshold_ms"):
            Tracer(slow_threshold_ms=threshold)


class TestSpanLifecycle:
    def make_ctx(self):
        tracer = Tracer(sample_rate=1.0)
        ctx = tracer.start_trace("request", transport="test")
        assert ctx is not None
        return tracer, ctx

    def test_nested_scoped_spans_parent_correctly(self):
        _, ctx = self.make_ctx()
        with ctx.span("outer") as outer:
            with ctx.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert ctx.current_span_id() == outer.span_id
        assert outer.parent_id == ctx.root.span_id
        assert ctx.current_span_id() == ctx.root.span_id
        assert inner.end is not None and outer.end is not None
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_begin_without_push_keeps_siblings_flat(self):
        _, ctx = self.make_ctx()
        first = ctx.begin_span("a")
        second = ctx.begin_span("b")
        assert first.parent_id == ctx.root.span_id
        assert second.parent_id == ctx.root.span_id
        ctx.end_span(first, outcome="done")
        ctx.end_span(second)
        assert first.attributes["outcome"] == "done"

    def test_end_span_is_idempotent(self):
        _, ctx = self.make_ctx()
        span = ctx.begin_span("once")
        ctx.end_span(span)
        first_end = span.end
        ctx.end_span(span, ignored=True)
        assert span.end == first_end
        assert "ignored" not in span.attributes

    def test_exception_inside_scoped_span_marks_error(self):
        _, ctx = self.make_ctx()
        with pytest.raises(RuntimeError):
            with ctx.span("doomed"):
                raise RuntimeError("boom")
        doomed = next(s for s in ctx.spans if s.name == "doomed")
        assert doomed.end is not None
        assert doomed.attributes["status"] == "error"
        assert "boom" in doomed.attributes["error"]

    def test_finish_closes_open_spans_and_records(self):
        tracer, ctx = self.make_ctx()
        leaked = ctx.begin_span("leaked", push=True)
        ctx.finish(status="ok", latency_ms=1.25)
        assert leaked.end is not None
        assert leaked.attributes["auto_closed"] is True
        assert ctx.root.attributes["status"] == "ok"
        assert ctx.root.attributes["latency_ms"] == 1.25
        trees = tracer.traces()
        assert len(trees) == 1
        assert trees[0]["trace_id"] == ctx.trace_id
        assert trees[0]["status"] == "ok"

    def test_finish_is_idempotent(self):
        tracer, ctx = self.make_ctx()
        ctx.finish()
        ctx.finish()
        assert len(tracer.traces()) == 1
        assert tracer.stats().finished == 1

    def test_annotate_lands_on_the_root(self):
        _, ctx = self.make_ctx()
        ctx.annotate(seed=42)
        assert ctx.root.attributes["seed"] == 42

    def test_span_dict_shape(self):
        _, ctx = self.make_ctx()
        with ctx.span("op", k=5):
            pass
        ctx.finish()
        tree = ctx.as_dict()
        assert tree["root_span_id"] == ctx.root.span_id
        assert tree["duration_ms"] >= 0.0
        op = next(s for s in tree["spans"] if s["name"] == "op")
        assert op["attributes"] == {"k": 5}
        assert op["parent_id"] == tree["root_span_id"]
        assert {"span_id", "parent_id", "name", "start", "end",
                "duration_ms", "pid", "tid", "attributes"} <= set(op)

    def test_monotonic_wall_is_monotonic(self):
        readings = [monotonic_wall() for _ in range(100)]
        assert readings == sorted(readings)


class TestRingAndExport:
    def finished_trace(self, tracer, name="request"):
        ctx = tracer.start_trace(name)
        with ctx.span("op"):
            pass
        ctx.finish()
        return ctx

    def test_ring_bounds_and_dropped_counter(self):
        tracer = Tracer(sample_rate=1.0, ring_size=3)
        for _ in range(5):
            self.finished_trace(tracer)
        assert len(tracer.traces()) == 3
        stats = tracer.stats()
        assert stats.finished == 5
        assert stats.dropped == 2

    def test_a_snapshot_stays_put_while_the_ring_turns_over(self):
        tracer = Tracer(sample_rate=1.0, ring_size=1)
        self.finished_trace(tracer)
        first = tracer.stats()
        self.finished_trace(tracer)
        self.finished_trace(tracer)
        assert first.started == first.sampled == first.finished == 1
        assert first.dropped == 0
        later = tracer.stats()
        assert later.finished == 3
        assert later.dropped == 2
        assert len(tracer.traces()) == 1

    def test_a_sample_rate_change_reaches_the_next_snapshot_only(self):
        tracer = Tracer(sample_rate=1.0)
        self.finished_trace(tracer)
        before = tracer.stats()
        tracer.set_sample_rate(0.25)
        assert before.sample_rate == 1.0
        after = tracer.stats()
        assert after.sample_rate == 0.25
        # The rate is configuration, not a counter: the totals carry over.
        assert after.finished == before.finished == 1
        assert len(tracer.traces()) == 1

    def test_perfetto_export_validates_and_rebases(self):
        tracer = Tracer(sample_rate=1.0)
        self.finished_trace(tracer)
        self.finished_trace(tracer)
        doc = tracer.perfetto()
        count = validate_trace_events(doc)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert count == len(complete) + len(meta)
        assert len(complete) == 4  # 2 traces x (request + op)
        assert min(e["ts"] for e in complete) == 0.0  # rebased
        assert meta and meta[0]["args"]["name"] == "serving"
        # Round-trips through JSON (the HTTP handler serialises it).
        assert validate_trace_events(json.loads(json.dumps(doc))) == count

    def test_perfetto_of_empty_ring_is_valid(self):
        tracer = Tracer(sample_rate=1.0)
        assert validate_trace_events(tracer.perfetto()) == 0

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ([], "JSON object"),
            ({}, "traceEvents"),
            ({"traceEvents": [{"ph": "X", "pid": 1, "tid": 1}]}, "name"),
            (
                {"traceEvents": [
                    {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": -1, "dur": 0}
                ]},
                ">= 0",
            ),
            (
                {"traceEvents": [
                    {"name": "x", "ph": "X", "pid": 1, "tid": 1,
                     "ts": 0, "dur": 0, "args": 3}
                ]},
                "args",
            ),
        ],
    )
    def test_validate_trace_events_rejects_malformed(self, doc, fragment):
        with pytest.raises(ValueError, match=fragment):
            validate_trace_events(doc)


class TestSlowQueryLog:
    def test_over_threshold_traces_append_jsonl(self, tmp_path):
        log = tmp_path / "slow.jsonl"
        tracer = Tracer(
            sample_rate=1.0, slow_threshold_ms=0.0, slow_log_path=str(log)
        )
        for _ in range(2):
            ctx = tracer.start_trace()
            with ctx.span("op"):
                pass
            ctx.finish()
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 2
        tree = json.loads(lines[0])
        assert set(tree) == {
            "trace_id", "root_span_id", "name", "status", "start",
            "duration_ms", "spans",
        }
        assert tracer.stats().slow_traces == 2

    def test_fast_traces_stay_out_of_the_log(self, tmp_path):
        log = tmp_path / "slow.jsonl"
        tracer = Tracer(
            sample_rate=1.0, slow_threshold_ms=60_000.0, slow_log_path=str(log)
        )
        ctx = tracer.start_trace()
        ctx.finish()
        assert not log.exists()
        assert tracer.stats().slow_traces == 0


class TestTelemetryContractPins:
    """Satellite regression pins: documented telemetry edge-case behavior."""

    def test_empty_histogram_percentile_is_exactly_zero(self):
        histogram = LatencyHistogram()
        for quantile in (0.0, 0.5, 0.95, 0.99, 1.0):
            value = histogram.percentile(quantile)
            assert value == 0.0
            assert isinstance(value, float)

    def test_histogram_snapshot_is_not_moved_by_later_samples(self):
        histogram = LatencyHistogram()
        histogram.record(0.25)
        snap = histogram.snapshot()
        histogram.record(2.0)
        assert snap.count == 1
        assert snap.max_seconds == snap.p99_seconds == 0.25
        assert histogram.snapshot().count == 2
        assert histogram.percentile(0.99) == 2.0

    def test_empty_histogram_out_of_range_quantile_still_raises(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError, match="quantile"):
            histogram.percentile(1.5)

    def test_empty_snapshot_is_all_zeros(self):
        snap = LatencyHistogram().snapshot()
        assert snap == LatencySnapshot(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_snapshot_as_dict_key_order_is_stable(self):
        expected = [
            "count", "mean_seconds", "min_seconds", "max_seconds",
            "p50_seconds", "p95_seconds", "p99_seconds",
        ]
        assert list(LatencyHistogram().snapshot().as_dict()) == expected
        populated = LatencyHistogram()
        for value in (0.001, 0.5, 0.02):
            populated.record(value)
        assert list(populated.snapshot().as_dict()) == expected
