"""Unit tests for the Prometheus exposition renderer and its parser.

The renderer is proven against the parser (round-trip on real stats
snapshots, including cache tiers and tracing counters), the value/label
formatting helpers are pinned directly, and the parser's rejection paths —
the failure modes a real scraper would reject — are exercised one by one.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import fields

import pytest

from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import QueryEngine, SubgraphCache
from repro.serving.cache import CacheStats
from repro.serving.frontend import (
    MicroBatcher,
    parse_prometheus_text,
    render_prometheus,
)
from repro.serving.frontend.metrics import (
    _escape_label_value,
    _exported,
    _format_value,
)
from repro.serving.result_cache import ScoreTableCache
from repro.serving.telemetry import derived


@pytest.fixture()
def config():
    return MeLoPPRConfig(stage_lengths=(3, 3), track_memory=False)


def batcher_stats(engine, seeds=(3, 3, 7)):
    """Run a few queries through a batcher and return its stats snapshot."""

    async def run():
        async with MicroBatcher(engine) as batcher:
            for seed in seeds:
                await batcher.submit(PPRQuery(seed=seed, k=10))
            return batcher.stats()

    return asyncio.run(run())


class TestFormattingHelpers:
    def test_format_value_integers_have_no_decimal_point(self):
        assert _format_value(0) == "0"
        assert _format_value(42) == "42"
        assert _format_value(42.0) == "42"
        assert _format_value(-3.0) == "-3"

    def test_format_value_floats_round_trip(self):
        assert float(_format_value(0.1)) == 0.1
        assert float(_format_value(1.0 / 3.0)) == 1.0 / 3.0

    def test_format_value_special_cases(self):
        assert _format_value(True) == "1"
        assert _format_value(False) == "0"
        assert _format_value(math.inf) == "+Inf"
        assert _format_value(-math.inf) == "-Inf"
        # Very large integral floats keep their float rendering (precision
        # is gone anyway; don't pretend it is an exact integer).
        assert "e" in _format_value(1e21).lower()

    def test_escape_label_value(self):
        assert _escape_label_value('a"b') == 'a\\"b'
        assert _escape_label_value("a\\b") == "a\\\\b"
        assert _escape_label_value("a\nb") == "a\\nb"
        assert _escape_label_value("plain") == "plain"


class TestCacheDifference:
    """``combined - result``: the subgraph tier the exposition labels."""

    def test_counterwise_subtraction(self):
        combined = CacheStats(
            hits=10, misses=5, evictions=3, rejected=2, expired=1,
            current_bytes=1000, num_entries=8,
        )
        result = CacheStats(
            hits=4, misses=2, evictions=1, rejected=0, expired=1,
            current_bytes=300, num_entries=3,
        )
        diff = combined - result
        assert diff.hits == 6
        assert diff.misses == 3
        assert diff.evictions == 2
        assert diff.rejected == 2
        assert diff.expired == 0
        assert diff.current_bytes == 700
        assert diff.num_entries == 5

    def test_clamps_at_zero(self):
        combined = CacheStats(
            hits=1, misses=0, evictions=0, rejected=0, expired=0,
            current_bytes=0, num_entries=0,
        )
        result = CacheStats(
            hits=5, misses=2, evictions=1, rejected=1, expired=1,
            current_bytes=100, num_entries=4,
        )
        diff = combined - result
        assert diff.hits == 0
        assert diff.misses == 0
        assert diff.current_bytes == 0
        assert diff.num_entries == 0


class TestRenderer:
    def test_round_trip_on_real_stats(self, small_ba_graph, config):
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config),
            cache=SubgraphCache(),
            result_cache=ScoreTableCache(),
        )
        with engine:
            stats = batcher_stats(engine)
        scrape = parse_prometheus_text(render_prometheus(stats))

        assert scrape.value("repro_queries_completed_total") == 3
        assert scrape.value("repro_engine_queries_served_total") <= 3  # dedup
        assert scrape.types["repro_queries_completed_total"] == "counter"
        assert scrape.types["repro_inflight_queries"] == "gauge"
        assert scrape.types["repro_request_latency_seconds"] == "summary"
        # Every tier present, combined = subgraph + result counter-wise.
        for family in ("repro_cache_hits_total", "repro_cache_misses_total"):
            assert scrape.value(family, cache="combined") == (
                scrape.value(family, cache="subgraph")
                + scrape.value(family, cache="result")
            )
        # The summary carries its quantiles, sum and count.
        latency = scrape.family_samples("repro_request_latency_seconds")
        quantiles = {
            dict(key[1]).get("quantile")
            for key in latency
            if key[0] == "repro_request_latency_seconds"
        }
        assert quantiles == {"0.5", "0.95", "0.99"}
        assert scrape.value("repro_request_latency_seconds_count") == 3
        assert "repro_request_latency_seconds_sum" in scrape

    def test_draining_flag_and_info_labels(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        with engine:
            stats = batcher_stats(engine)
        exposition = render_prometheus(
            stats, draining=True, info={"backend": "serial", "kernel": "csr"}
        )
        scrape = parse_prometheus_text(exposition)
        assert scrape.value("repro_server_draining") == 1
        assert scrape.value(
            "repro_server_info", backend="serial", kernel="csr"
        ) == 1

    def test_info_labels_escape_and_round_trip(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        with engine:
            stats = batcher_stats(engine)
        nasty = 'quo"te back\\slash new\nline'
        scrape = parse_prometheus_text(
            render_prometheus(stats, info={"version": nasty})
        )
        assert scrape.value("repro_server_info", version=nasty) == 1

    def test_no_cache_no_cache_families(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        with engine:
            stats = batcher_stats(engine)
        scrape = parse_prometheus_text(render_prometheus(stats))
        assert "repro_cache_hits_total" not in scrape

    def test_result_cache_only_is_both_combined_and_result(
        self, small_ba_graph, config
    ):
        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config),
            result_cache=ScoreTableCache(),
        )
        with engine:
            stats = batcher_stats(engine, seeds=(3, 3, 3))
        scrape = parse_prometheus_text(render_prometheus(stats))
        assert scrape.value(
            "repro_cache_hits_total", cache="combined"
        ) == scrape.value("repro_cache_hits_total", cache="result")
        # There is no extraction cache, so the subgraph tier is all zero
        # (combined minus result leaves nothing).
        assert scrape.value("repro_cache_hits_total", cache="subgraph") == 0
        assert scrape.value("repro_cache_misses_total", cache="subgraph") == 0
        assert scrape.value("repro_cache_hits_total", cache="result") >= 2

    def test_tracing_families(self, small_ba_graph, config):
        from repro.serving import Tracer

        tracer = Tracer(sample_rate=1.0)
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config), tracer=tracer)
        with engine:
            for _ in range(2):
                ctx = tracer.start_trace("request")
                engine.solve_batch([PPRQuery(seed=3, k=10)], [ctx])
                ctx.finish()
            stats = batcher_stats(engine, seeds=(3,))
        scrape = parse_prometheus_text(render_prometheus(stats))
        assert scrape.value("repro_traces_started_total") >= 2
        assert scrape.value("repro_traces_finished_total") >= 2
        assert scrape.value("repro_trace_spans_total") > 0
        assert scrape.value("repro_traces_dropped_total") == 0
        assert scrape.value("repro_slow_traces_total") == 0
        assert scrape.value("repro_trace_sample_rate") == 1.0
        assert scrape.types["repro_trace_sample_rate"] == "gauge"
        assert scrape.types["repro_traces_sampled_total"] == "counter"

    def test_no_tracer_no_tracing_families(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        with engine:
            stats = batcher_stats(engine)
        scrape = parse_prometheus_text(render_prometheus(stats))
        assert "repro_traces_started_total" not in scrape
        assert "repro_trace_sample_rate" not in scrape


class TestParserAcceptance:
    def test_minimal_exposition(self):
        scrape = parse_prometheus_text(
            "# HELP x_total about x\n# TYPE x_total counter\nx_total 3\n"
        )
        assert scrape.value("x_total") == 3
        assert scrape.types["x_total"] == "counter"

    def test_labels_and_escapes(self):
        scrape = parse_prometheus_text(
            '# TYPE x gauge\nx{a="1",b="two words",c="q\\"esc\\\\n"} 2.5\n'
        )
        assert scrape.value("x", a="1", b="two words", c='q"esc\\n') == 2.5

    def test_summary_children_ride_on_family_type(self):
        text = (
            "# TYPE lat summary\n"
            'lat{quantile="0.5"} 0.1\n'
            "lat_sum 1.5\n"
            "lat_count 10\n"
        )
        scrape = parse_prometheus_text(text)
        assert scrape.value("lat_sum") == 1.5
        assert scrape.value("lat_count") == 10
        assert len(scrape.family_samples("lat")) == 3

    def test_special_values(self):
        text = (
            "# TYPE x gauge\n"
            'x{k="inf"} +Inf\n'
            'x{k="ninf"} -Inf\n'
            'x{k="nan"} NaN\n'
        )
        scrape = parse_prometheus_text(text)
        assert scrape.value("x", k="inf") == math.inf
        assert scrape.value("x", k="ninf") == -math.inf
        assert math.isnan(scrape.value("x", k="nan"))

    def test_blank_lines_and_comments_ignored(self):
        scrape = parse_prometheus_text(
            "\n# a comment\n# TYPE x gauge\n\nx 1\n# trailing\n"
        )
        assert scrape.value("x") == 1

    def test_contains(self):
        scrape = parse_prometheus_text("# TYPE x gauge\nx 1\n")
        assert "x" in scrape
        assert "y" not in scrape


class TestParserRejections:
    def test_sample_without_type_header(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            parse_prometheus_text("orphan_metric 1\n")

    def test_malformed_type_line(self):
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus_text("# TYPE x flavour\nx 1\n")
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus_text("# TYPE x\nx 1\n")

    def test_duplicate_type(self):
        with pytest.raises(ValueError, match="duplicate TYPE"):
            parse_prometheus_text(
                "# TYPE x gauge\n# TYPE x counter\nx 1\n"
            )

    def test_duplicate_sample(self):
        with pytest.raises(ValueError, match="duplicate sample"):
            parse_prometheus_text("# TYPE x gauge\nx 1\nx 2\n")

    def test_same_name_different_labels_is_fine(self):
        scrape = parse_prometheus_text(
            '# TYPE x gauge\nx{a="1"} 1\nx{a="2"} 2\n'
        )
        assert scrape.value("x", a="1") == 1
        assert scrape.value("x", a="2") == 2

    def test_malformed_sample_line(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus_text("# TYPE x gauge\n!!nonsense!!\n")

    def test_malformed_labels(self):
        with pytest.raises(ValueError, match="malformed labels"):
            parse_prometheus_text("# TYPE x gauge\nx{a=unquoted} 1\n")
        with pytest.raises(ValueError, match="malformed labels"):
            parse_prometheus_text('# TYPE x gauge\nx{a="1" b="2"!} 1\n')

    def test_non_numeric_value(self):
        with pytest.raises(ValueError, match="non-numeric|malformed"):
            parse_prometheus_text("# TYPE x gauge\nx banana\n")

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_prometheus_text("# TYPE x gauge\nx 1\n!!bad!!\n")


def traced_tree(small_ba_graph, config):
    """A stats tree with every record present: both cache tiers, a tracer."""
    from repro.serving import Tracer

    tracer = Tracer(sample_rate=1.0)
    engine = QueryEngine(
        MeLoPPRSolver(small_ba_graph, config),
        cache=SubgraphCache(),
        result_cache=ScoreTableCache(),
        tracer=tracer,
    )
    with engine:
        ctx = tracer.start_trace("request")
        engine.solve_batch([PPRQuery(seed=3, k=10)], [ctx])
        ctx.finish()
        return batcher_stats(engine)


#: Where each stats record sits in a batcher's stats tree.
RECORD_PATHS = ("batcher", "admission", "engine", "engine.cache", "engine.tracing")


def records(stats):
    """``path -> record`` of every stats record in a batcher's tree."""
    engine = stats.engine
    return dict(
        zip(
            RECORD_PATHS,
            (stats, stats.admission, engine, engine.cache, engine.tracing),
        )
    )


class TestDeclaredOnce:
    """Each counter is declared once, on its stats field, and ``/stats`` and
    ``/metrics`` are walks of those declarations."""

    def test_every_family_name_is_declared_once(self, small_ba_graph, config):
        stats = traced_tree(small_ba_graph, config)
        declared = [
            metric.family
            for record in records(stats).values()
            for _, metric in _exported(type(record))
        ]
        assert declared
        assert len(declared) == len(set(declared))

    def test_every_declared_family_reaches_metrics(self, small_ba_graph, config):
        stats = traced_tree(small_ba_graph, config)
        scrape = parse_prometheus_text(render_prometheus(stats))
        for record in records(stats).values():
            for _, metric in _exported(type(record)):
                assert scrape.types[metric.family] == metric.kind
                assert scrape.family_samples(metric.family)

    @pytest.mark.parametrize("path", RECORD_PATHS)
    def test_as_dict_is_the_fields_then_the_derived_properties(
        self, small_ba_graph, config, path
    ):
        record = records(traced_tree(small_ba_graph, config))[path]
        names = [item.name for item in fields(record)]
        derived_names = [
            name for name, value in vars(type(record)).items()
            if isinstance(value, derived)
        ]
        report = record.as_dict()
        assert list(report) == names + derived_names
        for name in derived_names:
            assert report[name] == getattr(record, name)

    def test_a_fresh_engine_reports_only_finite_values(self, small_ba_graph, config):
        with QueryEngine(
            MeLoPPRSolver(small_ba_graph, config), cache=SubgraphCache()
        ) as engine:
            report = engine.stats().as_dict()
        assert report["min_latency_seconds"] == 0.0
        assert report["max_latency_seconds"] == 0.0

        def leaves(value):
            if isinstance(value, dict):
                for child in value.values():
                    yield from leaves(child)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                yield value

        assert all(math.isfinite(value) for value in leaves(report))
