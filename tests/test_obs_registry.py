"""Tests for the unified metrics registry (counters, gauges, histograms)."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    unescape_label_value,
)
from repro.sim.metrics import percentile as brute_force_percentile
from repro.tools.dashboard import parse_exposition


class TestCounter:
    def test_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7.0


class TestHistogram:
    def test_quantile_accuracy_vs_brute_force_oracle(self):
        """Histogram quantiles must land within one growth factor of the
        exact value computed from the raw samples."""
        rng = random.Random(5)
        growth = 1.05
        hist = Histogram(min_ms=0.01, max_ms=60_000.0, growth=growth)
        samples = [rng.lognormvariate(2.0, 1.2) for _ in range(20_000)]
        hist.record_many(samples)
        for q in (10, 25, 50, 75, 90, 95, 99, 99.9):
            exact = brute_force_percentile(samples, q)
            approx = hist.percentile(q)
            # Upper-edge estimate: at most one growth step above the exact
            # value, never more than one step below.
            assert approx <= exact * growth * growth
            assert approx >= exact / growth

    def test_power_of_two_buckets_are_exact_for_counts(self):
        hist = Histogram(min_ms=1.0, max_ms=1024.0, growth=2.0)
        for value in (1, 2, 3, 8, 100, 1024):
            hist.record(value)
        assert hist.count == 6
        # count_le has one-bucket resolution; probe between bucket edges.
        assert hist.count_le(0.5) == 0
        assert hist.count_le(5) == 3  # 1, 2, 3
        assert hist.count_le(2048) == 6
        assert hist.max == 1024

    def test_summary_and_properties(self):
        hist = Histogram()
        hist.record_many([1.0, 2.0, 3.0, 4.0])
        assert hist.count == 4
        assert hist.sum == pytest.approx(10.0)
        assert hist.mean == pytest.approx(2.5)
        summary = hist.summary()
        assert summary["count"] == 4.0
        assert {"p50", "p95", "p99", "max", "mean"} <= set(summary)

    def test_empty_histogram(self):
        hist = Histogram()
        with pytest.raises(ValueError):
            hist.quantile(0.5)
        assert hist.summary() == {"count": 0.0, "sum": 0.0}

    def test_merge(self):
        a = Histogram()
        b = Histogram()
        a.record_many([1.0, 2.0])
        b.record_many([3.0, 400.0])
        a.merge(b)
        assert a.count == 4
        assert a.max == 400.0

    def test_merge_incompatible_layouts(self):
        with pytest.raises(ValueError):
            Histogram().merge(Histogram(min_ms=1.0, max_ms=10.0, growth=2.0))

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            Histogram(min_ms=0.0)
        with pytest.raises(ValueError):
            Histogram(min_ms=10, max_ms=5)
        with pytest.raises(ValueError):
            Histogram(growth=1.0)

    def test_rejects_negative_sample(self):
        with pytest.raises(ValueError):
            Histogram().record(-1.0)

    def test_out_of_range_values_clamp_to_edges(self):
        histogram = Histogram(min_ms=1.0, max_ms=100.0)
        histogram.record(0.0001)
        histogram.record(1e9)
        assert histogram.count == 2
        assert histogram.quantile(0.0) <= 1.0

    def test_quantile_never_exceeds_max_seen(self):
        histogram = Histogram()
        histogram.record_many([1.0, 1.0, 1.0])
        assert histogram.p99 <= 1.0

    @given(st.lists(st.floats(min_value=0.001, max_value=1e4), min_size=1, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_quantile_monotone_in_q(self, samples):
        histogram = Histogram()
        histogram.record_many(samples)
        quantiles = [histogram.quantile(q / 10) for q in range(11)]
        assert all(a <= b for a, b in zip(quantiles, quantiles[1:]))


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("reqs", region="eu")
        second = registry.counter("reqs", region="eu")
        assert first is second
        other = registry.counter("reqs", region="us")
        assert other is not first

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_get_without_create(self):
        registry = MetricsRegistry()
        assert registry.get("nope") is None
        registry.gauge("mem", node="n0").set(5)
        assert registry.get("mem", node="n0").value == 5.0
        assert registry.get("mem", node="n1") is None

    def test_families_listing(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.histogram("a")
        assert registry.families() == [("a", "histogram"), ("b", "counter")]

    def test_text_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", region="eu").inc(3)
        hist = registry.histogram("read_ms", caller="app")
        hist.record_many([0.2, 1.5, 7.0, 80.0])
        text = registry.render_text()
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{region="eu"} 3' in text
        assert "# TYPE read_ms histogram" in text
        assert 'read_ms_bucket{caller="app",le="+Inf"} 4' in text
        assert 'read_ms_count{caller="app"} 4' in text
        assert 'read_ms{caller="app",quantile="0.5"}' in text
        # Cumulative bucket counts never decrease along the edges.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("read_ms_bucket")
        ]
        assert counts == sorted(counts)

    def test_json_export(self):
        registry = MetricsRegistry()
        registry.gauge("mem").set(0.5)
        registry.histogram("lat").record(2.0)
        data = json.loads(registry.to_json())
        assert data["mem"]["type"] == "gauge"
        assert data["mem"]["metrics"][0]["value"] == 0.5
        assert data["lat"]["metrics"][0]["count"] == 1.0
        assert "p99" in data["lat"]["metrics"][0]


NASTY = 'back\\slash "quoted"\nnewline'


class TestLabelEscaping:
    def test_escape_round_trip(self):
        escaped = escape_label_value(NASTY)
        assert "\n" not in escaped
        assert '\\"' in escaped and "\\\\" in escaped and "\\n" in escaped
        assert unescape_label_value(escaped) == NASTY

    def test_unescape_leaves_unknown_sequences(self):
        assert unescape_label_value("a\\tb") == "a\\tb"

    def test_exposition_round_trips_nasty_labels(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", path=NASTY).inc(7)
        text = registry.render_text()
        # Every sample stays one line despite the embedded newline.
        assert all(
            line.startswith(("#", "reqs_total")) for line in text.splitlines()
        )
        parsed = parse_exposition(text)
        (entry,) = parsed["reqs_total"]["metrics"]
        assert entry["labels"] == {"path": NASTY}
        assert entry["value"] == 7.0


class TestExpositionStrictness:
    def test_help_and_type_exactly_once_per_family(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", region="eu").inc()
        registry.counter("reqs_total", region="us").inc()
        registry.describe("reqs_total", "requests by region")
        text = registry.render_text()
        assert text.count("# TYPE reqs_total ") == 1
        assert text.count("# HELP reqs_total ") == 1
        # The strict parser accepts it and surfaces the help text.
        parsed = parse_exposition(text)
        assert parsed["reqs_total"]["help"] == "requests by region"
        assert len(parsed["reqs_total"]["metrics"]) == 2

    def test_parser_rejects_duplicate_type_and_help(self):
        with pytest.raises(ValueError):
            parse_exposition("# TYPE x counter\n# TYPE x counter\nx 1")
        with pytest.raises(ValueError):
            parse_exposition("# HELP x a\n# HELP x b\nx 1")

    def test_describe_unknown_family_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().describe("ghost", "boo")


class TestExemplars:
    def test_record_keeps_newest_per_bucket_bounded(self):
        hist = Histogram(min_ms=1.0, max_ms=1024.0, growth=2.0)
        hist.record(5.0, trace_id="t-00000001")
        hist.record(5.2, trace_id="t-00000002")  # same bucket: replaces
        hist.record(500.0, trace_id="t-00000003")
        hist.record(1.0)  # no trace id: no exemplar slot
        assert hist.exemplar_count() == 2
        exemplars = hist.exemplars()
        assert [trace for _, trace, _ in exemplars] == [
            "t-00000002", "t-00000003"
        ]
        assert hist.max_exemplar() == ("t-00000003", 500.0)
        assert hist.exemplar_in_range(100.0, 1000.0) == ("t-00000003", 500.0)
        assert hist.exemplar_in_range(1000.0, 2000.0) is None

    def test_exposition_carries_exemplars_and_round_trips(self):
        registry = MetricsRegistry()
        hist = registry.histogram("read_ms", caller="app")
        hist.observe(3.0, trace_id="t-00000007")
        hist.observe(900.0, trace_id="t-00000008")
        text = registry.render_text()
        assert '# {trace_id="t-00000008"} 900' in text
        parsed = parse_exposition(text)
        (entry,) = parsed["read_ms"]["metrics"]
        traces = {ex["trace_id"] for ex in entry["exemplars"]}
        assert traces == {"t-00000007", "t-00000008"}
        for exemplar in entry["exemplars"]:
            assert float(exemplar["le"]) >= exemplar["value"]

    def test_json_export_includes_exemplars(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe(2.0, trace_id="t-00000001")
        data = json.loads(registry.to_json())
        (entry,) = data["lat"]["metrics"]
        assert entry["exemplars"] == [
            {"le": entry["exemplars"][0]["le"], "trace_id": "t-00000001",
             "value": 2.0}
        ]
