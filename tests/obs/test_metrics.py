"""The metrics registry and its Prometheus text exposition."""

import re

import pytest

from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry

#: A Prometheus exposition line: comment, or `name{labels} value`.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_+][a-zA-Z0-9_]*=\"[^\"]*\")*\})? -?[0-9.e+-]+(inf)?$"
)


class TestCounter:
    def test_inc_and_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "jobs")
        counter.labels(kind="a").inc()
        counter.labels(kind="a").inc(2)
        counter.labels(kind="b").inc()
        dump = registry.to_dict()["jobs_total"]
        assert dump["type"] == "counter"
        assert dump["series"]['{kind="a"}'] == 3
        assert dump["series"]['{kind="b"}'] == 1

    def test_counters_only_go_up(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 6


class TestHistogram:
    def test_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 20.0):
            hist.observe(value)
        text = registry.to_prometheus()
        assert 'h_bucket{le="0.1"} 1' in text
        assert 'h_bucket{le="1"} 3' in text
        assert 'h_bucket{le="10"} 3' in text
        assert 'h_bucket{le="+Inf"} 4' in text
        assert "h_count 4" in text

    def test_bucket_bounds_are_inclusive(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        hist.observe(1.0)
        assert hist.counts[0] == 1

    def test_labeled_histograms_do_not_share_counts(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        hist.labels(phase="a").observe(0.5)
        hist.labels(phase="b").observe(0.5)
        assert hist.labels(phase="a").count == 1
        assert hist.labels(phase="b").count == 1


class TestExposition:
    def test_every_line_parses(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "requests").labels(
            method="vet", safe="true"
        ).inc(7)
        registry.gauge("live", "live transactions").set(3)
        hist = registry.histogram("latency_seconds", "latency")
        hist.labels(phase="pairs").observe(0.002)
        for line in registry.to_prometheus().splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert SAMPLE_RE.match(line), f"unparseable sample: {line!r}"

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").labels(detail='say "hi"\nbye').inc()
        text = registry.to_prometheus()
        assert '\\"hi\\"' in text
        assert "\\n" in text

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok").labels(**{"bad-label": "x"})

    def test_same_labels_reach_the_same_child(self):
        counter = MetricsRegistry().counter("frames_total")
        child = counter.labels(site="1", kind="lock")
        assert counter.labels(site="1", kind="lock") is child

    def test_label_order_and_value_type_do_not_split_a_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("frames_total")
        child = counter.labels(site="1", kind="lock")
        assert counter.labels(kind="lock", site="1") is child
        assert counter.labels(kind="lock", site=1) is child
        child.inc()
        assert registry.to_dict()["frames_total"]["series"] == {
            '{kind="lock",site="1"}': 1
        }

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""
        assert MetricsRegistry().to_dict() == {}


class TestGlobalRegistry:
    def test_reset_then_recreate(self):
        metrics.REGISTRY.counter("tmp_total").inc()
        metrics.REGISTRY.reset()
        assert metrics.REGISTRY.to_dict() == {}
        # Re-resolving by name starts a fresh metric.
        metrics.REGISTRY.counter("tmp_total").inc()
        assert metrics.REGISTRY.to_dict()["tmp_total"]["value"] == 1

    def test_get_registry_is_the_module_singleton(self):
        assert metrics.get_registry() is metrics.REGISTRY
