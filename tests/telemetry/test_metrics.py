"""Metrics: instruments, labels, determinism, the null twins."""

import threading

import pytest

from repro.common.errors import ValidationError
from repro.telemetry import (
    NULL_METRICS,
    MetricsRegistry,
    metrics_to_prometheus,
)


def test_counter_labels_and_values():
    registry = MetricsRegistry()
    runs = registry.counter("runs_total", "runs by outcome")
    runs.inc(outcome="done")
    runs.inc(2, outcome="failed")
    runs.inc(outcome="done")
    assert runs.value(outcome="done") == 2
    assert runs.value(outcome="failed") == 2
    assert runs.value(outcome="never") == 0


def test_counter_rejects_negative():
    registry = MetricsRegistry()
    with pytest.raises(ValidationError):
        registry.counter("c").inc(-1)


def test_gauge_set_inc():
    registry = MetricsRegistry()
    depth = registry.gauge("queue_depth")
    depth.set(5)
    depth.inc()
    assert depth.value() == 6


def test_histogram_buckets_cumulative():
    registry = MetricsRegistry()
    hist = registry.histogram("latency", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.observe(value)
    (sample,) = hist.samples()
    assert sample["count"] == 5
    assert sample["sum"] == pytest.approx(56.05)
    assert sample["buckets"]["0.1"] == 1
    assert sample["buckets"]["1.0"] == 3
    assert sample["buckets"]["10.0"] == 4
    assert sample["buckets"]["+Inf"] == 5


def test_histogram_rejects_unsorted_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ValidationError):
        registry.histogram("h", buckets=(1.0, 0.5))


def test_get_or_create_is_idempotent_but_kind_checked():
    registry = MetricsRegistry()
    first = registry.counter("x")
    assert registry.counter("x") is first
    with pytest.raises(ValidationError):
        registry.gauge("x")


def test_collect_is_deterministically_ordered():
    registry = MetricsRegistry()
    registry.counter("zebra").inc(kind="b")
    registry.counter("zebra").inc(kind="a")
    registry.gauge("alpha").set(1)
    collected = registry.collect()
    assert [family["name"] for family in collected] == ["alpha", "zebra"]
    labels = [s["labels"] for s in collected[1]["samples"]]
    assert labels == [{"kind": "a"}, {"kind": "b"}]


def test_thread_safety_under_contention():
    registry = MetricsRegistry()
    counter = registry.counter("hits")

    def hammer():
        for _ in range(1000):
            counter.inc()

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value() == 8000


def test_prometheus_text_format():
    registry = MetricsRegistry()
    registry.counter("runs_total", "runs by outcome").inc(
        3, outcome="failed"
    )
    registry.gauge("depth").set(2.5)
    registry.histogram("latency", buckets=(1.0,)).observe(0.4)
    text = metrics_to_prometheus(registry.collect())
    assert "# HELP runs_total runs by outcome" in text
    assert "# TYPE runs_total counter" in text
    assert 'runs_total{outcome="failed"} 3' in text
    assert "depth 2.5" in text
    assert 'latency_bucket{le="1.0"} 1' in text
    assert 'latency_bucket{le="+Inf"} 1' in text
    assert "latency_count 1" in text


def test_null_metrics_absorb_everything():
    counter = NULL_METRICS.counter("anything")
    counter.inc(5, a="b")
    NULL_METRICS.gauge("g").set(1)
    NULL_METRICS.histogram("h").observe(2)
    assert counter.value() == 0.0
    assert NULL_METRICS.collect() == []
