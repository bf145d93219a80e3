"""Thread-safe metrics: counters, gauges and histograms with labels.

The model follows Prometheus: an instrument is identified by name and kind,
and carries one *series* per distinct label set (``runs_total{outcome=
"failed"}``).  Histograms use fixed bucket boundaries so that two identical
experiments produce byte-identical exports — determinism is part of the
reproducibility contract.

Every instrument has a no-op twin so instrumented code can call
``get_metrics().counter(...).inc()`` unconditionally; when telemetry is
disabled the whole chain is a handful of attribute lookups.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ValidationError

#: Default histogram boundaries (seconds): micro-benchmarks up to long runs.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
    300.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value, one series per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValidationError("counters can only increase")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ]


class Gauge:
    """A value that can go up and down (queue depth, miss rate, ...)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ]


class Histogram:
    """Cumulative-bucket distribution with fixed boundaries."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValidationError(
                "histogram buckets must be a sorted non-empty sequence"
            )
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = lock
        # per label set: (bucket counts incl. +Inf, sum, count)
        self._series: Dict[LabelKey, Dict[str, Any]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.setdefault(
                key,
                {
                    "counts": [0] * (len(self.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                },
            )
            index = len(self.buckets)  # +Inf slot
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            series["counts"][index] += 1
            series["sum"] += float(value)
            series["count"] += 1

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            out = []
            for key, series in sorted(self._series.items()):
                cumulative = {}
                running = 0
                for bound, count in zip(self.buckets, series["counts"]):
                    running += count
                    cumulative[repr(bound)] = running
                cumulative["+Inf"] = series["count"]
                out.append(
                    {
                        "labels": dict(key),
                        "buckets": cumulative,
                        "sum": series["sum"],
                        "count": series["count"],
                    }
                )
            return out

    def absorb_sample(self, sample: Dict[str, Any]) -> None:
        """Fold one exported sample (cumulative buckets) into this
        histogram — the merge path for worker-process snapshots."""
        bounds = [b for b in sample["buckets"] if b != "+Inf"]
        if tuple(float(b) for b in bounds) != self.buckets:
            raise ValidationError(
                f"histogram {self.name!r}: cannot merge sample with "
                f"buckets {bounds} into {list(self.buckets)}"
            )
        raw = []
        previous = 0
        for bound in bounds:
            cumulative = sample["buckets"][bound]
            raw.append(cumulative - previous)
            previous = cumulative
        raw.append(sample["count"] - previous)
        key = _label_key(sample["labels"])
        with self._lock:
            series = self._series.setdefault(
                key,
                {
                    "counts": [0] * (len(self.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                },
            )
            for index, count in enumerate(raw):
                series["counts"][index] += count
            series["sum"] += float(sample["sum"])
            series["count"] += int(sample["count"])


class MetricsRegistry:
    """Get-or-create home of every instrument; the unit of export."""

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        if not name or name != name.strip():
            raise ValidationError(f"bad metric name {name!r}")
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, help, threading.Lock(), **kwargs)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise ValidationError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, not {cls.kind}"
                )
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, buckets=buckets
        )

    def collect(self) -> List[Dict[str, Any]]:
        """Deterministic snapshot of every instrument's series."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return [
            {
                "name": name,
                "kind": instrument.kind,
                "help": instrument.help,
                "samples": instrument.samples(),
            }
            for name, instrument in instruments
        ]

    def merge(self, collected: List[Dict[str, Any]]) -> None:
        """Fold a ``collect()``-shaped snapshot from another registry
        (typically a worker process's private session) into this one.

        Counters and histogram observations add; gauges take the
        incoming value (last writer wins, matching their semantics).
        """
        for metric in collected:
            name = metric["name"]
            kind = metric["kind"]
            help_text = metric.get("help", "")
            samples = metric.get("samples", [])
            if kind == "counter":
                instrument = self.counter(name, help_text)
                for sample in samples:
                    instrument.inc(sample["value"], **sample["labels"])
            elif kind == "gauge":
                instrument = self.gauge(name, help_text)
                for sample in samples:
                    instrument.set(sample["value"], **sample["labels"])
            elif kind == "histogram":
                if not samples:
                    continue
                bounds = tuple(
                    float(b)
                    for b in samples[0]["buckets"]
                    if b != "+Inf"
                )
                instrument = self.histogram(
                    name, help_text, buckets=bounds
                )
                for sample in samples:
                    instrument.absorb_sample(sample)
            else:
                raise ValidationError(
                    f"cannot merge metric {name!r} of unknown "
                    f"kind {kind!r}"
                )


class _NullInstrument:
    """Absorbs every instrument method; the disabled-telemetry fast path."""

    kind = "null"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0.0

    def samples(self) -> List[Dict[str, Any]]:
        return []


NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Registry twin returned by ``get_metrics()`` when disabled."""

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> _NullInstrument:
        return NULL_INSTRUMENT

    def collect(self) -> List[Dict[str, Any]]:
        return []

    def merge(self, collected: List[Dict[str, Any]]) -> None:
        pass


NULL_METRICS = NullMetrics()
