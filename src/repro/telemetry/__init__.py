"""Observability for reproducible experiments: tracing, metrics, events.

The paper's contract is that the database alone must explain an experiment
after the fact.  Results (stats blobs) cover *what* came out; this package
covers *how it happened*: where wall-clock time went (:mod:`tracing`),
what was counted (:mod:`metrics`), which state transitions occurred
(:mod:`events`), rendered by :mod:`export` (Prometheus text, Chrome
trace) and archived next to the stats by :mod:`recorder`.

Telemetry is **off by default and zero-cost when off**: the module-level
accessors return shared no-op twins, so instrumented code in the
scheduler, simulator and art layers calls them unconditionally.  Enabling
is explicit and process-wide::

    from repro import telemetry
    session = telemetry.enable()
    ...  # run an experiment
    telemetry.disable()

or scoped::

    with telemetry.session() as s:
        experiment.launch(...)

Telemetry never feeds back into the simulation: simulated time and
statistics are bit-identical with it on or off (asserted by the tests).

The no-op twins live here; nothing else is imported with the package.
:mod:`tracing`, :mod:`metrics` and :mod:`events` load when a session is
built (:func:`enable`, or a real class's name used), and :mod:`export`
and :mod:`recorder` on first use of theirs (the ``_LAZY`` table): a
sweep with telemetry off records, renders and archives nothing, and
compiles none of the code that would.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.telemetry.events import EventLog
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.tracing import Tracer

#: Lazily imported name -> the submodule defining it.
_LAZY = {
    "Tracer": "tracing",
    "Span": "tracing",
    "MetricsRegistry": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "DEFAULT_BUCKETS": "metrics",
    "EventLog": "events",
    "metrics_to_prometheus": "export",
    "spans_to_chrome_trace": "export",
    "chrome_trace_json": "export",
    "snapshot": "recorder",
    "archive_telemetry": "recorder",
    "merge_worker_telemetry": "recorder",
    "rehydrate_telemetry": "recorder",
    "TELEMETRY": "recorder",
}


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        # Cached: the next lookup is a plain module attribute.
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------- no-op twins


class NullSpan:
    """Shared no-op span; every operation returns immediately."""

    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    attributes: Dict[str, Any] = {}
    ended = True
    duration = None

    def set_attribute(self, key: str, value: Any) -> "NullSpan":
        return self

    def end(self) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def to_dict(self) -> Dict[str, Any]:
        return {}


NULL_SPAN = NullSpan()


class NullTracer:
    """Tracer twin returned by ``get_tracer()`` when telemetry is off."""

    def span(
        self, name: str, attributes: Optional[Dict[str, Any]] = None
    ) -> NullSpan:
        return NULL_SPAN

    def current_span(self) -> None:
        return None

    @contextmanager
    def activate(self, span: Any) -> Iterator[None]:
        yield

    def finished_spans(self) -> List[Dict[str, Any]]:
        return []

    def subtree(self, root_span_id: str) -> List[Dict[str, Any]]:
        return []


NULL_TRACER = NullTracer()


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


class NullEventLog:
    """Event log twin used while telemetry is disabled."""

    def emit(self, kind: str, **attributes: Any) -> None:
        return None

    def absorb(
        self, records: List[Dict[str, Any]], **extra: Any
    ) -> List[Dict[str, Any]]:
        return []

    def records(self) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0


NULL_EVENT_LOG = NullEventLog()


class TelemetrySession:
    """One enabled recording: a tracer + metrics registry + event log."""

    def __init__(self):
        from repro.telemetry.events import EventLog
        from repro.telemetry.metrics import MetricsRegistry
        from repro.telemetry.tracing import Tracer

        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.events = EventLog()

    def snapshot(self, spans=None) -> dict:
        """Archival form of everything recorded so far (optionally with a
        restricted span set, e.g. one run's subtree)."""
        from repro.telemetry.recorder import snapshot

        return snapshot(
            spans=self.tracer.finished_spans() if spans is None else spans,
            metrics=self.metrics.collect(),
            events=self.events.records(),
        )


_session: Optional[TelemetrySession] = None


def enable(
    session: Optional[TelemetrySession] = None,
) -> TelemetrySession:
    """Install (or replace) the process-wide telemetry session."""
    global _session
    _session = session or TelemetrySession()
    return _session


def disable() -> None:
    """Drop the session; accessors return the no-op twins again."""
    global _session
    _session = None


def enabled() -> bool:
    return _session is not None


def current_session() -> Optional[TelemetrySession]:
    return _session


@contextmanager
def session(
    existing: Optional[TelemetrySession] = None,
) -> Iterator[TelemetrySession]:
    """Enable telemetry for a ``with`` block, restoring the prior state."""
    previous = _session
    active = enable(existing)
    try:
        yield active
    finally:
        globals()["_session"] = previous


def get_tracer() -> Union[Tracer, NullTracer]:
    active = _session
    return active.tracer if active is not None else NULL_TRACER


def get_metrics() -> Union[MetricsRegistry, NullMetrics]:
    active = _session
    return active.metrics if active is not None else NULL_METRICS


def get_event_log() -> Union[EventLog, NullEventLog]:
    active = _session
    return active.events if active is not None else NULL_EVENT_LOG


__all__ = [
    # session management
    "TelemetrySession",
    "enable",
    "disable",
    "enabled",
    "current_session",
    "session",
    "get_tracer",
    "get_metrics",
    "get_event_log",
    # tracing
    "Tracer",
    "Span",
    "NullTracer",
    "NullSpan",
    "NULL_TRACER",
    "NULL_SPAN",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NullMetrics",
    "NULL_METRICS",
    "DEFAULT_BUCKETS",
    # events
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    # export
    "metrics_to_prometheus",
    "spans_to_chrome_trace",
    "chrome_trace_json",
    # recorder
    "snapshot",
    "archive_telemetry",
    "merge_worker_telemetry",
    "rehydrate_telemetry",
    "TELEMETRY",
]
