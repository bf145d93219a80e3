"""Exporters: Prometheus text format, Chrome trace JSON.

Each exporter consumes the *plain-dict* snapshot forms produced by
:meth:`MetricsRegistry.collect`, :meth:`Tracer.finished_spans` and
:meth:`EventLog.records` — never live objects — so the same functions
render both a live session and a snapshot rehydrated from the database.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List


# -------------------------------------------------------------- Prometheus


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{value}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _render_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def metrics_to_prometheus(collected: List[Dict[str, Any]]) -> str:
    """Render a ``MetricsRegistry.collect()`` snapshot in the Prometheus
    text exposition format (one HELP/TYPE header per metric family)."""
    lines: List[str] = []
    for family in collected:
        name, kind = family["name"], family["kind"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in family["samples"]:
            labels = sample.get("labels", {})
            if kind == "histogram":
                for bound, count in sample["buckets"].items():
                    le = dict(labels)
                    le["le"] = bound
                    lines.append(
                        f"{name}_bucket{_render_labels(le)} {count}"
                    )
                lines.append(
                    f"{name}_sum{_render_labels(labels)} "
                    f"{_render_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)} "
                    f"{sample['count']}"
                )
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} "
                    f"{_render_value(sample['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# ------------------------------------------------------------ Chrome trace


def spans_to_chrome_trace(
    spans: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Convert finished spans to the Chrome ``chrome://tracing`` /
    Perfetto JSON object format (complete ``"X"`` events).

    Timestamps are rebased to the earliest span so the viewer opens at
    t=0; one ``tid`` per recording thread keeps nesting readable.
    """
    finished = [s for s in spans if s.get("end_wall") is not None]
    if not finished:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base = min(s["start_wall"] for s in finished)
    threads = sorted({s.get("thread", "main") for s in finished})
    tid_of = {name: index + 1 for index, name in enumerate(threads)}
    events = []
    for span in sorted(
        finished, key=lambda s: (s["start_wall"], s["span_id"])
    ):
        args = {
            key: value
            for key, value in span.get("attributes", {}).items()
            if isinstance(value, (str, int, float, bool))
        }
        args["span_id"] = span["span_id"]
        if span.get("parent_id"):
            args["parent_id"] = span["parent_id"]
        events.append(
            {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": (span["start_wall"] - base) * 1e6,
                "dur": (span["duration"] or 0.0) * 1e6,
                "pid": 1,
                "tid": tid_of.get(span.get("thread", "main"), 0),
                "args": args,
            }
        )
    thread_names = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": thread},
        }
        for thread, tid in sorted(tid_of.items(), key=lambda kv: kv[1])
    ]
    return {
        "traceEvents": thread_names + events,
        "displayTimeUnit": "ms",
    }


def chrome_trace_json(spans: List[Dict[str, Any]]) -> str:
    """The Chrome trace as a JSON string ready to write to a file."""
    return json.dumps(spans_to_chrome_trace(spans), indent=1)
