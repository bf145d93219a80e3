"""Spans and the tracer: where wall-clock time goes, as a tree.

A :class:`Span` is one timed operation (an experiment, a run, a boot
phase).  Spans nest: the tracer keeps one stack of open spans, so
``tracer.span(...)`` blocks pick up their parent implicitly.  The
package starts no thread, so one stack is the whole nesting story; a
span's ``thread`` field (part of the archived format) names the thread
that opened it.

Spans record both wall-clock (``timeutil.wall_now``, portable, archived)
and monotonic (``time.perf_counter``, duration-accurate) timestamps.  The
tracer accumulates finished spans; exporters and the recorder read them as
plain dicts.  Wall-clock access goes through ``repro.common.timeutil`` —
the sanctioned choke point the determinism lint rules whitelist — never
through raw ``time.time()``.
"""

from __future__ import annotations

import collections
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.common.ids import new_uuid
from repro.common.timeutil import iso_from_timestamp, wall_now


class Span:
    """One timed operation; usable as a context manager via the tracer."""

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attributes: Optional[Dict[str, Any]] = None,
    ):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_uuid()
        self.parent_id = parent_id
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.thread = threading.current_thread().name
        self.start_wall = wall_now()
        self.start_mono = time.perf_counter()
        self.end_wall: Optional[float] = None
        self.end_mono: Optional[float] = None

    # ------------------------------------------------------------- content

    @property
    def ended(self) -> bool:
        return self.end_mono is not None

    @property
    def duration(self) -> Optional[float]:
        """Monotonic duration in seconds, once ended."""
        if self.end_mono is None:
            return None
        return self.end_mono - self.start_mono

    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    def end(self) -> None:
        if self.ended:
            return
        self.end_wall = wall_now()
        self.end_mono = time.perf_counter()
        self._tracer._finish(self)

    # ------------------------------------------------------ context manager

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        self.end()

    # -------------------------------------------------------------- export

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": self.thread,
            "start_wall": self.start_wall,
            "start_wall_iso": iso_from_timestamp(self.start_wall),
            "end_wall": self.end_wall,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }


class Tracer:
    """Creates spans, tracks their nesting, collects finished spans."""

    def __init__(self):
        self._finished: List[Span] = []
        self._stack: List[Span] = []

    # ------------------------------------------------------------ creation

    def span(
        self, name: str, attributes: Optional[Dict[str, Any]] = None
    ) -> Span:
        """Start a span; use as ``with tracer.span("boot") as s:``.  The
        innermost open span is its parent."""
        parent = self.current_span()
        if parent is None:
            trace_id, parent_id = new_uuid(), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        return Span(self, name, trace_id, parent_id, attributes)

    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def activate(self, span: Span) -> Iterator[None]:
        """Make ``span`` the implicit parent inside the block without
        ending it on exit: a run's ``run`` span stays open from
        ``Gem5Run.begin`` to ``finish``, and its simulation's phase
        spans nest under it."""
        self._push(span)
        try:
            yield
        finally:
            self._pop(span)

    # ----------------------------------------------------------- internals

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def _finish(self, span: Span) -> None:
        self._finished.append(span)

    # -------------------------------------------------------------- export

    def finished_spans(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self._finished]

    def subtree(self, root_span_id: str) -> List[Dict[str, Any]]:
        """The finished span rooted at ``root_span_id`` plus every finished
        descendant, root first (breadth-first, completion order within a
        level)."""
        spans = self.finished_spans()
        children: Dict[str, List[Dict[str, Any]]] = {}
        by_id: Dict[str, Dict[str, Any]] = {}
        for span in spans:
            by_id[span["span_id"]] = span
            children.setdefault(span["parent_id"], []).append(span)
        out: List[Dict[str, Any]] = []
        # deque, not list.pop(0): popping the head of a list is O(n), and
        # archived experiment traces reach hundreds of thousands of spans.
        frontier = collections.deque([root_span_id])
        while frontier:
            span_id = frontier.popleft()
            span = by_id.get(span_id)
            if span is not None:
                out.append(span)
            frontier.extend(
                child["span_id"] for child in children.get(span_id, [])
            )
        return out
