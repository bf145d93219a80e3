"""Spans and the tracer: where wall-clock time goes, as a tree.

A :class:`Span` is one timed operation (an experiment, a run, a boot
phase).  Spans nest: within a thread the tracer keeps a thread-local stack
so ``tracer.span(...)`` blocks pick up their parent implicitly; *across*
threads a :class:`SpanContext` (trace id + span id, nothing else) is passed
explicitly — it travels with each task the scheduler hands to a pool
thread, because thread-locals do not cross threads.

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
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.common.ids import new_uuid
from repro.common.timeutil import iso_from_timestamp, wall_now


class SpanContext:
    """The minimal, serializable handle linking a child to its parent."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def to_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(
        cls, data: Optional[Dict[str, str]]
    ) -> Optional["SpanContext"]:
        if not data:
            return None
        return cls(data["trace_id"], data["span_id"])


ParentLike = Union["Span", SpanContext, Dict[str, str], None]


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
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

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
    """Creates spans, tracks per-thread nesting, collects finished spans."""

    def __init__(self):
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self._local = threading.local()

    # ------------------------------------------------------------ creation

    def span(
        self,
        name: str,
        parent: ParentLike = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Start a span; use as ``with tracer.span("boot") as s:``.

        ``parent`` may be a :class:`Span`, a :class:`SpanContext`, or its
        dict form (:meth:`current_context_dict`); when omitted, the
        innermost open span on *this* thread is the parent.
        """
        parent_ctx = self._resolve_parent(parent)
        if parent_ctx is None:
            trace_id, parent_id = new_uuid(), None
        else:
            trace_id, parent_id = parent_ctx.trace_id, parent_ctx.span_id
        return Span(self, name, trace_id, parent_id, attributes)

    def _resolve_parent(self, parent: ParentLike) -> Optional[SpanContext]:
        if parent is None:
            current = self.current_span()
            return current.context if current is not None else None
        if isinstance(parent, Span):
            return parent.context
        if isinstance(parent, SpanContext):
            return parent
        return SpanContext.from_dict(parent)

    def current_span(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def current_context_dict(self) -> Optional[Dict[str, str]]:
        """The active span's context in wire (dict) form, or None."""
        current = self.current_span()
        return current.context.to_dict() if current is not None else None

    @contextmanager
    def activate(self, parent: ParentLike) -> Iterator[None]:
        """Make ``parent`` the implicit parent on *this* thread.

        Used by executors whose worker threads receive a span context
        from another thread (e.g. ``run_jobs_pool``): inside the block,
        new spans nest under the remote parent without an extra
        intermediate span."""
        ctx = self._resolve_parent(parent)
        if ctx is None:
            yield
            return
        remote = _RemoteSpan(ctx)
        self._push(remote)
        try:
            yield
        finally:
            self._pop(remote)

    # ----------------------------------------------------------- internals

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)

    # -------------------------------------------------------------- export

    def finished_spans(self) -> List[Dict[str, Any]]:
        with self._lock:
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


class _RemoteSpan:
    """Stack placeholder for a parent that lives on another thread; only
    its context matters."""

    __slots__ = ("_context",)

    def __init__(self, context: SpanContext):
        self._context = context

    @property
    def context(self) -> SpanContext:
        return self._context


class NullSpan:
    """Shared no-op span; every operation returns immediately."""

    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    attributes: Dict[str, Any] = {}
    ended = True
    duration = None

    @property
    def context(self) -> None:
        return None

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
        self,
        name: str,
        parent: ParentLike = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> NullSpan:
        return NULL_SPAN

    def current_span(self) -> None:
        return None

    def current_context_dict(self) -> None:
        return None

    @contextmanager
    def activate(self, parent: ParentLike) -> "Iterator[None]":
        yield

    def finished_spans(self) -> List[Dict[str, Any]]:
        return []

    def subtree(self, root_span_id: str) -> List[Dict[str, Any]]:
        return []


NULL_TRACER = NullTracer()
