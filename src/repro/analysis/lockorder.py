"""Dynamic lock-order checking: find ABBA deadlocks before they hang.

Static rules can police single-file lock discipline, but an
acquisition-order inversion lives *between* files: one thread takes the
broker's lock then the backend's, another takes them the other way round,
and the deadlock only fires under exactly the wrong interleaving.  The
classic detector (Linux lockdep, TSan's deadlock detector) does not wait
for the interleaving: it records the *acquisition graph* — an edge
``A → B`` whenever a thread acquires ``B`` while holding ``A`` — and
reports any cycle, because a cycle is a deadlock waiting for a schedule.

Two ways in:

- :class:`OrderedLock` / :class:`OrderedCondition`: explicit wrappers
  for code that wants named, monitored locks in a test.
- :func:`monitored`: a context manager that monkeypatches
  ``threading.Lock`` / ``RLock`` / ``Condition`` / ``Semaphore`` so that
  locks created *inside* the block by ``repro`` code are instrumented
  transparently — build a ``SchedulerApp`` inside it and every lock in
  the broker, result backend and app is monitored with a
  creation-site name like ``scheduler/app.py:120``.  Code outside the
  ``repro`` tree (e.g. ``queue.Queue`` internals) keeps real locks.

This is a dev-tool layer: nothing in ``repro.scheduler`` or ``repro.sim``
imports this module; the instrumentation reaches them only through the
installer at test time.  Detected cycles are reported through telemetry
(``lockorder.cycle`` events, ``lockorder_cycles_total`` counter) so a
monitored stress run archives its verdict with the rest of the run.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.telemetry import get_event_log, get_metrics


class LockOrderMonitor:
    """Records the lock-acquisition graph and finds cycles in it.

    Thread-safe; one monitor watches any number of locks.  Edges carry
    the first witness (thread plus held/acquired lock names) so a cycle
    report points at code, not just at an abstract graph.
    """

    def __init__(self):
        self._lock = threading.Lock()
        # lock name -> names acquired while it was held
        self._edges: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self._held = threading.local()

    # -------------------------------------------------------- acquisition

    def note_acquire(self, name: str) -> None:
        """Record that the current thread acquired ``name``."""
        held: List[str] = getattr(self._held, "stack", None) or []
        if name in held:
            # Re-entrant acquisition (RLock); no new ordering information.
            held.append(name)
            self._held.stack = held
            return
        thread = threading.current_thread().name
        with self._lock:
            for holder in held:
                if holder == name:
                    continue
                self._edges.setdefault(holder, {}).setdefault(
                    name,
                    {"thread": thread, "holding": list(held)},
                )
        held.append(name)
        self._held.stack = held

    def note_release(self, name: str) -> None:
        """Record that the current thread released ``name``."""
        held: List[str] = getattr(self._held, "stack", None) or []
        # Release the innermost matching acquisition.
        for index in range(len(held) - 1, -1, -1):
            if held[index] == name:
                held.pop(index)
                break
        self._held.stack = held

    # ------------------------------------------------------------- graphs

    def edges(self) -> List[Tuple[str, str]]:
        """Every observed (held → acquired) pair, sorted."""
        with self._lock:
            return sorted(
                (src, dst)
                for src, dsts in self._edges.items()
                for dst in dsts
            )

    def cycles(self) -> List[Tuple[str, ...]]:
        """All elementary cycles in the acquisition graph, canonicalized.

        A cycle ``(A, B)`` means some thread acquired B while holding A
        and some thread acquired A while holding B — a deadlock schedule
        exists.  Cycles are rotated to start at their smallest node and
        deduplicated, so the report is deterministic.
        """
        with self._lock:
            graph = {
                src: sorted(dsts) for src, dsts in self._edges.items()
            }
        found: Set[Tuple[str, ...]] = set()
        path: List[str] = []
        on_path: Set[str] = set()
        visited: Set[str] = set()

        def walk(node: str) -> None:
            path.append(node)
            on_path.add(node)
            for neighbor in graph.get(node, ()):
                if neighbor in on_path:
                    start = path.index(neighbor)
                    found.add(_canonical(tuple(path[start:])))
                elif neighbor not in visited:
                    walk(neighbor)
            on_path.discard(node)
            path.pop()
            visited.add(node)

        for root in sorted(graph):
            if root not in visited:
                walk(root)
        return sorted(found)

    def report(self) -> Dict[str, Any]:
        """Cycle verdict, published through telemetry.

        Returns ``{"locks": n, "edges": [...], "cycles": [...]}`` and,
        for each cycle, emits a ``lockorder.cycle`` event and bumps the
        ``lockorder_cycles_total`` counter — a monitored run archives
        its own deadlock analysis alongside spans and metrics.
        """
        edges = self.edges()
        cycles = self.cycles()
        names = sorted({name for edge in edges for name in edge})
        for cycle in cycles:
            get_metrics().counter(
                "lockorder_cycles_total",
                "Lock-acquisition-order cycles detected",
            ).inc()
            get_event_log().emit(
                "lockorder.cycle", locks=" -> ".join(cycle + cycle[:1])
            )
        return {"locks": len(names), "edges": edges, "cycles": cycles}


def _canonical(cycle: Tuple[str, ...]) -> Tuple[str, ...]:
    """Rotate a cycle so it starts at its lexicographically smallest
    node; two rotations of the same cycle then compare equal."""
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


# ----------------------------------------------------------- instrumented


class OrderedLock:
    """A named lock that reports acquisitions to a monitor.

    Wraps any object with ``acquire``/``release`` (Lock, RLock,
    Semaphore); supports ``with``.  The wrapper is duck-type compatible
    with ``threading.Condition(lock=...)``.
    """

    def __init__(
        self,
        name: str,
        monitor: LockOrderMonitor,
        inner: Optional[Any] = None,
    ):
        self.name = name
        self.monitor = monitor
        self._inner = threading.Lock() if inner is None else inner

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        acquired = self._inner.acquire(*args, **kwargs)
        if acquired:
            self.monitor.note_acquire(self.name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self.monitor.note_release(self.name)

    def __enter__(self) -> "OrderedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"OrderedLock({self.name!r})"


class OrderedCondition:
    """A named condition variable reporting to a monitor.

    ``wait`` releases the underlying lock, so the monitor is told about
    the release/re-acquire pair — otherwise every post-wait acquisition
    would appear to nest under the condition and fabricate edges.
    """

    def __init__(
        self,
        name: str,
        monitor: LockOrderMonitor,
        inner: Optional[threading.Condition] = None,
    ):
        self.name = name
        self.monitor = monitor
        self._inner = inner if inner is not None else threading.Condition()

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        acquired = self._inner.acquire(*args, **kwargs)
        if acquired:
            self.monitor.note_acquire(self.name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self.monitor.note_release(self.name)

    def wait(self, timeout: Optional[float] = None) -> bool:
        self.monitor.note_release(self.name)
        try:
            return self._inner.wait(timeout=timeout)
        finally:
            self.monitor.note_acquire(self.name)

    def wait_for(self, predicate, timeout: Optional[float] = None):
        self.monitor.note_release(self.name)
        try:
            return self._inner.wait_for(predicate, timeout=timeout)
        finally:
            self.monitor.note_acquire(self.name)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()

    def __enter__(self) -> "OrderedCondition":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"OrderedCondition({self.name!r})"


# ------------------------------------------------------------ monkeypatch

#: Path substring marking the code whose locks get wrapped: the package.
SCOPE_MARKER = "/repro/"


def _creation_site(depth: int) -> str:
    """``package-relative-file:lineno`` of the caller creating a lock."""
    frame = sys._getframe(depth)
    filename = frame.f_code.co_filename.replace("\\", "/")
    index = filename.rfind(SCOPE_MARKER)
    if index >= 0:
        filename = filename[index + len(SCOPE_MARKER):]
    else:
        filename = filename.rsplit("/", 1)[-1]
    return f"{filename}:{frame.f_lineno}"


def _in_scope(depth: int) -> bool:
    frame = sys._getframe(depth)
    filename = frame.f_code.co_filename.replace("\\", "/")
    if filename.endswith("analysis/lockorder.py"):
        # The wrappers' own fallback locks must stay native, or every
        # OrderedLock would recursively wrap another OrderedLock.
        return False
    return SCOPE_MARKER in filename


class _Installer:
    """Swaps the ``threading`` lock factories for instrumented ones."""

    FACTORIES = ("Lock", "RLock", "Condition", "Semaphore")

    def __init__(self, monitor: LockOrderMonitor):
        self.monitor = monitor
        self._originals: Dict[str, Any] = {}
        self._counts: Dict[str, int] = {}
        self._counts_lock = threading.Lock()

    def _name_for_site(self) -> str:
        site = _creation_site(depth=3)
        with self._counts_lock:
            count = self._counts.get(site, 0)
            self._counts[site] = count + 1
        return site if count == 0 else f"{site}#{count}"

    def install(self) -> None:
        for factory in self.FACTORIES:
            self._originals[factory] = getattr(threading, factory)
        monitor = self.monitor
        originals = self._originals

        def wrapping(factory: str):
            def make(*args: Any, **kwargs: Any):
                inner = originals[factory](*args, **kwargs)
                if not _in_scope(2):
                    return inner
                return OrderedLock(self._name_for_site(), monitor, inner)

            return make

        def make_condition(lock: Any = None):
            if not _in_scope(2):
                return originals["Condition"](lock)
            if isinstance(lock, OrderedLock):
                # The lock is already monitored; the real Condition binds
                # to its acquire/release, so waits are recorded through it.
                return originals["Condition"](lock)
            inner = originals["Condition"](lock)
            return OrderedCondition(self._name_for_site(), monitor, inner)

        threading.Lock = wrapping("Lock")
        threading.RLock = wrapping("RLock")
        threading.Condition = make_condition
        threading.Semaphore = wrapping("Semaphore")

    def uninstall(self) -> None:
        for factory, original in self._originals.items():
            setattr(threading, factory, original)
        self._originals.clear()


@contextmanager
# dev-tool entry: tests/analysis/test_lockorder.py, run by CI's `lint` job
def monitored() -> Iterator[LockOrderMonitor]:  # repro: noqa[DEAD-REACH]
    """Instrument every lock created by in-scope code inside the block.

    Only locks created from files whose path contains
    :data:`SCOPE_MARKER` (the ``repro`` package) are wrapped, so stdlib
    internals keep their native locks.  Objects built inside the block
    keep their instrumented locks after it exits — call
    ``monitor.report()`` once the workload is done.
    """
    monitor = LockOrderMonitor()
    installer = _Installer(monitor)
    installer.install()
    try:
        yield monitor
    finally:
        installer.uninstall()
