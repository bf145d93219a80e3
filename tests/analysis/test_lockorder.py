"""Tests for the dynamic lock-order checker.

The crafted ABBA scenario must be reported as a cycle; a clean
scheduler ``drain()`` under load — the real concurrency workload the
checker exists for — must report none.
"""

import threading

import pytest

from repro import telemetry
from repro.analysis.lockorder import (
    LockOrderMonitor,
    OrderedCondition,
    OrderedLock,
    monitored,
)
from repro.scheduler import SchedulerApp
from tests.helpers import events_of


# ----------------------------------------------------------------- monitor


def test_nested_acquisition_records_edge():
    monitor = LockOrderMonitor()
    a = OrderedLock("A", monitor)
    b = OrderedLock("B", monitor)
    with a:
        with b:
            pass
    assert monitor.edges() == [("A", "B")]
    assert monitor.cycles() == []


def test_abba_cycle_detected():
    """Thread one takes A then B; thread two takes B then A — the
    canonical deadlock schedule, reported as a cycle."""
    monitor = LockOrderMonitor()
    a = OrderedLock("A", monitor)
    b = OrderedLock("B", monitor)

    def ab():
        with a:
            with b:
                pass

    def ba():
        with b:
            with a:
                pass

    first = threading.Thread(target=ab)
    first.start()
    first.join()
    second = threading.Thread(target=ba)
    second.start()
    second.join()
    assert monitor.cycles() == [("A", "B")]


def test_three_lock_cycle_detected():
    monitor = LockOrderMonitor()
    locks = {name: OrderedLock(name, monitor) for name in "ABC"}

    def chain(first, second):
        with locks[first]:
            with locks[second]:
                pass

    for pair in (("A", "B"), ("B", "C"), ("C", "A")):
        thread = threading.Thread(target=chain, args=pair)
        thread.start()
        thread.join()
    assert monitor.cycles() == [("A", "B", "C")]


def test_consistent_order_has_no_cycle():
    monitor = LockOrderMonitor()
    a = OrderedLock("A", monitor)
    b = OrderedLock("B", monitor)

    def ab():
        with a:
            with b:
                pass

    threads = [threading.Thread(target=ab) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert monitor.edges() == [("A", "B")]
    assert monitor.cycles() == []


def test_reentrant_acquisition_is_not_a_self_edge():
    monitor = LockOrderMonitor()
    rlock = OrderedLock("R", monitor, inner=threading.RLock())
    with rlock:
        with rlock:
            pass
    assert monitor.edges() == []
    # Both acquisitions were released: a later lock nests under nothing.
    with OrderedLock("S", monitor):
        pass
    assert monitor.edges() == []


def test_condition_wait_releases_for_ordering_purposes():
    """While a thread waits on a condition it does not hold it; an
    acquisition made by the waking path must not create an edge from
    the condition."""
    monitor = LockOrderMonitor()
    cond = OrderedCondition("C", monitor)
    other = OrderedLock("L", monitor)
    done = threading.Event()

    def waiter():
        with cond:
            cond.wait(timeout=5)
        with other:
            pass
        done.set()

    thread = threading.Thread(target=waiter)
    thread.start()
    # Give the waiter time to enter wait, then wake it.
    import time

    time.sleep(0.05)
    with cond:
        cond.notify_all()
    thread.join()
    assert done.is_set()
    # No C -> L edge: L was acquired after C was fully released.
    assert ("C", "L") not in monitor.edges()


def test_report_emits_telemetry_on_cycles():
    monitor = LockOrderMonitor()
    a = OrderedLock("A", monitor)
    b = OrderedLock("B", monitor)
    for first, second in ((a, b), (b, a)):
        def run(x=first, y=second):
            with x:
                with y:
                    pass
        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
    with telemetry.session() as session:
        report = monitor.report()
    assert report["cycles"] == [("A", "B")]
    events = events_of(session.events, "lockorder.cycle")
    assert len(events) == 1
    assert "A -> B -> A" == events[0]["attributes"]["locks"]
    counters = [
        m for m in session.metrics.collect()
        if m["name"] == "lockorder_cycles_total"
    ]
    assert counters and counters[0]["samples"][0]["value"] == 1.0


# ------------------------------------------------------------- monkeypatch


def test_monitored_instruments_repro_locks_only(tmp_path):
    with monitored() as monitor:
        from repro.scheduler.result import ResultBackend

        backend = ResultBackend()
        assert isinstance(backend._lock, OrderedCondition)
        assert backend._lock.name.startswith("scheduler/result.py")
        # Out-of-scope (stdlib) lock creation stays native.
        import queue

        native = queue.Queue()
        assert not isinstance(native.mutex, OrderedLock)
    # After the block, factories are restored.
    assert threading.Condition is not type(backend._lock)
    plain = threading.Lock()
    assert not isinstance(plain, OrderedLock)


def test_clean_scheduler_drain_under_load_has_no_cycles():
    """The ISSUE acceptance scenario: a full scheduler app — broker,
    result backend, worker threads — driven with enough tasks to
    overlap, reports zero lock-order cycles."""
    with monitored() as monitor:
        app = SchedulerApp(name="lockcheck", worker_count=4)
        # The app's locks really are instrumented ...
        assert isinstance(app._lock, OrderedLock)
        assert isinstance(app.broker._ready, OrderedCondition)

        @app.task(name="spin")
        def spin(n):
            total = 0
            for i in range(n):
                total += i
            return total

        results = [
            spin.apply_async(args=(500 + i,)) for i in range(40)
        ]
        values = [r.get(timeout=30.0) for r in results]
        app.shutdown()
    assert len(values) == 40
    report = monitor.report()
    # ... and the whole sweep observed a consistent global order: the
    # scheduler never nests one lock inside another inconsistently (a
    # clean run typically records no nesting at all).
    assert report["cycles"] == []


def test_injected_abba_in_scheduler_style_locks_is_flagged():
    """Same instrumentation path as the scheduler, with a deliberate
    ordering bug layered on top: the checker must flag it."""
    with monitored() as monitor:
        from repro.scheduler.result import ResultBackend

        extra = OrderedLock("extra", monitor)
        inner = ResultBackend()._lock
        assert isinstance(inner, OrderedCondition)

        def good():
            with inner:
                with extra:
                    pass

        def bad():
            with extra:
                with inner:
                    pass

        for target in (good, bad):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join()
    cycles = monitor.cycles()
    assert len(cycles) == 1
    assert set(cycles[0]) == {"extra", inner.name}
