"""Tests for the discrete-event queue."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import StateError, ValidationError
from repro.sim.events import EventQueue


def test_runs_in_tick_order():
    queue = EventQueue()
    order = []
    queue.schedule(30, lambda: order.append("c"))
    queue.schedule(10, lambda: order.append("a"))
    queue.schedule(20, lambda: order.append("b"))
    queue.run()
    assert order == ["a", "b", "c"]
    assert queue.now == 30


def test_insertion_order_breaks_remaining_ties():
    queue = EventQueue()
    order = []
    for tag in ("first", "second", "third"):
        queue.schedule(7, lambda tag=tag: order.append(tag))
    queue.run()
    assert order == ["first", "second", "third"]


def test_callbacks_can_schedule_more():
    queue = EventQueue()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            queue.schedule(10, lambda: chain(n + 1))

    queue.schedule(0, lambda: chain(0))
    queue.run()
    assert seen == [0, 1, 2, 3]
    assert queue.now == 30


def test_max_tick_stops_early():
    queue = EventQueue()
    fired = []
    queue.schedule(10, lambda: fired.append(10))
    queue.schedule(100, lambda: fired.append(100))
    queue.run(max_tick=50)
    assert fired == [10]
    assert queue.now == 50
    assert len(queue) == 1
    queue.run()
    assert fired == [10, 100]


def test_negative_delay_rejected():
    with pytest.raises(ValidationError):
        EventQueue().schedule(-1, lambda: None)


def test_reentrant_run_rejected():
    queue = EventQueue()

    def reenter():
        queue.run()

    queue.schedule(0, reenter)
    with pytest.raises(StateError):
        queue.run()


def test_counters():
    queue = EventQueue()
    assert len(queue) == 0
    queue.schedule(1, lambda: None)
    assert len(queue) == 1
    queue.run()
    assert queue.executed_events == 1
    assert len(queue) == 0


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=40))
def test_property_execution_is_sorted(delays):
    queue = EventQueue()
    fired = []
    for delay in delays:
        queue.schedule(delay, lambda d=delay: fired.append(d))
    queue.run()
    assert fired == sorted(delays)
