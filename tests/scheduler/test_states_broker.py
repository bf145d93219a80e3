"""Tests for the task state machine and broker."""

import threading
import time

from hypothesis import given, strategies as st

from repro.scheduler.broker import Broker, TaskMessage
from repro.scheduler.states import (
    ALLOWED_TRANSITIONS,
    TaskState,
    can_transition,
)


def test_terminal_states():
    terminal = {s for s in TaskState if s.is_terminal}
    assert terminal == {
        TaskState.SUCCESS,
        TaskState.FAILURE,
        TaskState.TIMEOUT,
        TaskState.DEAD_LETTER,
    }


def test_pending_can_start():
    assert can_transition(TaskState.PENDING, TaskState.STARTED)


def test_no_transitions_out_of_terminal():
    for state in TaskState:
        if state.is_terminal:
            assert ALLOWED_TRANSITIONS[state] == set()


@given(st.sampled_from(list(TaskState)), st.sampled_from(list(TaskState)))
def test_property_terminal_states_absorb(src, dst):
    if src.is_terminal:
        assert not can_transition(src, dst)


def test_broker_fifo():
    broker = Broker()
    for name in ("a", "b", "c"):
        broker.publish(TaskMessage(task_name=name))
    assert broker.consume(threading.Event()).task_name == "a"
    assert broker.consume(threading.Event()).task_name == "b"
    assert len(broker) == 1


def test_broker_empty_returns_none():
    stopped = threading.Event()
    stopped.set()
    assert Broker().consume(stopped) is None


def test_broker_wake_ends_a_blocked_consume_early():
    broker, stop = Broker(), threading.Event()
    woken = []
    consumer = threading.Thread(
        target=lambda: woken.append(broker.consume(stop))
    )
    consumer.start()
    time.sleep(0.02)  # let it block
    stop.set()
    broker.wake()
    consumer.join(timeout=5.0)
    assert woken == [None]
    # Nothing was dequeued; a message still beats a set stop.
    broker.publish(TaskMessage(task_name="x"))
    assert broker.consume(stop).task_name == "x"


def test_message_ids_unique():
    assert TaskMessage(task_name="x").task_id != (
        TaskMessage(task_name="x").task_id
    )
