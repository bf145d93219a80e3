"""Tests for the task state machine."""

from hypothesis import given, strategies as st

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
