"""Unit tests for the retry state machine."""

import pytest

from repro.common.errors import StateError
from repro.scheduler import ResultBackend, TaskState


def test_retry_state_can_restart_and_dead_letter_is_terminal():
    backend = ResultBackend()
    backend.create("t1", "t")
    backend.transition("t1", TaskState.STARTED)
    backend.transition("t1", TaskState.RETRY)
    with pytest.raises(StateError):
        backend.transition("t1", TaskState.DEAD_LETTER)
    backend.transition("t1", TaskState.STARTED)  # RETRY -> STARTED legal
    backend.transition("t1", TaskState.DEAD_LETTER)
    assert backend.state("t1").is_terminal
    with pytest.raises(StateError):
        backend.transition("t1", TaskState.STARTED)
    with pytest.raises(StateError):
        backend.transition("t1", TaskState.SUCCESS)
