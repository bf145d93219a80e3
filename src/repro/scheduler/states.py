"""Task lifecycle states, mirroring Celery's state vocabulary."""

from __future__ import annotations

import enum


class TaskState(str, enum.Enum):
    """States a task moves through from submission to completion."""

    PENDING = "PENDING"
    STARTED = "STARTED"
    RETRY = "RETRY"
    SUCCESS = "SUCCESS"
    FAILURE = "FAILURE"
    TIMEOUT = "TIMEOUT"
    #: Retry/redelivery budget exhausted; the task is parked with a
    #: dead-letter record in the result backend for post-mortem triage.
    DEAD_LETTER = "DEAD_LETTER"

    @property
    def is_terminal(self) -> bool:
        """Whether no further transitions can happen from this state."""
        return self in (
            TaskState.SUCCESS,
            TaskState.FAILURE,
            TaskState.TIMEOUT,
            TaskState.DEAD_LETTER,
        )


#: Transitions the result backend will accept; anything else is a bug.
ALLOWED_TRANSITIONS = {
    # PENDING -> DEAD_LETTER: a message can exhaust its redelivery budget
    # without ever starting when every worker that picks it up crashes
    # before the STARTED transition.
    TaskState.PENDING: {TaskState.STARTED, TaskState.DEAD_LETTER},
    TaskState.STARTED: {
        TaskState.SUCCESS,
        TaskState.FAILURE,
        TaskState.TIMEOUT,
        TaskState.RETRY,
        TaskState.DEAD_LETTER,
    },
    # RETRY -> DEAD_LETTER covers a handed-back task whose redelivery
    # budget ran out on a later delivery that crashed before STARTED.
    TaskState.RETRY: {TaskState.STARTED, TaskState.DEAD_LETTER},
    TaskState.SUCCESS: set(),
    TaskState.FAILURE: set(),
    TaskState.TIMEOUT: set(),
    TaskState.DEAD_LETTER: set(),
}


def can_transition(src: TaskState, dst: TaskState) -> bool:
    """Return True when the state machine permits ``src -> dst``."""
    return dst in ALLOWED_TRANSITIONS[src]
