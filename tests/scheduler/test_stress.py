"""Concurrency stress: many tasks, many workers, a clean state machine.

Submits a large batch across a wide worker pool with a mix of clean
successes, tasks that fail until their retry budget rescues them, and
tasks that exhaust retries.  The telemetry event log captures every state
transition as it happens, so legality is asserted over the *observed*
sequence, not just the final records.
"""

import collections
import threading

from repro import telemetry
from repro.scheduler import SchedulerApp, TaskState
from repro.scheduler.states import can_transition
from tests.helpers import events_of

TASKS = 240
WORKERS = 8
RETRY_BUDGET = 2


def test_scheduler_stress_state_machine():
    app = SchedulerApp(name="stress", worker_count=WORKERS)
    attempts = collections.defaultdict(int)
    attempts_lock = threading.Lock()

    @app.task(name="stress.work", max_retries=RETRY_BUDGET)
    def work(index: int):
        with attempts_lock:
            attempts[index] += 1
            attempt = attempts[index]
        if index % 3 == 1 and attempt <= 1:
            raise RuntimeError(f"flaky #{index} attempt {attempt}")
        if index % 3 == 2 and attempt <= RETRY_BUDGET + 1:
            raise RuntimeError(f"doomed #{index} attempt {attempt}")
        return index * 2

    with telemetry.session() as session:
        handles = [
            work.apply_async(args=(index,)) for index in range(TASKS)
        ]
        for handle in handles:
            app.backend.wait(handle.task_id, timeout=120.0)
        transitions = events_of(session.events, "task.transition")
        retries_counted = session.metrics.counter(
            "scheduler_task_retries_total"
        ).value()
    app.shutdown()

    # Every task reached a terminal state, and the right one.
    for index, handle in enumerate(handles):
        record = app.backend.record(handle.task_id)
        state = record["state"]
        assert state.is_terminal, (index, state)
        if index % 3 == 2:
            assert state is TaskState.DEAD_LETTER
            assert record["retries"] == RETRY_BUDGET
        else:
            assert state is TaskState.SUCCESS
            assert handle.get() == index * 2
            expected_retries = 1 if index % 3 == 1 else 0
            assert record["retries"] == expected_retries

    # No illegal transition was ever observed, per task, in event order.
    assert transitions, "event log captured no transitions"
    last_state = {}
    for event in transitions:
        attrs = event["attributes"]
        task_id = attrs["task_id"]
        src = TaskState(attrs["src"])
        dst = TaskState(attrs["dst"])
        assert can_transition(src, dst), (task_id, src, dst)
        previous = last_state.get(task_id, TaskState.PENDING)
        assert previous is src, (
            f"observed {src.value}->{dst.value} but task was last seen "
            f"in {previous.value}"
        )
        last_state[task_id] = dst
    assert len(last_state) == TASKS
    assert all(state.is_terminal for state in last_state.values())

    # Retry totals line up across all three books: the per-record
    # counters, the metrics counter, and the task function's own tally.
    flaky = sum(1 for index in range(TASKS) if index % 3 == 1)
    doomed = sum(1 for index in range(TASKS) if index % 3 == 2)
    expected_total_retries = flaky * 1 + doomed * RETRY_BUDGET
    observed = sum(
        app.backend.record(handle.task_id)["retries"]
        for handle in handles
    )
    assert observed == expected_total_retries
    assert retries_counted == expected_total_retries
