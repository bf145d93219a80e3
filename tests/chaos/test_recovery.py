"""Chaos suite: every recovery path actually recovers.

Each test injects a deterministic fault (a crashed delivery, an
infrastructure error, a seeded stream of failures) and asserts the
resilience machinery — the retry budget, a crashed delivery settled as
a failure — brings the system back to a correct terminal state.
"""

import pytest

from repro import chaos
from repro.chaos import FaultRule
from repro.common.errors import StateError
from repro.db.filestore import FileStore
from repro.scheduler import SchedulerApp, TaskState


@pytest.fixture(autouse=True)
def clean_injector():
    yield
    chaos.uninstall()


def test_a_crash_on_the_only_worker_leaves_a_live_worker():
    """A crashed delivery ends its task FAILURE, naming the crash, and
    is not retried; the app then runs the next task as usual."""
    app = SchedulerApp(name="respawn")

    @app.task(name="victim", max_retries=2)
    def victim():
        return "ok"

    rules = [FaultRule("task.run", action="crash", times=1)]
    with chaos.injected(seed=17, rules=rules) as injector:
        first = victim.apply_async()
        with pytest.raises(StateError, match="WorkerCrashed"):
            first.get()
        assert victim.apply_async().get() == "ok"
    (crash_stats,) = injector.report().values()
    assert crash_stats["fired"] == 1
    record = app.backend.record(first.task_id)
    assert record["state"] is TaskState.FAILURE
    assert record["retries"] == 0


def test_injected_filestore_fault_recovered_by_task_retry():
    """Infrastructure faults surface as ordinary retryable task errors."""
    store = FileStore(root=None)
    app = SchedulerApp(name="chaos-fs")

    @app.task(name="uploader", max_retries=2)
    def uploader(payload: bytes):
        return store.put_bytes(payload)

    rules = [FaultRule("filestore.put", times=1)]
    with chaos.injected(seed=19, rules=rules):
        result = uploader.apply_async(args=(b"blob",))
        digest = result.get()
    assert store.get_bytes(digest) == b"blob"
    assert app.backend.record(result.task_id)["retries"] == 1


def test_retries_replay_identically_from_the_seed():
    """Two replays with the same seed produce identical outcomes and
    retry counts — the reproducibility contract extended to failure
    handling."""

    def replay(chaos_seed: int):
        app = SchedulerApp(name=f"replay-{chaos_seed}")
        observed = []
        tasks = []
        for index in range(8):
            @app.task(name=f"work-{index}", max_retries=3)
            def work(value=index):
                return value
            tasks.append(work)
        rules = [FaultRule("task.run", probability=0.6)]
        with chaos.injected(chaos_seed, rules):
            for index, task in enumerate(tasks):
                handle = task.apply_async()
                record = app.backend.record(handle.task_id)
                observed.append(
                    (index, record["state"].value, record["retries"])
                )
        return observed

    first = replay(chaos_seed=99)
    assert first == replay(chaos_seed=99)
    assert any(retries for _, _, retries in first), (
        "replay injected no retries — faults never fired"
    )
    assert first != replay(chaos_seed=100)
