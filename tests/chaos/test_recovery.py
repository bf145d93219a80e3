"""Chaos suite: every recovery path actually recovers.

Each test injects a deterministic fault (worker crash, infrastructure
error, repeated crash) and asserts the resilience machinery — the
crashed worker's hand-back, the retry budget, dead-lettering — brings
the system back to a correct terminal state, with the evidence visible
in telemetry.
"""

import threading

import pytest

from repro import chaos, telemetry
from repro.chaos import FaultRule
from repro.common.errors import StateError
from repro.db.filestore import FileStore
from repro.scheduler import SchedulerApp, TaskState
from repro.scheduler.app import DEFAULT_MAX_REDELIVERIES

from tests.helpers import events_of


@pytest.fixture(autouse=True)
def clean_injector():
    yield
    chaos.uninstall()


def test_worker_killed_mid_task_completes_on_another_worker():
    """The headline recovery story: a worker crash must not lose the
    task — the dying delivery hands it back and it finishes on the next
    one."""
    app = SchedulerApp(name="chaos", worker_count=2)
    try:
        @app.task(name="survivor")
        def survivor(x):
            return x * 2

        rules = [FaultRule("task.execute", action="crash", times=1)]
        with telemetry.session() as session:
            with chaos.injected(seed=11, rules=rules) as injector:
                result = survivor.apply_async(args=(21,))
                assert result.get(timeout=10) == 42
            crashes = events_of(session.events, "worker.crashed")
            handed_back = events_of(session.events, "task.redelivered")
        assert result.state is TaskState.SUCCESS
        (crash_stats,) = injector.report().values()
        assert crash_stats["fired"] == 1  # the crash really happened
        assert len(crashes) == 1
        assert crashes[0]["attributes"]["task_id"] == result.task_id
        assert len(handed_back) == 1
        assert handed_back[0]["attributes"]["task_id"] == result.task_id
    finally:
        app.shutdown()


def test_repeated_crashes_dead_letter_and_drain_does_not_hang():
    """A task that kills every worker it touches must exhaust its
    redelivery budget and park — with its waiter returning, not
    wedging."""
    app = SchedulerApp(name="chaos-dl", worker_count=1)
    try:
        @app.task(name="cursed")
        def cursed():
            return "never"

        rules = [
            FaultRule(
                "task.execute", action="crash",
                match={"task_name": "cursed"},
            )
        ]
        with telemetry.session() as session:
            with chaos.injected(seed=13, rules=rules):
                result = cursed.apply_async()
                app.backend.wait(result.task_id, timeout=15.0)
            (parked,) = events_of(session.events, "task.dead_letter")
        assert result.state is TaskState.DEAD_LETTER
        assert parked["attributes"]["task_id"] == result.task_id
        # The first delivery plus every redelivery the budget allows.
        assert (
            parked["attributes"]["deliveries"]
            == DEFAULT_MAX_REDELIVERIES + 1
        )
        record = app.backend.record(result.task_id)
        assert "presumed dead" in record["error"]
        with pytest.raises(StateError, match="DEAD_LETTER"):
            result.get(timeout=1)
    finally:
        app.shutdown()


def test_a_crash_on_the_only_worker_leaves_a_live_worker():
    """After a crash consumed the only worker, later tasks still run."""
    app = SchedulerApp(name="respawn", worker_count=1)
    try:
        @app.task(name="victim")
        def victim():
            return "ok"

        rules = [FaultRule("task.execute", action="crash", times=1)]
        with chaos.injected(seed=17, rules=rules):
            first = victim.apply_async()
            assert first.get(timeout=10) == "ok"
        # A fresh task after the chaos window proves a live worker exists.
        assert victim.apply_async().get(timeout=10) == "ok"
    finally:
        app.shutdown()


def test_injected_filestore_fault_recovered_by_task_retry():
    """Infrastructure faults surface as ordinary retryable task errors."""
    store = FileStore(root=None)
    app = SchedulerApp(name="chaos-fs", worker_count=1)
    try:
        @app.task(name="uploader", max_retries=2)
        def uploader(payload: bytes):
            return store.put_bytes(payload)

        rules = [FaultRule("filestore.put", times=1)]
        with chaos.injected(seed=19, rules=rules):
            result = uploader.apply_async(args=(b"blob",))
            digest = result.get(timeout=10)
        assert store.get_bytes(digest) == b"blob"
        assert app.backend.record(result.task_id)["retries"] == 1
    finally:
        app.shutdown()


def test_injected_backend_fault_recovered_via_redelivery():
    """A fault in the result backend's own transition (the SUCCESS write
    fails after the task body ran) kills the worker; at-least-once
    redelivery re-runs the task and lands the result."""
    calls = []
    lock = threading.Lock()
    app = SchedulerApp(name="chaos-db", worker_count=2)
    try:
        @app.task(name="flaky-commit")
        def flaky_commit():
            with lock:
                calls.append(1)
            return "committed"

        rules = [
            FaultRule(
                "backend.transition", times=1,
                match={"dst": "SUCCESS"},
            )
        ]
        with chaos.injected(seed=23, rules=rules):
            result = flaky_commit.apply_async()
            assert result.get(timeout=10) == "committed"
        assert len(calls) == 2  # at-least-once: body re-ran after the fault
    finally:
        app.shutdown()


def test_retries_replay_identically_from_the_seed():
    """Two replays with the same seed produce identical outcomes and
    retry counts — the reproducibility contract extended to failure
    handling."""

    def replay(chaos_seed: int):
        app = SchedulerApp(name=f"replay-{chaos_seed}", worker_count=1)
        observed = []
        try:
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
                    state = app.backend.wait(handle.task_id, timeout=10)
                    record = app.backend.record(handle.task_id)
                    observed.append((index, state.value, record["retries"]))
            return observed
        finally:
            app.shutdown()

    first = replay(chaos_seed=99)
    assert first == replay(chaos_seed=99)
    assert any(retries for _, _, retries in first), (
        "replay injected no retries — faults never fired"
    )
    assert first != replay(chaos_seed=100)

