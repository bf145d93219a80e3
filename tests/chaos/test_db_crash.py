"""Crash-recovery chaos tests for the storage engine.

The durability contract under test: every write acknowledged under
``durability=strict`` is present after a crash — whether the process died
mid-append, mid-compaction, or was SIGKILLed for real — and recovery
never resurrects an unacknowledged write.  The generated form of the
contract (every chaos point, every torn-tail class, against a model) is
``tests/db/test_engine_model.py``; these are the named windows.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro import chaos, telemetry
from repro.chaos import WorkerCrashed
from repro.common.errors import FaultInjectedError
from repro.db import Database
from tests.helpers import events_of, set_engine_knobs


def open_db(root):
    return Database("test", root=str(root), durability="strict")


# ----------------------------------------------------- crash mid-write


def test_crash_mid_write_loses_only_unacknowledged(tmp_path):
    """A crash at the WAL append boundary is atomic: acknowledged
    writes persist, the failed write never happened."""
    root = tmp_path / "db"
    db = open_db(root)
    acked = []
    rules = [
        chaos.FaultRule(
            "wal.append", action="crash", after=3, times=1,
            match={"collection": "runs"},
        )
    ]
    with chaos.injected(seed=11, rules=rules) as injector:
        for i in range(6):
            try:
                db["runs"].insert_one({"_id": f"r{i}"})
                acked.append(f"r{i}")
            except WorkerCrashed:
                pass
        assert injector.report()["0:wal.append:crash"]["fired"] == 1
    assert acked == ["r0", "r1", "r2", "r4", "r5"]
    # "Crash": reopen from disk without closing cleanly.
    recovered = open_db(root)
    assert sorted(d["_id"] for d in recovered["runs"].find()) == acked
    # The in-memory view never ran ahead of the log either.
    assert sorted(d["_id"] for d in db["runs"].find()) == acked
    db.close()
    recovered.close()


def test_injected_fault_keeps_memory_and_disk_agreed(tmp_path):
    root = tmp_path / "db"
    db = open_db(root)
    rules = [chaos.FaultRule("wal.append", action="raise", times=2)]
    with chaos.injected(seed=3, rules=rules):
        for i in range(4):
            try:
                db["runs"].insert_one({"_id": f"r{i}"})
            except FaultInjectedError:
                pass
    db.close()
    recovered = open_db(root)
    assert [d["_id"] for d in recovered["runs"].find()] == ["r2", "r3"]
    recovered.close()


# ------------------------------------------- failure mid-housekeeping


@pytest.mark.parametrize(
    "rule",
    [
        chaos.FaultRule("compact.publish", action="raise", times=1),
        chaos.FaultRule("compact.truncate", action="raise", times=1),
    ],
    ids=lambda rule: rule.point,
)
def test_failed_inline_compaction_never_fails_the_write(
    tmp_path, monkeypatch, rule
):
    """Disk must not run ahead of memory: the append that triggers an
    inline compaction is logged before the compaction starts, so its
    failure is an event, not a failed write.  (When housekeeping after
    the append could fail the call, memory dropped a document the log
    kept, a later insert reused its unique key, and the database no
    longer opened.)"""
    set_engine_knobs(monkeypatch, compact_bytes=4096)
    root = tmp_path / "db"
    db = open_db(root)
    db["runs"].create_unique_index("hash")
    with telemetry.session() as session:
        with chaos.injected(seed=13, rules=[rule]):
            for i in range(40):
                db["runs"].insert_one(
                    {"_id": f"r{i}", "hash": f"h{i}", "pad": "x" * 60}
                )
        (failure,) = events_of(session.events, "db.compact.error")
    assert failure["attributes"]["collection"] == "runs"
    assert rule.point in failure["attributes"]["error"]
    # Every insert was acknowledged and is readable ...
    assert db["runs"].count() == 40
    # ... and a later append past the threshold retried the compaction.
    stats = db.storage_stats()["collections"]["runs"]
    assert stats["segment_bytes"] > 0 and stats["wal_bytes"] < 4096
    # An explicit compaction, unlike the inline one, raises to its caller.
    db["runs"].insert_one({"_id": "more", "hash": "more"})
    with chaos.injected(seed=13, rules=[rule]):
        with pytest.raises(FaultInjectedError):
            db.compact()
    recovered = open_db(root)  # opens: memory and disk never disagreed
    assert recovered["runs"].count() == 41
    db.close()
    recovered.close()


# ----------------------------------------------------------- real kill


KILL_SCRIPT = textwrap.dedent(
    """
    import sys
    import repro.db.engine.segments
    from repro.db import Database

    repro.db.engine.segments.COMPACT_BYTES = 512
    db = Database("test", root=sys.argv[1], durability="strict")
    runs = db["runs"]
    i = 0
    while True:
        runs.insert_one({"_id": f"r{i}", "pad": "x" * 16})
        # The insert returned: the write is fsynced and acknowledged.
        print(f"r{i}", flush=True)
        i += 1
    """
)


def test_sigkill_mid_write_loses_no_acknowledged_write(tmp_path):
    """A process SIGKILLed while streaming strict writes reopens with
    every acknowledged write present (the paper-level durability bar)."""
    root = str(tmp_path / "db")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", KILL_SCRIPT, root],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )
    acked = []
    try:
        for line in proc.stdout:
            acked.append(line.strip())
            if len(acked) >= 40:
                break
    finally:
        proc.kill()  # SIGKILL: no atexit, no flush, no close
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL
    assert len(acked) >= 40
    recovered = Database("test", root=root)
    present = {d["_id"] for d in recovered["runs"].find()}
    missing = [run_id for run_id in acked if run_id not in present]
    assert not missing, f"acknowledged writes lost: {missing}"
    recovered.close()
