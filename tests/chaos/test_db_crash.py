"""Crash-recovery chaos tests for the storage engine.

The durability contract under test: every write acknowledged under
``durability=strict`` is present after a crash — whether the process died
mid-append (torn tail), mid-seal, mid-compaction, or was SIGKILLed for
real — and recovery never resurrects an unacknowledged write or a torn
record (WAL checksums prove it).
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro import chaos
from repro.chaos import FaultRule, WorkerCrashed
from repro.common.errors import FaultInjectedError
from repro.db import Database
from tests.helpers import set_engine_knobs


@pytest.fixture(autouse=True)
def small_segments_no_background_compactor(monkeypatch):
    """Every crash window here is the test's own: nothing compacts
    behind its back, and 128-byte segments make seals frequent."""
    set_engine_knobs(monkeypatch, auto_compact=False, seal_bytes=128)


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


# ------------------------------------------------------ crash mid-seal


def test_crash_mid_seal_recovers_every_write(tmp_path):
    root = tmp_path / "db"
    db = open_db(root)
    rules = [chaos.FaultRule("segment.seal", action="crash", times=1)]
    acked = []
    with chaos.injected(seed=7, rules=rules):
        for i in range(30):
            try:
                db["runs"].insert_one({"_id": f"r{i}", "pad": "x" * 24})
                acked.append(f"r{i}")
            except WorkerCrashed:
                # The insert reached the WAL before the seal started:
                # the write is durable even though the call crashed.
                acked.append(f"r{i}")
    recovered = open_db(root)
    assert sorted(d["_id"] for d in recovered["runs"].find()) == sorted(
        acked
    )
    db.close()
    recovered.close()


# ------------------------------------------------- crash mid-compaction


def test_crash_mid_compaction_keeps_old_manifest(tmp_path):
    root = tmp_path / "db"
    db = open_db(root)
    for i in range(40):
        db["runs"].insert_one({"_id": f"r{i}", "pad": "x" * 24})
    for i in range(0, 40, 2):
        db["runs"].delete_one({"_id": f"r{i}"})
    segments_before = db.storage_stats()["collections"]["runs"][
        "segments"
    ]
    assert segments_before >= 2
    rules = [chaos.FaultRule("compact.publish", action="crash", times=1)]
    with chaos.injected(seed=5, rules=rules):
        with pytest.raises(WorkerCrashed):
            db.compact()
    db.close()
    # The aborted merge left the old manifest authoritative; every
    # acknowledged write replays, the orphan tmp file is swept.
    recovered = open_db(root)
    assert recovered["runs"].count() == 20
    assert recovered["runs"].find_one({"_id": "r1"}) is not None
    assert recovered["runs"].find_one({"_id": "r2"}) is None
    engine_dir = root / "engine" / "runs"
    assert not any(
        name.endswith(".tmp") for name in os.listdir(engine_dir)
    )
    # And a clean retry finishes the job.
    results = recovered.compact()
    assert results["runs"]["merged"] >= 2
    assert (
        recovered.storage_stats()["collections"]["runs"]["segments"] == 1
    )
    assert recovered["runs"].count() == 20
    recovered.close()


def test_crash_after_rename_before_manifest_not_adopted(tmp_path):
    """The second compaction crash window: output already renamed into
    place, manifest not yet republished.  The stranded compact-*.seg
    must be swept on reopen — never adopted behind newer operations —
    so deletes stay deleted and a retry still converges."""
    root = tmp_path / "db"
    db = open_db(root)
    for i in range(40):
        db["runs"].insert_one({"_id": f"r{i}", "pad": "x" * 24})
    rules = [
        chaos.FaultRule("compact.manifest", action="crash", times=1)
    ]
    with chaos.injected(seed=21, rules=rules):
        with pytest.raises(WorkerCrashed):
            db.compact()
    # Acknowledged ops newer than the aborted merge's snapshot.
    for i in range(0, 40, 2):
        db["runs"].delete_one({"_id": f"r{i}"})
    db["runs"].update_one({"_id": "r1"}, {"$set": {"pad": "updated"}})
    db.close()
    recovered = open_db(root)
    assert recovered["runs"].count() == 20
    assert recovered["runs"].find_one({"_id": "r2"}) is None
    assert recovered["runs"].find_one({"_id": "r1"})["pad"] == "updated"
    engine_dir = root / "engine" / "runs"
    stranded = [
        name
        for name in os.listdir(engine_dir)
        if name.startswith("compact-")
    ]
    assert not stranded  # swept as unreferenced, not adopted
    # A clean retry finishes what the crash interrupted.
    results = recovered.compact()
    assert results["runs"]["merged"] >= 2
    assert recovered["runs"].count() == 20
    recovered.close()


def test_background_compactor_survives_injected_faults(tmp_path):
    root = tmp_path / "db"
    db = open_db(root)
    for i in range(40):
        db["runs"].insert_one({"_id": f"r{i}", "pad": "x" * 24})
    compactor = db._engine.compactor  # built but not started here
    rules = [chaos.FaultRule("compact.publish", action="crash", times=1)]
    with chaos.injected(seed=9, rules=rules):
        assert compactor.run_once() == 0  # fault eaten, thread survives
    assert compactor.run_once() == 1  # retry merges
    assert db["runs"].count() == 40
    db.close()


# ----------------------------------------------------------- real kill


KILL_SCRIPT = textwrap.dedent(
    """
    import sys
    import repro.db.engine
    import repro.db.engine.segments
    from repro.db import Database

    repro.db.engine.AUTO_COMPACT = False
    repro.db.engine.segments.SEAL_BYTES = 512
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
