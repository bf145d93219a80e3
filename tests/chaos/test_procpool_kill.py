"""Chaos suite for the process substrate: workers die, shards finish.

The process pool's crash story is the lease/reaper contract from the
thread scheduler, re-applied across a real process boundary: a SIGKILLed
worker stops earning heartbeats, its lease expires, and the job is
redelivered to a respawned worker.  These tests kill workers two ways —
deterministically from inside the job (:func:`repro.sim.testing.
kill_once_job`, the no-race script) and from the parent mid-flight —
and assert the shard completes with results identical to an
uninterrupted run.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro import telemetry
from repro.scheduler.procpool import JobEnvelope, ProcessPool
from repro.sim.testing import boot_shard_job
from tests.helpers import events_of, map_envelopes, result_of


@pytest.fixture(autouse=True)
def short_leases(monkeypatch):
    """A killed worker's lease expires in half a second, not two."""
    monkeypatch.setattr(
        "repro.scheduler.procpool.DEFAULT_PROC_LEASE_TTL", 0.5
    )


def _worker_pids():
    return [child.pid for child in multiprocessing.active_children()]


def _shard(count, repeats=1, telemetry_on=False):
    return [
        JobEnvelope(
            target="repro.sim.testing:boot_shard_job",
            args=({"index": i, "repeats": repeats},),
            telemetry=telemetry_on,
        )
        for i in range(count)
    ]


def test_sigkilled_worker_shard_completes_with_identical_stats(tmp_path):
    """One job SIGKILLs its worker on first delivery; the whole shard
    must still complete, and the killed job's stats fingerprint must be
    bit-identical to an uninterrupted execution of the same work."""
    baseline = boot_shard_job({"index": 0, "repeats": 1})
    assert baseline["ok"]

    sentinel = str(tmp_path / "killed-once")
    shard = [
        JobEnvelope(
            target="repro.sim.testing:kill_once_job",
            args=({"index": 0, "repeats": 1, "sentinel": sentinel},),
        )
    ] + _shard(8)[1:]

    with telemetry.session() as active:
        with ProcessPool(workers=2) as pool:
            results = map_envelopes(pool, shard, timeout=120)

        assert os.path.exists(sentinel)  # the kill really happened
        assert len(results) == 8
        assert all(r["ok"] for r in results)
        # Identical inputs -> identical stats, crash or no crash.
        fingerprints = {r["stats_fingerprint"] for r in results}
        assert fingerprints == {baseline["stats_fingerprint"]}

        # The crash left its evidence trail in the parent's telemetry.
        assert events_of(active.events, "procpool.worker_lost")
        redelivered = events_of(active.events, "procpool.redelivered")
        assert len(redelivered) >= 1
        assert (
            active.metrics.counter("procpool_workers_lost_total").value()
            >= 1
        )
        assert (
            active.metrics.counter("procpool_redeliveries_total").value()
            >= 1
        )
        # The redelivered job was delivered at least twice.
        deliveries = [
            e["attributes"]["delivery"]
            for e in events_of(active.events, "procpool.dispatch")
        ]
        assert max(deliveries) >= 2


def test_parent_side_sigkill_mid_flight_shard_completes():
    """Killing a live worker PID from the parent — the untimed, racy
    variant of the crash — still drains the shard correctly."""
    shard = _shard(6, repeats=50)
    with ProcessPool(workers=2) as pool:
        handles = [pool.submit(envelope) for envelope in shard]
        # Give workers a moment to pick up jobs, then kill one mid-run.
        deadline = time.monotonic() + 10
        pids = _worker_pids()
        while not pids and time.monotonic() < deadline:
            time.sleep(0.02)
            pids = _worker_pids()
        assert pids, "no live workers to kill"
        os.kill(pids[0], signal.SIGKILL)
        results = [result_of(handle, 120) for handle in handles]
    assert [r["index"] for r in results] == list(range(6))
    assert all(r["ok"] for r in results)
    assert len({r["stats_fingerprint"] for r in results}) == 1
