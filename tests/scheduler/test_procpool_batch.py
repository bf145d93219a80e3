"""Tests for the ProcessPool's batched delta transport: wire batches,
payload interning, and crash recovery of partially-complete batches."""

import os
import time

import pytest

from repro import telemetry
from repro.common.errors import ValidationError
from repro.scheduler.procpool import (
    JobEnvelope,
    ProcessPool,
    WorkerJobError,
    intern_ref,
)


def test_invalid_dispatch_batch_rejected():
    with pytest.raises(ValidationError):
        ProcessPool(workers=1, dispatch_batch=0)


def test_batched_dispatch_preserves_order_and_results():
    envelopes = [
        JobEnvelope(target="math:factorial", args=(n,)) for n in range(8)
    ]
    with ProcessPool(workers=2, dispatch_batch=3) as pool:
        assert pool.map_envelopes(envelopes, timeout=60) == [
            1, 1, 2, 6, 24, 120, 720, 5040,
        ]


def test_batches_cut_wire_roundtrips():
    # The sleeper occupies the lone worker while the factorials queue
    # up, so they all travel as one wire batch when it frees up.
    envelopes = [
        JobEnvelope(target="math:factorial", args=(n,)) for n in range(5)
    ]
    with telemetry.session() as session:
        with ProcessPool(workers=1, dispatch_batch=6) as pool:
            sleeper = pool.submit(
                JobEnvelope(target="time:sleep", args=(0.3,))
            )
            deadline = time.monotonic() + 10
            while not session.events.records(kind="procpool.batch"):
                assert time.monotonic() < deadline, "sleeper never shipped"
                time.sleep(0.005)
            pool.map_envelopes(envelopes, timeout=60)
            sleeper.result(timeout=60)
        batches = session.events.records(kind="procpool.batch")
    # Two pickles crossed the pipe: the sleeper, then all five
    # factorials as one batch.
    assert [b["attributes"]["jobs"] for b in batches] == [1, 5]


def test_intern_ships_each_payload_once_per_worker():
    payload = list(range(1000))
    content_hash = "payload-hash"
    envelopes = [
        JobEnvelope(
            target="builtins:len",
            args=(intern_ref(content_hash),),
            shared={content_hash: payload},
        )
        for _ in range(4)
    ]
    with telemetry.session() as session:
        with ProcessPool(workers=1, dispatch_batch=2) as pool:
            results = pool.map_envelopes(envelopes, timeout=60)
        batches = session.events.records(kind="procpool.batch")
    # Every job resolved the interned payload inside the worker...
    assert results == [1000] * 4
    # ...but only the first batch carried it; the rest were deltas.
    assert sum(b["attributes"]["interned"] for b in batches) == 1
    first, rest = batches[0], batches[1:]
    assert rest
    assert all(
        b["attributes"]["wire_bytes"] < first["attributes"]["wire_bytes"]
        for b in rest
    )


def test_unshipped_intern_ref_fails_loudly():
    envelope = JobEnvelope(
        target="builtins:len", args=(intern_ref("never-shipped"),)
    )
    with ProcessPool(workers=1) as pool:
        handle = pool.submit(envelope)
        with pytest.raises(WorkerJobError) as excinfo:
            handle.result(timeout=60)
    assert "never" in str(excinfo.value)


def test_batch_crash_redelivers_only_incomplete_jobs():
    """SIGKILL mid-batch: leases are per-job, so completed jobs keep
    their results and only the unfinished remainder is redelivered."""
    sentinel = os.path.join(
        os.environ.get("PYTEST_TMPDIR", "/tmp"),
        f"procpool-batch-{os.getpid()}-{time.monotonic_ns()}",
    )
    shard = [
        JobEnvelope(
            target="repro.sim.testing:boot_shard_job",
            args=({"index": i, "repeats": 1},),
        )
        for i in range(3)
    ] + [
        JobEnvelope(
            target="repro.sim.testing:kill_once_job",
            args=({"index": 3, "repeats": 1, "sentinel": sentinel},),
        )
    ]
    try:
        with telemetry.session() as session:
            with ProcessPool(
                workers=1, dispatch_batch=4, lease_ttl=0.5
            ) as pool:
                results = pool.map_envelopes(shard, timeout=120)
            redelivered = session.events.records(
                kind="procpool.redelivered"
            )
        assert os.path.exists(sentinel)  # the crash really happened
        assert all(r["ok"] for r in results)
        # Only the killer job (and any batch-mates that died with the
        # worker before producing results) was redelivered — never the
        # whole shard times the redelivery budget.
        assert 1 <= len(redelivered) <= 4
    finally:
        if os.path.exists(sentinel):
            os.unlink(sentinel)
