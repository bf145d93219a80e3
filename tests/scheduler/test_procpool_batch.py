"""Tests for the ProcessPool's delta transport: submission order and
payload interning over one-job wire messages."""

import pytest

from repro import telemetry
from repro.scheduler.procpool import (
    JobEnvelope,
    ProcessPool,
    WorkerJobError,
    intern_ref,
)
from tests.helpers import events_of, map_envelopes, result_of


def test_batched_dispatch_preserves_order_and_results():
    envelopes = [
        JobEnvelope(target="math:factorial", args=(n,)) for n in range(8)
    ]
    with ProcessPool(workers=2) as pool:
        assert map_envelopes(pool, envelopes, timeout=60) == [
            1, 1, 2, 6, 24, 120, 720, 5040,
        ]


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
        with ProcessPool(workers=1) as pool:
            results = map_envelopes(pool, envelopes, timeout=60)
        messages = events_of(session.events, "procpool.dispatch")
    # Every job resolved the interned payload inside the worker...
    assert results == [1000] * 4
    # ...but only the first message carried it; the rest were deltas.
    assert sum(m["attributes"]["interned"] for m in messages) == 1
    first, rest = messages[0], messages[1:]
    assert len(rest) == 3
    assert all(
        m["attributes"]["wire_bytes"] < first["attributes"]["wire_bytes"]
        for m in rest
    )


def test_unshipped_intern_ref_fails_loudly():
    envelope = JobEnvelope(
        target="builtins:len", args=(intern_ref("never-shipped"),)
    )
    with ProcessPool(workers=1) as pool:
        handle = pool.submit(envelope)
        with pytest.raises(WorkerJobError) as excinfo:
            result_of(handle, 60)
    assert "never" in str(excinfo.value)
