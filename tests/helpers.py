"""Helpers shared across the test tree."""


def parse_manifest_text(text, source_path=None):
    """Parse and validate manifest text (what ``load_manifest`` does to
    a file's contents)."""
    from repro.pipeline.manifest import Manifest, parse_document_text

    return Manifest.from_document(
        parse_document_text(text), source_path=source_path
    )


#: The storage engine's tuning values: module constants (no caller but
#: a test ever set one), patched per test.
ENGINE_KNOBS = {
    "compact_bytes": "repro.db.engine.segments.COMPACT_BYTES",
    "batch_size": "repro.db.engine.wal.BATCH_SIZE",
}


def set_engine_knobs(monkeypatch, **knobs):
    """Patch storage-engine constants until the test ends."""
    for knob, value in knobs.items():
        monkeypatch.setattr(ENGINE_KNOBS[knob], value)


def result_of(handle, timeout):
    """A process-pool job's result, failing the test (rather than
    hanging it) when the job does not end within ``timeout`` seconds."""
    assert handle.wait(timeout), f"job {handle.task_id} still running"
    return handle.result()


def map_envelopes(pool, envelopes, timeout):
    """Submit every envelope; the results in input order."""
    handles = [pool.submit(envelope) for envelope in envelopes]
    return [result_of(handle, timeout) for handle in handles]


def insert_many(collection, documents):
    """Insert several documents; their ids, in order."""
    return [collection.insert_one(document) for document in documents]


def events_of(log, kind):
    """The ``kind`` events of an event log, in emission order."""
    return [event for event in log.records() if event["kind"] == kind]
