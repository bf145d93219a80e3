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


#: The chaos points at which a sweep writes to its database.
WRITE_POINTS = ("run.status", "wal.append", "filestore.put")


def record_writes():
    """Install (and return) a chaos injector that injects nothing and
    logs ``(point, thread name, names of the threads alive)`` for every
    firing of a :data:`WRITE_POINTS` point — who writes, when, and in
    what company.  The caller's fixture uninstalls it."""
    import threading

    from repro import chaos

    class WriteLog(chaos.ChaosInjector):
        def __init__(self):
            super().__init__(seed=0)
            self.firings = []

        def fire(self, point, **context):
            if point in WRITE_POINTS:
                self.firings.append(
                    (
                        point,
                        threading.current_thread().name,
                        {thread.name for thread in threading.enumerate()},
                    )
                )

    return chaos.install(WriteLog())


#: Runs with this many cores never finish under :func:`wedge_simulations`.
WEDGED_CPUS = 8


def wedged_run_payload(payload):
    """Worker-side run target whose :data:`WEDGED_CPUS`-core simulation
    wedges its worker (imported by dotted path in the worker process)."""
    import time

    from repro.art.procjobs import execute_run_payload

    if payload["params"].get("num_cpus") == WEDGED_CPUS:
        time.sleep(60)
    return execute_run_payload(payload)


def wedge_simulations(monkeypatch, seconds):
    """Make every :data:`WEDGED_CPUS`-core simulation outlive its
    deadline wherever it executes: in this process it takes ``seconds``
    longer (nothing can stop it, so it ends by itself and is recorded
    as past its timeout), in a pool worker it sleeps for a minute (the
    pool kills it at its deadline)."""
    import time

    from repro.art import procjobs, run

    simulate_fs = run._simulate_fs

    def slow(simulator, params, *args):
        if params.get("num_cpus") == WEDGED_CPUS:
            time.sleep(seconds)
        return simulate_fs(simulator, params, *args)

    # Inside ``simulate_run``'s clock, so the delay counts as host time.
    monkeypatch.setattr(run, "_simulate_fs", slow)
    monkeypatch.setattr(
        procjobs, "RUN_TARGET", "tests.helpers:wedged_run_payload"
    )
