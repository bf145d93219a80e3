"""Background compaction: the engine's housekeeping heartbeat.

The usual housekeeping idiom: a single daemon thread wakes
on an interval (or immediately on ``stop()`` via the event), scans every
collection store, and merges any whose sealed-segment count reached the
threshold.  The thread counts heartbeats so tests and ``repro db stats``
can observe liveness, and every pass that actually merged something is
visible through the ``db_compactions_total`` counter.

Compaction errors are recorded as telemetry events and do not kill the
thread — a fault injected at ``compact.publish`` (or a real transient
IO error) leaves the old manifest authoritative, and the next pass
simply retries.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro import telemetry
from repro.chaos import WorkerCrashed
from repro.common.errors import FaultInjectedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.db.engine import StorageEngine

#: Compact a collection once it has accumulated this many sealed segments.
MIN_SEGMENTS = 4

#: Seconds between housekeeping passes.
INTERVAL = 2.0


class Compactor:
    """Periodic segment-merge thread over a :class:`StorageEngine`."""

    def __init__(self, engine: "StorageEngine"):
        self.engine = engine
        self.interval = INTERVAL
        self.min_segments = MIN_SEGMENTS
        self.heartbeats = 0
        self._stop = threading.Event()
        self._thread: threading.Thread = threading.Thread(
            target=self._run, name="db-compactor", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    # ---------------------------------------------------------------- loop

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.heartbeats += 1
            self.run_once()

    def run_once(self) -> int:
        """One housekeeping pass; returns how many collections merged."""
        merged = 0
        for store in self.engine.stores():
            if self._stop.is_set():
                break
            if store.segment_count() < self.min_segments:
                continue
            try:
                result = store.compact()
            except (OSError, FaultInjectedError, WorkerCrashed) as error:
                telemetry.get_event_log().emit(
                    "db.compact.error",
                    collection=store.name,
                    error=str(error),
                )
                continue
            if result["merged"]:
                merged += 1
        return merged
