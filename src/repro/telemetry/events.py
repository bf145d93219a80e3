"""The structured event log: an append-only record of what happened.

Where spans answer "where did the time go", events answer "what state
changes occurred, in what order": task transitions, retries, fault-model
verdicts, experiment milestones.  Each event carries a process-unique
sequence number (total order even when wall clocks tie), both clock kinds,
an event ``kind`` and free-form attributes.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List

from repro.common.timeutil import iso_from_timestamp, wall_now


class EventLog:
    """Append-only log of structured events."""

    def __init__(self):
        self._events: List[Dict[str, Any]] = []
        self._sequence = 0

    def emit(self, kind: str, **attributes: Any) -> Dict[str, Any]:
        """Append one event and return its record."""
        wall = wall_now()
        self._sequence += 1
        event = {
            "seq": self._sequence,
            "kind": kind,
            "wall": wall,
            "wall_iso": iso_from_timestamp(wall),
            "mono": time.perf_counter(),
            "thread": threading.current_thread().name,
            "attributes": dict(attributes),
        }
        self._events.append(event)
        return event

    def absorb(
        self, records: List[Dict[str, Any]], **extra: Any
    ) -> List[Dict[str, Any]]:
        """Append events recorded elsewhere (a worker process's log).

        The incoming records keep their own wall/mono timestamps and
        thread names — those describe where the event actually happened
        — but are re-sequenced into this log's total order.  ``extra``
        attributes (e.g. ``worker="procpool-worker-2"``) are stamped
        onto every absorbed event for attribution.
        """
        absorbed = []
        for record in records:
            self._sequence += 1
            event = dict(record)
            event["seq"] = self._sequence
            attributes = dict(record.get("attributes", {}))
            attributes.update(extra)
            event["attributes"] = attributes
            self._events.append(event)
            absorbed.append(dict(event))
        return absorbed

    def records(self) -> List[Dict[str, Any]]:
        """Snapshot of every event, in order."""
        return [dict(e) for e in self._events]

    def __len__(self) -> int:
        return len(self._events)
