"""The discrete-event core.

A classic calendar queue: events are (tick, sequence, callback) tuples
executed in deterministic order.  Ties break on insertion order, so
simulations replay identically — the property every other determinism
guarantee in this library stands on.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.common.errors import StateError, ValidationError


class EventQueue:
    """A deterministic discrete-event queue measured in ticks."""

    def __init__(self):
        self._heap: List[Tuple[int, int, Callable]] = []
        self._sequence = 0
        self._now = 0
        self._running = False
        self.executed_events = 0

    @property
    def now(self) -> int:
        """Current simulated tick."""
        return self._now

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise ValidationError("cannot schedule into the past")
        heapq.heappush(
            self._heap, (self._now + delay, self._sequence, callback)
        )
        self._sequence += 1

    def run(self, max_tick: Optional[int] = None) -> int:
        """Execute events until the queue drains or ``max_tick`` is passed.

        Returns the final simulated tick.  Callbacks may schedule further
        events.  Re-entrant ``run`` calls are a bug and raise.
        """
        if self._running:
            raise StateError("event queue is already running")
        self._running = True
        try:
            while self._heap:
                tick, _seq, callback = self._heap[0]
                if max_tick is not None and tick > max_tick:
                    self._now = max_tick
                    break
                heapq.heappop(self._heap)
                self._now = tick
                self.executed_events += 1
                callback()
            return self._now
        finally:
            self._running = False

    def __len__(self) -> int:
        return len(self._heap)
