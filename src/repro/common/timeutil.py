"""Wall-clock helpers.

Monotonic timestamps (``time.monotonic``) are only meaningful within one
process; anything archived in the database must also carry wall-clock time
in a portable form.  ISO-8601 UTC strings sort lexicographically in
chronological order, which is what the query layer relies on.

This module is the *sanctioned choke point* for wall-clock access: the
determinism rules (``repro.analysis.rules_determinism``) forbid raw
``time.time()`` / ``datetime.now()`` everywhere else in the package, so
there is exactly one place to audit — or to fake in a test.
"""

from __future__ import annotations

import datetime
import time


def wall_now() -> float:
    """Current wall-clock time as a ``time.time()`` epoch float.

    The one sanctioned raw wall-clock read; telemetry timestamps and
    anything else that archives real time must come through here.
    """
    return time.time()


def iso_now() -> str:
    """Current UTC wall-clock time as an ISO-8601 string."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def iso_from_timestamp(timestamp: float) -> str:
    """Convert a ``time.time()`` epoch value to an ISO-8601 UTC string."""
    return datetime.datetime.fromtimestamp(
        timestamp, datetime.timezone.utc
    ).isoformat()
