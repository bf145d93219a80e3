"""UUID helpers.

gem5art assigns every artifact and run a UUID.  This module is the one
place they are minted (the determinism lint's sanctioned choke point):
identity that must be stable across processes is a content hash
(:mod:`repro.common.hashing`), never an id from here.
"""

from __future__ import annotations

import uuid


def new_uuid() -> str:
    """Return a fresh random UUID4 string."""
    return str(uuid.uuid4())
