"""UUID helpers.

gem5art assigns every artifact and run a UUID.  This module is the one
place they are minted (the determinism lint's sanctioned choke point):
identity that must be stable across processes is a content hash
(:mod:`repro.common.hashing`), never an id from here.

An id is 16 bytes of ``os.urandom`` in the version-4 string form
``str(uuid.uuid4())`` gives (36 lowercase characters), minted without
importing :mod:`uuid`, which brings :mod:`platform` with it.
"""

from __future__ import annotations

import os


def new_uuid() -> str:
    """Return a fresh random UUID4 string."""
    raw = bytearray(os.urandom(16))
    raw[6] = (raw[6] & 0x0F) | 0x40  # version 4
    raw[8] = (raw[8] & 0x3F) | 0x80  # RFC 4122 variant
    text = raw.hex()
    return (
        f"{text[:8]}-{text[8:12]}-{text[12:16]}-{text[16:20]}-{text[20:]}"
    )
