"""Shared utilities used by every subsystem of the reproduction.

This package deliberately has no dependencies on the rest of :mod:`repro` so
that any subsystem (database, scheduler, simulator, ...) can import it without
creating cycles.  :class:`TextTable` resolves on first use: a boot
sweep prints no table.
"""

import importlib

from repro.common.errors import (
    ReproError,
    ValidationError,
    NotFoundError,
    DuplicateError,
    StateError,
)
from repro.common.hashing import (
    md5_bytes,
    md5_text,
    md5_file,
    md5_tree,
    sha256_bytes,
)
from repro.common.ids import new_uuid
from repro.common.jsonutil import canonical_dumps, dumps, loads, stable_dumps
from repro.common.rng import RngStream, derive_seed
from repro.common.timeutil import iso_from_timestamp, iso_now
from repro.common.units import (
    GHz,
    TICKS_PER_SECOND,
)

__all__ = [
    "ReproError",
    "ValidationError",
    "NotFoundError",
    "DuplicateError",
    "StateError",
    "md5_bytes",
    "md5_text",
    "md5_file",
    "md5_tree",
    "sha256_bytes",
    "new_uuid",
    "canonical_dumps",
    "stable_dumps",
    "dumps",
    "loads",
    "RngStream",
    "derive_seed",
    "TextTable",
    "iso_from_timestamp",
    "iso_now",
    "GHz",
    "TICKS_PER_SECOND",
]

#: Lazily imported name -> the submodule defining it.
_LAZY = {"TextTable": "tables"}


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
