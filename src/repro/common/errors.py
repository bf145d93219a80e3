"""Exception hierarchy shared across the library.

Every subsystem raises subclasses of :class:`ReproError` so callers can catch
library failures without also swallowing programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError):
    """An input value failed validation (bad type, bad range, bad schema)."""


class NotFoundError(ReproError):
    """A requested object (document, file, resource, artifact) is missing."""


class DuplicateError(ReproError):
    """An object violating a uniqueness constraint was inserted."""


class StateError(ReproError):
    """An operation was attempted in an invalid state (e.g. reusing a closed
    database handle, completing a task twice)."""


class CorruptBlobError(ReproError):
    """A stored blob's bytes no longer hash to its content id — the file
    was truncated, bit-flipped, or overwritten outside the store."""


class CorruptRecordError(ReproError):
    """A sealed storage-engine record failed its checksum or framing.

    Torn tails on the *active* WAL are expected after a crash and are
    truncated silently during recovery; damage inside a sealed segment
    means fsynced bytes changed underneath the engine and is fatal."""


class FormatError(ReproError):
    """A database root is stamped with an on-disk format this version
    does not read, or holds data without a stamp.  Raised before any of
    its bytes is touched."""


class FaultInjectedError(ReproError):
    """An error deliberately raised by :mod:`repro.chaos` at an injection
    point.  Recovery code must treat it exactly like the organic failure it
    stands in for; tests match on this type to tell injected faults from
    real bugs."""
