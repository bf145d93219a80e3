"""Record bases: the ``@dataclass`` contract, written once.

A record declares its fields as a tuple (never ``vars(self)``: a
``cached_property`` lives in the instance dict) and sets them in its own
``__init__``; equality, hashing and ``repr`` read that tuple.
"""


class Record:
    """Mutable: equal field by field to its own class, unhashable."""

    _fields = ()
    _unshown = ()  # fields ``repr`` leaves out

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in
                          self._fields if name not in self._unshown)
        return f"{self.__class__.__qualname__}({shown})"


class Frozen(Record):
    """Immutable and hashable: ``__init__`` fills ``vars(self)``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())

    def replace(self, **changes):
        """A copy with ``changes``, checked by ``__init__`` again."""
        values = dict(zip(self._fields, self._values()), **changes)
        return self.__class__(**values)
