"""Immutable records on __slots__, for results, certificates and small values.

A Record subclass names its fields in __slots__ and sets them in its own
__init__ through _set, which goes past the record's __setattr__.  The
base compares and hashes two records of one class by their fields, in
slot order, writes the repr Name(field=value, ...), and refuses to assign
or delete a field with AttributeError, so a record is shared as freely as
a ring element.  A subclass whose __slots__ is empty adds no field and
keeps its base's, with the base's equality, hash, repr, copy and pickle
(CircleMap and LiftMap on circle.Periodic).  Every method is written out
once here, so importing a record class compiles no generated code.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if cls.__slots__:
            cls._names = cls.__slots__
            # the fields in one call: a tuple, or the value of a single field
            cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a record through its own __init__
        return type(self), tuple(getattr(self, name) for name in self._names)
