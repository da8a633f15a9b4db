"""Immutable records on __slots__, for results, certificates and small values.

A Record subclass names its fields in __slots__ and nothing else: the
one constructor, Record(*values, **named), sets them by position, in
slot order, or by name, through _set, which goes past the record's
__setattr__, and fills a field left out with self._default(name), here a
TypeError naming the class and the field.  Too many values, an unknown
name or a name given twice is a TypeError too.  The base compares and
hashes two records of one class by their fields, in slot order, writes
the repr Name(field=value, ...), and refuses to assign or delete a field
with AttributeError, so a record is shared as freely as a ring element.
A subclass whose __slots__ is empty adds no field and keeps its base's,
with the base's equality, hash, repr, copy and pickle (CircleMap and
LiftMap on circle.Periodic, whose own constructor checks the table).
Every method is written out once here, so importing a record class
compiles no generated code.
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

    def __init__(self, *values, **named) -> None:
        names = self._names
        rest = names[len(values):]
        if len(values) > len(names):
            raise TypeError(f"{type(self).__qualname__} has {len(names)} fields, "
                            f"not {len(values)}")
        for name in named:
            if name not in rest:
                raise TypeError(f"{type(self).__qualname__} field {name!r} given twice"
                                if name in names else
                                f"{type(self).__qualname__} has no field {name!r}")
        for name, value in zip(names, values):
            _set(self, name, value)
        for name in rest:
            _set(self, name, named[name] if name in named else self._default(name))

    def _default(self, name: str):
        raise TypeError(f"{type(self).__qualname__} missing field {name!r}")

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
