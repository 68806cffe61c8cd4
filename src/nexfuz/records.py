"""Plain value classes: slotted fields with equality, hash and repr.

A subclass names its fields in `_fields`, in constructor order, keeps them
in `__slots__` and sets them in its own `__init__`.  Equality holds between
instances of the same class whose fields are equal, and the repr is the
dataclass format `Name(field=value, ...)`.  A `Record` is unhashable, like a
mutable dataclass; a `Value` is hashed over its fields, like a frozen one,
and nothing assigns to it once built (a convention, as for `Interval`).  A
slot that is not a field, such as a cache, takes no part in equality, hash
or repr.  `replace` builds a copy through `__init__`, so the copy's cache
starts afresh.

This is the package's one way to write a value class.  `dataclasses` would
write these methods for each class by compiling source at import time, at
0.2-0.6 ms a class, and importing it loads `inspect`, `ast`, `dis` and
`tokenize`: together more than the package's own import time when its
bytecode is cached, and more than a typical solve takes.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"


class Value(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())


def replace(record: Record, **changes) -> Record:
    """A new instance of `record`'s class, built through its `__init__` from
    `record`'s fields with `changes` overriding, as `dataclasses.replace`
    does.  A name in `changes` that is not a field raises `TypeError`."""
    unknown = changes.keys() - set(record._fields)
    if unknown:
        names = ", ".join(sorted(unknown))
        raise TypeError(f"{record.__class__.__qualname__} has no field {names}")
    return record.__class__(*[changes.get(name, getattr(record, name)) for name in record._fields])
