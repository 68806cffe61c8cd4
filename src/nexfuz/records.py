"""Plain value classes: slotted fields with equality, hash and repr.

A subclass names its fields in `_fields`, in constructor order, keeps them
in `__slots__` and sets them in its own `__init__`.  Equality holds between
instances of the same class whose fields are equal, and the repr is the
dataclass format `Name(field=value, ...)`.  A `Record` is unhashable, like a
mutable dataclass; a `Value` is hashed over its fields, like a frozen one,
and nothing assigns to it once built (a convention, as for `Interval`).

`dataclasses` would write these methods for each class by compiling source
at import time, at 0.2-0.6 ms a class: about half of the package's import
time when its bytecode is cached, and more than a typical solve takes.
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
