"""Tableau sequents: finite maps from labelled formulas to truth intervals.

A sequent is kept as a map, so duplicate labels are merged by interval
intersection, in one loop, and each rewrite is one copy of the map.  Entries
with an empty interval are retained rather than eagerly closed, so the axiom
rule of the tableau fires explicitly.  The hash is computed on first use:
the tableau's intermediate sequents are never hashed, only the sequents the
solver memoizes are.  So is the combined size, which only the solver's
statistics read.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from .numerics import Interval, format_interval, parse_interval
from .syntax import Formula, parse, size, to_text


class SequentError(ValueError):
    pass


def _merged(m: dict, literals: Iterable[tuple[Formula, Interval]]) -> dict:
    """`m` with each literal added in turn: a new label goes to the end, and
    a label already present keeps its place, its interval intersected."""
    for label, interval in literals:
        old = m.get(label)
        m[label] = interval if old is None else old.intersect(interval)
    return m


def _of(m: dict[Formula, Interval]) -> Sequent:
    out = Sequent.__new__(Sequent)
    out._map = m
    out._hash = out._size = None
    return out


class Sequent:
    """An immutable map from formulas to intervals, in insertion order."""

    __slots__ = ("_map", "_hash", "_size")

    def __init__(self, literals: Iterable[tuple[Formula, Interval]] = ()):
        self._map = _merged({}, literals)
        self._hash = self._size = None

    def insert(self, label: Formula, interval: Interval) -> Sequent:
        """Add a literal; an existing entry for the label is intersected."""
        return _of(_merged(dict(self._map), ((label, interval),)))

    def replace(self, label: Formula, *literals: tuple[Formula, Interval]) -> Sequent:
        """The sequent without `label`, with `literals` merged in as `insert`
        merges them, in one copy of the map."""
        m = dict(self._map)
        del m[label]
        return _of(_merged(m, literals))

    def __getitem__(self, label: Formula) -> Interval:
        return self._map[label]

    def __contains__(self, label: Formula) -> bool:
        return label in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self) -> Iterator[Formula]:
        return iter(self._map)

    def items(self) -> Iterator[tuple[Formula, Interval]]:
        return iter(self._map.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequent):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{to_text(f)} in {i}" for f, i in self._map.items())
        return "{" + body + "}"

    def combined_size(self) -> int:
        """Sum of literal sizes; each literal adds its formula size, the binary
        sizes of the four interval endpoints, and 3; computed on first use."""
        if self._size is None:
            self._size = sum(
                size(f) + interval.endpoint_bits() + 3 for f, interval in self._map.items()
            )
        return self._size

    def to_json(self) -> dict:
        return {
            "literals": [
                {"formula": to_text(f), "interval": format_interval(i)}
                for f, i in self._map.items()
            ]
        }

    @staticmethod
    def from_json(data: dict) -> Sequent:
        raw = data.get("literals") if isinstance(data, dict) else None
        if not isinstance(raw, list):
            raise SequentError("sequent JSON needs a 'literals' list")
        literals = []
        for entry in raw:
            fields = entry if isinstance(entry, dict) else {}
            formula, interval = fields.get("formula"), fields.get("interval")
            if not isinstance(formula, str) or not isinstance(interval, str):
                raise SequentError(
                    f"sequent literal {entry!r} needs 'formula' and 'interval' strings"
                )
            literals.append((parse(formula), parse_interval(interval)))
        return Sequent(literals)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @staticmethod
    def loads(text: str) -> Sequent:
        return Sequent.from_json(json.loads(text))
