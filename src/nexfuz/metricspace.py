"""Finite metric label spaces given by explicit rational distance matrices.

A space keeps its `Fraction` matrix, and beside it the same distances as
`int` numerators over one scale, built once when the space is made.  The
metric checks run on those `int`s, and so does the metric logic's reach
test.  With zero self-distances and symmetry checked first, the triangle
inequality needs checking only for i < j.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import jsonfile
from .numerics import NumericError, format_rational, parse_rational, to_fraction
from .records import Value


class MetricSpaceError(ValueError):
    pass


class MetricSpace(Value):
    # `scaled` and `scale` are derived from `matrix`, so they take no part in
    # equality, hash or repr: the distances as `int` numerators over `scale`,
    # row-major in one flat tuple, which every witness's space keeps.
    _fields = ("labels", "matrix")
    __slots__ = (*_fields, "scaled", "scale")

    def __init__(self, labels: tuple[str, ...], matrix: tuple[tuple[Fraction, ...], ...]):
        self.labels, self.matrix = labels, matrix
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise MetricSpaceError("duplicate labels")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise MetricSpaceError("distance matrix shape does not match labels")
        # Every check below is invariant under a positive scale, so they run in int.
        ratios = [[v.as_integer_ratio() for v in row] for row in self.matrix]
        scale = lcm(*[q for row in ratios for _, q in row])
        d = [[p * (scale // q) for p, q in row] for row in ratios]
        # Self-distance, sign and symmetry hold everywhere before any triangle
        # is checked, so a negative distance is not reported as a triangle.
        for i, row in enumerate(d):
            if row[i] != 0:
                raise MetricSpaceError(f"nonzero self-distance for {self.labels[i]!r}")
            for j, dij in enumerate(row):
                if dij < 0:
                    raise MetricSpaceError("negative distance")
                if dij != d[j][i]:
                    raise MetricSpaceError("distance matrix is not symmetric")
        # The triangle d(i, j) <= d(i, k) + d(k, j) holds for i = j (0 <= 2 d(i, k)),
        # and the case i > j is the case (j, i) mirrored, so only i < j is
        # checked, reading d(k, j) as d(j, k).
        for i, row in enumerate(d):
            for j in range(i + 1, n):
                dij = row[j]
                for dik, djk in zip(row, d[j]):
                    if dij > dik + djk:
                        raise MetricSpaceError("triangle inequality violated")
        # From a list, so the kept tuple is allocated at its exact size.
        self.scaled = tuple([v for row in d for v in row])
        self.scale = scale

    @staticmethod
    def make(labels, matrix) -> MetricSpace:
        try:
            rows = tuple(tuple(to_fraction(v) for v in row) for row in matrix)
        except NumericError as exc:
            raise MetricSpaceError(str(exc)) from exc
        return MetricSpace(tuple(labels), rows)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise MetricSpaceError(f"unknown label {label!r}") from None

    def dist(self, a: str, b: str) -> Fraction:
        return self.matrix[self.index(a)][self.index(b)]

    def scaled_row(self, label: str) -> tuple[int, ...]:
        """The distances from `label` to every label, in label order, as
        `int` numerators over `scale`."""
        n = len(self.labels)
        start = self.index(label) * n
        return self.scaled[start:start + n]

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "dist": [[format_rational(v) for v in row] for row in self.matrix],
        }

    @staticmethod
    def from_json(data: dict) -> MetricSpace:
        try:
            labels = data["labels"]
            dist = data["dist"]
        except (TypeError, KeyError) as exc:
            raise MetricSpaceError("metric space JSON needs 'labels' and 'dist'") from exc
        if not isinstance(labels, list) or not all(isinstance(m, str) for m in labels):
            raise MetricSpaceError("metric space 'labels' must be a list of strings")
        if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
            raise MetricSpaceError("metric space 'dist' must be rows of rationals")
        try:
            matrix = tuple(tuple(parse_rational(v) for v in row) for row in dist)
        except (AttributeError, TypeError) as exc:
            raise MetricSpaceError("metric space 'dist' must be rows of rationals") from exc
        except NumericError as exc:
            raise MetricSpaceError(str(exc)) from exc
        return MetricSpace(tuple(labels), matrix)

    @staticmethod
    def load(path: str) -> MetricSpace:
        """The space in a JSON file; a repeated key in any object raises
        `ValueError`."""
        return MetricSpace.from_json(jsonfile.load(path))
