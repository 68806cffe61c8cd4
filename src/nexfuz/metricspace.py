"""Finite metric label spaces given by explicit rational distance matrices."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import jsonfile
from .numerics import NumericError, format_rational, parse_rational, to_fraction


class MetricSpaceError(ValueError):
    pass


@dataclass(frozen=True)
class MetricSpace:
    labels: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise MetricSpaceError("duplicate labels")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise MetricSpaceError("distance matrix shape does not match labels")
        # Every check below is invariant under a positive scale, so they run in int.
        scale = lcm(*(v.denominator for row in self.matrix for v in row))
        d = [[v.numerator * (scale // v.denominator) for v in row] for row in self.matrix]
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
        for row in d:
            for j, dij in enumerate(row):
                for k, dik in enumerate(row):
                    if dij > dik + d[k][j]:
                        raise MetricSpaceError("triangle inequality violated")

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
            matrix = [[parse_rational(v) for v in row] for row in dist]
        except (AttributeError, TypeError) as exc:
            raise MetricSpaceError("metric space 'dist' must be rows of rationals") from exc
        return MetricSpace.make(labels, matrix)

    @staticmethod
    def load(path: str) -> MetricSpace:
        """The space in a JSON file; a repeated key in any object raises
        `ValueError`."""
        return MetricSpace.from_json(jsonfile.load(path))
