import random
from fractions import Fraction as F
from math import lcm

import pytest

from nexfuz.metricspace import MetricSpace, MetricSpaceError

DENOMINATORS = [1, 2, 3, 4, 5, 6, 7, 9, 10, 12]


def reference_error(labels, matrix):
    """The metric-space check over `Fraction`, loop for loop: the message of
    the first failed check, or None when the matrix is a metric.  Every
    entry's self-distance, sign and symmetry come before any triangle."""
    n = len(labels)
    if len(set(labels)) != n:
        return "duplicate labels"
    if len(matrix) != n or any(len(row) != n for row in matrix):
        return "distance matrix shape does not match labels"
    for i in range(n):
        if matrix[i][i] != 0:
            return f"nonzero self-distance for {labels[i]!r}"
        for j in range(n):
            if matrix[i][j] < 0:
                return "negative distance"
            if matrix[i][j] != matrix[j][i]:
                return "distance matrix is not symmetric"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][j] > matrix[i][k] + matrix[k][j]:
                    return "triangle inequality violated"
    return None


def error_of(labels, matrix):
    try:
        MetricSpace.make(labels, matrix)
    except MetricSpaceError as exc:
        return str(exc)
    return None


def json_error_of(labels, matrix):
    data = {"labels": list(labels), "dist": [[str(v) for v in row] for row in matrix]}
    try:
        MetricSpace.from_json(data)
    except MetricSpaceError as exc:
        return str(exc)
    return None


def rand_q(rng, lo=0, hi=2):
    den = rng.choice(DENOMINATORS)
    return F(rng.randint(lo * den, hi * den), den)


def rand_metric(rng, n):
    """A metric by shortest-path closure of random weights, so many triangles
    hold with equality."""
    d = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rand_q(rng)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def mutate(rng, d):
    """Break or stress one check of the metric `d` in place."""
    n = len(d)
    i, k, j = rng.sample(range(n), 3) if n >= 3 else (0, 1, 1)
    kind = rng.choice(["none", "tight", "over", "under", "asym", "negative", "diagonal"])
    if kind in ("tight", "over", "under") and n >= 3:
        # The triangle i-k-j holding with equality, or failing / holding by
        # a margin of 1/(d1 d2) for the denominators d1, d2 of its two sides.
        total = d[i][k] + d[k][j]
        margin = F(1, d[i][k].denominator * d[k][j].denominator)
        value = {"tight": total, "over": total + margin, "under": total - margin}[kind]
        d[i][j] = d[j][i] = value
    elif kind == "asym":
        d[i][j] += F(rng.choice([-1, 1]), rng.choice(DENOMINATORS))
    elif kind == "negative":
        # On one side only, or on both: a symmetric negative pair as well.
        d[i][j] = -d[j][i] / 2 if d[j][i] else F(-1, rng.choice(DENOMINATORS))
        if rng.random() < 0.5:
            d[j][i] = d[i][j]
    elif kind == "diagonal":
        d[i][i] = rand_q(rng, -1, 1) or F(1, 3)


class TestIntegerCheckParity:
    def test_random_matrices(self):
        rng = random.Random(2024)
        seen = {}
        for _ in range(600):
            n = rng.randint(2, 5)
            labels = [f"l{m}" for m in range(n)]
            matrix = rand_metric(rng, n)
            mutate(rng, matrix)
            expected = reference_error(labels, matrix)
            assert error_of(labels, matrix) == expected, (labels, matrix)
            kind = expected if expected is None else expected.split(" for ")[0]
            seen[kind] = seen.get(kind, 0) + 1
        # Every outcome is exercised, not just acceptance.
        assert set(seen) == {
            None,
            "nonzero self-distance",
            "negative distance",
            "distance matrix is not symmetric",
            "triangle inequality violated",
        }, seen
        assert min(seen.values()) >= 20, seen

    def test_margin_of_one_over_d1_d2(self):
        labels = ["a", "b", "c"]
        ab, bc = F(1, 6), F(3, 10)
        for ac, expected in [(ab + bc, None), (ab + bc + F(1, 60), "triangle inequality violated")]:
            matrix = [[0, ab, ac], [ab, 0, bc], [ac, bc, 0]]
            assert reference_error(labels, matrix) == expected
            assert error_of(labels, matrix) == expected


def break_axiom(rng, d, kind):
    """Make the metric `d` fail the axiom `kind` in place ("valid" keeps it)."""
    n = len(d)
    i, k, j = rng.sample(range(n), 3) if n >= 3 else (0, 0, n - 1)
    positive = F(rng.randint(1, 4), rng.choice(DENOMINATORS))
    if kind == "diagonal":
        d[i][i] = rng.choice([positive, -positive])
    elif kind == "negative":
        d[i][j] = d[j][i] = -positive
    elif kind == "asymmetric":
        d[i][j] += positive
    elif kind == "triangle":
        d[i][j] = d[j][i] = d[i][k] + d[k][j] + F(1, d[i][k].denominator * d[k][j].denominator)


EXPECTED_KIND = {
    "valid": None,
    "diagonal": "nonzero self-distance",
    "negative": "negative distance",
    "asymmetric": "distance matrix is not symmetric",
    "triangle": "triangle inequality violated",
}


class TestOneToFiveLabels:
    def test_each_axiom_broken_at_every_size(self):
        # The check reads d(i, j) <= d(i, k) + d(k, j) only for i < j; it must
        # fail exactly when the full check over every i, j, k does, with its
        # message, whether the space comes from `make` or from JSON.
        rng = random.Random(1517)
        for n in range(1, 6):
            labels = [f"l{m}" for m in range(n)]
            kinds = ["valid", "diagonal"]
            kinds += ["negative", "asymmetric"] if n >= 2 else []
            kinds += ["triangle"] if n >= 3 else []
            for kind in kinds:
                for _ in range(40):
                    d = rand_metric(rng, n)
                    break_axiom(rng, d, kind)
                    expected = reference_error(labels, d)
                    assert expected is None or expected.startswith(EXPECTED_KIND[kind])
                    assert (expected is None) == (kind == "valid")
                    assert error_of(labels, d) == expected, (labels, d)
                    assert json_error_of(labels, d) == expected, (labels, d)

    def test_integer_distances_are_kept_over_one_scale(self):
        rng = random.Random(1518)
        for n in range(1, 6):
            labels = [f"l{m}" for m in range(n)]
            d = rand_metric(rng, n)
            space = MetricSpace.make(labels, d)
            assert space.scale == lcm(*(v.denominator for row in d for v in row))
            assert space.scaled == tuple(v * space.scale for row in d for v in row)
            assert all(type(v) is int for v in space.scaled)
            for label, row in zip(labels, d):
                assert space.scaled_row(label) == tuple(v * space.scale for v in row)
            # Equality, hash and repr read only the labels and the matrix.
            twin = MetricSpace.from_json(space.to_json())
            assert twin == space and hash(twin) == hash(space)
            assert repr(space) == f"MetricSpace(labels={space.labels!r}, matrix={space.matrix!r})"


class TestRejections:
    def test_duplicate_labels(self):
        with pytest.raises(MetricSpaceError, match="duplicate labels"):
            MetricSpace.make(["l", "l"], [[0, 1], [1, 0]])

    def test_shape_mismatch(self):
        with pytest.raises(MetricSpaceError, match="shape"):
            MetricSpace.make(["l", "m"], [[0, 1]])
        with pytest.raises(MetricSpaceError, match="shape"):
            MetricSpace.make(["l", "m"], [[0, 1], [1]])

    def test_negative_distance(self):
        with pytest.raises(MetricSpaceError, match="negative distance"):
            MetricSpace.make(["l", "m"], [[0, F(-1, 2)], [1, 0]])
        # A symmetric negative pair also fails the triangle (l, l, m), which
        # is checked after every sign.
        with pytest.raises(MetricSpaceError, match="negative distance"):
            MetricSpace.make(["l", "m"], [[0, F(-1, 2)], [F(-1, 2), 0]])
        with pytest.raises(MetricSpaceError, match="negative distance"):
            MetricSpace.make(
                ["l", "m", "n"], [[0, 1, 1], [1, 0, F(-1, 3)], [1, F(-1, 3), 0]]
            )

    def test_float_entry(self):
        with pytest.raises(MetricSpaceError, match="float"):
            MetricSpace.make(["l", "m"], [[0, 0.5], [0.5, 0]])

    def test_exponent_entry(self):
        data = {"labels": ["l", "m"], "dist": [["0", "1e-10000000"], ["1e-10000000", "0"]]}
        with pytest.raises(ValueError):
            MetricSpace.from_json(data)


class TestMatrix:
    def test_entries_stay_fractions(self):
        space = MetricSpace.make(["l", "m", "n"], [[0, 1, "1/2"], [1, 0, F(1, 2)], ["0.5", F(1, 2), 0]])
        assert all(type(v) is F for row in space.matrix for v in row)
        assert space.dist("l", "n") == F(1, 2)
