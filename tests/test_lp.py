import itertools
import random
from fractions import Fraction as F

import pytest

from nexfuz.lp import (
    CapExceeded,
    Constraint,
    EQ,
    LpError,
    feasible,
    simplex_feasible,
    system,
)
from nexfuz.numerics import Comp, NumericError


class TestExamples:
    def test_open_window(self):
        s = system(1)
        s.add([1], Comp.GE, 0)
        s.add([1], Comp.LE, 1)
        s.add([1], Comp.GT, F(1, 2))
        s.add([1], Comp.LT, F(7, 10))
        point = feasible(s)
        assert point is not None
        assert F(1, 2) < point[0] < F(7, 10)

    def test_conflicting_strict_sums(self):
        s = system(2)
        s.add([1, 1], EQ, 1)
        s.add([1, 0], Comp.GT, F(3, 5))
        s.add([0, 1], Comp.GT, F(3, 5))
        assert feasible(s) is None

    def test_convex_weights(self):
        s = system(2)
        s.add([1, 1], EQ, 1)
        s.add([1, 0], Comp.GE, 0)
        s.add([0, 1], Comp.GE, 0)
        s.add([1, 0], Comp.GE, F(1, 2))
        point = feasible(s)
        assert point is not None and s.check(point)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            feasible(system(65))

    def test_order_names_each_variable_once(self):
        s = system(3)
        for order in ([0, 1], [0, 1, 1], [0, 1, 3], [0, 1, 2, 2]):
            with pytest.raises(LpError):
                feasible(s, order=order)
        assert feasible(s, order=[2, 0, 1]) == [0, 0, 0]

    def test_variables_are_free(self):
        # Elimination's variables are free and the simplex's nonnegative;
        # a sign condition is an ordinary row.
        s = system(1)
        s.add([1], Comp.LE, F(-1, 2))
        assert feasible(s) == [F(-1, 2)]
        assert simplex_feasible(s) is None
        s.add([1], Comp.GE, 0)
        assert feasible(s) is None
        assert simplex_feasible(s) is None

    def test_add_reads_exact_numbers_and_known_relations(self):
        s = system(1)
        for rel in (EQ, *Comp):
            s.add([F(1, 2)], rel, "1/4")
            s.add(["1/2"], rel, 0)
        assert s.constraints[0] == Constraint((F(1, 2),), EQ, F(1, 4))
        with pytest.raises(NumericError):
            s.add([0.1], Comp.LE, F(3, 10))
        with pytest.raises(NumericError):
            s.add([F(1, 10)], Comp.LE, 0.3)
        for rel in ("<=", "=", None):
            with pytest.raises(LpError):
                s.add([1], rel, 1)
        with pytest.raises(LpError):
            Constraint((F(1),), "<", F(1))
        assert len(s.constraints) == 10

    def test_direct_constraint_is_read_exactly(self):
        # A constraint built directly, not through `add`, is read by
        # `to_fraction` too: a float is refused, and text is exact.
        with pytest.raises(NumericError):
            Constraint((0.1,), Comp.LE, F(3, 10))
        with pytest.raises(NumericError):
            Constraint((F(1, 10),), Comp.LE, 0.3)
        s = system(1)
        s.constraints.append(Constraint(("1/10",), Comp.LE, "3/10"))
        s.constraints.append(Constraint((1,), Comp.GE, 3))
        assert s.constraints[0] == Constraint((F(1, 10),), Comp.LE, F(3, 10))
        assert all(type(v) is F for c in s.constraints for v in (*c.coeffs, c.rhs))
        assert feasible(s) == [F(3)]
        assert simplex_feasible(s) == [F(3)]

    def test_row_arity_is_checked_on_entry(self):
        s = system(2)
        s.add([1, 1], Comp.LE, 1)
        with pytest.raises(LpError, match="arity"):
            s.add([1], Comp.LE, 1)
        for coeffs in ((1,), (1, 1, 1)):
            s.constraints.append(Constraint(coeffs, Comp.LE, 1))
            for engine in (feasible, simplex_feasible):
                with pytest.raises(LpError, match="arity"):
                    engine(s)
            s.constraints.pop()
        assert feasible(s) is not None and simplex_feasible(s) is not None

    def test_equality_only(self):
        s = system(2)
        s.add([1, 1], EQ, 1)
        s.add([1, -1], EQ, 0)
        point = feasible(s)
        assert point == [F(1, 2), F(1, 2)]


def _boxed(num_vars: int):
    """A system over `num_vars` variables, each boxed into [0, 1]."""
    s = system(num_vars)
    for j in range(num_vars):
        row = [0] * num_vars
        row[j] = 1
        s.add(row, Comp.GE, 0)
        s.add(row, Comp.LE, 1)
    return s


def _random_system(rng: random.Random, num_vars: int, max_den: int = 8):
    s = _boxed(num_vars)
    for _ in range(rng.randint(1, 4)):
        coeffs = [F(rng.randint(-2, 2)) for _ in range(num_vars)]
        rhs = F(rng.randint(-max_den, max_den), max_den)
        rel = rng.choice([Comp.LE, Comp.LT, Comp.GE, Comp.GT, EQ])
        s.add(coeffs, rel, rhs)
    return s


def _equality_systems():
    """Boxed systems on the edge cases of equalities, each with its verdict:
    an all-zero equality, a repeated one, contradictory ones, and equalities
    next to strict rows."""
    cases = [
        (1, [([0], EQ, 0)], True),
        (1, [([0], EQ, F(1, 2))], False),
        (2, [([1, 1], EQ, F(1, 2)), ([1, 1], EQ, F(1, 2))], True),
        (2, [([1, 1], EQ, 1), ([1, 1], EQ, F(1, 2))], False),
        (2, [([1, 1], EQ, 1), ([1, 0], Comp.GT, F(1, 2))], True),
        (2, [([1, -1], EQ, 0), ([1, -1], Comp.LT, 0)], False),
        (1, [([2], EQ, 1), ([1], Comp.LT, F(1, 2))], False),
        (3, [([1, 1, 1], EQ, 1), ([1, -1, 0], EQ, 0), ([0, 1, -1], Comp.GT, 0)], True),
    ]
    out = []
    for n, rows, verdict in cases:
        s = _boxed(n)
        for row in rows:
            s.add(*row)
        out.append((s, verdict))
    return out


def _grid_point(s, num_vars, density: int):
    axis = [F(k, density) for k in range(density + 1)]
    for point in itertools.product(axis, repeat=num_vars):
        if s.check(list(point)):
            return list(point)
    return None


class TestAgainstGrid:
    """Grid search over the [0,1] box as a one-sided oracle: any grid point
    proves feasibility, so the engine must agree on every grid hit, and an
    engine witness must re-substitute; the engine reporting None implies the
    grid finds nothing."""

    def test_small_systems(self):
        rng = random.Random(101)
        for _ in range(120):
            n = rng.randint(1, 3)
            s = _random_system(rng, n)
            got = feasible(s)
            grid = _grid_point(s, n, 8)
            if grid is not None:
                assert got is not None
            if got is None:
                assert grid is None
            else:
                assert s.check(got)


class TestOrderIndependence:
    def test_permuted_elimination_agrees(self):
        rng = random.Random(55)
        cases = [(_random_system(rng, rng.randint(1, 3)), None) for _ in range(150)]
        for s, verdict in cases + _equality_systems():
            base = feasible(s)
            assert verdict is None or (base is not None) == verdict
            for order in itertools.permutations(range(s.num_vars)):
                other = feasible(s, order=list(order))
                assert (other is None) == (base is None)
                if other is not None:
                    assert s.check(other)


class TestMonotone:
    def test_adding_constraints_never_creates_feasibility(self):
        rng = random.Random(77)
        for _ in range(100):
            n = rng.randint(1, 3)
            s = _random_system(rng, n)
            before = feasible(s) is not None
            extra = _random_system(rng, n)
            s.constraints.extend(extra.constraints)
            after = feasible(s) is not None
            assert not (not before and after)


class TestSimplexAgreement:
    def test_matches_elimination(self):
        # `_random_system` boxes every variable into [0, 1], so the
        # simplex's nonnegative variables lose no solution.
        rng = random.Random(909)
        systems = [_random_system(rng, rng.randint(1, 3)) for _ in range(150)]
        for s in systems + [s for s, _ in _equality_systems()]:
            a = feasible(s)
            b = simplex_feasible(s)
            assert (a is None) == (b is None)
            for point in (a, b):
                if point is not None:
                    assert s.check(point)

    def test_nonneg_matches_explicit_rows(self):
        # The simplex's variables are always nonnegative; elimination's are
        # free, so it solves the system with x_j >= 0 rows added.  The
        # random rows carry no box, so the sign decides some verdicts.
        rng = random.Random(910)
        sign_decided = 0
        for _ in range(200):
            n = rng.randint(1, 3)
            s = system(n)
            for _ in range(rng.randint(1, 4)):
                coeffs = [F(rng.randint(-2, 2)) for _ in range(n)]
                rel = rng.choice([Comp.LE, Comp.LT, Comp.GE, Comp.GT, EQ])
                s.add(coeffs, rel, F(rng.randint(-8, 8), 8))
            free = feasible(s) is not None
            b = simplex_feasible(s)
            for j in range(n):
                s.add([1 if k == j else 0 for k in range(n)], Comp.GE, 0)
            a = feasible(s)
            assert (a is None) == (b is None)
            for point in (a, b):
                if point is not None:
                    assert s.check(point)
            sign_decided += free and a is None
        assert sign_decided > 0

    def test_strict_only_at_boundary(self):
        s = system(1)
        s.add([1], Comp.GE, F(1, 2))
        s.add([1], Comp.LE, F(1, 2))
        assert simplex_feasible(s) is not None
        s.add([1], Comp.GT, F(1, 2) - F(1, 2))  # x > 0 fine
        assert simplex_feasible(s) is not None
        s.add([1], Comp.GT, F(1, 2))  # x > 1/2 with x == 1/2 pinned
        assert simplex_feasible(s) is None

