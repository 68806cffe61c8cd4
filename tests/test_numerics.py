import random
from fractions import Fraction as F
from itertools import product
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from nexfuz.numerics import (
    Comp,
    EMPTY,
    Interval,
    NumericError,
    UNIT,
    format_interval,
    parse_interval,
    parse_rational,
)
from nexfuz.sequents import Sequent
from nexfuz.syntax import Atom


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval.make(F(lo), F(hi), lo_open, hi_open)


rationals = st.fractions(min_value=0, max_value=1, max_denominator=32)


@st.composite
def intervals(draw):
    if draw(st.integers(0, 9)) == 0:
        return EMPTY
    x = draw(rationals)
    y = draw(rationals)
    lo, hi = min(x, y), max(x, y)
    return Interval.make(lo, hi, draw(st.booleans()), draw(st.booleans()))


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("1/2") == F(1, 2)
        assert parse_rational("0.5") == F(1, 2)
        assert parse_rational("3") == F(3)
        assert parse_rational(" 9/12 ") == F(3, 4)
        assert parse_rational("-3") == F(-3)
        assert parse_rational("+0.250") == F(1, 4)
        assert parse_rational("9 / -12") == F(-3, 4)

    def test_parse_errors(self):
        with pytest.raises(NumericError):
            parse_rational("1/0")
        with pytest.raises(NumericError):
            parse_rational("x")

    @pytest.mark.parametrize(
        "text", ["1e-3", "1e-10000000", "1_000", "\u0661", "1/2/3", "0x10", "5.", ".5", "inf"]
    )
    def test_only_the_documented_forms(self, text):
        # An exponent used to reach Fraction(str), where "1e-10000000" took
        # seconds; the literal must now be refused without any arithmetic.
        start = perf_counter()
        with pytest.raises(NumericError):
            parse_rational(text)
        assert perf_counter() - start < 1.0

    def test_exponent_interval_rejected(self):
        with pytest.raises(NumericError):
            parse_interval("[1e-10000000,1]")


class TestNoFloats:
    def test_make(self):
        with pytest.raises(NumericError):
            Interval.make(0.1, 1)
        with pytest.raises(NumericError):
            Interval.point(0.5)

    def test_contains(self):
        with pytest.raises(NumericError):
            0.5 in UNIT

    def test_exact_inputs_still_coerced(self):
        assert Interval.make(0, 1) == UNIT
        assert Interval.make("1/4", "0.5") == iv("1/4", "1/2")
        assert F(1, 2) in UNIT and 1 in UNIT
        with pytest.raises(NumericError):
            Interval.make("1e-10000000", 1)


class TestComplement:
    def test_swaps_flags(self):
        assert iv("0.2", "0.5", hi_open=True).complement() == iv("0.5", "0.8", lo_open=True)

    def test_unit_symmetric(self):
        assert UNIT.complement() == UNIT

    def test_empty(self):
        assert EMPTY.complement() == EMPTY

    @given(intervals())
    def test_involution(self, i):
        assert i.complement().complement() == i


class TestShift:
    def test_truncates_at_one(self):
        assert iv("0.4", "0.9").shift_up(F(3, 10)) == iv("0.7", "1")

    def test_everything_above_one(self):
        assert iv("0.8", "1", lo_open=True).shift_up(F(3, 10)) == EMPTY

    def test_top_attained(self):
        assert iv("0.5", "0.7").shift_up(F(3, 10)) == iv("0.8", "1")

    @given(intervals())
    def test_zero_shift_is_identity(self, i):
        assert i.shift_up(F(0)) == i

    @given(intervals(), rationals, rationals)
    def test_membership_model(self, i, c, x):
        # x is in I+c iff x-c is in I and x <= 1 (trivially true here).
        assert i.shift_up(c).contains(x) == (x - c >= 0 and i.contains(x - c))


class TestIntersect:
    def test_single_point(self):
        assert iv("0.5", "1").intersect(iv("0", "0.5")) == iv("0.5", "0.5")

    def test_open_endpoint_excludes(self):
        assert iv("0.5", "1").intersect(iv("0", "0.5", hi_open=True)) == EMPTY

    def test_max_min(self):
        got = iv("0.2", "0.8", True, True).intersect(iv("0.4", "1"))
        assert got == iv("0.4", "0.8", hi_open=True)

    @given(intervals(), intervals(), rationals)
    def test_membership_is_ground_truth(self, i, j, x):
        assert (i.contains(x) and j.contains(x)) == i.intersect(j).contains(x)

    @given(intervals(), intervals())
    def test_commutative(self, i, j):
        assert i.intersect(j) == j.intersect(i)

    @given(intervals(), intervals(), intervals())
    def test_associative(self, i, j, k):
        assert i.intersect(j).intersect(k) == i.intersect(j.intersect(k))

    @given(intervals())
    def test_idempotent_and_identity(self, i):
        assert i.intersect(i) == i
        assert i.intersect(UNIT) == i


class TestRays:
    GRID = [F(k, 4) for k in range(5)]

    def test_grid_membership_and_vacuity(self):
        flags = [False, True]
        for lo in self.GRID:
            for hi in self.GRID:
                for lo_open in flags:
                    for hi_open in flags:
                        i = iv(lo, hi, lo_open, hi_open)
                        if i.is_empty:
                            continue
                        low, up = i.lower_ray(), i.upper_ray()
                        for x in self.GRID + [F(1, 8), F(7, 8)]:
                            assert low.contains(x) == (x > lo if lo_open else x >= lo)
                            assert up.contains(x) == (x < hi if hi_open else x <= hi)
                            assert i.contains(x) == (low.contains(x) and up.contains(x))
                        assert (low == UNIT) == (lo == 0 and not lo_open)
                        assert (up == UNIT) == (hi == 1 and not hi_open)
                        assert low.intersect(up) == i

    def test_examples(self):
        assert iv("1/4", "3/4", lo_open=True).lower_ray() == iv("1/4", 1, lo_open=True)
        assert iv("1/4", "3/4", hi_open=True).upper_ray() == iv(0, "3/4", hi_open=True)
        assert iv(1, 1).lower_ray() == iv(1, 1)
        assert iv(0, 0).upper_ray() == iv(0, 0)

    def test_empty(self):
        assert EMPTY.lower_ray() is EMPTY
        assert EMPTY.upper_ray() is EMPTY


class TestCompOps:
    def test_dual_table(self):
        assert Comp.GT.dual() is Comp.LT
        assert Comp.GE.dual() is Comp.LE
        assert Comp.LT.dual() is Comp.GT
        assert Comp.LE.dual() is Comp.GE

    def test_negate_table(self):
        assert Comp.GT.flipped_strictness() is Comp.GE
        assert Comp.GE.flipped_strictness() is Comp.GT
        assert Comp.LT.flipped_strictness() is Comp.LE
        assert Comp.LE.flipped_strictness() is Comp.LT

    def test_dual_involution(self):
        for op in Comp:
            assert op.dual().dual() is op

    def test_negation_is_logical_complement(self):
        rng = random.Random(7)
        for _ in range(200):
            x, y = F(rng.randint(0, 8), 8), F(rng.randint(0, 8), 8)
            for op in Comp:
                assert op.negation().holds(x, y) == (not op.holds(x, y))


class TestCanonicalization:
    def test_degenerate_to_empty(self):
        assert iv("0.7", "0.3") is EMPTY
        assert iv("0.5", "0.5", lo_open=True) is EMPTY

    def test_out_of_range_rejected(self):
        with pytest.raises(NumericError):
            Interval.make(F(-1, 2), F(1, 2))

    def test_point_is_closed(self):
        p = Interval.point(F(1, 2))
        assert not p.lo_open and not p.hi_open and p.is_point


class TestText:
    @given(intervals())
    def test_round_trip(self, i):
        assert parse_interval(format_interval(i)) == i

    def test_examples(self):
        assert format_interval(iv("1/2", "1")) == "[1/2,1]"
        assert parse_interval("(0.2,0.8]") == iv("1/5", "4/5", lo_open=True)
        assert parse_interval("empty") == EMPTY


def every_constructor():
    """Intervals from every constructor, over a small grid, and the derived
    intervals one step on."""
    grid = [F(k, 4) for k in range(5)] + [F(1, 3)]
    flags = [False, True]
    base = [EMPTY, UNIT]
    for lo, hi, lo_open, hi_open in product(grid, grid, flags, flags):
        base.append(Interval.make(lo, hi, lo_open, hi_open))
    for q in grid:
        base.append(Interval.point(q))
        base.extend(Interval.from_comparison(op, q) for op in Comp)
    out = list(base)
    for i in base:
        out += [i.lower_ray(), i.upper_ray(), i.complement()]
        out += [i.shift_up(c) for c in (F(0), F(1, 3), F(1, 2), F(1))]
        out += [i.intersect(j) for j in base[::7]]
    return out


class TestCachedHashAndEmptiness:
    """`Interval` computes its hash and emptiness once; both must equal what
    the four fields give."""

    BUILT = every_constructor()

    def test_hash_is_the_field_tuple_hash(self):
        for i in self.BUILT:
            assert hash(i) == hash((i.lo, i.hi, i.lo_open, i.hi_open))

    def test_equal_intervals_hash_equal(self):
        by_fields = {}
        for i in self.BUILT:
            j = by_fields.setdefault((i.lo, i.hi, i.lo_open, i.hi_open), i)
            assert i == j and hash(i) == hash(j)
            # A copy with fresh Fraction objects is the same set member.
            fresh = Interval(F(i.lo.numerator, i.lo.denominator),
                             F(i.hi.numerator, i.hi.denominator), i.lo_open, i.hi_open)
            assert fresh == i and hash(fresh) == hash(i)
        assert len(set(self.BUILT)) == len(by_fields)

    def test_is_empty(self):
        for i in self.BUILT:
            assert i.is_empty == (i.lo > i.hi)
        assert EMPTY.is_empty and not UNIT.is_empty
        assert Interval(F(1), F(0), False, False).is_empty

    def test_cached_fields_stay_out_of_equality_and_repr(self):
        assert repr(UNIT) == "Interval(lo=Fraction(0, 1), hi=Fraction(1, 1), lo_open=False, hi_open=False)"
        assert Interval.make(F(0), F(1)) == UNIT

    def test_sequent_literal_order(self):
        rng = random.Random(11)
        atoms = [Atom(name) for name in "abc"]
        for _ in range(300):
            lits = [(rng.choice(atoms), rng.choice(self.BUILT)) for _ in range(rng.randint(1, 5))]
            s, t = Sequent(lits), Sequent(reversed(lits))
            assert s == t and hash(s) == hash(t)
