import random
from fractions import Fraction as F

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

    def test_parse_errors(self):
        with pytest.raises(NumericError):
            parse_rational("1/0")
        with pytest.raises(NumericError):
            parse_rational("x")


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
