import random
from fractions import Fraction as F
from itertools import product
from math import gcd
from time import perf_counter

import pytest
from hypothesis import assume, given, strategies as st

from helpers import (
    NEGATION,
    REFERENCE_EMPTY,
    REFERENCE_UNIT,
    ReferenceInterval,
    is_point,
    is_subset,
    negated_lower_ray,
    negated_upper_ray,
)

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


class TestParseCache:
    def test_errors_are_raised_on_every_call(self):
        # More digits than int() converts (the interpreter's default limit
        # is 4300), so the literal fails after the pattern matched.
        for text in ("1/0", "9" * 5000):
            for _ in range(2):
                with pytest.raises(NumericError):
                    parse_rational(text)

    def test_texts_of_one_value_parse_equal(self):
        assert parse_rational(" 9/12 ") == parse_rational("3/4") == F(3, 4)
        assert parse_rational("3/4") is parse_rational("3/4")
        assert parse_rational.cache_info().maxsize == 1024

    def test_non_strings_raise(self):
        for text in (None, [1]):
            for _ in range(2):
                with pytest.raises((AttributeError, TypeError)):
                    parse_rational(text)


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


class TestSharedResults:
    """An operation whose result equals an operand, or UNIT, returns that
    object; only these tests compare intervals by identity."""

    GRID = [F(0), F(1, 3), F(1, 2), F(1)]
    BUILT = [Interval.make(*args) for args in product(GRID, GRID, (False, True), (False, True))]
    BUILT = [i for i in BUILT if not i.is_empty]

    def test_ray_of_a_ray_is_the_ray(self):
        ray = iv("1/4", 1, lo_open=True)
        assert ray.lower_ray() is ray
        ray = iv(0, "3/4", hi_open=True)
        assert ray.upper_ray() is ray
        for i in self.BUILT:
            low, up = i.lower_ray(), i.upper_ray()
            assert low.lower_ray() is low and up.upper_ray() is up, i

    def test_vacuous_ray_is_unit(self):
        assert iv(0, "1/2").lower_ray() is UNIT
        assert iv("1/2", 1).upper_ray() is UNIT
        assert UNIT.lower_ray() is UNIT and UNIT.upper_ray() is UNIT
        for i in self.BUILT:
            if i != UNIT:
                for ray in (i.lower_ray(), i.upper_ray()):
                    assert (ray == UNIT) == (ray is UNIT), (i, ray)

    def test_intersect_returns_the_operand_with_both_bounds(self):
        a = iv("1/4", "3/4", lo_open=True)
        assert a.intersect(UNIT) is a and UNIT.intersect(a) is a
        inner = iv("1/3", "1/2", hi_open=True)
        assert a.intersect(inner) is inner and inner.intersect(a) is inner
        twin = iv("1/4", "3/4", lo_open=True)
        assert a.intersect(twin) is a and twin.intersect(a) is twin

    def test_intersect_on_a_grid(self):
        for i, j in product(self.BUILT, self.BUILT):
            got = i.intersect(j)
            if got == i:
                assert got is i, (i, j)
            elif got == j:
                assert got is j, (i, j)

    def test_mixed_openness_at_equal_endpoints_is_open(self):
        closed, open_lo = iv("1/4", "3/4"), iv("1/4", 1, lo_open=True)
        for got in (closed.intersect(open_lo), open_lo.intersect(closed)):
            assert got == iv("1/4", "3/4", lo_open=True) and got.lo_open
        closed, open_hi = iv("1/4", "3/4"), iv(0, "3/4", hi_open=True)
        for got in (closed.intersect(open_hi), open_hi.intersect(closed)):
            assert got == iv("1/4", "3/4", hi_open=True) and got.hi_open
        # One operand open at both ends supplies both bounds.
        both = iv("1/4", "3/4", True, True)
        assert closed.intersect(both) is both and both.intersect(closed) is both


class TestCompOps:
    def test_dual_table(self):
        assert Comp.GT.dual() is Comp.LT
        assert Comp.GE.dual() is Comp.LE
        assert Comp.LT.dual() is Comp.GT
        assert Comp.LE.dual() is Comp.GE

    def test_negate_table(self):
        assert NEGATION[Comp.GT] is Comp.LE
        assert NEGATION[Comp.GE] is Comp.LT
        assert NEGATION[Comp.LT] is Comp.GE
        assert NEGATION[Comp.LE] is Comp.GT

    def test_dual_involution(self):
        for op in Comp:
            assert op.dual().dual() is op

    def test_negation_is_logical_complement(self):
        rng = random.Random(7)
        for _ in range(200):
            x, y = F(rng.randint(0, 8), 8), F(rng.randint(0, 8), 8)
            for op in Comp:
                assert NEGATION[op].holds(x, y) == (not op.holds(x, y))


class TestCanonicalization:
    def test_degenerate_to_empty(self):
        assert iv("0.7", "0.3") is EMPTY
        assert iv("0.5", "0.5", lo_open=True) is EMPTY

    def test_out_of_range_rejected(self):
        # Both endpoints are range-checked before emptiness, so an
        # out-of-range endpoint is refused on either side, also when the
        # interval would be empty.
        for lo, hi in [(F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2)), (F(3, 2), F(1, 2)),
                       (F(1, 2), F(-1, 2)), (F(3, 2), F(2))]:
            for make in (Interval.make, ReferenceInterval.make):
                with pytest.raises(NumericError):
                    make(lo, hi)
        for text in ("[3/2,1/2]", "[1/2,-1/2]", "(0,3/2)"):
            with pytest.raises(NumericError, match="outside"):
                parse_interval(text)

    def test_point_is_closed(self):
        p = Interval.point(F(1, 2))
        assert not p.lo_open and not p.hi_open and is_point(p)


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


def fields(i):
    """The six fields an `Interval` is compared and hashed by."""
    return (i._ln, i._ld, i._hn, i._hd, i.lo_open, i.hi_open)


class TestCachedHashAndEmptiness:
    """`Interval` computes its hash and emptiness once; both must equal what
    the six fields give, and the endpoint pairs are in lowest terms."""

    BUILT = every_constructor()

    def test_hash_is_the_field_tuple_hash(self):
        for i in self.BUILT:
            assert hash(i) == hash(fields(i))
            for n, d in ((i._ln, i._ld), (i._hn, i._hd)):
                assert type(n) is int and type(d) is int
                assert d > 0 and gcd(n, d) == 1
            assert (F(i._ln, i._ld), F(i._hn, i._hd)) == (i.lo, i.hi)

    def test_equal_intervals_hash_equal(self):
        by_fields = {}
        for i in self.BUILT:
            j = by_fields.setdefault((i.lo, i.hi, i.lo_open, i.hi_open), i)
            assert i == j and hash(i) == hash(j)
            # A copy built afresh from the same fields is the same set member.
            fresh = Interval(*fields(i))
            assert fresh is not i and fresh == i and hash(fresh) == hash(i)
        assert len(set(self.BUILT)) == len(by_fields)

    def test_is_empty(self):
        for i in self.BUILT:
            assert i.is_empty == (i.lo > i.hi)
        assert EMPTY.is_empty and not UNIT.is_empty
        assert Interval(1, 1, 0, 1, False, False).is_empty

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


# ---------------------------------------------------------------------------
# Parity with the Fraction-endpoint reference
# ---------------------------------------------------------------------------

small_rationals = st.integers(1, 12).flatmap(
    lambda d: st.integers(0, d).map(lambda n: F(n, d))
)


@st.composite
def written(draw, q):
    """`q` in one of the forms `make` accepts: a Fraction, an unreduced
    "n/d" string, an int or a decimal string when exact."""
    forms = [q, f"{q.numerator * 3}/{q.denominator * 3}", str(q)]
    if q.denominator == 1:
        forms.append(q.numerator)
    if 100 % q.denominator == 0:
        hundredths = q.numerator * (100 // q.denominator)
        forms.append(f"{hundredths // 100}.{hundredths % 100:02d}")
    return draw(st.sampled_from(forms))


@st.composite
def paired(draw, steps=3):
    """An `Interval` and its `ReferenceInterval`, built by one constructor
    and then up to `steps` operations, the same on both sides."""
    kind = draw(st.sampled_from(["make", "point", "comparison", "empty", "unit"]))
    if kind == "make":
        x, y = draw(small_rationals), draw(small_rationals)
        flags = draw(st.booleans()), draw(st.booleans())
        pair = Interval.make(x, y, *flags), ReferenceInterval.make(x, y, *flags)
    elif kind == "point":
        q = draw(small_rationals)
        pair = Interval.point(q), ReferenceInterval.point(q)
    elif kind == "comparison":
        op, p = draw(st.sampled_from(list(Comp))), draw(small_rationals)
        pair = Interval.from_comparison(op, p), ReferenceInterval.from_comparison(op, p)
    elif kind == "empty":
        pair = EMPTY, REFERENCE_EMPTY
    else:
        pair = UNIT, REFERENCE_UNIT
    for _ in range(draw(st.integers(0, steps))):
        i, r = pair
        op = draw(st.sampled_from(["lower", "upper", "complement", "shift", "intersect"]))
        if op == "lower":
            pair = i.lower_ray(), r.lower_ray()
        elif op == "upper":
            pair = i.upper_ray(), r.upper_ray()
        elif op == "complement":
            pair = i.complement(), r.complement()
        elif op == "shift":
            c = draw(small_rationals)
            pair = i.shift_up(c), r.shift_up(c)
        else:
            j, s = draw(paired(steps=1))
            pair = i.intersect(j), r.intersect(s)
    return pair


def probes(r):
    """Values near and at the reference's endpoints, and a grid."""
    out = [F(k, 24) for k in range(25)]
    for q in (r.lo, r.hi):
        out += [q, q - F(1, 1000), q + F(1, 1000)]
    return out


def assert_same(i, r):
    assert (i.lo, i.hi, i.lo_open, i.hi_open) == (r.lo, r.hi, r.lo_open, r.hi_open)
    assert i.is_empty == r.is_empty
    assert str(i) == str(r)
    if r.is_empty:
        assert i is EMPTY
        with pytest.raises(NumericError):
            i.pick()
    else:
        assert i.pick() == r.pick()
    for q in probes(r):
        assert i.contains(q) == r.contains(q)


class TestBelowAbove:
    """`below()` and `above()`: the parts of [0, 1] next to an interval,
    over denominators 1 to 12 and all four flag pairs."""

    def test_examples(self):
        assert iv("1/4", "3/4").below() == iv(0, "1/4", hi_open=True)
        assert iv("1/4", "3/4").above() == iv("3/4", 1, lo_open=True)
        assert iv("1/4", "3/4", True, True).below() == iv(0, "1/4")
        assert iv("1/4", "3/4", True, True).above() == iv("3/4", 1)
        assert UNIT.below() is EMPTY and UNIT.above() is EMPTY
        assert iv(0, "1/2", lo_open=True).below() == iv(0, 0)
        assert iv("1/2", 1, hi_open=True).above() == iv(1, 1)

    @given(small_rationals, small_rationals, st.booleans(), st.booleans())
    def test_partition_and_negated_rays(self, x, y, lo_open, hi_open):
        interval = Interval.make(min(x, y), max(x, y), lo_open, hi_open)
        assume(not interval.is_empty)
        below, above = interval.below(), interval.above()
        assert below == negated_lower_ray(interval)
        assert above == negated_upper_ray(interval)
        # A bound is vacuous exactly when nothing lies beyond it.
        assert below.is_empty == (interval.lower_ray() == UNIT)
        assert above.is_empty == (interval.upper_ray() == UNIT)
        for q in probes(interval):
            if F(0) <= q <= F(1):
                parts = [part.contains(q) for part in (below, interval, above)]
                assert parts.count(True) == 1, (interval, q)


class TestReferenceParity:
    """Every constructor and operation agrees with `ReferenceInterval` on
    the endpoints, flags, emptiness, text, pick, membership and inclusion,
    over denominators 1 to 12 and all four flag pairs."""

    @given(small_rationals, small_rationals, st.booleans(), st.booleans())
    def test_make(self, x, y, lo_open, hi_open):
        assert_same(Interval.make(x, y, lo_open, hi_open),
                    ReferenceInterval.make(x, y, lo_open, hi_open))

    @given(small_rationals, st.sampled_from(list(Comp)))
    def test_point_and_comparison(self, q, op):
        assert_same(Interval.point(q), ReferenceInterval.point(q))
        assert_same(Interval.from_comparison(op, q), ReferenceInterval.from_comparison(op, q))

    @given(paired())
    def test_operations(self, pair):
        i, r = pair
        assert_same(i, r)
        assert_same(i.lower_ray(), r.lower_ray())
        assert_same(i.upper_ray(), r.upper_ray())
        assert_same(i.complement(), r.complement())

    @given(paired(), small_rationals)
    def test_shift_up(self, pair, c):
        i, r = pair
        assert_same(i.shift_up(c), r.shift_up(c))

    @given(paired(), paired())
    def test_intersect_and_subset(self, a, b):
        (i, r), (j, s) = a, b
        assert_same(i.intersect(j), r.intersect(s))
        assert is_subset(i, j) == r.is_subset(s)
        assert is_subset(j, i) == s.is_subset(r)

    def test_intersect_and_subset_on_a_grid(self):
        """Every pair over a grid, so every tie of endpoints meets every
        pair of flags."""
        grid = [F(0), F(1, 3), F(1, 2), F(1)]
        built = [(Interval.make(x, y, lo_open, hi_open),
                  ReferenceInterval.make(x, y, lo_open, hi_open))
                 for x, y, lo_open, hi_open in product(grid, grid, (False, True), (False, True))]
        for (i, r), (j, s) in product(built, built):
            assert_same(i.intersect(j), r.intersect(s))
            assert is_subset(i, j) == r.is_subset(s)

    @given(paired(), paired())
    def test_equal_values_equal_intervals(self, a, b):
        """However two intervals were built, they are equal, with equal
        hashes, exactly when their values are."""
        (i, r), (j, s) = a, b
        assert (i == j) == (r == s)
        if r == s:
            assert hash(i) == hash(j)

    @given(small_rationals, small_rationals, st.booleans(), st.booleans(), st.data())
    def test_however_written(self, x, y, lo_open, hi_open, data):
        i = Interval.make(x, y, lo_open, hi_open)
        j = Interval.make(data.draw(written(x)), data.draw(written(y)), lo_open, hi_open)
        assert i == j and hash(i) == hash(j) and fields(i) == fields(j)

    def test_unreduced_forms(self):
        a, b = Interval.make(F(2, 4), 1), Interval.make("1/2", "3/3")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert Interval.make("0.5", 1).shift_up(F(1, 4)) == Interval.make("6/8", 1)
        assert hash(iv("1/4", "1/2").shift_up(F(1, 2))) == hash(iv("3/4", 1))
