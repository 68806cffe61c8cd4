"""Exact arithmetic over the unit interval: rationals, comparisons, intervals.

Everything here is a pure value, and no floating point is used anywhere.
Truth degrees are `fractions.Fraction` instances in lowest terms.  An
`Interval` holds its endpoints as reduced pairs of `int`s, so the tableau
and the instance rules compare and hash them in `int`; `Fraction` appears
only at its API (`make`, `lo`/`hi`, `contains`, `shift_up`, `pick`).
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd

ZERO = Fraction(0)
ONE = Fraction(1)


class NumericError(ValueError):
    """Malformed rational/interval input."""


_RATIONAL = re.compile(
    r"(?P<int>[+-]?[0-9]+)(?:\.(?P<frac>[0-9]+))?|(?P<num>[+-]?[0-9]+)\s*/\s*(?P<den>[+-]?[0-9]+)",
    re.ASCII,
)


@lru_cache(maxsize=1024)
def parse_rational(text: str) -> Fraction:
    """Parse "a/b", an integer, or an exact decimal string like "0.25".

    Exactly these forms are accepted, in ASCII digits with an optional sign:
    "-3", "0.25", "9 / 12".  Exponents ("1e-3"), digit separators ("1_000")
    and non-ASCII digits are rejected, so no literal can ask for a huge power
    of ten.

    Results are cached per text in a `functools.lru_cache` of 1024 entries:
    model JSON repeats a few hundred degree texts thousands of times, and a
    `Fraction` is immutable, so equal texts may share one.  Errors are not
    cached.  A non-string `text` raises `AttributeError`, or `TypeError` when
    it is unhashable; callers turn either into their own typed error.
    """
    s = text.strip()
    m = _RATIONAL.fullmatch(s)
    if m is None:
        raise NumericError(f"invalid rational literal {text!r}")
    try:
        if m["num"] is not None:
            return Fraction(int(m["num"]), int(m["den"]))
        frac = m["frac"] or ""
        return Fraction(int(m["int"] + frac), 10 ** len(frac))
    except (ValueError, ZeroDivisionError) as exc:
        # ValueError: more digits than int() converts.
        raise NumericError(f"invalid rational literal {text!r}") from exc


def to_fraction(v) -> Fraction:
    """`v` as a Fraction.  Text takes the forms of :func:`parse_rational`.  A
    float is refused: its binary expansion is almost never the value meant
    (0.1 is not 1/10)."""
    if type(v) is Fraction:
        return v
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, float):
        raise NumericError(f"float {v!r} is not exact; pass a Fraction, an int or a string")
    return Fraction(v)


def format_rational(q: Fraction) -> str:
    return str(q)


def bit_length(k: int) -> int:
    """Number of binary digits of a nonnegative integer (0 still takes one)."""
    if k < 0:
        raise NumericError("bit_length of a negative integer")
    return max(1, k.bit_length())


class Comp(Enum):
    """A comparison operator on rationals."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def strict(self) -> bool:
        return self in (Comp.LT, Comp.GT)

    @property
    def is_lower(self) -> bool:
        """True for the ">"-directed operators."""
        return self in (Comp.GT, Comp.GE)

    def dual(self) -> Comp:
        """Flip direction, keep strictness: > to <, >= to <=, and back."""
        return _DUAL[self]

    def holds(self, x: Fraction, y: Fraction) -> bool:
        if self is Comp.LT:
            return x < y
        if self is Comp.LE:
            return x <= y
        if self is Comp.GT:
            return x > y
        return x >= y

    def __str__(self) -> str:
        return self.value


_DUAL = {Comp.LT: Comp.GT, Comp.GT: Comp.LT, Comp.LE: Comp.GE, Comp.GE: Comp.LE}


class Interval:
    """A sub-interval of [0, 1] with independently open/closed endpoints.

    Each endpoint is held as a reduced pair of `int`s, numerator over a
    positive denominator, so that every order test is an `int`
    cross-multiplication and structural equality is value equality.
    Construct through :meth:`make`, :meth:`point` or
    :meth:`from_comparison`, which canonicalize degenerate inputs to the
    single EMPTY value.  The endpoints read as `Fraction`s through `lo` and
    `hi`.  The hash and `is_empty` are computed once, at construction.

    An interval is an immutable value, so an operation whose result equals
    one of its operands, or UNIT, returns that object instead of building a
    new one.  Intervals are compared by value (`==`), never by identity.
    """

    __slots__ = ("_ln", "_ld", "_hn", "_hd", "lo_open", "hi_open", "is_empty", "_hash")

    def __init__(self, ln: int, ld: int, hn: int, hd: int, lo_open: bool, hi_open: bool):
        """Internal: the pairs must be reduced with positive denominators."""
        self._ln, self._ld, self._hn, self._hd = ln, ld, hn, hd
        self.lo_open, self.hi_open = lo_open, hi_open
        self.is_empty = ln * hd > hn * ld
        self._hash = hash((ln, ld, hn, hd, lo_open, hi_open))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Interval:
            return NotImplemented
        return (
            self._hash == other._hash
            and self._ln == other._ln
            and self._ld == other._ld
            and self._hn == other._hn
            and self._hd == other._hd
            and self.lo_open == other.lo_open
            and self.hi_open == other.hi_open
        )

    @property
    def lo(self) -> Fraction:
        return Fraction(self._ln, self._ld)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._hn, self._hd)

    @staticmethod
    def make(lo, hi, lo_open: bool = False, hi_open: bool = False) -> Interval:
        """The interval between `lo` and `hi`; both must lie in [0, 1], also
        when the interval is empty."""
        lo = to_fraction(lo)
        hi = to_fraction(hi)
        # A Fraction is in lowest terms already, over a positive denominator.
        return _checked(*lo.as_integer_ratio(), *hi.as_integer_ratio(), lo_open, hi_open)

    @staticmethod
    def point(q) -> Interval:
        return Interval.make(q, q)

    @staticmethod
    def from_comparison(op: Comp, p: Fraction) -> Interval:
        """The set {x in [0,1] : x op p}."""
        if op.is_lower:
            return Interval.make(p, ONE, lo_open=op.strict)
        return Interval.make(ZERO, p, hi_open=op.strict)

    def endpoint_pairs(self) -> tuple[int, int, int, int]:
        """The endpoints as reduced `int` pairs: lo's numerator and
        denominator, then hi's."""
        return self._ln, self._ld, self._hn, self._hd

    def endpoint_bits(self) -> int:
        """Binary encoding size of both endpoints in lowest terms (a zero
        numerator still takes one digit)."""
        return ((self._ln.bit_length() or 1) + self._ld.bit_length()
                + (self._hn.bit_length() or 1) + self._hd.bit_length())

    def lower_comp(self) -> Comp:
        """The comparison x `op` lo implied by membership on the lower side."""
        return Comp.GT if self.lo_open else Comp.GE

    def upper_comp(self) -> Comp:
        return Comp.LT if self.hi_open else Comp.LE

    def lower_ray(self) -> Interval:
        """The values meeting the lower bound: [lo,1] or (lo,1].

        The bound is vacuous exactly when the ray equals UNIT.  A non-empty
        interval's rays are non-empty, so they need no canonicalization.
        The result may be `self` (when hi is a closed 1) or UNIT (when lo
        is a closed 0); compare it by value.
        """
        if self.is_empty:
            return EMPTY
        if self._hn == self._hd and not self.hi_open:
            return self
        if self._ln == 0 and not self.lo_open:
            return UNIT
        return Interval(self._ln, self._ld, 1, 1, self.lo_open, False)

    def upper_ray(self) -> Interval:
        """The values meeting the upper bound: [0,hi] or [0,hi).

        The result may be `self` (when lo is a closed 0) or UNIT (when hi
        is a closed 1); compare it by value.
        """
        if self.is_empty:
            return EMPTY
        if self._ln == 0 and not self.lo_open:
            return self
        if self._hn == self._hd and not self.hi_open:
            return UNIT
        return Interval(0, 1, self._hn, self._hd, False, self.hi_open)

    def below(self) -> Interval:
        """The values under a non-empty interval: [0,lo) or, for an open lo,
        [0,lo].  With it and `above()` the interval partitions [0, 1]; it is
        EMPTY exactly when the lower bound is vacuous (a closed 0)."""
        if self._ln == 0 and not self.lo_open:
            return EMPTY
        return Interval(0, 1, self._ln, self._ld, False, not self.lo_open)

    def above(self) -> Interval:
        """The values over a non-empty interval: (hi,1] or, for an open hi,
        [hi,1]; EMPTY exactly when the upper bound is vacuous (a closed 1)."""
        if self._hn == self._hd and not self.hi_open:
            return EMPTY
        return Interval(self._hn, self._hd, 1, 1, not self.hi_open, False)

    def contains(self, q: Fraction) -> bool:
        # No value lies between the bounds of an empty interval (lo > hi).
        qn, qd = q.numerator, q.denominator
        x, y = qn * self._ld, self._ln * qd
        if not (x > y if self.lo_open else x >= y):
            return False
        x, y = qn * self._hd, self._hn * qd
        return x < y if self.hi_open else x <= y

    def __contains__(self, q) -> bool:
        return self.contains(to_fraction(q))

    def intersect(self, other: Interval) -> Interval:
        """The values in both intervals.  At equal endpoints the result is
        open where either operand is.  When one operand supplies both
        bounds the result is that operand; compare it by value."""
        if self.is_empty or other.is_empty:
            return EMPTY
        # The operand whose lower bound, openness included, is the
        # result's, and likewise for the upper bound; None where both are.
        x, y = self._ln * other._ld, other._ln * self._ld
        if x != y:
            low = self if x > y else other
        elif self.lo_open != other.lo_open:
            low = self if self.lo_open else other
        else:
            low = None
        x, y = self._hn * other._hd, other._hn * self._hd
        if x != y:
            high = self if x < y else other
        elif self.hi_open != other.hi_open:
            high = self if self.hi_open else other
        else:
            high = None
        if low is None:
            return self if high is None else high
        if high is None or high is low:
            return low
        ln, ld, hn, hd = low._ln, low._ld, high._hn, high._hd
        x, y = ln * hd, hn * ld
        if x > y or (x == y and (low.lo_open or high.hi_open)):
            return EMPTY
        return Interval(ln, ld, hn, hd, low.lo_open, high.hi_open)

    def complement(self) -> Interval:
        """The pointwise image {1 - x : x in I}; openness flags swap sides.

        1 - n/d is (d - n)/d, again in lowest terms."""
        if self.is_empty:
            return EMPTY
        return Interval(self._hd - self._hn, self._hd, self._ld - self._ln, self._ld,
                        self.hi_open, self.lo_open)

    def shift_up(self, c: Fraction) -> Interval:
        """{x + c : x in I, x + c <= 1}, i.e. shift then truncate at 1."""
        if self.is_empty:
            return EMPTY
        cn, cd = c.numerator, c.denominator
        if cn < 0 or cn > cd:
            raise NumericError(f"shift constant {c} outside [0, 1]")
        ln, ld = self._ln * cd + cn * self._ld, self._ld * cd
        if ln > ld or (ln == ld and self.lo_open):
            return EMPTY
        hn, hd = self._hn * cd + cn * self._hd, self._hd * cd
        if hn > hd:
            return _reduced(ln, ld, 1, 1, self.lo_open, False)
        return _reduced(ln, ld, hn, hd, self.lo_open, self.hi_open)

    def pick(self) -> Fraction:
        """A deterministic representative: the midpoint, or the point itself."""
        if self.is_empty:
            raise NumericError("cannot pick from the empty interval")
        if self._ln == self._hn and self._ld == self._hd:
            return Fraction(self._ln, self._ld)
        return Fraction(self._ln * self._hd + self._hn * self._ld, 2 * self._ld * self._hd)

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo},{self.hi}{right}"

    def __repr__(self) -> str:
        return (f"Interval(lo={self.lo!r}, hi={self.hi!r}, "
                f"lo_open={self.lo_open!r}, hi_open={self.hi_open!r})")


def _checked(ln: int, ld: int, hn: int, hd: int, lo_open: bool, hi_open: bool) -> Interval:
    """The interval over the reduced endpoints ln/ld and hn/hd (positive
    denominators), EMPTY when they meet no value; both must lie in [0, 1]."""
    if not (0 <= ln <= ld and 0 <= hn <= hd):
        raise NumericError(
            f"interval endpoints outside [0, 1]: {Fraction(ln, ld)}, {Fraction(hn, hd)}"
        )
    x, y = ln * hd, hn * ld
    if x > y or (x == y and (lo_open or hi_open)):
        return EMPTY
    return Interval(ln, ld, hn, hd, lo_open, hi_open)


def _reduced(ln: int, ld: int, hn: int, hd: int, lo_open: bool, hi_open: bool) -> Interval:
    """The interval over the endpoints ln/ld <= hn/hd (positive
    denominators), each brought to lowest terms."""
    g = gcd(ln, ld)
    if g != 1:
        ln, ld = ln // g, ld // g
    g = gcd(hn, hd)
    if g != 1:
        hn, hd = hn // g, hd // g
    return Interval(ln, ld, hn, hd, lo_open, hi_open)


EMPTY = Interval(1, 1, 0, 1, True, True)
UNIT = Interval(0, 1, 1, 1, False, False)


def parse_interval(text: str) -> Interval:
    """Parse "[a,b]", "(a,b]", "[a,b)", "(a,b)" or "empty"."""
    s = text.strip()
    if s == "empty":
        return EMPTY
    if len(s) < 2 or s[0] not in "([" or s[-1] not in ")]":
        raise NumericError(f"invalid interval literal {text!r}")
    body = s[1:-1]
    if "," not in body:
        raise NumericError(f"invalid interval literal {text!r}")
    lo_text, hi_text = body.split(",", 1)
    lo = parse_rational(lo_text).as_integer_ratio()
    hi = parse_rational(hi_text).as_integer_ratio()
    return _checked(*lo, *hi, s[0] == "(", s[-1] == ")")


def format_interval(interval: Interval) -> str:
    return str(interval)
