"""Exact arithmetic over the unit interval: rationals, comparisons, intervals.

Everything here is a pure value.  All truth degrees are `fractions.Fraction`
instances in lowest terms; no floating point is used anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class NumericError(ValueError):
    """Malformed rational/interval input."""


_RATIONAL = re.compile(
    r"(?P<int>[+-]?[0-9]+)(?:\.(?P<frac>[0-9]+))?|(?P<num>[+-]?[0-9]+)\s*/\s*(?P<den>[+-]?[0-9]+)",
    re.ASCII,
)


def parse_rational(text: str) -> Fraction:
    """Parse "a/b", an integer, or an exact decimal string like "0.25".

    Exactly these forms are accepted, in ASCII digits with an optional sign:
    "-3", "0.25", "9 / 12".  Exponents ("1e-3"), digit separators ("1_000")
    and non-ASCII digits are rejected, so no literal can ask for a huge power
    of ten.
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


def parse_unit_rational(text: str) -> Fraction:
    """Parse a rational that must lie in [0, 1]."""
    q = parse_rational(text)
    if not ZERO <= q <= ONE:
        raise NumericError(f"rational {text!r} outside [0, 1]")
    return q


def format_rational(q: Fraction) -> str:
    return str(q)


def bit_length(k: int) -> int:
    """Number of binary digits of a nonnegative integer (0 still takes one)."""
    if k < 0:
        raise NumericError("bit_length of a negative integer")
    return max(1, k.bit_length())


def rational_bits(q: Fraction) -> int:
    """Binary encoding size of a nonnegative rational in lowest terms."""
    return bit_length(q.numerator) + bit_length(q.denominator)


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

    def flipped_strictness(self) -> Comp:
        """Keep direction, flip strictness: > to >=, >= to >, and so on."""
        return _FLIP[self]

    def negation(self) -> Comp:
        """The operator c with (x c y) == not (x self y)."""
        return self.flipped_strictness().dual()

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
_FLIP = {Comp.LT: Comp.LE, Comp.LE: Comp.LT, Comp.GT: Comp.GE, Comp.GE: Comp.GT}


@dataclass(frozen=True)
class Interval:
    """A sub-interval of [0, 1] with independently open/closed endpoints.

    Construct through :meth:`make`, which canonicalizes degenerate inputs to
    the single EMPTY value so that equality is structural.  The hash and
    `is_empty` are computed once, at construction; the hash is the one the
    dataclass would compute from the four fields.
    """

    lo: Fraction
    hi: Fraction
    lo_open: bool
    hi_open: bool
    is_empty: bool = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_empty", self.lo > self.hi)
        object.__setattr__(self, "_hash", hash((self.lo, self.hi, self.lo_open, self.hi_open)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def make(lo, hi, lo_open: bool = False, hi_open: bool = False) -> Interval:
        lo = to_fraction(lo)
        hi = to_fraction(hi)
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return EMPTY
        if lo < ZERO or hi > ONE:
            raise NumericError(f"interval endpoints outside [0, 1]: {lo}, {hi}")
        return Interval(lo, hi, lo_open, hi_open)

    @staticmethod
    def point(q) -> Interval:
        return Interval.make(q, q)

    @staticmethod
    def from_comparison(op: Comp, p: Fraction) -> Interval:
        """The set {x in [0,1] : x op p}."""
        if op.is_lower:
            return Interval.make(p, ONE, lo_open=op.strict)
        return Interval.make(ZERO, p, hi_open=op.strict)

    @property
    def is_point(self) -> bool:
        return not self.is_empty and self.lo == self.hi

    def lower_comp(self) -> Comp:
        """The comparison x `op` lo implied by membership on the lower side."""
        return Comp.GT if self.lo_open else Comp.GE

    def upper_comp(self) -> Comp:
        return Comp.LT if self.hi_open else Comp.LE

    def lower_ray(self) -> Interval:
        """The values meeting the lower bound: [lo,1] or (lo,1].

        The bound is vacuous exactly when the ray is UNIT.  A non-empty
        interval's rays are non-empty, so they need no canonicalization.
        """
        if self.is_empty:
            return EMPTY
        return Interval(self.lo, ONE, self.lo_open, False)

    def upper_ray(self) -> Interval:
        """The values meeting the upper bound: [0,hi] or [0,hi)."""
        if self.is_empty:
            return EMPTY
        return Interval(ZERO, self.hi, False, self.hi_open)

    def contains(self, q: Fraction) -> bool:
        # No value lies between the bounds of an empty interval (lo > hi).
        if not (q > self.lo if self.lo_open else q >= self.lo):
            return False
        return q < self.hi if self.hi_open else q <= self.hi

    def __contains__(self, q) -> bool:
        return self.contains(to_fraction(q))

    def intersect(self, other: Interval) -> Interval:
        if self.is_empty or other.is_empty:
            return EMPTY
        if self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo > self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi < self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        return Interval.make(lo, hi, lo_open, hi_open)

    def complement(self) -> Interval:
        """The pointwise image {1 - x : x in I}; openness flags swap sides."""
        if self.is_empty:
            return EMPTY
        return Interval.make(ONE - self.hi, ONE - self.lo, self.hi_open, self.lo_open)

    def shift_up(self, c: Fraction) -> Interval:
        """{x + c : x in I, x + c <= 1}, i.e. shift then truncate at 1."""
        if self.is_empty:
            return EMPTY
        if not ZERO <= c <= ONE:
            raise NumericError(f"shift constant {c} outside [0, 1]")
        lo = self.lo + c
        if lo > ONE or (lo == ONE and self.lo_open):
            return EMPTY
        hi = self.hi + c
        if hi > ONE:
            return Interval.make(lo, ONE, self.lo_open, False)
        return Interval.make(lo, hi, self.lo_open, self.hi_open)

    def pick(self) -> Fraction:
        """A deterministic representative: the midpoint, or the point itself."""
        if self.is_empty:
            raise NumericError("cannot pick from the empty interval")
        if self.lo == self.hi:
            return self.lo
        return (self.lo + self.hi) / 2

    def is_subset(self, other: Interval) -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        return self.intersect(other) == self

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo},{self.hi}{right}"


EMPTY = Interval(ONE, ZERO, True, True)
UNIT = Interval(ZERO, ONE, False, False)


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
    lo = parse_unit_rational(lo_text)
    hi = parse_unit_rational(hi_text)
    return Interval.make(lo, hi, lo_open=s[0] == "(", hi_open=s[-1] == ")")


def format_interval(interval: Interval) -> str:
    return str(interval)
