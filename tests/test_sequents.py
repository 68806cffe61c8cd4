import json
from fractions import Fraction as F

import pytest

from helpers import is_exact_over, is_subsequent

from nexfuz.numerics import EMPTY, Interval, UNIT
from nexfuz.sequents import Sequent, SequentError
from nexfuz.syntax import Atom, parse

A = Atom("a")
B = Atom("b")
C = Atom("c")
D = Atom("d")


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval.make(F(lo), F(hi), lo_open, hi_open)


class TestInsert:
    def test_merges_by_intersection(self):
        s = Sequent([(A, iv(0, "1/2")), (B, UNIT)])
        t = s.insert(A, iv("1/2", 1))
        # The merged label keeps its place, and the original is unchanged.
        assert list(t.items()) == [(A, iv("1/2", "1/2")), (B, UNIT)]
        assert list(s.items()) == [(A, iv(0, "1/2")), (B, UNIT)]

    def test_merge_to_empty_is_kept(self):
        s = Sequent([(A, iv("1/2", 1))]).insert(A, iv(0, "2/5", hi_open=True))
        assert s[A] == EMPTY
        assert A in s

    def test_fresh_label(self):
        s = Sequent().insert(B, UNIT)
        assert s[B] == UNIT and len(s) == 1

    def test_constructor_merges(self):
        s = Sequent([(A, iv(0, "1/2")), (A, iv("1/4", 1))])
        assert s[A] == iv("1/4", "1/2")


class TestReplace:
    """`replace` drops a label and merges literals as `insert` does: a merged
    label keeps its place, a new one goes to the end, and the original
    sequent is unchanged."""

    def test_replace_merges_in_place(self):
        s = Sequent([(A, iv(0, "1/2")), (B, UNIT), (C, UNIT)])
        r = s.replace(B, (A, iv("1/4", 1)), (D, iv(0, "1/2")), (D, iv("1/4", 1)))
        assert list(r.items()) == [(A, iv("1/4", "1/2")), (C, UNIT), (D, iv("1/4", "1/2"))]
        assert list(s.items()) == [(A, iv(0, "1/2")), (B, UNIT), (C, UNIT)]

    def test_replace_with_no_literal_drops_the_label(self):
        s = Sequent([(A, UNIT), (B, UNIT)])
        assert list(s.replace(A).items()) == [(B, UNIT)]
        assert list(s.items()) == [(A, UNIT), (B, UNIT)]


class TestSubsequent:
    def test_point_in_unit(self):
        narrow = Sequent([(A, iv("1/2", "1/2"))])
        wide = Sequent([(A, UNIT)])
        assert is_subsequent(narrow, wide)
        assert not is_subsequent(wide, narrow)

    def test_empty_in_anything(self):
        assert is_subsequent(Sequent([(A, EMPTY)]), Sequent([(A, iv(0, 0))]))

    def test_label_mismatch_is_an_error(self):
        with pytest.raises(SequentError):
            is_subsequent(Sequent([(A, UNIT)]), Sequent([(B, UNIT)]))

    def test_partial_order(self):
        s = Sequent([(A, iv("1/4", "3/4")), (B, iv(0, "1/2"))])
        t = Sequent([(A, iv(0, 1)), (B, iv(0, "1/2"))])
        assert is_subsequent(s, s)
        assert is_subsequent(s, t) and not is_subsequent(t, s)


class TestCombinedSize:
    def test_zero_literal(self):
        s = Sequent([(parse("0"), UNIT)])
        assert s.combined_size() == 8  # 1 + (1+1)+(1+1) + 3

    def test_empty_sequent(self):
        assert Sequent().combined_size() == 0

    def test_additive(self):
        s1 = Sequent([(A, iv("1/2", 1))])
        s2 = Sequent([(B, iv(0, "3/4"))])
        both = Sequent(list(s1.items()) + list(s2.items()))
        assert both.combined_size() == s1.combined_size() + s2.combined_size()


class TestEquality:
    def test_order_insensitive(self):
        s = Sequent([(A, UNIT), (B, iv(0, 0))])
        t = Sequent([(B, iv(0, 0)), (A, UNIT)])
        assert s == t and hash(s) == hash(t)

    def test_exactness(self):
        s = Sequent([(A, UNIT)])
        assert is_exact_over(s, [A])
        assert not is_exact_over(s, [A, B])


class TestJson:
    def test_round_trip(self):
        s = Sequent([(parse("dia a & ~b"), iv("1/3", 1, lo_open=True)), (B, EMPTY)])
        assert Sequent.from_json(json.loads(s.dumps())) == s

    def test_shape(self):
        s = Sequent([(A, iv("1/2", 1))])
        assert s.to_json() == {"literals": [{"formula": "a", "interval": "[1/2,1]"}]}

    def test_bad_payload(self):
        with pytest.raises(SequentError):
            Sequent.from_json({"nope": []})
