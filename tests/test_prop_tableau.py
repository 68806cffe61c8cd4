import random
from fractions import Fraction as F

import pytest

from helpers import rand_interval, rand_rational, seq_satisfied

from nexfuz.numerics import EMPTY, Interval, UNIT
from nexfuz.prop_tableau import Closed, One, Saturated, Two, apply_rule, saturate
from nexfuz.sequents import Sequent
from nexfuz.syntax import And, Atom, Diamond, Minus, Modal, Neg, Zero

DIA_B = Modal(Diamond(), Atom("b"))
DIA_C = Modal(Diamond(), Atom("c"))
_LABELS = [DIA_B, DIA_C, Atom("a")]


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval.make(F(lo), F(hi), lo_open, hi_open)


class TestApplyRule:
    def test_axiom_on_empty_interval(self):
        assert isinstance(apply_rule(Sequent([(DIA_B, EMPTY)])), Closed)

    def test_axiom_after_a_reducible_literal(self):
        r = apply_rule(Sequent([(Neg(DIA_B), UNIT), (DIA_C, EMPTY)]))
        assert r == Closed("Ax")

    def test_unexpected_label_raises(self):
        with pytest.raises(TypeError):
            apply_rule(Sequent([(DIA_B, UNIT), (Diamond(), UNIT), (Neg(DIA_C), UNIT)]))
        # The axiom still comes first, wherever the empty interval is.
        assert apply_rule(Sequent([(Diamond(), UNIT), (DIA_C, EMPTY)])) == Closed("Ax")

    def test_zero_closes_when_excluded(self):
        r = apply_rule(Sequent([(Zero(), iv(0, 1, lo_open=True))]))
        assert isinstance(r, Closed) and r.rule == "Ax0"

    def test_zero_drops_when_included(self):
        r = apply_rule(Sequent([(Zero(), iv(0, 0)), (DIA_B, UNIT)]))
        assert isinstance(r, One) and r.conclusion == Sequent([(DIA_B, UNIT)])

    def test_negation_complements(self):
        r = apply_rule(Sequent([(Neg(DIA_B), iv("3/10", "3/5"))]))
        assert isinstance(r, One)
        assert r.conclusion == Sequent([(DIA_B, iv("2/5", "7/10"))])

    def test_shift_off_zero(self):
        r = apply_rule(Sequent([(Minus(DIA_B, F(1, 5)), iv("1/10", "2/5", lo_open=True))]))
        assert isinstance(r, One)
        assert r.conclusion == Sequent([(DIA_B, iv("3/10", "3/5", lo_open=True))])

    def test_shift_at_zero_widens(self):
        r = apply_rule(Sequent([(Minus(DIA_B, F(1, 2)), iv(0, "3/5", hi_open=True))]))
        assert isinstance(r, One)
        assert r.conclusion == Sequent([(DIA_B, iv(0, 1))])  # 3/5+1/2 > 1

    def test_min_on_lower_ray_is_one_step(self):
        premise = Sequent([(And(DIA_B, Neg(DIA_C)), iv("1/2", 1))])
        r = apply_rule(premise)
        assert isinstance(r, One) and r.rule == "Min"  # upper bound 1: no split
        assert r.conclusion == Sequent([(DIA_B, iv("1/2", 1)), (Neg(DIA_C), iv("1/2", 1))])

    def test_min_splits_into_disjoint_branches(self):
        premise = Sequent([(And(DIA_B, Neg(DIA_C)), iv("1/4", "3/4", hi_open=True))])
        r = apply_rule(premise)
        assert isinstance(r, Two) and r.rule == "Min"
        assert r.left == Sequent([(DIA_B, iv("1/4", "3/4", hi_open=True)),
                                  (Neg(DIA_C), iv("1/4", 1))])
        assert r.right == Sequent([(DIA_B, iv("3/4", 1)),
                                   (Neg(DIA_C), iv("1/4", "3/4", hi_open=True))])
        rng = random.Random(29)
        for _ in range(200):
            premise = Sequent([(And(rng.choice(_LABELS), rng.choice(_LABELS)),
                                rand_interval(rng, 8))])
            r = apply_rule(premise)
            if not isinstance(r, Two):
                continue
            for _ in range(40):
                val = {l: rand_rational(rng, 8) for l in _LABELS}
                assert not (seq_satisfied(r.left, val) and seq_satisfied(r.right, val)), (
                    premise, r, val)

    def test_propagates_before_splitting(self):
        split = And(DIA_B, DIA_C)
        premise = Sequent([(split, iv("1/4", "3/4")), (Neg(DIA_B), iv(0, "1/8"))])
        r = apply_rule(premise)
        assert isinstance(r, One) and r.rule == "Neg"
        assert r.conclusion == Sequent([(split, iv("1/4", "3/4")), (DIA_B, iv("7/8", 1))])

    def test_saturated(self):
        assert isinstance(apply_rule(Sequent([(DIA_B, UNIT), (Atom("a"), UNIT)])), Saturated)


class TestSaturate:
    def test_zero_point_gives_empty_end_sequent(self):
        ends = list(saturate(Sequent([(Zero(), iv(0, 0))])))
        assert ends == [Sequent()]

    def test_zero_excluded_closes(self):
        assert list(saturate(Sequent([(Zero(), iv(0, 1, lo_open=True))]))) == []

    def test_worked_min_negation(self):
        seq = Sequent([(And(DIA_B, Neg(DIA_C)), iv("1/2", 1))])
        ends = list(saturate(seq))
        assert ends == [Sequent([(DIA_B, iv("1/2", 1)), (DIA_C, iv(0, "1/2"))])]

    def test_branch_count_bound(self):
        rng = random.Random(5)
        for _ in range(50):
            seq, n_and = _random_onestep_sequent(rng)
            ends = list(saturate(seq))
            assert len(ends) <= 2 ** n_and

    def test_end_sequents_are_distinct_and_disjoint(self):
        rng = random.Random(41)
        for _ in range(150):
            seq, _ = _random_onestep_sequent(rng)
            ends = list(saturate(seq))
            assert len(set(ends)) == len(ends), (seq, ends)
            for _ in range(40):
                val = {l: rand_rational(rng, 8) for l in _LABELS}
                assert sum(seq_satisfied(end, val) for end in ends) <= 1, (seq, ends, val)

    def test_end_sequents_are_irreducible_and_nonempty(self):
        rng = random.Random(17)
        for _ in range(100):
            seq, _ = _random_onestep_sequent(rng)
            for end in saturate(seq):
                for label, interval in end.items():
                    assert isinstance(label, (Modal, Atom))
                    assert not interval.is_empty


def _random_onestep_formula(rng: random.Random, depth: int, labels):
    kind = rng.choice(["label"] * 2 + (["neg", "minus", "and", "zero"] if depth else []))
    if kind == "label" or depth == 0:
        return rng.choice(labels)
    if kind == "zero":
        return Zero()
    if kind == "neg":
        return Neg(_random_onestep_formula(rng, depth - 1, labels))
    if kind == "minus":
        return Minus(_random_onestep_formula(rng, depth - 1, labels), rand_rational(rng))
    return And(
        _random_onestep_formula(rng, depth - 1, labels),
        _random_onestep_formula(rng, depth - 1, labels),
    )


def _count_ands(f):
    if isinstance(f, And):
        return 1 + _count_ands(f.left) + _count_ands(f.right)
    if isinstance(f, (Neg, Minus)):
        return _count_ands(f.arg)
    return 0


def _random_onestep_sequent(rng: random.Random):
    labels = [DIA_B, DIA_C, Atom("a")]
    seq = Sequent()
    total_ands = 0
    for _ in range(rng.randint(1, 2)):
        f = _random_onestep_formula(rng, rng.randint(0, 3), labels)
        total_ands += _count_ands(f)
        seq = seq.insert(f, rand_interval(rng))
    return seq, total_ands


class TestLocalRuleCorrectness:
    """Premise satisfied iff some conclusion satisfied, for random valuations."""

    TRIALS = 1500

    def _check(self, premise: Sequent, rng: random.Random):
        result = apply_rule(premise)
        labels = [DIA_B, DIA_C, Atom("a")]
        for _ in range(40):
            val = {l: rand_rational(rng) for l in labels}
            lhs = seq_satisfied(premise, val)
            if isinstance(result, Closed):
                rhs = False
            elif isinstance(result, One):
                rhs = seq_satisfied(result.conclusion, val)
            elif isinstance(result, Two):
                rhs = seq_satisfied(result.left, val) or seq_satisfied(result.right, val)
            else:
                rhs = lhs
            assert lhs == rhs, f"{premise} vs {result} at {val}"

    def test_random_rule_instances(self):
        rng = random.Random(23)
        for _ in range(self.TRIALS // 40):
            seq, _ = _random_onestep_sequent(rng)
            self._check(seq, rng)


class TestSaturationPreservesSemantics:
    """End to end: a valuation satisfies the input sequent iff it satisfies
    some open end-sequent (0-literals are vacuous once their interval
    contains 0, so dropping them is harmless)."""

    def test_randomized(self):
        rng = random.Random(67)
        labels = [DIA_B, DIA_C, Atom("a")]
        for _ in range(150):
            seq, _ = _random_onestep_sequent(rng)
            ends = list(saturate(seq))
            for _ in range(40):
                val = {l: rand_rational(rng, 8) for l in labels}
                lhs = seq_satisfied(seq, val)
                rhs = any(seq_satisfied(end, val) for end in ends)
                assert lhs == rhs, (seq, ends, val)


class TestTermination:
    def test_sizes_strictly_decrease(self):
        rng = random.Random(3)
        for _ in range(100):
            seq, _ = _random_onestep_sequent(rng)
            current = [seq]
            steps = 0
            while current:
                s = current.pop()
                r = apply_rule(s)
                steps += 1
                assert steps < 10_000
                if isinstance(r, One):
                    assert _measure(r.conclusion) < _measure(s)
                    current.append(r.conclusion)
                elif isinstance(r, Two):
                    for c in (r.left, r.right):
                        assert _measure(c) < _measure(s)
                    current.append(r.left)


def _measure(seq: Sequent) -> int:
    from nexfuz.syntax import size

    return sum(size(f) for f, _ in seq.items())
