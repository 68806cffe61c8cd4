from fractions import Fraction as F

import pytest

from helpers import NaiveWrapper

from nexfuz.logics import FuzzyAlcLogic, get_logic
from nexfuz.models import check_sequent
from nexfuz.numerics import EMPTY, Interval, UNIT
from nexfuz.prop_tableau import saturate
from nexfuz.solver import SolverCaps, sat
from nexfuz.sequents import Sequent
from nexfuz.syntax import Atom, Diamond, Modal, MoreThan, parse

A = Atom("a")


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval.make(F(lo), F(hi), lo_open, hi_open)


class TestEndSequentShape:
    """What the solver guarantees of the modal literals it hands an
    instance: every end-sequent of a saturated layer has only atom and
    Modal labels, no empty interval, and operators the logic supports."""

    def test_random_layers(self):
        import random

        from helpers import rand_metric_space, rand_sequent

        rng = random.Random(31)
        ends = 0
        for name in ("alc", "lgen", "mp", "metric-fuzzy", "metric-crisp"):
            for _ in range(40):
                space = rand_metric_space(rng) if name.startswith("metric") else None
                logic = get_logic(name, space)
                seq = rand_sequent(rng, name, depth=2, space=space, max_den=8,
                                   max_literals=3)
                for gamma in saturate(seq):
                    ends += 1
                    for label, interval in gamma.items():
                        assert not interval.is_empty, gamma
                        if isinstance(label, Atom):
                            continue
                        assert isinstance(label, Modal), gamma
                        assert logic.supports(label.op), (name, label)
        assert ends > 100


class TestRepeatedModalFormula:
    """A modal formula that occurs twice in a layer is one label of the
    layer's sequents, so the instance sees one literal, over the
    intersection of both occurrences' intervals."""

    @staticmethod
    def top_literals(logic, seq):
        """The verdict, and the literals of the solve's first search."""
        seen = []
        search_steps = logic.search_steps
        logic.search_steps = lambda lits: (seen.append(lits), search_steps(lits))[1]
        return sat(seq, logic), seen[0] if seen else None

    @pytest.mark.parametrize(
        "name, text",
        [
            ("alc", "dia a & ~(dia a - 1/4)"),
            ("lgen", "G a & ~(G a - 1/4)"),
            ("mp", "M{1/2} a & ~(M{1/2} a - 1/4)"),
        ],
    )
    def test_one_literal_with_the_intersected_interval(self, name, text):
        # x >= 1/2 and max(0, x - 1/4) <= 1/2 meet in x in [1/2, 3/4].
        formula = parse(text)
        seq = Sequent([(formula, iv("1/2", 1))])
        verdict, lits = self.top_literals(get_logic(name), seq)
        assert lits == ((formula.left.op, iv("1/2", "3/4")),)
        assert verdict.sat and sat(seq, NaiveWrapper(get_logic(name))).sat
        assert check_sequent(verdict.model, verdict.state, seq)
        # x >= 7/8 and x <= 3/8 do not meet: the tableau closes the layer.
        seq = Sequent([(formula, iv("7/8", 1))])
        verdict, lits = self.top_literals(get_logic(name), seq)
        assert lits is None
        assert not verdict.sat and not sat(seq, NaiveWrapper(get_logic(name))).sat

    def test_literals_sharing_an_argument(self):
        # Two distinct literals over one argument: the instance answers
        # each with its own cell, and the child sequent meets them.
        seq = Sequent([(parse("M{1/2} a & ~M{1/3} a"), iv("1/2", 1))])
        verdict, lits = self.top_literals(get_logic("mp"), seq)
        assert [op for op, _ in lits] == [MoreThan(F(1, 2)), MoreThan(F(1, 3))]
        assert verdict.sat and sat(seq, NaiveWrapper(get_logic("mp"))).sat
        assert check_sequent(verdict.model, verdict.state, seq)

    def test_cap_counts_distinct_literals(self):
        # Two occurrences, one literal: under the cap.  Two distinct
        # literals exceed it (`test_cap_exceeded_is_not_unsat`).
        seq = Sequent([(parse("dia a & dia a"), iv("1/2", 1))])
        verdict = sat(seq, get_logic("alc"), caps=SolverCaps(max_layer_literals=1))
        assert verdict.sat and check_sequent(verdict.model, verdict.state, seq)


class TestWithAtoms:
    """Atom literals: the solver pins them on the witness state and hands
    the instance logic only the modal literals of each end-sequent."""

    @staticmethod
    def recording_alc(seen: list):
        class RecordingAlc(FuzzyAlcLogic):
            def search_steps(self, lits):
                seen.append(lits)
                return super().search_steps(lits)

        return RecordingAlc()

    def test_transparent_without_atoms(self):
        inner = get_logic("alc")
        seen = []
        wrapped = self.recording_alc(seen)
        assert sat(Sequent([(parse("dia a"), iv("3/5", 1))]), wrapped)
        lits = ((Diamond(), iv("3/5", 1)),)
        assert seen[0] == lits
        assert [c.cells for c in wrapped.conclusions(seen[0])] == [
            c.cells for c in inner.conclusions(lits)
        ]

    def test_atoms_only_yields_empty_conclusion(self):
        seen = []
        verdict = sat(Sequent([(A, iv("3/10", "3/5"))]), self.recording_alc(seen))
        cs = list(get_logic("alc").conclusions(seen[0]))
        assert len(cs) == 1 and cs[0].cells == ()
        assert verdict and verdict.model.states == (verdict.state,)
        assert verdict.model.successors(verdict.state) == {}
        declared = sat(Sequent([(A, iv("3/10", "3/5"))]), get_logic("alc"),
                       declared_atoms=("b",))
        assert declared.model.atoms[declared.state]["b"] == 0

    def test_contradictory_atom_bounds(self):
        seen = []
        assert not sat(Sequent([(A, EMPTY)]), self.recording_alc(seen))
        assert seen == []

    def test_realize_attaches_atom_values(self):
        seq = Sequent([(parse("dia b"), iv("3/5", 1)), (A, iv(0, "1/5"))])
        verdict = sat(seq, get_logic("alc"))
        assert verdict.model.atoms[verdict.state] == {"a": F(1, 10)}
        assert verdict.model.successors(verdict.state)  # modal part untouched

    def test_split(self):
        # One end-sequent {a in [0,1], dia c in [1/2,1], b in [1/5,1/5],
        # dia d in [0,1]}: the atoms get their picked values, the modal
        # literals go to the instance as (op, interval) pairs, in literal
        # order.
        seen = []
        seq = Sequent([(A, UNIT), (parse("dia c"), iv("1/2", 1)),
                       (Atom("b"), iv("1/5", "1/5")), (parse("dia d"), UNIT)])
        verdict = sat(seq, self.recording_alc(seen))
        assert seen[0] == ((Diamond(), iv("1/2", 1)), (Diamond(), UNIT))
        assert verdict.model.atoms[verdict.state] == {"a": F(1, 2), "b": F(1, 5)}
