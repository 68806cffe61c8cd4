from fractions import Fraction as F

from nexfuz.logics import FuzzyAlcLogic, get_logic
from nexfuz.numerics import EMPTY, Interval, UNIT
from nexfuz.onestep import top_level_decompose
from nexfuz.prop_tableau import saturate
from nexfuz.solver import sat
from nexfuz.sequents import Sequent
from nexfuz.syntax import And, Atom, Diamond, Modal, Neg, Var, Zero, parse

A = Atom("a")
V1, V2 = Var("v1"), Var("v2")


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval.make(F(lo), F(hi), lo_open, hi_open)


class TestDecompose:
    def test_fresh_variable_per_occurrence(self):
        seq = Sequent([(parse("dia a & ~(dia a)"), iv("1/2", 1))])
        d = top_level_decompose(seq)
        assert [v.name for v in d.binding] == ["v1", "v2"]
        assert d.binding == {V1: A, V2: A}
        expected = Sequent(
            [(And(Modal(Diamond(), V1), Neg(Modal(Diamond(), V2))), iv("1/2", 1))]
        )
        assert d.lifted == expected

    def test_zero_under_modality(self):
        seq = Sequent([(parse("dia 0"), UNIT)])
        d = top_level_decompose(seq)
        assert d.binding == {V1: Zero()}
        assert d.lifted == Sequent([(Modal(Diamond(), V1), UNIT)])

    def test_atoms_stay_nullary(self):
        seq = Sequent([(A, UNIT)])
        d = top_level_decompose(seq)
        assert d.binding == {}
        assert d.lifted == seq

    def test_each_variable_occurs_exactly_once(self):
        import random

        from helpers import rand_sequent

        rng = random.Random(9)
        for _ in range(40):
            seq = rand_sequent(rng, "alc", depth=3, max_den=8)
            d = top_level_decompose(seq)

            def count(f, v):
                if f == v:
                    return 1
                if isinstance(f, (Neg, Modal)):
                    return count(f.arg, v)
                from nexfuz.syntax import Minus

                if isinstance(f, Minus):
                    return count(f.arg, v)
                if isinstance(f, And):
                    return count(f.left, v) + count(f.right, v)
                return 0

            for v in d.binding:
                assert sum(count(f, v) for f, _ in d.lifted.items()) == 1

    def test_substituting_back_restores_input(self):
        seq = Sequent([(parse("(dia (a & b) - 1/4) & ~dia 0"), iv(0, "3/4"))])
        d = top_level_decompose(seq)

        def restore(f):
            if isinstance(f, Var):
                return d.binding[f]
            if isinstance(f, Modal):
                return Modal(f.op, restore(f.arg))
            if isinstance(f, And):
                return And(restore(f.left), restore(f.right))
            if isinstance(f, Neg):
                return Neg(restore(f.arg))
            from nexfuz.syntax import Minus

            if isinstance(f, Minus):
                return Minus(restore(f.arg), f.c)
            return f

        assert Sequent((restore(f), i) for f, i in d.lifted.items()) == seq


class TestEndSequentShape:
    """What the solver guarantees of the modal literals it hands an
    instance: every end-sequent of a decomposed, saturated layer has only
    atom and Modal(op, Var) labels, no empty interval, distinct variables
    and operators the logic supports."""

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
                for gamma in saturate(top_level_decompose(seq).lifted):
                    ends += 1
                    variables = []
                    for label, interval in gamma.items():
                        assert not interval.is_empty, gamma
                        if isinstance(label, Atom):
                            continue
                        assert isinstance(label, Modal) and isinstance(label.arg, Var)
                        assert logic.supports(label.op), (name, label)
                        variables.append(label.arg)
                    assert len(set(variables)) == len(variables), gamma
        assert ends > 100


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
        # One end-sequent {a in [0,1], dia v1 in [1/2,1], b in [1/5,1/5],
        # dia v2 in [0,1]}: the atoms get their picked values, the modal
        # literals go to the instance as (op, interval) pairs, in literal
        # order.
        seen = []
        seq = Sequent([(A, UNIT), (parse("dia c"), iv("1/2", 1)),
                       (Atom("b"), iv("1/5", "1/5")), (parse("dia d"), UNIT)])
        verdict = sat(seq, self.recording_alc(seen))
        assert seen[0] == ((Diamond(), iv("1/2", 1)), (Diamond(), UNIT))
        assert verdict.model.atoms[verdict.state] == {"a": F(1, 2), "b": F(1, 5)}
