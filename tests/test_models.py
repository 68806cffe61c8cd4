import copy
import dataclasses
import json
import random
from fractions import Fraction as F
from math import lcm
from time import perf_counter

import pytest

from helpers import (
    ATOMS,
    rand_formula,
    rand_metric_space,
    rand_model,
    reference_diamond_value,
    reference_generally_value,
    reference_metric_diamond_value,
    reference_more_than_value,
)

from nexfuz import models
from nexfuz.metricspace import MetricSpace, MetricSpaceError
from nexfuz.models import (
    FiniteModel,
    ModelError,
    WitnessDag,
    check_sequent,
    eval_formula,
)
from nexfuz.numerics import Interval
from nexfuz.sequents import Sequent
from nexfuz.syntax import (
    And,
    Atom,
    Diamond,
    Formula,
    Generally,
    MetricDiamond,
    Minus,
    Modal,
    MoreThan,
    Neg,
    Zero,
    parse,
)


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval.make(F(lo), F(hi), lo_open, hi_open)


def reference_eval(model, state, formula):
    """Plain-`Fraction` truth degree by direct recursion over the point-set
    reference liftings, independent of `eval_formula` and its table."""
    cache = {}

    def ev(x, f):
        if (x, f) not in cache:
            cache[x, f] = value(x, f)
        return cache[x, f]

    def value(x, f):
        if isinstance(f, Zero):
            return F(0)
        if isinstance(f, Atom):
            return model.atoms[x][f.name]
        if isinstance(f, Neg):
            return 1 - ev(x, f.arg)
        if isinstance(f, Minus):
            return max(F(0), ev(x, f.arg) - f.c)
        if isinstance(f, And):
            return min(ev(x, f.left), ev(x, f.right))
        op, row = f.op, model.successors(x)
        if isinstance(op, MetricDiamond):
            triples = [(label, d, ev(y, f.arg)) for (label, y), d in row.items()]
            return reference_metric_diamond_value(triples, op.label, op.c, model.space)
        dist = [(d, ev(y, f.arg)) for y, d in row.items()]
        if isinstance(op, Diamond):
            return reference_diamond_value(dist)
        if isinstance(op, Generally):
            return reference_generally_value(dist)
        return reference_more_than_value(dist, op.p)

    return ev(state, formula)


# Denominators of the formula constants below: primes that divide no
# denominator of a model drawn with max_den=6 and at most 5 states.
BIG_PRIMES = (31, 37, 41, 43, 47, 53)


def prime_constant(rng):
    p = rng.choice(BIG_PRIMES)
    return F(rng.randint(1, p - 1), p)


def with_prime_constants(rng, f):
    """`f` with every constant (of `-`, `M{p}` and `dia{l,c}`) replaced by a
    `prime_constant`."""
    if isinstance(f, (Neg, Minus)):
        arg = with_prime_constants(rng, f.arg)
        return Neg(arg) if isinstance(f, Neg) else Minus(arg, prime_constant(rng))
    if isinstance(f, And):
        return And(with_prime_constants(rng, f.left), with_prime_constants(rng, f.right))
    if isinstance(f, Modal):
        op = f.op
        if isinstance(op, MoreThan):
            op = MoreThan(prime_constant(rng))
        elif isinstance(op, MetricDiamond):
            op = MetricDiamond(op.label, prime_constant(rng))
        return Modal(op, with_prime_constants(rng, f.arg))
    return f


def one_successor_model():
    return FiniteModel(
        "fuzzyrel",
        ("x", "y"),
        {"x": {"y": F(1)}, "y": {}},
        {"x": {"a": F(0)}, "y": {"a": F(1, 2)}},
    )


def uniform_two_values():
    return FiniteModel(
        "prob",
        ("x", "y", "z"),
        {"x": {"y": F(1, 2), "z": F(1, 2)}, "y": {"y": F(1)}, "z": {"z": F(1)}},
        {"x": {"a": F(0)}, "y": {"a": F(4, 5)}, "z": {"a": F(2, 5)}},
    )


class TestEval:
    def test_diamond_min_with_degree(self):
        m = one_successor_model()
        assert eval_formula(m, "x", parse("dia a")) == F(1, 2)
        assert eval_formula(m, "x", parse("dia a & ~(dia a)")) == F(1, 2)

    def test_generally_breakpoints(self):
        assert eval_formula(uniform_two_values(), "x", parse("G a")) == F(1, 2)

    def test_more_than_picks_largest_qualifying(self):
        assert eval_formula(uniform_two_values(), "x", parse("M{3/10} a")) == F(4, 5)

    def test_metric_reach(self):
        space = MetricSpace.make(["l", "m"], [[0, F(3, 10)], [F(3, 10), 0]])
        m = FiniteModel(
            "metric",
            ("x", "y"),
            {"x": {("m", "y"): F(9, 10)}, "y": {}},
            {"x": {"a": F(0)}, "y": {"a": F(1)}},
            space,
        )
        # value = min(9/10, 1, 1/2 - 3/10) from label l, reach 1/2
        assert eval_formula(m, "x", parse("dia{l,1/2} a")) == F(1, 5)
        assert eval_formula(m, "x", parse("dia{m,1/2} a")) == F(1, 2)

    def test_unknown_reach_label_raises_at_every_state(self):
        space = MetricSpace.make(["l"], [[0]])
        m = FiniteModel(
            "metric",
            ("x", "y"),
            {"x": {("l", "y"): F(1)}, "y": {}},
            {"x": {"a": F(0)}, "y": {"a": F(1)}},
            space,
        )
        for state in ("x", "y"):
            with pytest.raises(MetricSpaceError, match="unknown label 'zz'"):
                eval_formula(m, state, parse("dia{zz, 1/2} a"))

    def test_kind_mismatch(self):
        with pytest.raises(ModelError):
            eval_formula(one_successor_model(), "x", parse("G a"))

    def test_unknown_atom(self):
        with pytest.raises(ModelError):
            eval_formula(one_successor_model(), "x", parse("zzz"))

    def test_unknown_state(self):
        m = one_successor_model()
        for text in ("dia a", "~dia a", "a", "0"):
            with pytest.raises(ModelError):
                eval_formula(m, "nope", parse(text))
        assert m.values == {}

    def test_state_without_transition_row(self):
        m = FiniteModel("fuzzyrel", ("x", "y"), {"x": {"y": F(1)}}, {"y": {"a": F(1, 2)}})
        assert eval_formula(m, "y", parse("dia a")) == 0
        assert eval_formula(m, "x", parse("dia a")) == F(1, 2)
        with pytest.raises(ModelError):
            eval_formula(m, "z", parse("dia a"))

    def test_identities(self):
        rng = random.Random(31)
        for _ in range(60):
            kind = rng.choice(["prob", "fuzzyrel"])
            logic = {"prob": "lgen", "fuzzyrel": "alc"}[kind]
            m = rand_model(rng, kind, rng.randint(1, 4))
            f = rand_formula(rng, logic, depth=2, max_den=8)
            x = m.states[0]
            v = eval_formula(m, x, f)
            from nexfuz.syntax import And, Minus, Neg

            assert eval_formula(m, x, Neg(Neg(f))) == v
            assert eval_formula(m, x, Minus(f, F(0))) == v
            assert eval_formula(m, x, And(f, f)) == v

    def test_generally_never_beaten_by_grid(self):
        rng = random.Random(47)
        for _ in range(40):
            m = rand_model(rng, "prob", rng.randint(1, 4), max_den=8)
            f = parse("G (a | (b - 1/8))")
            x = m.states[0]
            v = eval_formula(m, x, f)
            arg = parse("a | (b - 1/8)")
            dist = [
                (w, eval_formula(m, y, arg)) for y, w in m.successors(x).items()
            ]
            for k in range(65):
                alpha = F(k, 64)
                mass = sum((w for w, val in dist if val >= alpha), F(0))
                assert min(alpha, mass) <= v
            values = sorted({val for _, val in dist})
            assert any(
                min(alpha, sum((w for w, val in dist if val >= alpha), F(0))) == v
                for alpha in values + [F(0)]
            )


KIND_LOGICS = {
    "prob": ("lgen", "mp"),
    "fuzzyrel": ("alc",),
    "metric": ("metric-fuzzy",),
    "metric-crisp": ("metric-crisp",),
}


class TestValueTable:
    def test_shared_table_matches_fresh_evaluation(self):
        rng = random.Random(59)
        for kind, logics in KIND_LOGICS.items():
            for _ in range(12):
                space = rand_metric_space(rng) if kind.startswith("metric") else None
                m = rand_model(rng, kind, rng.randint(1, 6), space=space, max_den=8)
                formulas = [
                    rand_formula(rng, rng.choice(logics), rng.randint(0, 3), space, max_den=8)
                    for _ in range(4)
                ]
                pairs = [(x, f) for x in m.states for f in formulas]
                rng.shuffle(pairs)
                for x, f in pairs:
                    assert eval_formula(m, x, f) == eval_formula(dataclasses.replace(m), x, f)
                assert m.values

    def test_check_sequent_ignores_the_table(self):
        m = one_successor_model()
        f = parse("dia a")
        seq = Sequent([(f, iv("1/2", "1/2"))])
        m.values[f] = {"x": 0}  # f's column: a numerator, over whatever scale the table takes
        assert eval_formula(m, "x", f) == 0  # the poisoned value is served
        assert check_sequent(m, "x", seq)
        assert not check_sequent(m, "x", Sequent([(f, iv(0, 0))]))

    def test_replace_starts_a_fresh_table(self):
        m = one_successor_model()
        assert eval_formula(m, "x", parse("dia a")) == F(1, 2)
        other = dataclasses.replace(m, atoms={"x": {"a": F(0)}, "y": {"a": F(1, 4)}})
        assert eval_formula(other, "x", parse("dia a")) == F(1, 4)
        assert eval_formula(m, "x", parse("dia a")) == F(1, 2)

    def test_check_sequent_leaves_the_table_and_scale(self):
        rng = random.Random(67)
        for kind, logics in KIND_LOGICS.items():
            space = rand_metric_space(rng) if kind.startswith("metric") else None
            m = rand_model(rng, kind, 4, space=space, max_den=6)
            f = rand_formula(rng, logics[0], 2, space, max_den=6)
            seq = Sequent([(with_prime_constants(rng, Minus(f, F(0))), iv(0, 1))])
            assert check_sequent(m, m.states[0], seq)
            assert m.values == {}
            eval_formula(m, m.states[0], f)
            # A deep copy: the columns are changed in place when the scale grows.
            before = copy.deepcopy(m.values)
            assert check_sequent(m, m.states[0], seq)
            assert m.values == before  # the columns, the rows and the scale under None

    def test_check_sequent_checks_more_states_in_its_fresh_table(self, monkeypatch):
        # The (state, formula, interval) triples are evaluated after the
        # sequent, on the same fresh copy of the model; a value outside its
        # interval at any one of them fails the check.
        rng = random.Random(73)
        for kind, logics in KIND_LOGICS.items():
            space = rand_metric_space(rng) if kind.startswith("metric") else None
            m = rand_model(rng, kind, 4, space=space, max_den=6)
            root = m.states[0]
            fs = [rand_formula(rng, logics[0], 2, space, max_den=6) for _ in range(3)]
            v = reference_eval(m, root, fs[0])
            seq = Sequent([(fs[0], iv(v, v))])
            checks = []
            for x in m.states:
                for f in fs:
                    v = reference_eval(m, x, f)
                    checks.append((x, f, iv(v, v)))
            tables = []
            real = models.eval_formula
            monkeypatch.setattr(
                models, "eval_formula", lambda model, x, f: tables.append(model) or real(model, x, f)
            )
            assert check_sequent(m, root, seq, checks)
            assert len(tables) == 1 + len(checks)
            assert all(t is tables[0] for t in tables) and tables[0] is not m
            for k, (x, f, interval) in enumerate(checks):
                v = interval.lo
                miss = iv(0, v, hi_open=True) if v > 0 else iv(0, 1, lo_open=True)
                assert not check_sequent(m, root, seq, [*checks[:k], (x, f, miss), *checks[k + 1:]])
            monkeypatch.undo()
            assert m.values == {}

    def test_constants_stay_hash_consed_across_scales(self):
        text = "M{3/7} (a - 2/11) & G (b - 5/13)"
        f = parse(text)
        p, c, d = f.left.op.p, f.left.arg.c, f.right.arg.c
        rng = random.Random(71)
        models = [rand_model(rng, "prob", n, max_den=den) for n, den in ((3, 4), (5, 9))]
        for m in models:
            x = m.states[0]
            assert eval_formula(m, x, f) == reference_eval(m, x, f)
        assert models[0].values[None] != models[1].values[None]
        assert parse(text) is f
        assert f.left.op.p is p and f.left.arg.c is c and f.right.arg.c is d
        assert (p, c, d) == (F(3, 7), F(2, 11), F(5, 13))

    def test_equality_ignores_the_table(self):
        m, copy = one_successor_model(), one_successor_model()
        eval_formula(m, "x", parse("dia a & a"))
        assert m.values and not copy.values
        assert m == copy


class TestScaledEvaluation:
    def test_matches_the_fraction_reference(self):
        rng = random.Random(61)
        for kind, logics in KIND_LOGICS.items():
            for _ in range(10):
                space = rand_metric_space(rng) if kind.startswith("metric") else None
                m = rand_model(rng, kind, rng.randint(1, 5), space=space, max_den=6)
                # A top-level `-` gives every formula a constant at least.
                formulas = [
                    with_prime_constants(rng, Minus(
                        rand_formula(rng, rng.choice(logics), rng.randint(0, 3), space), F(0)
                    ))
                    for _ in range(4)
                ]
                eval_formula(m, m.states[0], Atom("a"))
                start = m.values[None]
                # In sequence on the model's one table, each formula growing
                # its scale, and again once it has grown.
                for _ in range(2):
                    for f in formulas:
                        for x in m.states:
                            assert eval_formula(m, x, f) == reference_eval(m, x, f)
                assert m.values[None] % start == 0 and m.values[None] > start

    def test_pairwise_coprime_denominators(self):
        # Every degree and atom value has a prime denominator of its own, so
        # the scale is the product of them all: exact, and no larger.
        primes = [n for n in range(2, 6000) if all(n % k for k in range(2, int(n**0.5) + 1))]
        rng = random.Random(73)
        supply = iter(primes)

        def rational():
            q = next(supply)
            return F(rng.randint(1, q - 1), q)

        states = tuple(f"x{i}" for i in range(24))
        trans = {x: {y: rational() for y in states} for x in states}
        atoms = {x: {a: rational() for a in ATOMS} for x in states}
        m = FiniteModel("fuzzyrel", states, trans, atoms)
        m.validate()
        formulas = [parse(t) for t in ("dia dia (a & ~b)", "dia (dia a - 1/7) & ~dia b",
                                       "~dia ~(dia c - 5/6001)")]
        start = perf_counter()
        values = [eval_formula(m, x, f) for f in formulas for x in states]
        assert perf_counter() - start < 2.0
        assert values == [reference_eval(m, x, f) for f in formulas for x in states]
        used = [q.denominator for row in (*trans.values(), *atoms.values()) for q in row.values()]
        assert m.values[None] == lcm(*used, 6001)


def dag_state(dag, rng, targets, dens):
    """Add a state over `targets` whose edges and atom values have
    denominators drawn from `dens`; return it."""
    atoms = {a: F(rng.randint(0, d), d) for a in ATOMS for d in [rng.choice(dens)]}
    kind = dag.model.kind
    if kind == "prob":
        d = rng.choice(dens)
        cuts = sorted(rng.randint(0, d) for _ in targets[1:])
        weights = [F(hi - lo, d) for lo, hi in zip([0, *cuts], [*cuts, d])]
        return dag.add(tuple(weights), targets, atoms)
    degrees = [F(rng.randint(1, d), d) for d in (rng.choice(dens) for _ in targets)]
    if kind == "metric":
        degrees = [(rng.choice(dag.model.space.labels), d) for d in degrees]
    return dag.add(tuple(degrees), targets, atoms)


class TestWitnessDagGrowth:
    SPACE = MetricSpace.make(["l", "m"], [[0, F(1, 5)], [F(1, 5), 0]])
    LOGICS = {"prob": ("lgen", "mp"), "fuzzyrel": ("alc",), "metric": ("metric-fuzzy",)}

    @pytest.mark.parametrize("kind", ["prob", "fuzzyrel", "metric"])
    def test_added_states_bring_new_denominators(self, kind):
        rng = random.Random(79)
        space = self.SPACE if kind == "metric" else None
        for _ in range(25):
            dag = WitnessDag(kind, space)
            base = [dag_state(dag, rng, [], (2, 3, 4)) for _ in range(2)]
            base.append(dag_state(dag, rng, base[:2], (2, 3, 4)))
            small = [rand_formula(rng, rng.choice(self.LOGICS[kind]), 1, space, max_den=4)
                     for _ in range(3)]
            # Only the third state: a probabilistic DAG sends the first two
            # to the sink, which has no atoms.
            for f in small:
                eval_formula(dag.model, base[2], f)
            arg = with_prime_constants(rng, Minus(Atom(rng.choice(ATOMS)), F(0)))
            if kind == "prob":
                literals = [Modal(Generally(), arg), Modal(MoreThan(prime_constant(rng)), arg)]
            elif kind == "fuzzyrel":
                literals = [Modal(Diamond(), arg)]
            else:
                literals = [Modal(MetricDiamond(label, prime_constant(rng)), arg)
                            for label in space.labels]
            for f in literals:
                # A state with new denominators in its edges and atoms, read
                # first under a literal whose constant brings new ones too:
                # the operator's constant and its row both grow the scale.
                new = dag_state(dag, rng, base, (11, 13, 17, 19))
                got = eval_formula(dag.model, new, f)
                assert got == eval_formula(dataclasses.replace(dag.model), new, f)
                assert got == reference_eval(dag.model, new, f)
            for f in small:
                got = eval_formula(dag.model, base[2], f)
                assert got == reference_eval(dag.model, base[2], f)


def assert_table_at_scale(m):
    """Each row in the table is its state's successor row, each edge degree
    as its numerator over the table's current scale, and each subformula's
    column holds its values at that scale."""
    scale = m.values[None]
    for key, entry in m.values.items():
        if key is not None:
            assert all(n.__class__ is int for n in entry.values())
        if isinstance(key, tuple):
            row = m.successors(key[0])
            assert entry == {y: q * scale for y, q in row.items()}
            assert list(entry) == list(row)
        elif isinstance(key, Formula):
            for x, n in entry.items():
                assert F(n, scale) == reference_eval(m, x, key)


class TestRowTable:
    LOGICS = TestWitnessDagGrowth.LOGICS

    @staticmethod
    def prime_operators(rng, kind, space):
        if kind == "prob":
            return [MoreThan(prime_constant(rng)), Generally()]
        if kind == "fuzzyrel":
            return [Diamond()]
        return [MetricDiamond(label, prime_constant(rng)) for label in space.labels]

    @pytest.mark.parametrize("kind", ["prob", "fuzzyrel", "metric"])
    def test_rows_grow_with_the_scale(self, kind):
        rng = random.Random(83)
        space = rand_metric_space(rng) if kind == "metric" else None
        for _ in range(8):
            m = rand_model(rng, kind, rng.randint(2, 5), space=space, max_den=6)
            first = rand_formula(rng, rng.choice(self.LOGICS[kind]), 2, space, max_den=6)
            for x in m.states:
                eval_formula(m, x, first)
            start = m.values[None]
            assert_table_at_scale(m)
            # Constants with new prime denominators, in `-`, `M{p}` and
            # `dia{l,c}`, each growing the scale of the table built above.
            arg = Minus(Atom(rng.choice(ATOMS)), prime_constant(rng))
            formulas = [Modal(op, arg) for op in self.prime_operators(rng, kind, space)]
            formulas += [
                with_prime_constants(rng, rand_formula(rng, rng.choice(self.LOGICS[kind]), 2,
                                                       space, max_den=6))
                for _ in range(2)
            ]
            for _ in range(2):
                for f in (first, *formulas):
                    for x in m.states:
                        got = eval_formula(m, x, f)
                        assert got == reference_eval(m, x, f)
                        assert got == eval_formula(dataclasses.replace(m), x, f)
            assert m.values[None] % start == 0 and m.values[None] > start
            # Every state was read under a modal operator, so every row is in.
            assert all((x, None) in m.values for x in m.states)
            assert_table_at_scale(m)

    @pytest.mark.parametrize("kind", ["prob", "fuzzyrel", "metric"])
    def test_state_added_later_is_scaled_on_read(self, kind):
        rng = random.Random(89)
        space = TestWitnessDagGrowth.SPACE if kind == "metric" else None
        for _ in range(10):
            dag = WitnessDag(kind, space)
            base = [dag_state(dag, rng, [], (2, 3)) for _ in range(2)]
            base.append(dag_state(dag, rng, base[:2], (2, 3)))
            ops = self.prime_operators(rng, kind, space)
            # Only the third state: a probabilistic DAG sends the first two
            # to the sink, which has no atoms.
            before = [Modal(op, Atom(rng.choice(ATOMS))) for op in ops]
            for f in before:
                eval_formula(dag.model, base[2], f)
            old = dag.model.values[None]
            new = dag_state(dag, rng, base, (23,))
            after = [Modal(op, Minus(Atom(rng.choice(ATOMS)), prime_constant(rng)))
                     for op in self.prime_operators(rng, kind, space)]
            # The new state's row is first read under an operator whose
            # constant grows the scale too.
            for _ in range(2):
                for x, f in [(new, f) for f in after + before] + [(base[2], f) for f in after]:
                    got = eval_formula(dag.model, x, f)
                    assert got == reference_eval(dag.model, x, f)
                    assert got == eval_formula(dataclasses.replace(dag.model), x, f)
            assert dag.model.values[None] % (23 * old) == 0
            # The later state's row entered the table on its first read; it
            # and the rows that were grew with the scale.
            assert (new, None) in dag.model.values
            assert_table_at_scale(dag.model)


def rand_operator(rng, kind, space):
    """A random modal operator of the model kind, its constants drawn with
    denominators up to 6."""
    if kind == "prob":
        return rng.choice([Generally(), MoreThan(F(rng.randint(0, 5), 6))])
    if kind == "fuzzyrel":
        return Diamond()
    return MetricDiamond(rng.choice(space.labels), F(rng.randint(0, 6), 6))


class TestSetAtATime:
    @staticmethod
    def shared_formulas(rng, kind, logics, space):
        """Formulas in which one subformula t is needed at a state and at
        that state's successors, or at the successors of two levels."""
        t = rand_formula(rng, rng.choice(logics), rng.randint(0, 2), space, max_den=6)
        a = Atom(rng.choice(ATOMS))
        u = And(a, Neg(a))
        op, other = rand_operator(rng, kind, space), rand_operator(rng, kind, space)
        return [
            And(Modal(op, u), u),
            And(Modal(op, t), t),
            Modal(other, And(Modal(op, t), Neg(t))),
            And(Modal(op, Modal(other, t)), And(Modal(other, t), t)),
        ]

    def test_matches_the_reference_and_a_fresh_table(self):
        rng = random.Random(97)
        for kind, logics in KIND_LOGICS.items():
            for _ in range(10):
                space = rand_metric_space(rng) if kind.startswith("metric") else None
                m = rand_model(rng, kind, rng.randint(2, 6), space=space, max_den=6)
                pairs = [(x, f) for x in m.states
                         for f in self.shared_formulas(rng, kind, logics, space)]
                rng.shuffle(pairs)
                for x, f in pairs:
                    got = eval_formula(m, x, f)
                    assert got == reference_eval(m, x, f)
                    assert got == eval_formula(dataclasses.replace(m), x, f)
                assert_table_at_scale(m)

    def test_scale_grows_after_a_sibling_column(self):
        # In `op (s & (b - c))`, the entry `s` is computed first, at every
        # successor; then `c`, with a new prime denominator, grows the scale
        # before `&` reads both columns.
        rng = random.Random(101)
        for kind, logics in KIND_LOGICS.items():
            for _ in range(8):
                space = rand_metric_space(rng) if kind.startswith("metric") else None
                m = rand_model(rng, kind, rng.randint(2, 6), space=space, max_den=6)
                sibling = Modal(rand_operator(rng, kind, space), Atom("a"))
                f = Modal(rand_operator(rng, kind, space),
                          And(sibling, Minus(Atom("b"), prime_constant(rng))))
                start = dataclasses.replace(m)
                eval_formula(start, m.states[0], Atom("a"))
                for x in m.states:
                    got = eval_formula(m, x, f)
                    assert got == reference_eval(m, x, f)
                    assert got == eval_formula(dataclasses.replace(m), x, f)
                scale = start.values[None]
                assert m.values[None] % scale == 0 and m.values[None] > scale
                assert_table_at_scale(m)

    @pytest.mark.parametrize("kind", ["prob", "metric"])
    def test_states_added_later_share_one_entry(self, kind):
        # Two states added after the table started are one entry's states
        # under `M{p}` or `dia{l,c}`; their rows, first read there, bring new
        # denominators and are scaled with the operator's new constant.
        rng = random.Random(103)
        space = TestWitnessDagGrowth.SPACE if kind == "metric" else None
        for _ in range(10):
            dag = WitnessDag(kind, space)
            base = [dag_state(dag, rng, [], (2, 3)) for _ in range(2)]
            base.append(dag_state(dag, rng, base[:2], (2, 3)))
            eval_formula(dag.model, base[2], Atom("a"))
            late = [dag_state(dag, rng, base, (23, 29)) for _ in range(2)]
            top = dag_state(dag, rng, late, (31,))
            if kind == "prob":
                ops = [MoreThan(prime_constant(rng)) for _ in range(2)]
            else:
                ops = [MetricDiamond(label, prime_constant(rng)) for label in space.labels]
            for op in ops:
                f = Modal(op, Modal(op, Minus(Atom(rng.choice(ATOMS)), prime_constant(rng))))
                got = eval_formula(dag.model, top, f)
                assert got == reference_eval(dag.model, top, f)
                assert got == eval_formula(dataclasses.replace(dag.model), top, f)
                for x in late:
                    assert eval_formula(dag.model, x, f.arg) == reference_eval(dag.model, x, f.arg)
            assert all((x, None) in dag.model.values for x in (*late, top))
            assert_table_at_scale(dag.model)

    def test_deep_formula_at_every_state_of_a_cycle(self):
        states = ("x0", "x1", "x2")
        m = FiniteModel(
            "fuzzyrel",
            states,
            {x: {states[(i + 1) % 3]: F(1)} for i, x in enumerate(states)},
            {x: {"a": F(i + 1, 4)} for i, x in enumerate(states)},
        )
        f = Atom("a")
        for _ in range(2000):
            f = Modal(Diamond(), f)
        for i, x in enumerate(states):
            expected = F((i + 2000) % 3 + 1, 4)
            assert eval_formula(m, x, f) == expected
            assert eval_formula(dataclasses.replace(m), x, f) == expected


class TestCheckSequent:
    def test_worked_example(self):
        m = one_successor_model()
        assert check_sequent(m, "x", Sequent([(parse("dia a & ~(dia a)"), iv("1/2", 1))]))

    def test_zero_literal(self):
        m = one_successor_model()
        assert not check_sequent(m, "x", Sequent([(parse("0"), iv(0, 1, lo_open=True))]))

    def test_empty_sequent(self):
        assert check_sequent(one_successor_model(), "x", Sequent())

    def test_unknown_state(self):
        m = one_successor_model()
        for seq in (Sequent(), Sequent([(parse("dia a"), iv(0, 1))])):
            with pytest.raises(ModelError, match="unknown state 'nope'"):
                check_sequent(m, "nope", seq)
        assert m.values == {}


def rand_dag_state(rng, dag, kind, n_states):
    """Add `n_states` random states to `dag` with random values for every
    atom, each state after the first over a nonempty set of earlier ones
    (the first state of a probabilistic DAG goes to the sink); returns the
    last state."""
    added = []
    for _ in range(n_states):
        targets = rng.sample(added, rng.randint(1, len(added))) if added else []
        atoms = {a: F(rng.randint(0, 8), 8) for a in ATOMS}
        if kind == "prob":
            weights = [rng.randint(1, 8) for _ in targets] or [1]
            edges = tuple(F(w, sum(weights)) for w in weights)
        else:
            edges = tuple(F(rng.randint(0, 8), 8) for _ in targets)
        added.append(dag.add(edges, targets, atoms))
    return added[-1]


class TestAssemble:
    def test_no_children(self):
        dag = WitnessDag("fuzzyrel")
        model = dag.witness(dag.add((), []))
        root = model.root
        assert model.states == ("s0",)
        assert eval_formula(model, root, parse("dia 0")) == 0

    def test_point_mass_chain(self):
        dag = WitnessDag("prob")
        u = dag.add((F(1),), [], {"a": F(1, 3)})
        model = dag.witness(dag.add((F(1),), [u]))
        root = model.root
        assert eval_formula(model, root, parse("G a")) == F(1, 3)

    def test_child_values_preserved(self):
        rng = random.Random(3)
        for _ in range(30):
            kind = rng.choice(["prob", "fuzzyrel"])
            dag = WitnessDag(kind)
            # Two states at least, so that no probabilistic value needs the sink.
            child = rand_dag_state(rng, dag, kind, rng.randint(2, 4))
            f = rand_formula(rng, {"prob": "lgen", "fuzzyrel": "alc"}[kind], 1, max_den=8)
            before = eval_formula(dag.witness(child), "s0", f)
            edges = (F(1),) if kind == "prob" else (F(1, 2),)
            model = dag.witness(dag.add(edges, [child]))
            (x,) = model.successors(model.root)
            assert eval_formula(model, x, f) == before

    def test_dag_states_evaluate(self):
        dag = WitnessDag("fuzzyrel")
        u = dag.add((), [], {"a": F(1, 3)})
        x = dag.add((F(1),), [u])
        assert eval_formula(dag.model, x, parse("dia a")) == F(1, 3)
        assert eval_formula(dag.model, u, parse("dia a")) == 0
        with pytest.raises(ModelError):
            eval_formula(dag.model, x + 1, parse("dia a"))

    def test_edge_count_mismatch(self):
        dag = WitnessDag("fuzzyrel")
        with pytest.raises(ModelError):
            dag.add((F(1),), [])

    def test_prob_weights_must_sum_to_one(self):
        dag = WitnessDag("prob")
        u = dag.add((F(1),), [])
        with pytest.raises(ModelError):
            dag.add((F(1, 2),), [u])


class TestJsonAndValidate:
    def test_round_trip_all_kinds(self):
        rng = random.Random(11)
        space = rand_metric_space(rng)
        for kind in ("prob", "fuzzyrel", "metric", "metric-crisp"):
            m = rand_model(rng, kind, 3, space=space)
            again = FiniteModel.from_json(json.loads(json.dumps(m.to_json())))
            assert again.to_json() == m.to_json()

    def test_unknown_kind_reported_before_rows(self):
        data = {"kind": "foo", "states": ["s", "t"], "trans": {"s": {"t": "1"}}}
        with pytest.raises(ModelError, match="unknown model kind 'foo'"):
            FiniteModel.from_json(data)

    def test_root_must_be_a_state_name_or_null(self):
        data = {"kind": "fuzzyrel", "states": ["x"], "trans": {"x": {"x": "1"}}}
        for root in (["x"], {"x": 1}, 0, "y"):
            with pytest.raises(ModelError, match="root"):
                FiniteModel.from_json({**data, "root": root})
        assert FiniteModel.from_json({**data, "root": "x"}).root == "x"
        assert FiniteModel.from_json({**data, "root": None}).root is None

    def test_validate_rejects_bad_distribution(self):
        m = FiniteModel("prob", ("x",), {"x": {"x": F(1, 2)}}, {})
        with pytest.raises(ModelError):
            m.validate()

    def test_distribution_sums_over_mixed_denominators(self):
        # Exact to the last unit of the rows' LCM, which no denominator
        # reaches alone: 3/10 + 1/6 + 8/15 is 1, 1/3 + 1/4 + 2/5 is 59/60;
        # a state without a row sums to 0.
        row = {"x": F(3, 10), "y": F(1, 6), "z": F(8, 15)}
        FiniteModel("prob", ("x", "y", "z"), {s: row for s in "xyz"}, {}).validate()
        row = {"x": F(1, 3), "y": F(1, 4), "z": F(5, 12)}
        short = {**row, "z": F(2, 5)}
        with pytest.raises(ModelError, match=r"distribution at 'x' sums to 59/60, not 1"):
            FiniteModel("prob", ("x", "y", "z"), {s: short for s in "xyz"}, {}).validate()
        with pytest.raises(ModelError, match=r"distribution at 'y' sums to 0, not 1"):
            FiniteModel("prob", ("x", "y"), {"x": {"x": F(1)}}, {}).validate()
        dag = WitnessDag("prob")
        u = dag.add((F(1),), [])
        with pytest.raises(ModelError, match=r"witness distribution sums to 59/60, not 1"):
            dag.add((F(1, 3), F(1, 4), F(2, 5)), [u, u, u])
        assert dag.model.trans[dag.add((F(3, 10), F(1, 6), F(8, 15)), [u, u, u])] == {u: 1}

    def test_validate_rejects_floats(self):
        for trans, atoms in [
            ({"x": {"x": 0.5}}, {}),
            ({"x": {"x": F(1)}}, {"x": {"a": 0.5}}),
        ]:
            with pytest.raises(ModelError, match="not an exact rational"):
                FiniteModel("fuzzyrel", ("x",), trans, atoms).validate()

    def test_validate_rejects_values_outside_the_unit_interval(self):
        for bad in (F(-1, 3), F(4, 3)):
            with pytest.raises(ModelError, match="outside"):
                FiniteModel("fuzzyrel", ("x",), {"x": {"x": bad}}, {}).validate()
            with pytest.raises(ModelError, match="outside"):
                FiniteModel("fuzzyrel", ("x",), {}, {"x": {"a": bad}}).validate()
        FiniteModel("fuzzyrel", ("x",), {"x": {"x": F(0)}}, {"x": {"a": F(1)}}).validate()

    def test_validate_rejects_noncrisp_degrees(self):
        space = MetricSpace.make(["l"], [[0]])
        m = FiniteModel(
            "metric-crisp", ("x",), {"x": {("l", "x"): F(1, 2)}}, {}, space
        )
        with pytest.raises(ModelError):
            m.validate()

    @pytest.mark.parametrize("bad", [["1/2"], {"n": "1/2"}])
    def test_non_string_degree_names_state_and_value(self, bad):
        fuzzy = {"kind": "fuzzyrel", "states": ["x", "y"], "trans": {"x": {"y": "1/2"}},
                 "atoms": {"y": {"a": "1"}}}
        metric = {"kind": "metric", "states": ["x", "y"],
                  "trans": {"x": [{"label": "l", "to": "y", "deg": "1/2"}]},
                  "metric": {"labels": ["l"], "dist": [["0"]]}}
        for data, what, state in [
            ({**fuzzy, "trans": {"x": {"y": bad}}}, "transition degree", "x"),
            ({**fuzzy, "atoms": {"y": {"a": bad}}}, "atom value", "y"),
            ({**metric, "trans": {"x": [{"label": "l", "to": "y", "deg": bad}]}},
             "transition degree", "x"),
        ]:
            with pytest.raises(ModelError) as info:
                FiniteModel.from_json(data)
            assert str(info.value) == (
                f"{what} at state {state!r} must be a rational string, not {bad!r}"
            )
        with pytest.raises(MetricSpaceError):
            FiniteModel.from_json({**metric, "metric": {"labels": ["l"], "dist": [[bad]]}})
        for dist in ([[None]], [[[1]]]):
            with pytest.raises(MetricSpaceError):
                MetricSpace.from_json({"labels": ["l"], "dist": dist})

    def test_duplicate_metric_edge(self):
        data = {"kind": "metric", "states": ["x"],
                "trans": {"x": [{"label": "l", "to": "x", "deg": "1/2"},
                                {"label": "l", "to": "x", "deg": "1"}]},
                "metric": {"labels": ["l", "m"], "dist": [["0", "1"], ["1", "0"]]}}
        with pytest.raises(ModelError, match="two edges at state 'x' with label 'l' to 'x'"):
            FiniteModel.from_json(data)
        data["trans"]["x"][1]["label"] = "m"
        assert FiniteModel.from_json(data).trans == {"x": {("l", "x"): F(1, 2), ("m", "x"): 1}}

    def test_metric_space_axioms(self):
        with pytest.raises(MetricSpaceError):
            MetricSpace.make(["l", "m"], [[0, 1], [F(1, 2), 0]])  # asymmetric
        with pytest.raises(MetricSpaceError):
            MetricSpace.make(["l"], [[1]])  # nonzero diagonal
        with pytest.raises(MetricSpaceError):
            MetricSpace.make(
                ["a", "b", "c"],
                [[0, 1, F(1, 4)], [1, 0, F(1, 4)], [F(1, 4), F(1, 4), 0]],
            )  # triangle violated
