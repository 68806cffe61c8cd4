import dataclasses
import json
import random
from fractions import Fraction as F

import pytest

from helpers import ATOMS, rand_formula, rand_metric_space, rand_model

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
from nexfuz.syntax import parse


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval.make(F(lo), F(hi), lo_open, hi_open)


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
                    assert eval_formula(m, x, f) == eval_formula(m, x, f, memo={})
                assert m.values

    def test_check_sequent_ignores_the_table(self):
        m = one_successor_model()
        f = parse("dia a")
        seq = Sequent([(f, iv("1/2", "1/2"))])
        m.values["x", f] = F(0)
        assert eval_formula(m, "x", f) == 0  # the poisoned value is served
        assert check_sequent(m, "x", seq)
        assert not check_sequent(m, "x", Sequent([(f, iv(0, 0))]))

    def test_replace_starts_a_fresh_table(self):
        m = one_successor_model()
        assert eval_formula(m, "x", parse("dia a")) == F(1, 2)
        other = dataclasses.replace(m, atoms={"x": {"a": F(0)}, "y": {"a": F(1, 4)}})
        assert eval_formula(other, "x", parse("dia a")) == F(1, 4)
        assert eval_formula(m, "x", parse("dia a")) == F(1, 2)

    def test_equality_ignores_the_table(self):
        m, copy = one_successor_model(), one_successor_model()
        eval_formula(m, "x", parse("dia a & a"))
        assert m.values and not copy.values
        assert m == copy


class TestCheckSequent:
    def test_worked_example(self):
        m = one_successor_model()
        assert check_sequent(m, "x", Sequent([(parse("dia a & ~(dia a)"), iv("1/2", 1))]))

    def test_zero_literal(self):
        m = one_successor_model()
        assert not check_sequent(m, "x", Sequent([(parse("0"), iv(0, 1, lo_open=True))]))

    def test_empty_sequent(self):
        assert check_sequent(one_successor_model(), "x", Sequent())


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
        assert dag.value(x, parse("dia a")) == F(1, 3)
        assert dag.value(u, parse("dia a")) == 0
        with pytest.raises(ModelError):
            dag.value(x + 1, parse("dia a"))

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

    def test_validate_rejects_bad_distribution(self):
        m = FiniteModel("prob", ("x",), {"x": {"x": F(1, 2)}}, {})
        with pytest.raises(ModelError):
            m.validate()

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
