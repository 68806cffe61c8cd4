import random
from fractions import Fraction as F

from helpers import (
    onestep_modal_value,
    rand_interval,
    rand_metric_space,
    rand_rational,
    rand_sequent,
    run_search,
)

from nexfuz.liftings import metric_diamond_value
from nexfuz.logics import MetricLogic, get_logic
from nexfuz.logics.metric import _Lit
from nexfuz.metricspace import MetricSpace
from nexfuz.models import FiniteModel, check_sequent
from nexfuz.numerics import EMPTY, Interval, UNIT
from nexfuz.sequents import Sequent
from nexfuz.solver import sat
from nexfuz.syntax import And, MetricDiamond, Minus, Modal, Neg, parse


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval.make(F(lo), F(hi), lo_open, hi_open)


def lit(label, c, interval):
    return MetricDiamond(label, F(c)), interval


SINGLE = MetricSpace.make(["l"], [[0]])
PAIR = MetricSpace.make(["l", "m"], [[0, F(3, 10)], [F(3, 10), 0]])
FAR = MetricSpace.make(["l", "m"], [[0, F(1)], [F(1), 0]])


class TestConclusions:
    def test_single_literal_single_conclusion(self):
        logic = get_logic("metric-fuzzy", SINGLE)
        (c,) = logic.conclusions((lit("l", 1, iv("7/10", 1)),))
        assert c.cells == ((iv("7/10", 1),),)

    def test_distant_labels_no_interaction(self):
        logic = get_logic("metric-fuzzy", FAR)
        gamma = (lit("l", "1/2", iv("2/5", "2/5")), lit("m", "1/2", iv("2/5", "2/5")))
        cs = list(logic.conclusions(gamma))
        assert len(cs) == 1  # no interacting pairs: one all-lower conclusion
        assert cs[0].cells == ((iv("2/5", 1), UNIT), (UNIT, iv("2/5", 1)))

    def test_empty_literal_no_conclusions(self):
        # An empty literal never reaches the rule: the tableau's Ax rule
        # closes its end-sequent before the solver asks for a conclusion.
        seen = []

        class Recording(MetricLogic):
            def search_steps(self, lits):
                seen.append(lits)
                return super().search_steps(lits)

        logic = Recording(SINGLE)
        assert not sat(Sequent([(parse("dia{l,1} a & dia{l,1/2} b"), EMPTY)]), logic)
        assert seen == []

    def test_unreachable_lower_bound_no_conclusions(self):
        logic = get_logic("metric-fuzzy", SINGLE)
        # reach 1/4 cannot support a lower bound above 1/4 anywhere
        assert list(logic.conclusions((lit("l", "1/4", iv("1/2", 1)),))) == []

    def test_vacuous_lower_literals_make_no_states(self):
        logic = get_logic("metric-fuzzy", SINGLE)
        (c,) = logic.conclusions((lit("l", 1, iv(0, "1/2")),))
        assert c.cells == ()


def reference_reach(space, lit):
    """`MetricLogic._reach` over `Fraction`s: each slack max(0, c - d(l, m))
    is built and tested against the literal's rays."""
    lower_ray, upper_ray = lit.interval.lower_ray(), lit.interval.upper_ray()
    is_state, has_upper = lower_ray != UNIT, upper_ray != UNIT
    lower, upper = [] if is_state else None, set()
    if is_state or has_upper:
        distances = space.matrix[space.index(lit.label)]
        for m, d in zip(space.labels, distances):
            slack = max(F(0), lit.reach - d)
            if is_state and lower_ray.contains(slack):
                lower.append(m)
            if has_upper and not upper_ray.contains(slack):
                upper.add(m)
    return lower, upper


class TestReach:
    def test_integer_reach_matches_fraction_reach(self):
        rng = random.Random(4242)
        # (side, openness) -> literals with a slack exactly on that bound
        ties = {(side, is_open): 0 for side in ("lo", "hi") for is_open in (False, True)}
        shapes = set()
        for _ in range(3000):
            space = rand_metric_space(rng, max_labels=5)
            label = rng.choice(space.labels)
            c = rng.choice([F(0), F(1), rand_rational(rng, 8)])
            slacks = [max(F(0), c - d) for d in space.matrix[space.index(label)]]
            # Bounds are drawn from the slacks, 0, 1 and random values, so
            # that ties and vacuous bounds both come up often.
            lo, hi = sorted(
                rng.choice([*slacks, F(0), F(1), rand_rational(rng, 8)]) for _ in range(2)
            )
            interval = Interval.make(lo, hi, rng.random() < 0.5, rng.random() < 0.5)
            if interval.is_empty:
                continue
            lit = _Lit(0, label, c, interval)
            logic = MetricLogic(space, crisp=rng.random() < 0.5)
            assert logic._reach(lit) == reference_reach(space, lit), (space, lit)
            shapes.add((interval.lo_open, interval.hi_open, lo == 0, hi == 1))
            ties["lo", interval.lo_open] += lo in slacks and lo != 0
            ties["hi", interval.hi_open] += hi in slacks and hi != 1
        # All four open/closed combinations, each with a lower bound at 0 or
        # not and an upper bound at 1 or not; a closed 0 and a closed 1 are
        # the vacuous bounds.
        assert len(shapes) == 16, shapes
        assert min(ties.values()) >= 50, ties

    def test_examples(self):
        logic = MetricLogic(PAIR)
        # slacks from l: 1/2 at l, 1/5 at m
        assert logic._reach(_Lit(0, "l", F(1, 2), iv("1/5", 1))) == (["l", "m"], set())
        assert logic._reach(_Lit(0, "l", F(1, 2), iv("1/5", 1, lo_open=True))) == (["l"], set())
        assert logic._reach(_Lit(0, "l", F(1, 2), iv(0, "1/5"))) == (None, {"l"})
        assert logic._reach(_Lit(0, "l", F(1, 2), iv(0, "1/5", hi_open=True))) == (None, {"l", "m"})
        assert logic._reach(_Lit(0, "l", F(0), iv(0, 1))) == (None, set())
        assert logic._reach(_Lit(0, "l", F(0), iv(0, 0))) == (None, set())
        # slacks from m at c = 1: 7/10 at l, 1 at m
        assert logic._reach(_Lit(0, "m", F(1), iv(1, 1))) == (["m"], set())


class TestRealize:
    """The labelled edges the conclusions carry."""

    def test_midpoint_degree(self):
        logic = get_logic("metric-fuzzy", SINGLE)
        (c,) = logic.conclusions((lit("l", 1, iv("7/10", 1)),))
        assert c.edges == (("l", F(17, 20)),)

    def test_crisp_uses_full_degree(self):
        logic = get_logic("metric-crisp", SINGLE)
        (c,) = logic.conclusions((lit("l", 1, iv("7/10", 1)),))
        assert c.edges == (("l", F(1)),)

    def test_zero_literals_empty_structure(self):
        logic = get_logic("metric-fuzzy", SINGLE)
        (c,) = logic.conclusions(())
        assert c.cells == () and c.edges == ()

    def test_own_upper_bound_respected_in_crisp(self):
        # With degree pinned to 1 the literal's own value is capped by its
        # upper bound through the conclusion, not the degree.
        logic = get_logic("metric-crisp", SINGLE)
        found = False
        for c in logic.conclusions((lit("l", 1, iv("1/2", "3/5")),)):
            value = metric_diamond_value(
                [("l", c.edges[0][1], c.cells[0][0].pick())], "l", F(1), SINGLE
            )
            assert iv("1/2", "3/5").contains(value)
            found = True
        assert found


def _sample_tau(rng, conclusion):
    values = {}
    for j, cells in enumerate(conclusion.cells):
        for i, interval in enumerate(cells):
            lo, hi = interval.lo, interval.hi
            candidates = [lo + (hi - lo) * F(k, 8) for k in range(9)]
            candidates = [x for x in candidates if interval.contains(x)]
            values[(j, i)] = rng.choice(candidates)
    return values


def _rand_gamma(rng, space, n):
    return tuple(
        (MetricDiamond(rng.choice(space.labels), rand_rational(rng, 8)), rand_interval(rng, 8))
        for _ in range(n)
    )


class TestRoundTrip:
    def _run(self, crisp, seed):
        rng = random.Random(seed)
        done = 0
        while done < 80:
            space = rand_metric_space(rng)
            logic = get_logic("metric-crisp" if crisp else "metric-fuzzy", space)
            n = rng.randint(1, 3)
            gamma = _rand_gamma(rng, space, n)
            done += 1
            checked = 0
            for c in logic.conclusions(gamma):
                tau = _sample_tau(rng, c)
                for i, (op, interval) in enumerate(gamma):
                    vals = [tau[(j, i)] for j in range(len(c.cells))]
                    value = onestep_modal_value(op, vals, list(c.edges), space)
                    assert interval.contains(value), (gamma, c, tau)
                checked += 1
                if checked >= 8:
                    break

    def test_fuzzy(self):
        self._run(False, 601)

    def test_crisp(self):
        self._run(True, 602)


class TestSearchAgreement:
    def test_verdicts_match(self):
        rng = random.Random(603)
        done = 0
        while done < 120:
            space = rand_metric_space(rng)
            crisp = rng.random() < 0.5
            logic = get_logic("metric-crisp" if crisp else "metric-fuzzy", space)
            n = rng.randint(1, 3)
            gamma = _rand_gamma(rng, space, n)
            done += 1
            pivot = rand_rational(rng, 8)

            def child(cells):
                # State 0 for every satisfiable child: a search must test
                # `is None`, never truthiness.
                return 0 if cells[0].contains(pivot) else None

            naive = None
            for c in logic.conclusions(gamma):
                if all(child(cells) is not None for cells in c.cells):
                    naive = c
                    break
            fast = run_search(logic, gamma, child)
            assert (naive is None) == (fast is None), (gamma, pivot, crisp)
            if fast is not None:
                assert fast.children == [0] * len(fast.conclusion.cells)
                assert len(fast.conclusion.edges) == len(fast.children)


def _metric_formula(f):
    """An `alc` formula with every `dia` made `dia{l,1}`."""
    if isinstance(f, Modal):
        return Modal(MetricDiamond("l", F(1)), _metric_formula(f.arg))
    if isinstance(f, Neg):
        return Neg(_metric_formula(f.arg))
    if isinstance(f, Minus):
        return Minus(_metric_formula(f.arg), f.c)
    if isinstance(f, And):
        return And(_metric_formula(f.left), _metric_formula(f.right))
    return f


def _relabel(model, kind, space, edge):
    """`model` with each successor row's keys mapped by `edge`."""
    trans = {x: {edge(key): d for key, d in row.items()} for x, row in model.trans.items()}
    return FiniteModel(kind, model.states, trans, model.atoms, space, model.root)


class TestAlcTranslation:
    """`alc` as `metric-fuzzy` over one label at distance 0: `dia φ` is
    `dia{l,1} φ`, since the metric term min(degree, value, 1 - 0) is the
    relational one.  The two searches share no code, so each is an oracle
    for the other: the verdicts agree, and each witness, relabelled, is a
    witness of the other sequent."""

    def test_verdicts_and_witnesses_agree(self):
        space = MetricSpace.from_json({"labels": ["l"], "dist": [["0"]]})
        alc, metric = get_logic("alc"), get_logic("metric-fuzzy", space)
        rng = random.Random(2024)
        satisfiable = 0
        for _ in range(800):
            seq = rand_sequent(rng, "alc", depth=3, max_den=8, max_literals=3)
            mapped = Sequent([(_metric_formula(f), interval) for f, interval in seq.items()])
            a, m = sat(seq, alc), sat(mapped, metric)
            assert a.sat == m.sat, seq
            if not a.sat:
                continue
            satisfiable += 1
            for verdict, kind, target, edge in (
                (a, "metric", mapped, lambda y: ("l", y)),
                (m, "fuzzyrel", seq, lambda key: key[1]),
            ):
                model = _relabel(verdict.model, kind, space if kind == "metric" else None, edge)
                model.validate()
                assert check_sequent(model, verdict.state, target), (seq, kind)
        assert 0 < satisfiable < 800
