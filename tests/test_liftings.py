"""The one-pass liftings against their point-set definitions, and the
non-expansiveness the paper's decision procedure rests on: of each lifting,
and of every formula of each logic."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from helpers import (
    rand_formula,
    rand_metric_space,
    rand_model,
    rand_rational,
    reference_diamond_value,
    reference_generally_value,
    reference_metric_diamond_value,
    reference_more_than_value,
)

from nexfuz.liftings import (
    diamond_value,
    generally_value,
    metric_diamond_value,
    more_than_value,
)
from nexfuz.metricspace import MetricSpace, MetricSpaceError
from nexfuz.models import FiniteModel, eval_formula
from nexfuz.numerics import ONE, ZERO

# Small denominators, so that ties and zeros are frequent.
unit = st.integers(1, 6).flatmap(lambda d: st.integers(0, d).map(lambda n: F(n, d)))


@st.composite
def spaces(draw):
    """A metric space of points on the rational line."""
    points = draw(st.lists(unit, min_size=1, max_size=4))
    labels = [f"l{i}" for i in range(len(points))]
    return MetricSpace.make(labels, [[abs(p - q) for q in points] for p in points])


PAIRS = {
    "diamond": (diamond_value, reference_diamond_value),
    "generally": (generally_value, reference_generally_value),
    "more_than": (more_than_value, reference_more_than_value),
    "metric_diamond": (metric_diamond_value, reference_metric_diamond_value),
}


@st.composite
def cases(draw, kind):
    """(lifting, reference, f, g): the lifting and its reference as functions
    of the successors' values, and two value lists for the same successors."""
    n = draw(st.integers(0, 6))
    f, g, weights = (draw(st.lists(unit, min_size=n, max_size=n)) for _ in range(3))
    if kind == "metric_diamond":
        space = draw(spaces())
        labels = draw(st.lists(st.sampled_from(space.labels), min_size=n, max_size=n))
        extra = (draw(st.sampled_from(space.labels)), draw(unit), space)

        def successors(vals):
            return list(zip(labels, weights, vals))
    else:
        extra = (draw(unit),) if kind == "more_than" else ()

        def successors(vals):
            return list(zip(weights, vals))

    lift, reference = PAIRS[kind]
    return (
        lambda vals: lift(successors(vals), *extra),
        lambda vals: reference(successors(vals), *extra),
        f,
        g,
    )


@pytest.mark.parametrize("kind", PAIRS)
class TestAgainstReference:
    @given(data=st.data())
    def test_equals_reference(self, kind, data):
        lift, reference, f, _ = data.draw(cases(kind))
        value = lift(f)
        assert value == reference(f)
        assert type(value) is F

    @given(data=st.data())
    def test_monotone(self, kind, data):
        lift, _, f, g = data.draw(cases(kind))
        above = [max(a, b) for a, b in zip(f, g)]
        assert lift(f) <= lift(above)

    @given(data=st.data())
    def test_non_expansive(self, kind, data):
        lift, _, f, g = data.draw(cases(kind))
        gap = max((abs(a - b) for a, b in zip(f, g)), default=ZERO)
        assert abs(lift(f) - lift(g)) <= gap


class TestWorkedSweeps:
    def test_generally_crossing_inside_a_tie(self):
        # The running mass reaches 1/2 at the second successor valued 1/2.
        dist = [(F(1, 4), F(1, 2)), (F(1, 2), ZERO), (F(1, 4), F(1, 2))]
        assert generally_value(dist) == F(1, 2) == reference_generally_value(dist)

    def test_generally_mass_above_wins(self):
        # min(9/10, 9/10) at value 1 beats the crossing value 1/10.
        dist = [(F(9, 10), ONE), (F(1, 10), F(1, 10))]
        assert generally_value(dist) == F(9, 10) == reference_generally_value(dist)

    def test_generally_without_crossing(self):
        dist = [(F(1, 4), ONE), (ZERO, F(1, 2))]
        assert generally_value(dist) == F(1, 4) == reference_generally_value(dist)

    def test_more_than_mass_at_zero(self):
        dist = [(F(1, 4), ONE), (F(3, 4), ZERO)]
        assert more_than_value(dist, F(1, 2)) == ZERO == reference_more_than_value(dist, F(1, 2))
        assert more_than_value(dist, F(1, 5)) == ONE

    def test_empty(self):
        space = MetricSpace.make(["l"], [[0]])
        assert diamond_value([]) == generally_value([]) == more_than_value([], ZERO) == 0
        assert metric_diamond_value([], "l", ONE, space) == 0

    def test_unknown_labels_raise_without_edges(self):
        space = MetricSpace.make(["l"], [[0]])
        with pytest.raises(MetricSpaceError, match="unknown label 'zz'"):
            metric_diamond_value([], "zz", ONE, space)
        with pytest.raises(MetricSpaceError, match="unknown label 'zz'"):
            metric_diamond_value([("zz", ZERO, ZERO)], "l", ONE, space)


KIND_LOGICS = {
    "prob": ("lgen", "mp"),
    "fuzzyrel": ("alc",),
    "metric": ("metric-fuzzy",),
    "metric-crisp": ("metric-crisp",),
}


class TestWholeLogicNonExpansive:
    def test_atoms_moved_by_epsilon(self):
        """Moving every atom by at most eps, clamped to [0, 1], moves every
        formula's value at every state by at most eps."""
        rng = random.Random(4017)
        for kind, logics in KIND_LOGICS.items():
            for _ in range(25):
                space = rand_metric_space(rng) if kind.startswith("metric") else None
                m = rand_model(rng, kind, rng.randint(1, 5), space=space, max_den=8)
                eps = rand_rational(rng, 8) / 2
                moved = {
                    x: {
                        a: min(ONE, max(ZERO, v + eps * F(rng.randint(-4, 4), 4)))
                        for a, v in row.items()
                    }
                    for x, row in m.atoms.items()
                }
                near = FiniteModel(kind, m.states, m.trans, moved, space)
                near.validate()
                for _ in range(4):
                    f = rand_formula(rng, rng.choice(logics), rng.randint(0, 3), space, max_den=8)
                    for x in m.states:
                        assert abs(eval_formula(m, x, f) - eval_formula(near, x, f)) <= eps, (
                            kind,
                            f,
                            x,
                        )
