import random
from fractions import Fraction as F

from helpers import is_point, onestep_modal_value, rand_interval, rand_rational

from nexfuz.liftings import diamond_value
from nexfuz.logics import FuzzyAlcLogic, get_logic
from nexfuz.numerics import EMPTY, Interval, UNIT
from nexfuz.sequents import Sequent
from nexfuz.solver import sat
from nexfuz.syntax import Diamond, parse


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval.make(F(lo), F(hi), lo_open, hi_open)


def gamma_of(*intervals):
    return tuple((Diamond(), interval) for interval in intervals)


LOGIC = get_logic("alc")


class TestConclusions:
    def test_disjoint_pair_triggers_upper_bound(self):
        gamma = gamma_of(iv("3/5", 1), iv(0, "2/5"))
        (c,) = LOGIC.conclusions(gamma)
        assert c.cells == ((iv("3/5", 1), iv(0, "2/5")), (UNIT, UNIT))

    def test_touching_endpoints_do_not_trigger(self):
        gamma = gamma_of(iv("1/2", 1), iv(0, "1/2"))
        (c,) = LOGIC.conclusions(gamma)
        assert c.cells == ((iv("1/2", 1), UNIT), (UNIT, UNIT))

    def test_empty_literal_no_conclusions(self):
        # An empty literal never reaches the rule: the tableau's Ax rule
        # closes its end-sequent before the solver asks for a conclusion.
        seen = []

        class Recording(FuzzyAlcLogic):
            def search_steps(self, lits):
                seen.append(lits)
                return super().search_steps(lits)

        assert not sat(Sequent([(parse("dia a & dia b"), EMPTY)]), Recording())
        assert seen == []

    def test_empty_gamma_single_empty_conclusion(self):
        (c,) = LOGIC.conclusions(())
        assert c.cells == ()


class TestRealize:
    """The transition degrees the conclusion carries."""

    def test_forced_degree_at_touching_endpoints(self):
        gamma = gamma_of(iv("1/2", 1), iv(0, "1/2"))
        (c,) = LOGIC.conclusions(gamma)
        assert c.edges[0] == F(1, 2)

    def test_midpoint_for_slack(self):
        gamma = gamma_of(iv("3/5", 1), iv(0, "2/5"))
        (c,) = LOGIC.conclusions(gamma)
        assert c.edges[0] == F(4, 5)

    def test_unconstrained_single_literal(self):
        gamma = gamma_of(UNIT)
        (c,) = LOGIC.conclusions(gamma)
        assert c.edges == (F(1, 2),)


class TestRoundTrip:
    """Any successor values inside the conclusion's intervals, together with
    the conclusion's degrees, evaluate every literal back into its interval."""

    def test_randomized(self):
        rng = random.Random(201)
        trials = 0
        while trials < 400:
            n = rng.randint(1, 4)
            gamma = gamma_of(*(rand_interval(rng) for _ in range(n)))
            if any(i.is_empty for _, i in gamma):
                continue
            trials += 1
            (c,) = LOGIC.conclusions(gamma)
            tau = [[_pick_random(rng, cell) for cell in cells] for cells in c.cells]
            for i, (op, interval) in enumerate(gamma):
                value = onestep_modal_value(
                    op, [tau[j][i] for j in range(n)], list(c.edges)
                )
                assert interval.contains(value)


class TestSoundness:
    """Random one-step models satisfying gamma realize the conclusion."""

    def test_sampled_models(self):
        rng = random.Random(202)
        hits = 0
        for _ in range(4000):
            n = rng.randint(1, 3)
            states = rng.randint(1, 3)
            degrees = [rand_rational(rng, 8) for _ in range(states)]
            tau = {
                (x, f"v{i+1}"): rand_rational(rng, 8)
                for x in range(states)
                for i in range(n)
            }
            values = {}
            for i in range(n):
                values[i] = diamond_value(
                    [(degrees[x], tau[(x, f"v{i+1}")]) for x in range(states)]
                )
            intervals = [_interval_around(rng, values[i]) for i in range(n)]
            gamma = gamma_of(*intervals)
            hits += 1
            (c,) = LOGIC.conclusions(gamma)
            for cells in c.cells:
                assert any(
                    all(cells[i].contains(tau[(x, f"v{i+1}")]) for i in range(n))
                    for x in range(states)
                ), f"unrealized cells {cells} for gamma {gamma}"
        assert hits > 0


def _pick_random(rng, interval):
    if is_point(interval):
        return interval.lo
    # A rational strictly inside, or an allowed endpoint.
    candidates = [interval.lo + (interval.hi - interval.lo) * F(k, 8) for k in range(9)]
    candidates = [q for q in candidates if interval.contains(q)]
    return rng.choice(candidates)


def _interval_around(rng, value):
    lo = value - rand_rational(rng, 8) / 4
    hi = value + rand_rational(rng, 8) / 4
    lo = max(F(0), lo)
    hi = min(F(1), hi)
    return Interval.make(lo, hi)
