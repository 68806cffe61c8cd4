import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from helpers import onestep_modal_value, rand_interval, rand_rational, run_search

from nexfuz import lp
from nexfuz.liftings import generally_value, more_than_value
from nexfuz.logics import get_logic
from nexfuz.logics.probabilistic import (
    _mass_possible,
    _needed_bits,
    config_feasible,
    consistent_vectors,
    literal_cells,
    mass_bounds,
    mass_system,
)
from nexfuz.lp import CapExceeded
from nexfuz.numerics import Comp, Interval
from nexfuz.syntax import Generally, MoreThan


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval.make(F(lo), F(hi), lo_open, hi_open)


def g_lit(interval):
    return Generally(), interval


def m_lit(p, interval):
    return MoreThan(F(p)), interval


LGEN = get_logic("lgen")
MP = get_logic("mp")


def vectors_of(gamma, conclusion):
    """A conclusion's configuration, recovered from its cells: each
    consistent vector has its own cells."""
    vector_of = {cells: vec for vec, cells in consistent_vectors(gamma)}
    return tuple(vector_of[cells] for cells in conclusion.cells)


class TestLiteralBounds:
    def test_generally_lower_closed(self):
        lower, upper = mass_bounds([g_lit(iv("1/2", 1))])
        assert lower is not None
        assert lower.rel is Comp.GE and lower.threshold == F(1, 2)
        assert upper is None  # hi = 1 closed: vacuous

    def test_generally_upper_open(self):
        lower, upper = mass_bounds([g_lit(iv(0, "3/5", hi_open=True))])
        assert lower is None  # lo = 0 closed: vacuous
        assert upper.rel is Comp.GT and upper.threshold == F(2, 5)

    def test_more_than_point(self):
        lower, upper = mass_bounds([m_lit("3/10", iv("4/5", "4/5"))])
        assert lower.rel is Comp.GT and lower.threshold == F(3, 10)
        # Non-strict: mass at or below the value can be exactly 1 - p.
        assert upper.rel is Comp.GE and upper.threshold == F(7, 10)

    def test_coordinate_order(self):
        # Two coordinates per literal, lower then upper, in literal order.
        conds = mass_bounds([g_lit(iv("1/2", 1)), m_lit("3/10", iv(0, "4/5"))])
        assert [c and (c.rel, c.threshold) for c in conds] == [
            (Comp.GE, F(1, 2)), None, None, (Comp.GE, F(7, 10))
        ]

    def test_more_than_upper_nonstrict_is_necessary(self):
        # Two successors at values 1 and 4/5 with masses 3/10 and 7/10
        # give M{3/10} exactly 4/5, yet the mass at or below 4/5 is
        # exactly 7/10; a strict bound would wrongly reject this model.
        dist = [(F(3, 10), F(1)), (F(7, 10), F(4, 5))]
        assert more_than_value(dist, F(3, 10)) == F(4, 5)

    def test_probability_one_never_blocks_zero_lower(self):
        lower, upper = mass_bounds([m_lit(1, iv(0, 0))])
        assert lower is None
        assert upper.rel is Comp.GE and upper.threshold == F(0)


class TestEnumeration:
    def test_counts_for_one_literal(self):
        # Consistent vectors 01 < 10 < 11; every set of them in size-then-lex
        # order is a conclusion when its weights are feasible.
        gamma = (g_lit(iv("1/4", "3/4")),)
        combos = [
            ((0, 1),), ((1, 0),), ((1, 1),),
            ((0, 1), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1)),
            ((0, 1), (1, 0), (1, 1)),
        ]
        conds = mass_bounds(gamma)
        feasible = [cfg for cfg in combos if config_feasible(cfg, conds) is not None]
        got = list(LGEN.conclusions(gamma))
        assert [vectors_of(gamma, c) for c in got] == feasible
        assert len(feasible) == 5
        for c, cfg in zip(got, feasible):
            assert c.edges == tuple(config_feasible(cfg, conds))

    def test_zero_literals(self):
        (c,) = LGEN.conclusions(())
        assert c.cells == () and c.edges == (F(1),)

    def test_first_configuration(self):
        gamma = (g_lit(iv("1/2", 1)),)
        first = next(iter(LGEN.conclusions(gamma)))
        assert vectors_of(gamma, first) == ((1, 1),)

    def test_cap(self):
        gamma = (g_lit(iv("1/4", "3/4")),) * 7
        with pytest.raises(CapExceeded):
            next(iter(LGEN.conclusions(gamma)))

    def test_vectors_lexicographic(self):
        gamma = (g_lit(iv("1/4", "3/4")), g_lit(iv("1/2", 1)))
        vecs = [vec for vec, _ in consistent_vectors(gamma)]
        assert vecs == [
            (0, 1, 0, 1), (0, 1, 1, 1),
            (1, 0, 0, 1), (1, 0, 1, 1),
            (1, 1, 0, 1), (1, 1, 1, 1),
        ]


class TestConfigFeasible:
    def test_full_vector_point_mass(self):
        conds = mass_bounds([g_lit(iv("1/2", 1))])
        assert config_feasible([(1, 1)], conds) == [F(1)]

    def test_zero_vector_fails_lower(self):
        conds = mass_bounds([g_lit(iv("1/2", 1))])
        assert config_feasible([(0, 0)], conds) is None

    def test_split_masses_conflict(self):
        conds = mass_bounds([m_lit("3/10", iv("4/5", "4/5"))])
        # One state counts only toward the lower mass (> 3/10), the other
        # only toward the upper mass (>= 7/10): weights cannot do both.
        assert config_feasible([(1, 0), (0, 1)], conds) is None


class TestVectorDecoding:
    def test_both_bits_set(self):
        assert ((1, 1), iv("1/2", 1)) in literal_cells(iv("1/2", 1))

    def test_low_bit_clear(self):
        assert ((0, 1), iv(0, "1/2", hi_open=True)) in literal_cells(iv("1/2", 1))

    def test_inconsistent_vector(self):
        # Clearing the vacuous upper bit demands value > 1: impossible.
        assert [bits for bits, _ in literal_cells(iv("1/2", 1))] == [(0, 1), (1, 1)]
        assert [vec for vec, _ in consistent_vectors([g_lit(iv("1/2", 1))])] == [(0, 1), (1, 1)]

    def test_vector_sequents(self):
        # Each vector's cells: the child sequent of its successor pairs
        # each literal's argument with that literal's cell.
        assert list(consistent_vectors([g_lit(iv("1/2", 1))])) == [
            ((0, 1), (iv(0, "1/2", hi_open=True),)),
            ((1, 1), (iv("1/2", 1),)),
        ]

    def test_cells_partition_the_unit_interval(self):
        # Over a grid of literal intervals, every grid value lies in exactly
        # the cell of its own membership bits, and every cell is nonempty.
        grid = [F(k, 4) for k in range(5)]
        flags = (False, True)
        for lo, hi, lo_open, hi_open in product(grid, grid, flags, flags):
            interval = iv(lo, hi, lo_open, hi_open)
            if interval.is_empty:
                continue
            cells = literal_cells(interval)
            assert all(not cell.is_empty for _, cell in cells)
            assert (1, 1) in dict(cells) and (0, 0) not in dict(cells)
            for x in (F(k, 8) for k in range(9)):
                bits = (int(interval.lower_ray().contains(x)),
                        int(interval.upper_ray().contains(x)))
                assert [b for b, c in cells if c.contains(x)] == [bits]


class TestConclusions:
    def test_point_mass_first_conclusion(self):
        first = next(iter(LGEN.conclusions((g_lit(iv("1/2", 1)),))))
        assert len(first.cells) == 1
        assert first.cells[0] in ((iv(0, "1/2", hi_open=True),), (iv("1/2", 1),))

    def test_caratheodory_size_bound(self):
        gamma = (g_lit(iv("1/4", "3/4")), g_lit(iv(0, "1/2")))
        n = 2
        for k, c in enumerate(LGEN.conclusions(gamma)):
            assert len(c.cells) <= 2 * n + 1
            if k > 40:
                break

    def test_empty_gamma(self):
        (c,) = LGEN.conclusions(())
        assert c.cells == ()
        assert sum(c.edges) == 1

    def test_point_mass_realize_value(self):
        # Configuration {11} with one state at value 3/4 under a point
        # distribution: the operator evaluates to min(3/4, 1) = 3/4.
        gamma = (g_lit(iv("1/2", 1)),)
        for c in LGEN.conclusions(gamma):
            if vectors_of(gamma, c) == ((1, 1),):
                assert c.edges == (F(1),)
                assert generally_value([(F(1), F(3, 4))]) == F(3, 4)
                break
        else:
            raise AssertionError("full-bits configuration not enumerated")


def _sample_tau(rng, conclusion):
    values = {}
    for j, cells in enumerate(conclusion.cells):
        for i, interval in enumerate(cells):
            lo, hi = interval.lo, interval.hi
            candidates = [lo + (hi - lo) * F(k, 8) for k in range(9)]
            candidates = [q for q in candidates if interval.contains(q)]
            values[(j, i)] = rng.choice(candidates)
    return values


class TestRoundTrip:
    """A conclusion's weights + any in-interval successor values re-evaluate
    every literal into its premise interval."""

    def _run(self, logic, make_op, trials, seed):
        rng = random.Random(seed)
        done = 0
        while done < trials:
            n = rng.randint(1, 2)
            gamma = tuple((make_op(rng), rand_interval(rng, 8)) for _ in range(n))
            found = 0
            for c in logic.conclusions(gamma):
                tau = _sample_tau(rng, c)
                assert sum(c.edges) == 1
                for i, (op, interval) in enumerate(gamma):
                    vals = [tau[(j, i)] for j in range(len(c.cells))]
                    value = onestep_modal_value(op, vals, list(c.edges))
                    assert interval.contains(value), (gamma, c, tau)
                found += 1
                if found >= 6:
                    break
            done += 1

    def test_generally(self):
        self._run(LGEN, lambda rng: Generally(), 60, 301)

    def test_more_than(self):
        self._run(MP, lambda rng: MoreThan(rand_rational(rng, 8)), 60, 302)


class TestSoundnessSampling:
    """States of a random satisfying one-step model classify into consistent
    vectors whose cells hold their values, and the support of the simplex's
    weights over those vectors is a feasible configuration of at most 2n+1
    vectors."""

    def _run(self, flavor, seed):
        rng = random.Random(seed)
        logic = get_logic(flavor)
        done = 0
        while done < 300:
            n = rng.randint(1, 2)
            states = rng.randint(1, 4)
            weights_raw = [rng.randint(1, 8) for _ in range(states)]
            total = sum(weights_raw)
            weights = [F(w, total) for w in weights_raw]
            tau = {
                (x, i): rand_rational(rng, 8) for x in range(states) for i in range(n)
            }
            ops = [
                Generally() if flavor == "lgen" else MoreThan(rand_rational(rng, 8))
                for _ in range(n)
            ]
            intervals = []
            for i in range(n):
                dist = [(weights[x], tau[(x, i)]) for x in range(states)]
                if flavor == "lgen":
                    value = generally_value(dist)
                else:
                    value = more_than_value(dist, ops[i].p)
                lo = max(F(0), value - rand_rational(rng, 8) / 4)
                hi = min(F(1), value + rand_rational(rng, 8) / 4)
                intervals.append(Interval.make(lo, hi))
            gamma = tuple(zip(ops, intervals))
            done += 1
            conds = mass_bounds(gamma)
            vecs = []
            for x in range(states):
                vec = []
                for i, interval in enumerate(intervals):
                    vec.append(1 if interval.lower_ray().contains(tau[(x, i)]) else 0)
                    vec.append(1 if interval.upper_ray().contains(tau[(x, i)]) else 0)
                vecs.append(tuple(vec))
            cells = dict(consistent_vectors(gamma))
            for x, vec in enumerate(vecs):
                assert vec in cells, (gamma, vec)
                for i in range(n):
                    assert cells[vec][i].contains(tau[(x, i)]), (gamma, vec)
            merged: dict[tuple, F] = {}
            for x, vec in enumerate(vecs):
                merged[vec] = merged.get(vec, F(0)) + weights[x]
            distinct = list(merged)
            weights = lp.simplex_feasible(mass_system(distinct, conds))
            assert weights is not None, (gamma, distinct)
            cfg = [vec for vec, w in zip(distinct, weights) if w != 0]
            assert len(cfg) <= 2 * n + 1, (gamma, cfg)
            assert config_feasible(cfg, conds) is not None, (gamma, cfg)

    def test_generally(self):
        self._run("lgen", 401)

    def test_more_than(self):
        self._run("mp", 402)


def _edge_interval(rng):
    """A random non-empty interval that often sits on a boundary: ends drawn
    from 0, 1 and denominators up to 6, each end closed or open, so that
    [0,0], [1,1] and closed or open 0 and 1 ends all come up."""
    while True:
        lo, hi = sorted(rng.choice((F(0), F(1), rand_rational(rng, 6))) for _ in range(2))
        interval = iv(lo, hi, rng.random() < 0.5, rng.random() < 0.5)
        if not interval.is_empty:
            return interval


def _edge_gamma(rng, flavor):
    """1-4 literals over `_edge_interval`s; M{p} draws p = 0 and p = 1 often."""
    return tuple(
        (
            Generally() if flavor == "lgen"
            else MoreThan(rng.choice((F(0), F(1), rand_rational(rng, 6)))),
            _edge_interval(rng),
        )
        for _ in range(rng.randint(1, 4))
    )


def _reference_search(gamma, child):
    """The search on tuple vectors and `Fraction` bounds: the cells it asks
    about, in order, and its conclusion's (cells, edges, children), or None.

    Its order is `consistent_vectors` stably sorted by descending popcount,
    minus the vectors a child-satisfiable one already asked about
    dominates; it stops at a satisfiable all-ones child, and otherwise
    solves the weight system over the satisfiable vectors it kept."""
    conds = mass_bounds(gamma)
    asked = []
    if not _mass_possible([(1,) * len(conds)], conds):
        return asked, None
    good = []
    for vec, cells in sorted(consistent_vectors(gamma), key=lambda visit: -sum(visit[0])):
        if any(_dominates(other, vec) for other, _, _ in good):
            continue
        asked.append(cells)
        state = child(cells)
        if state is None:
            continue
        if all(vec):
            return asked, ((cells,), (F(1),), [state])
        good.append((vec, cells, state))
    cfg = [vec for vec, _, _ in good]
    if not cfg or not _mass_possible(cfg, conds):
        return asked, None
    weights = [F(1)] if len(cfg) == 1 else lp.simplex_feasible(mass_system(cfg, conds))
    if weights is None:
        return asked, None
    support = [k for k, w in enumerate(weights) if w != 0]
    return asked, (
        tuple(good[k][1] for k in support),
        tuple(weights[k] for k in support),
        [good[k][2] for k in support],
    )


class TestSearchAgreement:
    """The vector-level decision procedure matches naive enumeration, and
    asks about exactly the reference's cells, in the reference's order."""

    def test_verdicts_match(self):
        rng = random.Random(501)
        for flavor in ("lgen", "mp"):
            logic = get_logic(flavor)
            done = 0
            while done < 120:
                n = rng.randint(1, 2)
                gamma = tuple(
                    (
                        Generally() if flavor == "lgen" else MoreThan(rand_rational(rng, 8)),
                        rand_interval(rng, 8),
                    )
                    for _ in range(n)
                )
                done += 1
                # A child oracle that rejects successors whose first cell
                # misses a random pivot value, exercising pruning.
                pivot = rand_rational(rng, 8)

                def child(cells):
                    # State 0 for every satisfiable child: a search must
                    # test `is None`, never truthiness.
                    return 0 if cells[0].contains(pivot) else None

                naive = None
                for c in logic.conclusions(gamma):
                    if all(child(cells) is not None for cells in c.cells):
                        naive = c
                        break
                fast = run_search(logic, gamma, child)
                assert (naive is None) == (fast is None), (flavor, gamma, pivot)

    def _edge_run(self, flavor, seed):
        """Boundary literals, 1-4 of them.  The verdict oracle is
        `conclusions()` up to two literals; past that its enumeration is
        too long when the answer is UNSAT, and the oracle is its
        Caratheodory equivalent, the simplex over every child-satisfiable
        consistent vector."""
        rng = random.Random(seed)
        logic = get_logic(flavor)
        outcomes = set()
        for _ in range(150):
            gamma = _edge_gamma(rng, flavor)
            vectors = list(consistent_vectors(gamma))
            index = {cells: k for k, (_, cells) in enumerate(vectors)}
            pivots = [rand_rational(rng, 6) for _ in gamma]
            hits_needed = rng.randint(0, len(gamma))

            def child(cells):
                # A pure function of the cells, so that both searches get the
                # same answers; a satisfiable child's state is its vector's
                # index, and the first vector is state 0.
                hits = sum(cell.contains(p) for cell, p in zip(cells, pivots))
                return index[cells] if hits >= hits_needed else None

            asked = []

            def recorded(cells):
                asked.append(cells)
                return child(cells)

            fast = run_search(logic, gamma, recorded)
            ref_asked, ref = _reference_search(gamma, child)
            assert asked == ref_asked, (gamma, pivots, hits_needed)
            if ref is None:
                assert fast is None, gamma
            else:
                got = fast.conclusion.cells, fast.conclusion.edges, fast.children
                assert got == ref, gamma
            if len(gamma) <= 2:
                naive = next(
                    (c for c in logic.conclusions(gamma)
                     if all(child(cells) is not None for cells in c.cells)),
                    None,
                )
                assert (naive is None) == (fast is None), gamma
            else:
                conds = mass_bounds(gamma)
                sat = [vec for vec, cells in vectors if child(cells) is not None]
                feasible = bool(sat) and lp.simplex_feasible(mass_system(sat, conds)) is not None
                assert feasible == (fast is not None), gamma
            outcomes.add((len(gamma), fast is not None, len(asked) > 1))
        return outcomes

    def test_boundary_literals_generally(self):
        outcomes = self._edge_run("lgen", 511)
        assert {n for n, _, _ in outcomes} == {1, 2, 3, 4}
        assert {(sat, more) for _, sat, more in outcomes} == {
            (True, False), (True, True), (False, True)
        }

    def test_boundary_literals_more_than(self):
        outcomes = self._edge_run("mp", 512)
        assert {n for n, _, _ in outcomes} == {1, 2, 3, 4}
        assert {(sat, more) for _, sat, more in outcomes} >= {
            (True, False), (True, True), (False, True)
        }


def _mask(vec):
    """A tuple vector as the search's bit mask, its first bit most
    significant."""
    mask = 0
    for bit in vec:
        mask = mask << 1 | bit
    return mask


class TestNeededBits:
    """The search's `int` refutation and prefilter against `_mass_possible`
    over `mass_bounds`, on every non-empty set of consistent vectors."""

    GRID = sorted({F(k, d) for d in range(1, 7) for k in range(d + 1)})

    def _literals(self):
        """Every literal over the grid: all four openness combinations, and
        G or M{p} for every grid p."""
        flags = (False, True)
        ops = [Generally()] + [MoreThan(p) for p in self.GRID]
        for lo, hi, lo_open, hi_open in product(self.GRID, self.GRID, flags, flags):
            interval = iv(lo, hi, lo_open, hi_open)
            if not interval.is_empty:
                yield from ((op, interval) for op in ops)

    def _check(self, gamma):
        """Returns whether the refutation fired."""
        conds = mass_bounds(gamma)
        need = _needed_bits(gamma)
        assert (need is not None) == _mass_possible([(1,) * len(conds)], conds), gamma
        vecs = [vec for vec, _ in consistent_vectors(gamma)]
        for k in range(1, len(vecs) + 1):
            for cfg in combinations(vecs, k):
                union = 0
                for vec in cfg:
                    union |= _mask(vec)
                fast = need is not None and union & need == need
                assert fast == _mass_possible(cfg, conds), (gamma, cfg)
        return need is None

    def test_one_literal(self):
        lits = list(self._literals())
        assert sum(self._check((lit,)) for lit in lits) > 0

    def test_two_literals(self):
        rng = random.Random(901)
        lits = list(self._literals())
        refuted = sum(self._check((rng.choice(lits), rng.choice(lits))) for _ in range(250))
        assert 0 < refuted < 250


def _rand_gamma(rng, flavor):
    """The literals of a random end-sequent of 1-4 literals, denominators
    up to 6."""
    n = rng.randint(1, 4)
    return tuple(
        (
            Generally() if flavor == "lgen" else MoreThan(rand_rational(rng, 6)),
            rand_interval(rng, 6),
        )
        for _ in range(n)
    )


def _dominates(u, v):
    return all(a >= b for a, b in zip(u, v))


def _fm_weights(system):
    """Fourier-Motzkin on a mass system, with the `x_k >= 0` rows that its
    free variables need (the simplex's are nonnegative already)."""
    n = system.num_vars
    signed = lp.LinSystem(n, list(system.constraints))
    for k in range(n):
        signed.add([1 if j == k else 0 for j in range(n)], Comp.GE, 0)
    return lp.feasible(signed)


class TestDominance:
    """The lemma behind the one-step refutation: every mass bound is a lower
    bound and the all-ones vector is consistent, so the mass system over all
    consistent vectors is feasible iff the all-ones vector alone meets every
    bound."""

    GRID = sorted({F(k, d) for d in range(1, 7) for k in range(d + 1)})

    def test_bounds_are_lower_and_ones_is_consistent(self):
        flags = (False, True)
        ops = [Generally()] + [MoreThan(p) for p in self.GRID]
        for lo, hi, lo_open, hi_open in product(self.GRID, self.GRID, flags, flags):
            interval = iv(lo, hi, lo_open, hi_open)
            if interval.is_empty:
                continue
            for op in ops:
                for bound in mass_bounds([(op, interval)]):
                    assert bound is None or bound.rel in (Comp.GE, Comp.GT), (op, interval)
                vecs = [vec for vec, _ in consistent_vectors([(op, interval)])]
                assert (1, 1) in vecs, (op, interval)

    def _run(self, flavor, seed):
        rng = random.Random(seed)
        outcomes = set()
        for _ in range(300):
            gamma = _rand_gamma(rng, flavor)
            conds = mass_bounds(gamma)
            vecs = [vec for vec, _ in consistent_vectors(gamma)]
            possible = _mass_possible([(1,) * len(conds)], conds)
            system = mass_system(vecs, conds)
            assert possible == (lp.simplex_feasible(system) is not None), gamma
            if len(vecs) <= 8:
                assert possible == (_fm_weights(system) is not None), gamma
            outcomes.add(possible)
        return outcomes

    def test_all_ones_decides_generally(self):
        # A G literal's bounds are `mass >= lo` (or `> lo` with lo < 1) and
        # `mass >= 1 - hi` (or `> 1 - hi` with hi > 0): mass 1 meets both,
        # so no G end-sequent is refuted at its own layer.
        assert self._run("lgen", 601) == {True}

    def test_all_ones_decides_more_than(self):
        assert self._run("mp", 602) == {True, False}


class TestDominanceSearch:
    """The search visits vectors by dominance: only the maximal
    child-satisfiable vectors (an antichain) enter the weight system."""

    def _antichain_run(self, flavor, seed):
        rng = random.Random(seed)
        outcomes = set()
        for _ in range(150):
            gamma = _rand_gamma(rng, flavor)
            conds = mass_bounds(gamma)
            vecs = [vec for vec, _ in consistent_vectors(gamma)]
            good = [vec for vec in vecs if rng.random() < 0.5] or [rng.choice(vecs)]
            maximal = [v for v in good if not any(u != v and _dominates(u, v) for u in good)]
            full = lp.simplex_feasible(mass_system(good, conds)) is not None
            assert full == (
                lp.simplex_feasible(mass_system(maximal, conds)) is not None
            ), (gamma, good)
            assert full == (LGEN._weights_over([_mask(v) for v in maximal], gamma) is not None)
            for cfg in (good, maximal):
                if len(cfg) <= 8:
                    weights = _fm_weights(mass_system(cfg, conds))
                    assert full == (weights is not None), (gamma, cfg)
            outcomes.add(full)
        assert outcomes == {True, False}

    def test_antichain_decides_generally(self):
        self._antichain_run("lgen", 701)

    def test_antichain_decides_more_than(self):
        self._antichain_run("mp", 702)

    def _recorded_run(self, flavor, seed):
        """Search random end-sequents with a random child oracle, recording
        each request; returns how often the all-ones child was SAT and how
        often it was not."""
        rng = random.Random(seed)
        logic = get_logic(flavor)
        ones_sat = ones_unsat = 0
        for _ in range(200):
            gamma = _rand_gamma(rng, flavor)
            vector_of = {cells: vec for vec, cells in consistent_vectors(gamma)}
            ones = (1,) * (2 * len(gamma))
            answers = {}

            def child(cells):
                # A satisfiable child's state is its request number, so the
                # all-ones child, asked first, is state 0.
                assert cells not in answers, "a vector is asked about twice"
                answers[cells] = rng.random() < 0.5
                return len(answers) - 1 if answers[cells] else None

            found = run_search(logic, gamma, child)
            if not answers:
                assert found is None
                continue
            asked = [vector_of[cells] for cells in answers]
            assert asked[0] == ones
            sat_so_far = []
            for vec, is_sat in zip(asked, answers.values()):
                assert not any(_dominates(g, vec) for g in sat_so_far), (gamma, asked)
                if is_sat:
                    sat_so_far.append(vec)
            first = next(iter(answers))
            if answers[first]:
                ones_sat += 1
                assert len(asked) == 1
                assert found.conclusion.cells == (first,)
                assert found.conclusion.edges == (F(1),)
                assert found.children == [0]
            else:
                ones_unsat += 1
                # Every vector never asked about is dominated by a SAT one.
                for vec in vector_of.values():
                    assert vec in asked or any(_dominates(g, vec) for g in sat_so_far)
                if found is not None:
                    state_of = {cells: k for k, cells in enumerate(answers)}
                    assert all(answers[cells] for cells in found.conclusion.cells)
                    assert found.children == [state_of[cells] for cells in found.conclusion.cells]
                    weights = found.conclusion.edges
                    assert len(weights) == len(found.children) <= 2 * len(gamma) + 1
                    assert 0 not in weights and sum(weights) == 1
        return ones_sat, ones_unsat

    def test_requests_by_dominance_generally(self):
        assert min(self._recorded_run("lgen", 711)) > 0

    def test_requests_by_dominance_more_than(self):
        assert min(self._recorded_run("mp", 712)) > 0


class TestSimplexSupport:
    """The simplex returns a basic solution of a weight system, so at most
    1 + (non-vacuous bounds) <= 2n+1 of its weights are nonzero and the
    search needs no support reduction."""

    def _run(self, flavor, seed):
        rng = random.Random(seed)
        binding = 0  # feasible systems with more columns than the bound
        for _ in range(300):
            gamma = _rand_gamma(rng, flavor)
            conds = mass_bounds(gamma)
            vecs = [vec for vec, _ in consistent_vectors(gamma)]
            cfg = [vec for vec in vecs if rng.random() < 0.5] or vecs
            limit = 1 + sum(cond is not None for cond in conds)
            assert limit <= 2 * len(gamma) + 1
            for weights in (
                lp.simplex_feasible(mass_system(cfg, conds)),
                LGEN._weights_over([_mask(v) for v in cfg], gamma),
            ):
                if weights is None:
                    continue
                support = [vec for vec, w in zip(cfg, weights) if w != 0]
                assert len(support) <= limit, (gamma, cfg, weights)
                assert config_feasible(support, conds) is not None, (gamma, support)
                binding += len(cfg) > limit
        assert binding > 0

    def test_support_generally(self):
        self._run("lgen", 801)

    def test_support_more_than(self):
        self._run("mp", 802)
