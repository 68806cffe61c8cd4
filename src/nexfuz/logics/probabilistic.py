"""Probabilistic instance logics over finite-support distributions.

Two modalities share one engine:

* "generally" (G): degree to which the argument holds with high probability.
* "more than p" (M{p}): largest degree guaranteed with probability > p.

Satisfaction of a literal with interval bounds reduces, over finite models,
to lower bounds on the masses of threshold sets of successor values:

* G v in <a, b>:  mass{tau(v) |> a} |> a   and   mass{tau(v) <| b} (<|dual) 1-b,
  where |> / <| are the comparisons induced by the interval's endpoint flags
  and the dual flips direction keeping strictness.
* M{p} v in <a, b>:  mass{tau(v) |> a} > p   and   mass{tau(v) <| b} >= 1-p.

The lower-bound equivalences follow from the threshold-set mass being a
left-continuous step function of the threshold; the upper bounds are the
negations of the lower ones at the other endpoint.  Note the M{p} upper
bound is non-strict: with two successor values 1 and 4/5 carrying masses
3/10 and 7/10, M{3/10} evaluates to exactly 4/5 although the mass at or
below 4/5 is exactly 7/10.

A successor state is classified by which threshold sets it belongs to,
giving a 0/1 vector with two coordinates per literal.  The instance never
sees the literals' arguments, so each literal's bit pair is chosen on its
own; where two literals share an argument, the solver meets their cells in
the child sequent, and an empty meet makes that child unsatisfiable.  The
threshold sets are the interval's lower and upper rays, so a value below
the interval has bits (0, 1), one above it (1, 0) and one inside it
(1, 1); no value has (0, 0).  These cells, the values below, inside and
above the interval, partition [0, 1], and the consistent vectors are the
product of the non-empty cells of each literal.  A *configuration* is a set
of such vectors; it supports a satisfying distribution iff weights summing
to one exist whose per-coordinate sums meet the mass bounds.  A basic
solution of that weight system has at most 2n+1 nonzero weights (see
`ProbabilisticLogic._weights_over`), so no configuration needs more vectors.
A conclusion's edges are its weights; they do not depend on the successors'
values.

Dominance: every mass bound is a lower bound (`>=` or `>`) on a coordinate
sum, so moving weight from a vector onto one that dominates it
coordinatewise never breaks a bound.  The all-ones vector is consistent
((1, 1) is each literal's own interval) and dominates every vector, so some
distribution over the consistent vectors meets the bounds iff weight 1 on
the all-ones vector does, an O(n) check in `int` (`_needed_bits`).  The
search visits the vectors by descending popcount, all-ones first, and never
asks about a vector that a child-satisfiable one already visited dominates:
only the maximal child-satisfiable vectors (an antichain) can matter to the
weight system.

The search holds each vector as an `int` bit mask, the first literal's bits
most significant, so the masks' order is the tuples' lexicographic order
and `u` dominates `v` iff `u | v == u`.  It compares the mass bounds in
`int`, straight from each interval's endpoint pairs and each `M{p}`'s p;
`Fraction`s, `mass_bounds` and `mass_system` enter only when two or more
vectors reach the simplex.  The tuple vectors and `MassBound`s below serve
the reference enumeration `conclusions()`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Sequence

from .. import lp
from ..numerics import Comp, Interval, ONE, ZERO
from ..onestep import Cells, Conclusion, Literal, OneStepLogic, SearchSteps, SearchSuccess
from ..syntax import Generally, ModalOp, MoreThan

ConfigVector = tuple[int, ...]

DEFAULT_ENUM_LITERALS = 6


@dataclass(frozen=True)
class MassBound:
    """Lower bound `rel` `threshold` on the total mass of the states whose
    value meets the literal's lower bound (for its lower mass bound) or its
    upper bound (for its upper mass bound)."""

    rel: Comp
    threshold: Fraction


def mass_bounds(lits: Sequence[Literal]) -> list[MassBound | None]:
    """The two mass conditions equivalent to each modal literal, lower then
    upper, in coordinate order; None for a vacuous one."""
    conds: list[MassBound | None] = []
    for op, interval in lits:
        if isinstance(op, Generally):
            lower = MassBound(interval.lower_comp(), interval.lo)
            upper = MassBound(interval.upper_comp().dual(), ONE - interval.hi)
        else:
            lower, upper = MassBound(Comp.GT, op.p), MassBound(Comp.GE, ONE - op.p)
        # A bound is vacuous when no value lies beyond it.
        conds.append(None if interval.below().is_empty else lower)
        conds.append(None if interval.above().is_empty else upper)
    return conds


def literal_cells(interval: Interval) -> list[tuple[tuple[int, int], Interval]]:
    """The consistent (lower bit, upper bit) pairs of a literal over
    `interval`, in lexicographic order, each with the value interval it
    stands for: (0, 1) the values below the interval, (1, 0) those above it
    and (1, 1) the interval itself, each pair when its cell is non-empty
    (so (1, 1) always, the interval being non-empty).
    """
    cells = ((0, 1), interval.below()), ((1, 0), interval.above()), ((1, 1), interval)
    return [(bits, cell) for bits, cell in cells if not cell.is_empty]


def consistent_vectors(lits: Sequence[Literal]) -> Iterator[tuple[ConfigVector, Cells]]:
    """Every 0/1 vector some successor state can have, lexicographically,
    with the cells such a state's values must lie in.

    Bits 2i and 2i+1 belong to literal i alone, so the vectors are the
    product of the per-literal cells.  Two literals may share an argument:
    their cells then meet in the child sequent, and a vector whose cells
    for that argument do not meet has a child sequent that `Ax` closes.
    """
    for combo in product(*(literal_cells(interval) for _, interval in lits)):
        yield _cells_vector(combo), tuple(cell for _, cell in combo)


def _cells_vector(combo) -> ConfigVector:
    """The 0/1 vector of one cell per literal."""
    return tuple(bit for bits, _ in combo for bit in bits)


def mass_system(cfg: Sequence[ConfigVector], conds: Sequence[MassBound | None]) -> lp.LinSystem:
    """Weights summing to 1 whose coordinate sums satisfy the bounds.

    The weights must also be nonnegative.  The system has no sign rows: the
    simplex's variables are nonnegative already, and would keep each
    `x_k >= 0` row as a tableau row of its own, so `config_feasible` adds
    them for Fourier-Motzkin, whose variables are free.
    """
    sys_ = lp.system(len(cfg))
    sys_.add([ONE] * len(cfg), lp.EQ, ONE)
    for pos, cond in enumerate(conds):
        if cond is None:
            continue
        row = [ONE if vec[pos] else ZERO for vec in cfg]
        sys_.add(row, cond.rel, cond.threshold)
    return sys_


def _needed_bits(lits: Sequence[Literal]) -> int | None:
    """`_mass_possible` in `int`, for every configuration at once: the mask
    of the bits that the union of a configuration's vectors must hold, or
    None when some bound fails even with all the weight on its states (then
    no configuration is feasible, the all-ones vector included).

    With all weight on a coordinate's states, its sum is 1 when some vector
    of the configuration has its bit, and 0 when none does.  A bound
    `>= t` or `> t`, with 0 <= t <= 1, holds at 0 only as `>= 0`, and fails
    at 1 only as `> 1`.  The thresholds are those of `mass_bounds`, read
    from the interval's endpoint pairs and from M{p}'s p.
    """
    need = 0
    for op, interval in lits:
        ln, ld, hn, hd = interval.endpoint_pairs()
        lo_open, hi_open = interval.lo_open, interval.hi_open
        if isinstance(op, Generally):
            # mass >(=) lo, and mass >(=) 1 - hi with the upper flag's strictness.
            lower, upper = (ln, ld, lo_open), (hd - hn, hd, hi_open)
        else:
            # mass > p, and mass >= 1 - p.
            pn, pd = op.p.numerator, op.p.denominator
            lower, upper = (pn, pd, True), (pd - pn, pd, False)
        need <<= 2
        # A bound is vacuous when no value lies beyond it: a closed 0 or 1.
        for bit, live, (num, den, strict) in (
            (2, ln or lo_open, lower), (1, hn != hd or hi_open, upper)
        ):
            if not live:
                continue
            if strict and num == den:
                return None
            if num or strict:
                need |= bit
    return need


def _visits(lits: Sequence[Literal]) -> list[tuple[int, Cells]]:
    """The consistent vectors as bit masks, with their cells, in the
    search's visiting order: by descending popcount, lexicographically
    within one popcount, so the all-ones vector comes first."""
    masks, cells = [0], [()]
    for _, interval in lits:
        parts = literal_cells(interval)
        masks = [vec << 2 | lower << 1 | upper for vec in masks for (lower, upper), _ in parts]
        cells = [tup + (cell,) for tup in cells for _, cell in parts]
    # A stable sort: reversed, it still keeps equal popcounts in mask order.
    return sorted(zip(masks, cells), key=lambda visit: visit[0].bit_count(), reverse=True)


def _mass_possible(cfg: Sequence[ConfigVector], conds) -> bool:
    """Necessary condition: each bound is met with all weight on its states."""
    for pos, cond in enumerate(conds):
        if cond is None:
            continue
        best = ONE if any(vec[pos] for vec in cfg) else ZERO
        if not cond.rel.holds(best, cond.threshold):
            return False
    return True


def config_feasible(
    cfg: Sequence[ConfigVector], conds: Sequence[MassBound | None]
) -> list[Fraction] | None:
    """Exact weights for a configuration, or None; empty cfg needs no weights."""
    if not cfg:
        return [] if all(c is None for c in conds) else None
    if not _mass_possible(cfg, conds):
        return None
    sys_ = mass_system(cfg, conds)
    for k in range(len(cfg)):
        sys_.add([ONE if j == k else ZERO for j in range(len(cfg))], Comp.GE, ZERO)
    return lp.feasible(sys_)


# No successor constraints: a single inert dummy successor takes the mass.
_EMPTY_CONCLUSION = Conclusion((), (ONE,))


class ProbabilisticLogic(OneStepLogic):
    kind = "prob"

    def __init__(self, flavor: str):
        if flavor not in ("lgen", "mp"):
            raise ValueError(f"unknown probabilistic flavor {flavor!r}")
        self.flavor = flavor
        self.name = flavor

    def supports(self, op: ModalOp) -> bool:
        if self.flavor == "lgen":
            return isinstance(op, Generally)
        return isinstance(op, MoreThan)

    # -- reference enumeration ------------------------------------------------

    def conclusions(self, lits: tuple[Literal, ...]) -> Iterator[Conclusion]:
        """One conclusion per feasible configuration, in enumeration order.

        Configurations are sets of 1..2n+1 distinct consistent vectors,
        sizes ascending then lexicographic; one is emitted, with its
        weights, when its weight system is solvable.  With no modal
        literals the single empty configuration is the only conclusion.
        """
        n = len(lits)
        if n > DEFAULT_ENUM_LITERALS:
            raise lp.CapExceeded(
                f"configuration enumeration over {n} literals (cap {DEFAULT_ENUM_LITERALS})"
            )
        if n == 0:
            yield _EMPTY_CONCLUSION
            return
        conds = mass_bounds(lits)
        consistent = list(consistent_vectors(lits))
        for k in range(1, 2 * n + 2):
            for combo in combinations(consistent, k):
                weights = config_feasible([vec for vec, _ in combo], conds)
                if weights is not None:
                    yield Conclusion(tuple(cells for _, cells in combo), tuple(weights))

    # -- decision procedure ---------------------------------------------------

    def search_steps(self, lits: tuple[Literal, ...]) -> SearchSteps:
        """Vector-level decision equivalent to enumerating configurations.

        A successor's cells depend only on its vector, so a satisfiable
        configuration made of child-satisfiable vectors exists iff the
        weight system over *all* child-satisfiable consistent vectors is
        solvable; the nonzero weights of its basic solution, at most 2n+1,
        are such a configuration.

        By dominance (module docstring) the end-sequent is refuted before
        any child is asked about when the all-ones vector alone misses a
        bound.  Otherwise the consistent vectors are visited by descending
        popcount, lexicographically within one popcount, so the all-ones
        vector comes first; when its child is satisfiable it is the
        conclusion, with weight 1, and no other vector is built.  A vector
        that a child-satisfiable vector already visited dominates is
        skipped, never asked about, so the child-satisfiable vectors kept
        form an antichain, and the weight system is solved over them.  The
        vectors are bit masks and the bounds are compared in `int`
        (module docstring).
        """
        if not lits:
            return SearchSuccess(_EMPTY_CONCLUSION, [])
        # Refutation before any recursion: every bound is a lower bound, and
        # the all-ones vector is consistent and dominates every vector.
        if _needed_bits(lits) is None:
            return None
        # The all-ones vector's cells are the literals' own intervals.
        cells = tuple(interval for _, interval in lits)
        child = yield cells
        if child is not None:
            # All-ones: it alone meets every bound (checked above).
            return SearchSuccess(Conclusion((cells,), (ONE,)), [child])
        masks: list[int] = []
        good: list[tuple[Cells, int]] = []
        for vec, cells in _visits(lits)[1:]:
            # Skip a vector some good vector dominates: moving its weight
            # onto the dominator never lowers a coordinate sum, and every
            # bound is a lower bound on a coordinate sum.
            if any(vec | other == other for other in masks):
                continue
            child = yield cells
            if child is not None:
                masks.append(vec)
                good.append((cells, child))
        weights = self._weights_over(masks, lits)
        if weights is None:
            return None
        support = [k for k, w in enumerate(weights) if w != 0]
        conclusion = Conclusion(
            tuple(good[k][0] for k in support), tuple(weights[k] for k in support)
        )
        return SearchSuccess(conclusion, [good[k][1] for k in support])

    @staticmethod
    def _weights_over(cfg: Sequence[int], lits: Sequence[Literal]) -> list[Fraction] | None:
        """Weights over the good antichain, given as bit masks, by the
        simplex; the `int` prefilter (`_needed_bits` against the masks'
        union) alone decides a single vector, which must carry weight 1.

        Only two or more vectors build the `Fraction` system: tuple
        vectors, `mass_bounds` and `mass_system`.  At most
        1 + (number of non-vacuous bounds) <= 2n+1 weights are nonzero, so
        dropping the zero ones leaves a configuration of the rule.  The
        simplex returns a basic solution over one row for the weight sum,
        one per non-vacuous bound and one capping its shared slack delta at
        1, so at most that many of its columns are nonzero.  Delta is one
        of them: with a strict bound a feasible answer has delta > 0, and
        with none delta occurs in the cap row alone, so maximizing it
        drives it to 1.
        """
        need = _needed_bits(lits)
        union = 0
        for vec in cfg:
            union |= vec
        if not cfg or need is None or union & need != need:
            return None
        if len(cfg) == 1:
            return [ONE]
        width = 2 * len(lits)
        vectors = [tuple(vec >> k & 1 for k in range(width - 1, -1, -1)) for vec in cfg]
        return lp.simplex_feasible(mass_system(vectors, mass_bounds(lits)))
