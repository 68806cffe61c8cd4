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
giving a 0/1 vector with two coordinates per literal.  A *configuration* is
a set of such vectors; it supports a satisfying distribution iff weights
summing to one exist whose per-coordinate sums meet the mass bounds, and by
Caratheodory at most 2n+1 vectors are ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .. import lp
from ..liftings import generally_value, more_than_value
from ..numerics import Comp, EMPTY, Interval, ONE, UNIT, ZERO
from ..onestep import (
    Conclusion,
    OneStepLogic,
    SearchSteps,
    SearchSuccess,
    TransitionWitness,
    exact_over_vars,
    modal_literals,
)
from ..sequents import Sequent, SequentError
from ..syntax import Generally, ModalOp, MoreThan, Var

ConfigVector = tuple[int, ...]

DEFAULT_ENUM_LITERALS = 6


@dataclass(frozen=True)
class MassBound:
    """Lower bound on the total weight of states inside a value set.

    States whose value for `var` lies in `value_set` must carry total mass
    `rel` `threshold`; None thresholds mean the bound is vacuous.
    """

    var: Var
    value_set: Interval
    rel: Comp
    threshold: Fraction

    def holds(self, mass: Fraction) -> bool:
        return self.rel.holds(mass, self.threshold)


@dataclass(frozen=True)
class LiteralBounds:
    var: Var
    lower_set: Interval  # values counting toward the lower mass bound
    upper_set: Interval  # values counting toward the upper mass bound
    lower: MassBound | None
    upper: MassBound | None


def literal_bounds(op: ModalOp, var: Var, interval: Interval) -> LiteralBounds:
    """The two mass conditions equivalent to one modal literal."""
    if interval.is_empty:
        raise SequentError("bounds of an empty literal are undefined")
    lo_rel = interval.lower_comp()  # > or >=
    hi_rel = interval.upper_comp()  # < or <=
    lower_set = Interval.from_lower(interval.lo, lo_rel)
    upper_set = Interval.from_upper(interval.hi, hi_rel)
    lower_vacuous = interval.lo == ZERO and lo_rel is Comp.GE
    upper_vacuous = interval.hi == ONE and hi_rel is Comp.LE
    if isinstance(op, Generally):
        lower = None if lower_vacuous else MassBound(var, lower_set, lo_rel, interval.lo)
        upper = (
            None
            if upper_vacuous
            else MassBound(var, upper_set, hi_rel.dual(), ONE - interval.hi)
        )
    elif isinstance(op, MoreThan):
        lower = None if lower_vacuous else MassBound(var, lower_set, Comp.GT, op.p)
        upper = (
            None
            if upper_vacuous
            else MassBound(var, upper_set, Comp.GE, ONE - op.p)
        )
    else:
        raise SequentError(f"unsupported modality {op} for the probabilistic logic")
    return LiteralBounds(var, lower_set, upper_set, lower, upper)


def bounds_of(gamma: Sequent) -> list[LiteralBounds]:
    lits = modal_literals(gamma)
    if len({var for _, var, _ in lits}) != len(lits):
        raise SequentError("duplicate variables in an end-sequent")
    return [literal_bounds(op, var, interval) for op, var, interval in lits]


def vector_intervals(vec: ConfigVector, bounds: Sequence[LiteralBounds]) -> dict[Var, Interval] | None:
    """Decode a 0/1 vector into per-variable value intervals.

    Bit 2i selects membership in literal i's lower set (its complement ray
    when 0), bit 2i+1 membership in the upper set.  Returns None when the
    decoded constraints are contradictory (no state can look like this).
    """
    out: dict[Var, Interval] = {}
    for i, lb in enumerate(bounds):
        lower = lb.lower_set if vec[2 * i] else _ray_negation(lb.lower_set)
        upper = lb.upper_set if vec[2 * i + 1] else _ray_negation(lb.upper_set)
        cell = lower.intersect(upper)
        prev = out.get(lb.var, UNIT)
        cell = prev.intersect(cell)
        if cell.is_empty:
            return None
        out[lb.var] = cell
    return out


def _ray_negation(ray: Interval) -> Interval:
    """Complement of a threshold ray inside [0,1]."""
    if ray == UNIT:
        return EMPTY
    if ray.lo == ZERO and not ray.lo_open:
        # [0, b> complement: <b, 1]
        return Interval.make(ray.hi, ONE, lo_open=not ray.hi_open)
    # <a, 1] complement: [0, a>
    return Interval.make(ZERO, ray.lo, hi_open=not ray.lo_open)


def enum_config_vectors(n: int) -> list[ConfigVector]:
    """All 0/1 vectors of length 2n, lexicographically."""
    out = []
    for code in range(1 << (2 * n)):
        out.append(tuple((code >> (2 * n - 1 - k)) & 1 for k in range(2 * n)))
    return out


def enum_configurations(n: int, cap: int = DEFAULT_ENUM_LITERALS) -> Iterator[tuple[ConfigVector, ...]]:
    """All sets of distinct vectors of size 1..2n+1, sizes ascending then lex.

    For n = 0 the single empty configuration is produced.
    """
    if n > cap:
        raise lp.CapExceeded(f"configuration enumeration over {n} literals (cap {cap})")
    if n == 0:
        yield ()
        return
    vectors = enum_config_vectors(n)
    for k in range(1, 2 * n + 2):
        for combo in combinations(vectors, k):
            yield combo


def mass_system(cfg: Sequence[ConfigVector], conds: Sequence[MassBound | None]) -> lp.LinSystem:
    """Weights >= 0 summing to 1 whose coordinate sums satisfy the bounds."""
    sys_ = lp.system(len(cfg))
    sys_.add([ONE] * len(cfg), lp.EQ, ONE)
    for k in range(len(cfg)):
        row = [ZERO] * len(cfg)
        row[k] = ONE
        sys_.add(row, Comp.GE, ZERO)
    for pos, cond in enumerate(conds):
        if cond is None:
            continue
        row = [ONE if vec[pos] else ZERO for vec in cfg]
        sys_.add(row, cond.rel, cond.threshold)
    return sys_


def _flat_conditions(bounds: Sequence[LiteralBounds]) -> list[MassBound | None]:
    conds: list[MassBound | None] = []
    for lb in bounds:
        conds.append(lb.lower)
        conds.append(lb.upper)
    return conds


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
    cfg: Sequence[ConfigVector], bounds: Sequence[LiteralBounds]
) -> list[Fraction] | None:
    """Exact weights for a configuration, or None; empty cfg needs no weights."""
    conds = _flat_conditions(bounds)
    if not cfg:
        return [] if all(c is None for c in conds) else None
    if not _mass_possible(cfg, conds):
        return None
    return lp.feasible(mass_system(cfg, conds), cap=max(64, len(cfg)))


@dataclass(frozen=True)
class _ProbData:
    cfg: tuple[ConfigVector, ...]
    weights: tuple[Fraction, ...]


class ProbabilisticLogic(OneStepLogic):
    kind = "prob"

    def __init__(self, flavor: str, enum_cap: int = DEFAULT_ENUM_LITERALS):
        if flavor not in ("lgen", "mp"):
            raise ValueError(f"unknown probabilistic flavor {flavor!r}")
        self.flavor = flavor
        self.name = flavor
        self.enum_cap = enum_cap

    def supports(self, op: ModalOp) -> bool:
        if self.flavor == "lgen":
            return isinstance(op, Generally)
        return isinstance(op, MoreThan)

    def _ops(self, gamma: Sequent):
        for op, _, _ in modal_literals(gamma):
            if not self.supports(op):
                raise SequentError(f"unsupported modality {op} for logic {self.name}")

    # -- reference enumeration ------------------------------------------------

    def conclusions(self, gamma: Sequent) -> Iterator[Conclusion]:
        """Conclusions indexed by feasible configurations in enumeration order.

        A configuration is emitted when its weight system is solvable and
        every vector decodes to realizable value intervals.
        """
        self._ops(gamma)
        if any(i.is_empty for _, i in gamma.items()):
            return
        bounds = bounds_of(gamma)
        variables = [lb.var for lb in bounds]
        decode = {
            vec: vector_intervals(vec, bounds)
            for vec in enum_config_vectors(len(bounds))
        }
        conds = _flat_conditions(bounds)
        index = 0
        for cfg in enum_configurations(len(bounds), self.enum_cap):
            decoded = [decode[vec] for vec in cfg]
            if any(d is None for d in decoded):
                continue
            if not _mass_possible(cfg, conds):
                continue
            weights = config_feasible(cfg, bounds)
            if weights is None:
                continue
            sequents = tuple(exact_over_vars(d, variables) for d in decoded)
            yield Conclusion(index, sequents, _ProbData(tuple(cfg), tuple(weights)))
            index += 1

    def realize(self, gamma, conclusion, tau) -> TransitionWitness:
        self._ops(gamma)
        data: _ProbData = conclusion.data
        if not data.cfg:
            # No successor constraints: a single inert dummy successor.
            return TransitionWitness("prob", (ONE,))
        witness = TransitionWitness("prob", data.weights)
        self._check_roundtrip(gamma, conclusion, tau)
        return witness

    def _check_roundtrip(self, gamma, conclusion, tau) -> None:
        data: _ProbData = conclusion.data
        for op, var, interval in modal_literals(gamma):
            dist = [(w, tau(j, var)) for j, w in enumerate(data.weights)]
            if isinstance(op, Generally):
                value = generally_value(dist)
            else:
                value = more_than_value(dist, op.p)
            if not interval.contains(value):
                raise SequentError(
                    f"internal: realized value {value} of {op} {var.name} "
                    f"escapes {interval}"
                )

    # -- decision procedure ---------------------------------------------------

    def search_steps(self, gamma: Sequent) -> SearchSteps:
        """Vector-level decision equivalent to enumerating configurations.

        A conclusion's sequent depends only on its vector, so a satisfiable
        configuration made of child-satisfiable vectors exists iff the
        weight system over *all* child-satisfiable consistent vectors is
        solvable; Caratheodory support reduction then recovers a
        configuration of at most 2n+1 vectors with the exact same masses.
        """
        self._ops(gamma)
        if any(i.is_empty for _, i in gamma.items()):
            return None
        bounds = bounds_of(gamma)
        n = len(bounds)
        variables = [lb.var for lb in bounds]
        if n == 0:
            return SearchSuccess(Conclusion(0, (), _ProbData((), ())), [])
        conds = _flat_conditions(bounds)

        consistent: list[tuple[ConfigVector, Sequent]] = []
        for vec in enum_config_vectors(n):
            decoded = vector_intervals(vec, bounds)
            if decoded is not None:
                consistent.append((vec, exact_over_vars(decoded, variables)))
        if not consistent:
            return None
        # Quick refutation before any recursion: even with every vector
        # available the masses may be unachievable.
        if self._weights_over([vec for vec, _ in consistent], conds) is None:
            return None

        good: list[tuple[ConfigVector, Sequent, object]] = []
        for vec, seq in consistent:
            result = yield seq
            if result.sat:
                good.append((vec, seq, result))
        if not good:
            return None
        weights = self._weights_over([vec for vec, _, _ in good], conds)
        if weights is None:
            return None
        idx, reduced = lp.caratheodory_reduce([vec for vec, _, _ in good], weights)
        cfg = tuple(good[k][0] for k in idx)
        sequents = tuple(good[k][1] for k in idx)
        children = [good[k][2] for k in idx]
        conclusion = Conclusion(0, sequents, _ProbData(cfg, tuple(reduced)))
        return SearchSuccess(conclusion, children)

    @staticmethod
    def _weights_over(
        cfg: Sequence[ConfigVector], conds: Sequence[MassBound | None]
    ) -> list[Fraction] | None:
        if not cfg:
            return None
        if len(cfg) <= 8:
            return lp.feasible(mass_system(cfg, conds), cap=8)
        # Nonnegativity is implicit in the simplex, so skip those rows.
        sys_ = lp.system(len(cfg))
        sys_.add([ONE] * len(cfg), lp.EQ, ONE)
        for pos, cond in enumerate(conds):
            if cond is None:
                continue
            row = [ONE if vec[pos] else ZERO for vec in cfg]
            sys_.add(row, cond.rel, cond.threshold)
        return lp.simplex_feasible(sys_, nonneg=True)


def probably_rejected() -> None:
    """Diagnostic for the unsupported expectation-valued modality."""
    raise ValueError(
        "the expectation-valued 'probably' modality is not supported: its "
        "successor constraints are arithmetically entangled, so no finite "
        "modal rule with independent successor intervals exists"
    )
