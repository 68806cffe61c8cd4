"""Shared test utilities: random generators (boundary literals among them),
direct one-step evaluation, a stand-alone runner for the one-step searches,
the point-set reference liftings, the default conclusion enumeration of an
instance, the `Fraction`-endpoint reference interval, the
comparison-negation rays, small interval, sequent and formula predicates,
and an independent classical modal-logic oracle."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from nexfuz.liftings import (
    diamond_value,
    generally_value,
    metric_diamond_value,
    more_than_value,
)
from nexfuz.metricspace import MetricSpace
from nexfuz.models import FiniteModel
from nexfuz.numerics import Comp, Interval, NumericError, ONE, ZERO, to_fraction
from nexfuz.onestep import OneStepLogic
from nexfuz.sequents import Sequent, SequentError
from nexfuz.syntax import (
    And,
    Atom,
    Diamond,
    Formula,
    Generally,
    Minus,
    Modal,
    MetricDiamond,
    MoreThan,
    Neg,
    Zero,
)

ATOMS = ("a", "b", "c")


def rand_rational(rng: random.Random, max_den: int = 16) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def rand_interval(rng: random.Random, max_den: int = 16) -> Interval:
    x, y = sorted((rand_rational(rng, max_den), rand_rational(rng, max_den)))
    return Interval.make(x, y, lo_open=x != y and rng.random() < 0.3,
                         hi_open=x != y and rng.random() < 0.3)


def edge_interval(rng: random.Random) -> Interval:
    """A random non-empty interval that often sits on a boundary: ends drawn
    from 0, 1 and denominators up to 6, each end closed or open, so that
    [0,0], [1,1] and closed or open 0 and 1 ends all come up."""
    while True:
        lo, hi = sorted(rng.choice((ZERO, ONE, rand_rational(rng, 6))) for _ in range(2))
        interval = Interval.make(lo, hi, rng.random() < 0.5, rng.random() < 0.5)
        if not interval.is_empty:
            return interval


def edge_gamma(rng: random.Random, flavor: str) -> tuple:
    """1-4 literals over `edge_interval`s; M{p} draws p = 0 and p = 1 often."""
    return tuple(
        (
            Generally() if flavor == "lgen"
            else MoreThan(rng.choice((ZERO, ONE, rand_rational(rng, 6)))),
            edge_interval(rng),
        )
        for _ in range(rng.randint(1, 4))
    )


def rand_modal_op(rng: random.Random, logic_name: str, space: MetricSpace | None = None,
                  max_den: int = 16):
    if logic_name == "alc":
        return Diamond()
    if logic_name == "lgen":
        return Generally()
    if logic_name == "mp":
        return MoreThan(rand_rational(rng, max_den))
    label = rng.choice(space.labels)
    return MetricDiamond(label, rand_rational(rng, max_den))


class _FormulaBuilder:
    """Random formulas with a per-depth-level modal budget shared across one
    whole sequent, so that every recursion layer of the solver sees at most
    `layer_budget` modal literals."""

    def __init__(self, rng, logic_name, space, max_den, layer_budget):
        self.rng = rng
        self.logic_name = logic_name
        self.space = space
        self.max_den = max_den
        self.layer_budget = layer_budget
        self.budgets: dict[int, int] = {}

    def build(self, depth: int, level: int = 0) -> Formula:
        rng = self.rng
        remaining = self.budgets.setdefault(level, self.layer_budget)
        choices = ["atom", "atom", "neg", "minus", "and", "zero"]
        if depth > 0 and remaining > 0:
            choices += ["modal", "modal", "modal"]
        kind = rng.choice(choices)
        if kind == "atom":
            return Atom(rng.choice(ATOMS))
        if kind == "zero":
            return Zero()
        if kind == "neg":
            return Neg(self.build(depth, level))
        if kind == "minus":
            return Minus(self.build(depth, level), rand_rational(rng, self.max_den))
        if kind == "and":
            return And(self.build(depth, level), self.build(depth, level))
        self.budgets[level] -= 1
        return Modal(
            rand_modal_op(rng, self.logic_name, self.space, self.max_den),
            self.build(depth - 1, level + 1),
        )


def rand_formula(
    rng: random.Random,
    logic_name: str,
    depth: int,
    space: MetricSpace | None = None,
    max_den: int = 16,
    layer_budget: int = 4,
) -> Formula:
    return _FormulaBuilder(rng, logic_name, space, max_den, layer_budget).build(depth)


def rand_sequent(
    rng: random.Random,
    logic_name: str,
    depth: int = 3,
    space: MetricSpace | None = None,
    max_den: int = 16,
    max_literals: int = 2,
    layer_budget: int = 4,
) -> Sequent:
    builder = _FormulaBuilder(rng, logic_name, space, max_den, layer_budget)
    out = Sequent()
    for _ in range(rng.randint(1, max_literals)):
        out = out.insert(builder.build(depth), rand_interval(rng, max_den))
    return out


def rand_metric_space(rng: random.Random, max_labels: int = 3, max_den: int = 8) -> MetricSpace:
    """Random finite metric space from points on the rational line."""
    n = rng.randint(1, max_labels)
    labels = [f"l{i}" for i in range(n)]
    points = [rand_rational(rng, max_den) for _ in range(n)]
    matrix = [[abs(points[i] - points[j]) for j in range(n)] for i in range(n)]
    return MetricSpace.make(labels, matrix)


def rand_model(
    rng: random.Random,
    kind: str,
    n_states: int,
    space: MetricSpace | None = None,
    max_den: int = 16,
) -> FiniteModel:
    states = tuple(f"x{i}" for i in range(n_states))
    atoms = {x: {a: rand_rational(rng, max_den) for a in ATOMS} for x in states}
    trans: dict = {}
    if kind == "prob":
        for x in states:
            supp = rng.sample(states, rng.randint(1, n_states))
            weights = [rng.randint(1, max_den) for _ in supp]
            total = sum(weights)
            trans[x] = {y: Fraction(w, total) for y, w in zip(supp, weights)}
    elif kind == "fuzzyrel":
        for x in states:
            row = {}
            for y in states:
                if rng.random() < 0.6:
                    row[y] = rand_rational(rng, max_den)
            trans[x] = row
    else:
        for x in states:
            row = {}
            for y in states:
                for label in space.labels:
                    if rng.random() < 0.4:
                        row[(label, y)] = (
                            ONE if kind == "metric-crisp" else rand_rational(rng, max_den)
                        )
            trans[x] = row
    model = FiniteModel(kind, states, trans, atoms, space)
    model.validate()
    return model


# ---------------------------------------------------------------------------
# Direct one-step evaluation (independent of the solver path)
# ---------------------------------------------------------------------------


def eval_prop(formula: Formula, valuation: dict[Formula, Fraction]) -> Fraction:
    """Evaluate a one-step formula under truth values for its modal/atom labels."""
    if isinstance(formula, Zero):
        return ZERO
    if formula in valuation:
        return valuation[formula]
    if isinstance(formula, Neg):
        return ONE - eval_prop(formula.arg, valuation)
    if isinstance(formula, Minus):
        return max(ZERO, eval_prop(formula.arg, valuation) - formula.c)
    if isinstance(formula, And):
        return min(eval_prop(formula.left, valuation), eval_prop(formula.right, valuation))
    raise AssertionError(f"no valuation for label {formula!r}")


def seq_satisfied(seq: Sequent, valuation: dict[Formula, Fraction]) -> bool:
    return all(i.contains(eval_prop(f, valuation)) for f, i in seq.items())


def onestep_modal_value(op, tau_values: list[Fraction], structure, space=None) -> Fraction:
    """Truth value of one modal literal in an explicit one-step model.

    `tau_values[j]` is the variable's value at state j; `structure` is the
    kind-specific transition data (degrees, weights, or (label, degree))."""
    if isinstance(op, Diamond):
        return diamond_value(list(zip(structure, tau_values)))
    if isinstance(op, Generally):
        return generally_value(list(zip(structure, tau_values)))
    if isinstance(op, MoreThan):
        return more_than_value(list(zip(structure, tau_values)), op.p)
    if isinstance(op, MetricDiamond):
        triples = [
            (label, degree, value)
            for (label, degree), value in zip(structure, tau_values)
        ]
        return metric_diamond_value(triples, op.label, op.c, space)
    raise AssertionError(f"unknown operator {op!r}")


def run_search(logic, lits: tuple, child):
    """Run `logic.search_steps(lits)` on its own, answering the cells of
    each successor it yields with `child(cells)`: a witness-DAG state id
    when the successor is satisfiable, None when it is not.  Returns the
    search's result."""
    steps = logic.search_steps(lits)
    try:
        cells = next(steps)
        while True:
            cells = steps.send(child(cells))
    except StopIteration as stop:
        return stop.value


class NaiveWrapper(OneStepLogic):
    """Hides an instance's `search_steps` override so the default
    conclusion enumeration runs; used to check the fast paths stay
    equivalent."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.kind = inner.kind
        self.space = getattr(inner, "space", None)

    def supports(self, op):
        return self.inner.supports(op)

    def conclusions(self, lits):
        return self.inner.conclusions(lits)


# ---------------------------------------------------------------------------
# Reference interval: `Interval` with `Fraction` endpoints, as it was before
# it held reduced int pairs; the parity oracle of tests/test_numerics.py
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceInterval:
    """A sub-interval of [0, 1] over `Fraction` endpoints, with the
    operations of `nexfuz.numerics.Interval` written over `Fraction`
    comparisons and arithmetic.  Degenerate inputs canonicalize to
    REFERENCE_EMPTY."""

    lo: Fraction
    hi: Fraction
    lo_open: bool
    hi_open: bool
    is_empty: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_empty", self.lo > self.hi)

    @staticmethod
    def make(lo, hi, lo_open: bool = False, hi_open: bool = False) -> ReferenceInterval:
        lo = to_fraction(lo)
        hi = to_fraction(hi)
        if not (ZERO <= lo <= ONE and ZERO <= hi <= ONE):
            raise NumericError(f"interval endpoints outside [0, 1]: {lo}, {hi}")
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return REFERENCE_EMPTY
        return ReferenceInterval(lo, hi, lo_open, hi_open)

    @staticmethod
    def point(q) -> ReferenceInterval:
        return ReferenceInterval.make(q, q)

    @staticmethod
    def from_comparison(op, p: Fraction) -> ReferenceInterval:
        if op.is_lower:
            return ReferenceInterval.make(p, ONE, lo_open=op.strict)
        return ReferenceInterval.make(ZERO, p, hi_open=op.strict)

    def lower_ray(self) -> ReferenceInterval:
        if self.is_empty:
            return REFERENCE_EMPTY
        return ReferenceInterval(self.lo, ONE, self.lo_open, False)

    def upper_ray(self) -> ReferenceInterval:
        if self.is_empty:
            return REFERENCE_EMPTY
        return ReferenceInterval(ZERO, self.hi, False, self.hi_open)

    def contains(self, q: Fraction) -> bool:
        if not (q > self.lo if self.lo_open else q >= self.lo):
            return False
        return q < self.hi if self.hi_open else q <= self.hi

    def intersect(self, other: ReferenceInterval) -> ReferenceInterval:
        if self.is_empty or other.is_empty:
            return REFERENCE_EMPTY
        if self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo > self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi < self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        return ReferenceInterval.make(lo, hi, lo_open, hi_open)

    def complement(self) -> ReferenceInterval:
        if self.is_empty:
            return REFERENCE_EMPTY
        return ReferenceInterval.make(ONE - self.hi, ONE - self.lo, self.hi_open, self.lo_open)

    def shift_up(self, c: Fraction) -> ReferenceInterval:
        if self.is_empty:
            return REFERENCE_EMPTY
        if not ZERO <= c <= ONE:
            raise NumericError(f"shift constant {c} outside [0, 1]")
        lo = self.lo + c
        if lo > ONE or (lo == ONE and self.lo_open):
            return REFERENCE_EMPTY
        hi = self.hi + c
        if hi > ONE:
            return ReferenceInterval.make(lo, ONE, self.lo_open, False)
        return ReferenceInterval.make(lo, hi, self.lo_open, self.hi_open)

    def pick(self) -> Fraction:
        if self.is_empty:
            raise NumericError("cannot pick from the empty interval")
        if self.lo == self.hi:
            return self.lo
        return (self.lo + self.hi) / 2

    def is_subset(self, other: ReferenceInterval) -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        return self.intersect(other) == self

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo},{self.hi}{right}"


REFERENCE_EMPTY = ReferenceInterval(ONE, ZERO, True, True)
REFERENCE_UNIT = ReferenceInterval(ZERO, ONE, False, False)


# ---------------------------------------------------------------------------
# Predicates on intervals, sequents and formulas that only the tests ask
# ---------------------------------------------------------------------------


def is_point(interval: Interval) -> bool:
    return not interval.is_empty and interval.lo == interval.hi


def is_subset(interval: Interval, other: Interval) -> bool:
    """Whether every value of `interval` lies in `other`, compared in `int`
    over the endpoint pairs."""
    if interval.is_empty:
        return True
    if other.is_empty:
        return False
    x, y = interval._ln * other._ld, other._ln * interval._ld
    if x < y or (x == y and other.lo_open and not interval.lo_open):
        return False
    x, y = interval._hn * other._hd, other._hn * interval._hd
    return not (x > y or (x == y and other.hi_open and not interval.hi_open))


# The comparison c with (x c y) == not (x op y), for each operator op.
NEGATION = {Comp.LT: Comp.GE, Comp.LE: Comp.GT, Comp.GT: Comp.LE, Comp.GE: Comp.LT}


def negated_lower_ray(interval: Interval) -> Interval:
    """The values failing the lower bound, built as the negated comparison
    against the endpoint: what `Interval.below()` must equal."""
    return Interval.from_comparison(NEGATION[interval.lower_comp()], interval.lo)


def negated_upper_ray(interval: Interval) -> Interval:
    """The values failing the upper bound; what `Interval.above()` must
    equal."""
    return Interval.from_comparison(NEGATION[interval.upper_comp()], interval.hi)


def is_exact_over(seq: Sequent, labels: Iterable[Formula]) -> bool:
    """`seq` is total on the given label set (one interval per label)."""
    return set(labels) == set(seq)


def is_subsequent(seq: Sequent, other: Sequent) -> bool:
    """Pointwise interval inclusion; both sides must share one label set."""
    if set(seq) != set(other):
        raise SequentError("sub-sequent check over mismatched label sets")
    return all(is_subset(i, other[f]) for f, i in seq.items())


def prop_subformulas(f: Formula) -> set[Formula]:
    """Subformulas not under a modal operator; stops at (and keeps) modal leaves."""
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, (Neg, Minus)):
            stack.append(g.arg)
        elif isinstance(g, And):
            stack.append(g.left)
            stack.append(g.right)
    return out


# ---------------------------------------------------------------------------
# Reference liftings: the point-set definitions, quadratic and direct
# ---------------------------------------------------------------------------


def reference_diamond_value(edges: list[tuple[Fraction, Fraction]]) -> Fraction:
    """max over successors of min(transition degree, argument value)."""
    best = ZERO
    for degree, value in edges:
        best = max(best, min(degree, value))
    return best


def reference_generally_value(dist: list[tuple[Fraction, Fraction]]) -> Fraction:
    """max over successor values a of min(a, mass of {successor value >= a})."""
    best = ZERO
    for _, alpha in dist:
        mass = sum((w for w, v in dist if v >= alpha), ZERO)
        best = max(best, min(alpha, mass))
    return best


def reference_more_than_value(dist: list[tuple[Fraction, Fraction]], p: Fraction) -> Fraction:
    """Largest successor value a with mass of {value >= a} > p, else 0."""
    best = ZERO
    for _, alpha in dist:
        if alpha <= best:
            continue
        mass = sum((w for w, v in dist if v >= alpha), ZERO)
        if mass > p:
            best = alpha
    return best


def reference_metric_diamond_value(
    edges: list[tuple[str, Fraction, Fraction]],
    base_label: str,
    reach: Fraction,
    space: MetricSpace,
) -> Fraction:
    """max over labelled edges of min(degree, value, max(0, reach - distance))."""
    best = ZERO
    for label, degree, value in edges:
        slack = max(ZERO, reach - space.dist(base_label, label))
        best = max(best, min(degree, value, slack))
    return best


# ---------------------------------------------------------------------------
# Classical relational modal logic (oracle for the crisp-fragment check)
# ---------------------------------------------------------------------------


def classical_sat(formula: Formula) -> bool:
    """Complete decision for crisp relational modal logic with one diamond.

    States are sets of signed demands (formula, polarity).  Non-branching
    demands are saturated in place; negated conjunctions branch; finally
    each positive diamond demand spawns one recursive successor check that
    also carries every negative diamond demand.
    """

    def sat_set(demands: list[tuple[Formula, bool]]) -> bool:
        queue = list(demands)
        literals: dict[str, bool] = {}
        dias: list[Formula] = []
        boxes: list[Formula] = []
        while queue:
            f, pos = queue.pop()
            if isinstance(f, Zero):
                if pos:
                    return False
            elif isinstance(f, Atom):
                if literals.get(f.name, pos) != pos:
                    return False
                literals[f.name] = pos
            elif isinstance(f, Neg):
                queue.append((f.arg, not pos))
            elif isinstance(f, And):
                if pos:
                    queue.append((f.left, True))
                    queue.append((f.right, True))
                else:
                    rest = (
                        list(queue)
                        + [(Atom(k), v) for k, v in literals.items()]
                        + [(Modal(Diamond(), d), True) for d in dias]
                        + [(Modal(Diamond(), b), False) for b in boxes]
                    )
                    return sat_set(rest + [(f.left, False)]) or sat_set(
                        rest + [(f.right, False)]
                    )
            elif isinstance(f, Modal):
                (dias if pos else boxes).append(f.arg)
            else:
                raise AssertionError(f"classical oracle cannot handle {f!r}")
        return all(sat_set([(d, True)] + [(b, False) for b in boxes]) for d in dias)

    return sat_set([(formula, True)])
