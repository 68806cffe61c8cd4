"""Labelled diamonds over a finite metric label space, fuzzy or crisp.

A literal dia{l,c} v in <a,b> asks for a labelled successor: some edge with
label m within *lower reach* of l (the truncated slack c - d(l,m) still
meets the lower bound) leading to a state where v meets the lower bound,
while every edge whose label lies within *upper reach* (slack exceeding the
upper bound) must keep min(degree, value) under the upper bound.  Both
reaches are decided in `int`: the space keeps its distances as numerators
over one scale, and each slack is compared with the literal's bounds by
cross-multiplication, with no `Fraction` built per label.

The modal rule dedicates one successor state to each literal with a
non-trivial lower bound.  For every pair (upper bound k, state j) that can
interact through a shared label, satisfaction at state j can be ensured by
one of three means: the transition degree of j dodges under k's upper bound
(possible iff j's lower interval meets it; always chosen when possible), or
a binary *choice* recorded in the conclusion: constrain state j's value of
k's argument (its cell k), or steer state j's edge label outside k's upper
reach.  Choice patterns whose states have no admissible label left are
filtered out.

With crisp transitions every present edge has degree 1, so the
degree-dodging option disappears and the pair set grows accordingly
(including a literal against its own state).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

from ..metricspace import MetricSpace
from ..numerics import Interval, ONE, UNIT
from ..onestep import Cells, Conclusion, Literal, OneStepLogic, SearchSteps, SearchSuccess
from ..sequents import SequentError
from ..syntax import MetricDiamond, ModalOp


_CRISP_DEGREE = Interval.point(ONE)


@dataclass(frozen=True)
class _Lit:
    index: int
    label: str
    reach: Fraction
    interval: Interval


def _conclusion(built: list[tuple[str, Cells, Interval]]) -> Conclusion:
    """The conclusion whose states are `built`, each a (label, cells,
    degrees) triple from `MetricLogic._state`, with one edge per state: its
    label, at a degree picked from its admissible degrees."""
    edges = []
    for label, _, degrees in built:
        if degrees.is_empty:
            raise SequentError("internal: empty degree range in metric conclusion")
        edges.append((label, degrees.pick()))
    return Conclusion(tuple(b[1] for b in built), tuple(edges))


@dataclass
class _Layer:
    """What every conclusion of one end-sequent shares: its literals, the
    states (literals with a non-vacuous lower bound), each state's lower
    reach, each literal's upper reach, and, per state, the upper bounds it
    must choose for."""

    lits: list[_Lit]
    states: list[_Lit]
    lower_reach: dict[int, list[str]]
    upper_reach: dict[int, set[str]]
    paired: dict[int, list[int]]  # state index -> paired literal indices


class MetricLogic(OneStepLogic):
    def __init__(self, space: MetricSpace, crisp: bool = False):
        self.space = space
        self.crisp = crisp
        self.name = "metric-crisp" if crisp else "metric-fuzzy"
        self.kind = "metric-crisp" if crisp else "metric"

    def supports(self, op: ModalOp) -> bool:
        return isinstance(op, MetricDiamond) and op.label in self.space.labels

    def _reach(self, lit: _Lit) -> tuple[list[str] | None, set[str]]:
        """The labels m whose truncated slack c - d(l, m) can meet the lower
        bound (lower reach, in label order; None for a vacuous lower bound,
        whose literal is not a state), and those whose slack alone already
        exceeds the upper bound (upper reach; empty for a vacuous upper
        bound, since slacks lie in [0, 1]).

        With c = cn/cd and the space's distances D(l, m)/S, the slack is
        max(0, cn S - cd D(l, m)) / (cd S), so each test is one `int`
        cross-multiplication with a bound's reduced pair."""
        interval = lit.interval
        ln, ld, hn, hd = interval.endpoint_pairs()
        lo_open, hi_open = interval.lo_open, interval.hi_open
        # A bound is vacuous exactly when it is a closed 0 (lower) or 1 (upper).
        is_state, has_upper = ln != 0 or lo_open, hn != hd or hi_open
        lower, upper = [] if is_state else None, set()
        if is_state or has_upper:
            space = self.space
            cn, cd = lit.reach.as_integer_ratio()
            top, den = cn * space.scale, cd * space.scale
            lo, hi = ln * den, hn * den  # the bounds over the slacks' denominator
            for m, d in zip(space.labels, space.scaled_row(lit.label)):
                slack = max(0, top - cd * d)
                if is_state and (slack * ld > lo if lo_open else slack * ld >= lo):
                    lower.append(m)
                if has_upper and (slack * hd >= hi if hi_open else slack * hd > hi):
                    upper.add(m)
        return lower, upper

    def _layer(self, literals: tuple[Literal, ...]) -> _Layer | None:
        """The shared prelude of the rule, or None when the literals have
        no conclusion: a state no label can serve."""
        lits = [
            _Lit(i, op.label, op.c, interval)
            for i, (op, interval) in enumerate(literals)
        ]
        states = []
        lower_reach, upper_reach = {}, {}
        for lit in lits:
            lower, upper_reach[lit.index] = self._reach(lit)
            if lower is not None:
                if not lower:
                    return None
                states.append(lit)
                lower_reach[lit.index] = lower
        # (upper bound k, state j) pairs that interact through a shared
        # label and need an explicit choice.
        paired: dict[int, list[int]] = {s.index: [] for s in states}
        for k in lits:
            for j in states:
                if upper_reach[k.index].isdisjoint(lower_reach[j.index]):
                    continue
                if not self.crisp:
                    # Degree-dodging handles the pair when j's lower bound
                    # and k's upper bound share an admissible degree.
                    lower, upper = j.interval.lower_ray(), k.interval.upper_ray()
                    if not lower.intersect(upper).is_empty:
                        continue
                paired[j.index].append(k.index)
        return _Layer(lits, states, lower_reach, upper_reach, paired)

    def _state(
        self, layer: _Layer, s: _Lit, constrain: list[int]
    ) -> tuple[str, Cells, Interval] | None:
        """State s's edge label, cells and admissible edge degrees when it
        caps the values of the paired literals in `constrain` and steers its
        label out of the upper reach of the other paired literals; None when
        no label is left.

        The degrees meet s's lower bound and dodge under the upper bound of
        every unconstrained literal whose upper reach holds the label (all
        of them unpaired, so each dodge is possible); crisp edges have
        degree 1."""
        avoid = set()
        for k in layer.paired[s.index]:
            if k not in constrain:
                avoid |= layer.upper_reach[k]
        allowed = [m for m in layer.lower_reach[s.index] if m not in avoid]
        if not allowed:
            return None
        label = allowed[0]
        cells = [UNIT] * len(layer.lits)
        cells[s.index] = s.interval.lower_ray()
        for k in constrain:
            cells[k] = cells[k].intersect(layer.lits[k].interval.upper_ray())
        if self.crisp:
            degrees = _CRISP_DEGREE
        else:
            degrees = s.interval.lower_ray()
            for k in layer.lits:
                if k.index not in constrain and label in layer.upper_reach[k.index]:
                    degrees = degrees.intersect(k.interval.upper_ray())
        return label, tuple(cells), degrees

    def conclusions(self, lits: tuple[Literal, ...]) -> Iterator[Conclusion]:
        layer = self._layer(lits)
        if layer is None:
            return
        pairs = sorted((k, s.index) for s in layer.states for k in layer.paired[s.index])
        for pattern in product((True, False), repeat=len(pairs)):
            # True: constrain state j's cell k; False: steer the label.
            constrained: dict[int, list[int]] = {s.index: [] for s in layer.states}
            for choice, (k, j) in zip(pattern, pairs):
                if choice:
                    constrained[j].append(k)
            built = []
            for s in layer.states:
                state = self._state(layer, s, constrained[s.index])
                if state is None:
                    break
                built.append(state)
            else:
                yield _conclusion(built)

    def search_steps(self, lits: tuple[Literal, ...]) -> SearchSteps:
        """Per-state independent choice search, equivalent to enumerating
        whole choice patterns: a pattern succeeds iff each state has a
        locally admissible choice subset with a satisfiable child."""
        layer = self._layer(lits)
        if layer is None:
            return None
        built, children = [], []
        for s in layer.states:
            ks = layer.paired[s.index]
            for bits in product((True, False), repeat=len(ks)):
                constrain = [k for k, b in zip(ks, bits) if b]
                state = self._state(layer, s, constrain)
                if state is None:
                    continue
                child = yield state[1]
                if child is not None:
                    built.append(state)
                    children.append(child)
                    break
            else:
                return None
        return SearchSuccess(_conclusion(built), children)
