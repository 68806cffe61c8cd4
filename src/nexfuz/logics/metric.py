"""Labelled diamonds over a finite metric label space, fuzzy or crisp.

A literal dia{l,c} v in <a,b> asks for a labelled successor: some edge with
label m within *lower reach* of l (the truncated slack c - d(l,m) still
meets the lower bound) leading to a state where v meets the lower bound,
while every edge whose label lies within *upper reach* (slack exceeding the
upper bound) must keep min(degree, value) under the upper bound.

The modal rule dedicates one successor state to each literal with a
non-trivial lower bound.  For every pair (upper bound k, state j) that can
interact through a shared label, satisfaction at state j can be ensured by
one of three means: the transition degree of j dodges under k's upper bound
(possible iff j's lower interval meets it; always chosen when possible), or
a binary *choice* recorded in the conclusion: constrain the value of v_k at
state j, or steer state j's edge label outside k's upper reach.  Choice
patterns whose states have no admissible label left are filtered out.

With crisp transitions every present edge has degree 1, so the
degree-dodging option disappears and the pair set grows accordingly
(including a literal against its own state).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

from ..liftings import metric_diamond_value
from ..metricspace import MetricSpace
from ..numerics import Interval, ONE, UNIT, ZERO
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
from ..syntax import MetricDiamond, ModalOp, Var


@dataclass(frozen=True)
class _Lit:
    index: int
    var: Var
    label: str
    reach: Fraction
    interval: Interval

    @property
    def lower_vacuous(self) -> bool:
        return self.interval.lo == ZERO and not self.interval.lo_open

    @property
    def upper_vacuous(self) -> bool:
        return self.interval.hi == ONE and not self.interval.hi_open

    def lower_ok(self, value: Fraction) -> bool:
        return self.interval.lower_comp().holds(value, self.interval.lo)

    def upper_ok(self, value: Fraction) -> bool:
        return self.interval.upper_comp().holds(value, self.interval.hi)

    def lower_interval(self) -> Interval:
        return Interval.make(self.interval.lo, ONE, lo_open=self.interval.lo_open)

    def upper_interval(self) -> Interval:
        return Interval.make(ZERO, self.interval.hi, hi_open=self.interval.hi_open)


@dataclass(frozen=True)
class _MetricData:
    """Choice pattern payload: per realized state, constraints and labels."""

    state_lits: tuple[int, ...]  # literal index realized by each state
    constrained: tuple[tuple[int, ...], ...]  # per state: literals whose value is capped
    labels: tuple[str, ...]  # per state: the chosen edge label


class MetricLogic(OneStepLogic):
    def __init__(self, space: MetricSpace, crisp: bool = False):
        self.space = space
        self.crisp = crisp
        self.name = "metric-crisp" if crisp else "metric-fuzzy"
        self.kind = "metric-crisp" if crisp else "metric"

    def supports(self, op: ModalOp) -> bool:
        return isinstance(op, MetricDiamond) and op.label in self.space.labels

    def _literals(self, gamma: Sequent) -> list[_Lit]:
        lits = []
        for i, (op, var, interval) in enumerate(modal_literals(gamma)):
            if not isinstance(op, MetricDiamond):
                raise SequentError(f"unsupported modality {op} for the metric logic")
            self.space.index(op.label)
            lits.append(_Lit(i, var, op.label, op.c, interval))
        if len({lit.var for lit in lits}) != len(lits):
            raise SequentError("duplicate variables in an end-sequent")
        return lits

    def _lower_reach(self, lit: _Lit) -> list[str]:
        """Labels m whose truncated slack c - d can meet the lower bound."""
        out = []
        for m in self.space.labels:
            slack = max(ZERO, lit.reach - self.space.dist(lit.label, m))
            if lit.lower_ok(slack):
                out.append(m)
        return out

    def _upper_reach(self, lit: _Lit) -> set[str]:
        """Labels m whose slack alone already exceeds the upper bound."""
        out = set()
        for m in self.space.labels:
            slack = max(ZERO, lit.reach - self.space.dist(lit.label, m))
            if not lit.upper_ok(slack):
                out.add(m)
        return out

    def _pairs(self, lits: list[_Lit], states: list[_Lit]):
        """Interacting (upper bound, state) pairs needing an explicit choice."""
        lower_reach = {s.index: self._lower_reach(s) for s in states}
        upper_reach = {k.index: self._upper_reach(k) for k in lits}
        pairs = []
        for k in lits:
            if k.upper_vacuous:
                continue
            for j in states:
                if not upper_reach[k.index] & set(lower_reach[j.index]):
                    continue
                if not self.crisp:
                    # Degree-dodging handles the pair when j's lower bound
                    # and k's upper bound share an admissible degree.
                    if not j.lower_interval().intersect(k.upper_interval()).is_empty:
                        continue
                pairs.append((k.index, j.index))
        return pairs, lower_reach, upper_reach

    def conclusions(self, gamma: Sequent) -> Iterator[Conclusion]:
        lits = self._literals(gamma)
        if any(lit.interval.is_empty for lit in lits):
            return
        states = [lit for lit in lits if not lit.lower_vacuous]
        by_index = {lit.index: lit for lit in lits}
        variables = [lit.var for lit in lits]
        pairs, lower_reach, upper_reach = self._pairs(lits, states)
        for s in states:
            if not lower_reach[s.index]:
                return
        index = 0
        for pattern in product((True, False), repeat=len(pairs)):
            # True: constrain the value of v_k at state j; False: steer the label.
            constrained: dict[int, list[int]] = {s.index: [] for s in states}
            avoided: dict[int, set[str]] = {s.index: set() for s in states}
            for choice, (k, j) in zip(pattern, pairs):
                if choice:
                    constrained[j].append(k)
                else:
                    avoided[j] |= upper_reach[k]
            labels = []
            ok = True
            for s in states:
                allowed = [m for m in lower_reach[s.index] if m not in avoided[s.index]]
                if not allowed:
                    ok = False
                    break
                labels.append(allowed[0])
            if not ok:
                continue
            sequents = []
            for s in states:
                cell = {s.var: s.lower_interval()}
                for k in constrained[s.index]:
                    lk = by_index[k]
                    cell[lk.var] = cell.get(lk.var, UNIT).intersect(
                        lk.upper_interval()
                    )
                sequents.append(exact_over_vars(cell, variables))
            data = _MetricData(
                tuple(s.index for s in states),
                tuple(tuple(sorted(constrained[s.index])) for s in states),
                tuple(labels),
            )
            yield Conclusion(index, tuple(sequents), data)
            index += 1

    def realize(self, gamma, conclusion, tau) -> TransitionWitness:
        lits = self._literals(gamma)
        by_index = {lit.index: lit for lit in lits}
        data: _MetricData = conclusion.data
        upper_reach = {lit.index: self._upper_reach(lit) for lit in lits}
        edges = []
        for pos, state_lit in enumerate(data.state_lits):
            s = by_index[state_lit]
            label = data.labels[pos]
            if self.crisp:
                degree = ONE
            else:
                allowed = s.lower_interval()
                for k in lits:
                    if k.upper_vacuous or k.index in data.constrained[pos]:
                        continue
                    if label in upper_reach[k.index]:
                        allowed = allowed.intersect(k.upper_interval())
                if allowed.is_empty:
                    raise SequentError("internal: empty degree range in metric realize")
                degree = allowed.pick()
            edges.append((label, degree))
        witness = TransitionWitness(self.kind, tuple(edges))
        self._check_roundtrip(lits, data, tau, edges)
        return witness

    def _check_roundtrip(self, lits, data: _MetricData, tau, edges) -> None:
        for lit in lits:
            triples = [
                (label, degree, tau(j, lit.var))
                for j, (label, degree) in enumerate(edges)
            ]
            value = metric_diamond_value(triples, lit.label, lit.reach, self.space)
            if not lit.interval.contains(value):
                raise SequentError(
                    f"internal: realized metric value {value} escapes {lit.interval}"
                )

    def search_steps(self, gamma: Sequent) -> SearchSteps:
        """Per-state independent choice search, equivalent to enumerating
        whole choice patterns: a pattern succeeds iff each state has a
        locally admissible choice subset with a satisfiable child."""
        lits = self._literals(gamma)
        if any(lit.interval.is_empty for lit in lits):
            return None
        states = [lit for lit in lits if not lit.lower_vacuous]
        by_index = {lit.index: lit for lit in lits}
        variables = [lit.var for lit in lits]
        pairs, lower_reach, upper_reach = self._pairs(lits, states)
        for s in states:
            if not lower_reach[s.index]:
                return None
        per_state: dict[int, list[int]] = {s.index: [] for s in states}
        for k, j in pairs:
            per_state[j].append(k)

        chosen_constraints: list[tuple[int, ...]] = []
        chosen_labels: list[str] = []
        sequents: list[Sequent] = []
        children = []
        for s in states:
            ks = per_state[s.index]
            found = None
            for bits in product((True, False), repeat=len(ks)):
                constrain = [k for k, b in zip(ks, bits) if b]
                avoid = set()
                for k, b in zip(ks, bits):
                    if not b:
                        avoid |= upper_reach[k]
                allowed = [m for m in lower_reach[s.index] if m not in avoid]
                if not allowed:
                    continue
                cell = {s.var: s.lower_interval()}
                for k in constrain:
                    lk = by_index[k]
                    cell[lk.var] = cell.get(lk.var, UNIT).intersect(
                        lk.upper_interval()
                    )
                seq = exact_over_vars(cell, variables)
                result = yield seq
                if result.sat:
                    found = (tuple(sorted(constrain)), allowed[0], seq, result)
                    break
            if found is None:
                return None
            chosen_constraints.append(found[0])
            chosen_labels.append(found[1])
            sequents.append(found[2])
            children.append(found[3])
        data = _MetricData(
            tuple(s.index for s in states),
            tuple(chosen_constraints),
            tuple(chosen_labels),
        )
        return SearchSuccess(Conclusion(0, tuple(sequents), data), children)
