"""Propositional tableau over one-step sequents.

Rewrites literals whose label has a propositional head (negation, truncated
subtraction, minimum) until only modal and atom labels remain, branching on
minimum.  Rule application order is fixed: the first reducible literal in the
sequent's insertion order.  Saturation backtracks over both branches of the
minimum rule, so the stream of open end-sequents is exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .numerics import ZERO
from .sequents import Sequent
from .syntax import And, Atom, Formula, Minus, Modal, Neg, Zero


@dataclass(frozen=True)
class Closed:
    """The sequent is closed (an axiom rule fired)."""

    rule: str


@dataclass(frozen=True)
class One:
    rule: str
    conclusion: Sequent


@dataclass(frozen=True)
class Two:
    rule: str
    left: Sequent
    right: Sequent


@dataclass(frozen=True)
class Saturated:
    """Only modal and atom labels with non-empty intervals remain."""


RuleResult = Closed | One | Two | Saturated

TraceFn = Callable[[str, Sequent, list[Sequent]], None]


def _irreducible(label: Formula) -> bool:
    return isinstance(label, (Modal, Atom))


def apply_rule(seq: Sequent) -> RuleResult:
    """Apply the first applicable rule under the fixed deterministic order."""
    for label, interval in seq.items():
        if interval.is_empty:
            return Closed("Ax")
    for label, interval in seq.items():
        if isinstance(label, Zero):
            if not interval.contains(ZERO):
                return Closed("Ax0")
            # 0 lies in the interval: the literal is trivially satisfied.
            return One("Drop0", seq.remove(label))
        if isinstance(label, Neg):
            return One("Neg", seq.remove(label).insert(label.arg, interval.complement()))
        if isinstance(label, Minus):
            shifted = interval.shift_up(label.c)
            if interval.contains(ZERO):
                # Interval is [0, b>: x - c truncated at 0 lies in it iff x
                # lies in [0, b + c>, capped at 1.
                return One("MinusZero", seq.remove(label).insert(label.arg, shifted.upper_ray()))
            return One("Minus", seq.remove(label).insert(label.arg, shifted))
        if isinstance(label, And):
            rest = seq.remove(label)
            lower_ray = interval.lower_ray()
            left = rest.insert(label.left, interval).insert(label.right, lower_ray)
            right = rest.insert(label.left, lower_ray).insert(label.right, interval)
            return Two("Min", left, right)
        if not _irreducible(label):
            raise TypeError(f"unexpected label in one-step sequent: {label!r}")
    return Saturated()


def saturate(
    seq: Sequent,
    trace: TraceFn | None = None,
    stack_hook: Callable[[int], None] | None = None,
) -> Iterator[Sequent]:
    """Depth-first enumeration of the open end-sequents of `seq`.

    Duplicate end-sequents (reachable along several branch choices) are
    suppressed.  Closed branches yield nothing.
    """
    stack = [seq]
    seen: set[Sequent] = set()
    while stack:
        if stack_hook is not None:
            stack_hook(len(stack))
        current = stack.pop()
        result = apply_rule(current)
        if isinstance(result, Closed):
            if trace is not None:
                trace(result.rule, current, [])
            continue
        if isinstance(result, One):
            if trace is not None:
                trace(result.rule, current, [result.conclusion])
            stack.append(result.conclusion)
            continue
        if isinstance(result, Two):
            if trace is not None:
                trace(result.rule, current, [result.left, result.right])
            if result.right != result.left:
                stack.append(result.right)
            stack.append(result.left)
            continue
        if current not in seen:
            seen.add(current)
            yield current


def trace_to_json(rule: str, premise: Sequent, conclusions: list[Sequent]) -> dict:
    """One rule application as a JSON-ready record."""
    return {
        "rule": rule,
        "premise": premise.to_json(),
        "conclusions": [c.to_json() for c in conclusions],
    }
