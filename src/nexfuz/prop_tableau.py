"""Propositional tableau over one-step sequents.

Rewrites literals whose label has a propositional head (negation, truncated
subtraction, minimum) until only modal and atom labels remain.  The rule
order is fixed: `Ax` on any empty interval first; then every non-branching
rule (`Ax0`, `Drop0`, `Neg`, `Minus`, `MinusZero`, and `Min` on a lower ray)
on the first such literal in the sequent's insertion order; only then the
first remaining minimum splits, into the two disjoint branches `x in I,
y in lower_ray(I)` and `x in above(I), y in I`.  So the rules that pin or
close a branch fire before the branch is copied, and no valuation
satisfies both branches of a split.  Each step reads the sequent once and
copies it once per conclusion.  Saturation backtracks over both branches,
so the stream of open end-sequents is exhaustive.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .numerics import ZERO
from .records import Value
from .sequents import Sequent
from .syntax import And, Atom, Minus, Modal, Neg, Zero


class Closed(Value):
    """The sequent is closed (an axiom rule fired)."""

    __slots__ = _fields = ("rule",)

    def __init__(self, rule: str):
        self.rule = rule


class One(Value):
    __slots__ = _fields = ("rule", "conclusion")

    def __init__(self, rule: str, conclusion: Sequent):
        self.rule, self.conclusion = rule, conclusion


class Two(Value):
    __slots__ = _fields = ("rule", "left", "right")

    def __init__(self, rule: str, left: Sequent, right: Sequent):
        self.rule, self.left, self.right = rule, left, right


class Saturated(Value):
    """Only modal and atom labels with non-empty intervals remain."""

    __slots__ = ()


RuleResult = Closed | One | Two | Saturated

TraceFn = Callable[[str, Sequent, list[Sequent]], None]


def apply_rule(seq: Sequent) -> RuleResult:
    """Apply the first applicable rule under the fixed deterministic order:
    one pass notes the first literal of each kind, then the rule fires."""
    first = split = None
    for label, interval in seq.items():
        if interval.is_empty:
            return Closed("Ax")
        if isinstance(label, (Modal, Atom)) or first is not None:
            continue
        if not isinstance(label, And) or interval.above().is_empty:
            first = label, interval
        elif split is None:
            split = label, interval
    if first is None and split is None:
        return Saturated()
    label, interval = first or split
    if isinstance(label, Zero):
        if not interval.contains(ZERO):
            return Closed("Ax0")
        # 0 lies in the interval: the literal is trivially satisfied.
        return One("Drop0", seq.replace(label))
    if isinstance(label, Neg):
        return One("Neg", seq.replace(label, (label.arg, interval.complement())))
    if isinstance(label, Minus):
        shifted = interval.shift_up(label.c)
        if interval.contains(ZERO):
            # Interval is [0, b>: x - c truncated at 0 lies in it iff x
            # lies in [0, b + c>, capped at 1.
            return One("MinusZero", seq.replace(label, (label.arg, shifted.upper_ray())))
        return One("Minus", seq.replace(label, (label.arg, shifted)))
    if not isinstance(label, And):
        raise TypeError(f"unexpected label in one-step sequent: {label!r}")
    if first is not None:
        # A lower ray: min(x, y) meets it iff both x and y do.
        return One("Min", seq.replace(label, (label.left, interval), (label.right, interval)))
    # min(x, y) lies in I iff x lies in I and y meets I's lower bound, or x
    # lies above I and y in I; x below I takes the minimum below I.
    left = seq.replace(label, (label.left, interval), (label.right, interval.lower_ray()))
    right = seq.replace(label, (label.left, interval.above()), (label.right, interval))
    return Two("Min", left, right)


def saturate(
    seq: Sequent,
    trace: TraceFn | None = None,
    stack_hook: Callable[[int], None] | None = None,
) -> Iterator[Sequent]:
    """Depth-first enumeration of the open end-sequents of `seq`.

    Closed branches yield nothing.  No end-sequent is yielded twice.  An
    end-sequent puts a non-empty interval on each of its distinct leaves,
    so some valuation satisfies it, and that valuation satisfies every
    sequent on the end-sequent's branch, since each rule's conclusions
    imply its premise.  No valuation satisfies both branches of a split,
    so two branches never end in the same sequent.

    `stack_hook`, if given, is called with the stack's depth each time the
    depth passes the highest it has reached in this call.
    """
    stack = [seq]
    peak = 0
    while stack:
        if stack_hook is not None and len(stack) > peak:
            peak = len(stack)
            stack_hook(peak)
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
            stack.append(result.right)
            stack.append(result.left)
            continue
        yield current


def trace_to_json(rule: str, premise: Sequent, conclusions: list[Sequent]) -> dict:
    """One rule application as a JSON-ready record."""
    return {
        "rule": rule,
        "premise": premise.to_json(),
        "conclusions": [c.to_json() for c in conclusions],
    }
