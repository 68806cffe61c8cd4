"""Modal operator semantics over finite successor data.

Each function computes the exact truth degree of one modal operator from
finite successor information, in one pass over the successors.  The suprema
in the point-set definitions are replaced by finite maxima; for the
probabilistic operators the supremum over all thresholds is attained at a
successor value because the cumulative mass above a threshold is a
left-continuous step function of the threshold.

The probabilistic liftings sort the successors once by value, descending,
and sweep them with a running mass: at each value a, that mass is the mass
of {value >= a}.  The mass only grows as the threshold falls, so the sweep
stops at the first value where the mass crosses the bound.  The diamonds
compare bound-first: an edge changes the running maximum `best` only if
each of its terms beats `best`, so most edges cost a comparison or two.
All arithmetic is exact; the tests keep the quadratic point-set definitions
as the reference.  Each `*_value` returns `Fraction(<its sweep>)`; the sweeps
start from the `int` 0, so `models.eval_formula` runs them in `int`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .metricspace import MetricSpace, MetricSpaceError

_by_value = itemgetter(1)


def diamond_value(edges: list[tuple[Fraction, Fraction]]) -> Fraction:
    """max over successors of min(transition degree, argument value)."""
    return Fraction(diamond_sweep(edges))


def diamond_sweep(edges):
    best = 0
    for degree, value in edges:
        if degree > best and value > best:
            best = degree if degree < value else value
    return best


def generally_value(dist: list[tuple[Fraction, Fraction]]) -> Fraction:
    """max over thresholds a of min(a, mass of {successor value >= a}).

    `dist` pairs each successor's (non-negative) probability with the
    argument value there.  Only successor values need to be tried as
    thresholds.  Going down the values, the mass grows while the threshold
    falls: before the first value a whose mass reaches a, each candidate
    equals its mass, the largest being the mass `above` of the values
    greater than a; from a on, each candidate is at most its threshold, at
    most a.  So the answer is max(a, above), and the sweep stops there.
    (A successor sharing a's value adds mass to a's candidate only, so the
    first successor at which the running mass reaches its value gives the
    same answer.)  With no crossing the answer is the whole mass.
    """
    return Fraction(generally_sweep(dist))


def generally_sweep(dist):
    mass = 0
    for weight, value in sorted(dist, key=_by_value, reverse=True):
        above = mass
        mass += weight
        if mass >= value:
            return value if value >= above else above
    return mass


def more_than_value(dist: list[tuple[Fraction, Fraction]], p: Fraction) -> Fraction:
    """Largest successor value a with mass of {value >= a} > p, else 0.

    The same sweep as `generally_value`, over values in [0, 1]: the first
    value at which the running mass exceeds p is the answer, because the
    mass of {value >= a} only grows as a falls.
    """
    return Fraction(more_than_sweep(dist, p))


def more_than_sweep(dist, p):
    mass = 0
    for weight, value in sorted(dist, key=_by_value, reverse=True):
        mass += weight
        if mass > p:
            return value
    return 0


def metric_diamond_value(
    edges: list[tuple[str, Fraction, Fraction]],
    base_label: str,
    reach: Fraction,
    space: MetricSpace,
) -> Fraction:
    """max over labelled edges of min(degree, value, reach - distance).

    `edges` lists (edge label, transition degree, argument value at target);
    the reach term is truncated at 0.  The slack reach - distance is
    computed once per label of the space, so an unknown `base_label` raises
    `MetricSpaceError` whether or not the state has edges.
    """
    distances = space.matrix[space.index(base_label)]
    slacks = {label: reach - d for label, d in zip(space.labels, distances)}
    return Fraction(metric_diamond_sweep(edges, slacks))


def metric_diamond_sweep(edges, slacks):
    best = 0
    for label, degree, value in edges:
        try:
            slack = slacks[label]
        except KeyError:
            raise MetricSpaceError(f"unknown label {label!r}") from None
        if slack > best and degree > best and value > best:
            best = min(slack, degree, value)
    return best
