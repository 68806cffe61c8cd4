"""Exact rational linear feasibility.

Two engines:

* :func:`simplex_feasible` -- one two-phase simplex routine over
  nonnegative variables, the one engine of the solver's hot path (the
  probabilistic weight systems).  It has no variable-count cap; strict
  inequalities are handled by maximizing a shared slack.  Its witness is a
  basic solution, with no more nonzero columns than rows; the
  probabilistic logic's support bound rests on this.
* :func:`feasible` -- Fourier-Motzkin elimination over free variables, with
  native handling of strict inequalities, exponential in the variable
  count and capped at `MAX_FM_VARS` variables.  A sign condition is an
  ordinary row.  An equality enters as two inequalities, so there is one
  elimination path, and an explicit elimination order names each variable
  once.  It is the reference engine: the reference enumeration
  `conclusions()` and the tests use it as an oracle for the simplex.

Both return an exact rational witness point or None, and verify a witness
by re-substitution before returning it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .numerics import Comp, ONE, ZERO, to_fraction
from .records import Record, Value


class CapExceeded(RuntimeError):
    """A configured enumeration or size cap was hit; distinct from infeasible."""


class LpError(RuntimeError):
    pass


EQ = "=="


class Constraint(Value):
    """`coeffs . x rel rhs`; the numbers are read by `to_fraction`, so a
    float raises `NumericError`."""

    __slots__ = _fields = ("coeffs", "rel", "rhs")

    def __init__(self, coeffs: tuple[Fraction, ...], rel: Comp | str, rhs: Fraction):
        if not isinstance(rel, Comp) and rel != EQ:
            raise LpError(f"unknown relation {rel!r}")
        self.coeffs = tuple(to_fraction(c) for c in coeffs)
        self.rel = rel
        self.rhs = to_fraction(rhs)

    def evaluate(self, point: Sequence[Fraction]) -> bool:
        lhs = sum((c * x for c, x in zip(self.coeffs, point)), ZERO)
        if self.rel == EQ:
            return lhs == self.rhs
        return self.rel.holds(lhs, self.rhs)


class LinSystem(Record):
    __slots__ = _fields = ("num_vars", "constraints")

    def __init__(self, num_vars: int, constraints: list[Constraint]):
        self.num_vars, self.constraints = num_vars, constraints

    def add(self, coeffs: Iterable, rel, rhs) -> None:
        """Add the `Constraint` `coeffs . x rel rhs`."""
        row = Constraint(tuple(coeffs), rel, rhs)
        _check_arity(row, self.num_vars)
        self.constraints.append(row)

    def check(self, point: Sequence[Fraction]) -> bool:
        return all(c.evaluate(point) for c in self.constraints)


def system(num_vars: int) -> LinSystem:
    return LinSystem(num_vars, [])


def _check_arity(row: Constraint, num_vars: int) -> None:
    if len(row.coeffs) != num_vars:
        raise LpError(f"constraint arity {len(row.coeffs)} != {num_vars}")


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------
#
# Internal row form: (coeffs, strict, rhs) meaning coeffs . x < rhs when
# strict else coeffs . x <= rhs.  An equality enters as two such rows.

MAX_FM_VARS = 64


def _check_const_row(strict: bool, rhs: Fraction) -> bool:
    return ZERO < rhs if strict else ZERO <= rhs


def _dedupe(rows):
    best = {}
    out_zero = []
    for coeffs, strict, rhs in rows:
        lead = next((c for c in coeffs if c != 0), None)
        if lead is None:
            out_zero.append((coeffs, strict, rhs))
            continue
        scale = abs(lead)
        key = tuple(c / scale for c in coeffs)
        rhs = rhs / scale
        prev = best.get(key)
        if prev is None or rhs < prev[1] or (rhs == prev[1] and strict and not prev[0]):
            best[key] = (strict, rhs)
    return [(list(k), s, r) for k, (s, r) in best.items()] + out_zero


def feasible(sys_: LinSystem, order: Sequence[int] | None = None) -> list[Fraction] | None:
    """Fourier-Motzkin feasibility over free variables; returns an exact
    witness point or None.

    A sign condition such as `x >= 0` is an ordinary row of the system.
    Every constraint becomes `<=`/`<` rows (an equality becomes two), and
    the variables are eliminated one by one.  `order` optionally fixes the
    elimination order, naming each variable once (useful to cross-check that
    the verdict does not depend on it).  Systems over more than
    `MAX_FM_VARS` variables raise `CapExceeded`.
    """
    n = sys_.num_vars
    if n > MAX_FM_VARS:
        raise CapExceeded(f"linear system has {n} variables (cap {MAX_FM_VARS})")
    if order is None:
        order = range(n)
    elif sorted(order) != list(range(n)):
        raise LpError("elimination order must name each variable once")

    rows: list[tuple[list[Fraction], bool, Fraction]] = []
    for c in sys_.constraints:
        _check_arity(c, n)
        if c.rel in (EQ, Comp.LE, Comp.LT):
            rows.append((list(c.coeffs), c.rel is Comp.LT, c.rhs))
        if c.rel in (EQ, Comp.GE, Comp.GT):
            rows.append(([-x for x in c.coeffs], c.rel is Comp.GT, -c.rhs))

    # Eliminate the variables one by one, keeping the bound lists
    # for witness back-substitution.  A bound is (expr, strict, const) and
    # reads var <= const + expr . x (upper) or var >= const + expr . x.
    saved: list[tuple[int, list, list]] = []
    for var in order:
        lowers, uppers, rest_rows = [], [], []
        for coeffs, strict, rhs in rows:
            a = coeffs[var]
            if a == 0:
                rest_rows.append((coeffs, strict, rhs))
                continue
            expr = [(-coeffs[j] / a if j != var else ZERO) for j in range(n)]
            bound = (expr, strict, rhs / a)
            if a > 0:
                uppers.append(bound)
            else:
                lowers.append(bound)
        new_rows = rest_rows
        for lexpr, lstrict, lconst in lowers:
            for uexpr, ustrict, uconst in uppers:
                # lconst + lexpr.x (<) var (<) uconst + uexpr.x
                coeffs = [le - ue for le, ue in zip(lexpr, uexpr)]
                new_rows.append((coeffs, lstrict or ustrict, uconst - lconst))
        rows = []
        for coeffs, strict, rhs in _dedupe(new_rows):
            if all(c == 0 for c in coeffs):
                if not _check_const_row(strict, rhs):
                    return None
            else:
                rows.append((coeffs, strict, rhs))
        saved.append((var, lowers, uppers))

    for coeffs, strict, rhs in rows:
        if any(c != 0 for c in coeffs):
            raise LpError("internal: leftover variable after elimination")
        if not _check_const_row(strict, rhs):
            return None

    # Back-substitute a witness point.
    point: list[Fraction] = [ZERO] * n
    for var, lowers, uppers in reversed(saved):
        lo = None
        for expr, strict, const in lowers:
            value = const + sum((e * point[j] for j, e in enumerate(expr)), ZERO)
            if lo is None or value > lo[0] or (value == lo[0] and strict):
                lo = (value, strict)
        hi = None
        for expr, strict, const in uppers:
            value = const + sum((e * point[j] for j, e in enumerate(expr)), ZERO)
            if hi is None or value < hi[0] or (value == hi[0] and strict):
                hi = (value, strict)
        if lo is None and hi is None:
            point[var] = ZERO
        elif lo is None:
            point[var] = hi[0] - 1 if hi[1] else hi[0]
        elif hi is None:
            point[var] = lo[0] + 1 if lo[1] else lo[0]
        elif lo[0] == hi[0]:
            if lo[1] or hi[1]:
                raise LpError("internal: empty range during back-substitution")
            point[var] = lo[0]
        else:
            point[var] = (lo[0] + hi[0]) / 2

    if not sys_.check(point):
        raise LpError("internal: witness fails re-substitution")
    return point


# ---------------------------------------------------------------------------
# Simplex
# ---------------------------------------------------------------------------


def simplex_feasible(sys_: LinSystem) -> list[Fraction] | None:
    """Feasibility over nonnegative variables, with an exact witness; no
    variable-count cap.

    A two-phase dense tableau simplex with Bland's rule and a maintained
    reduced-cost row.  Every inequality gets a slack, and the strict ones
    share a slack `delta`, which phase 2 maximizes up to 1; a strict row
    holds when delta ends positive.  Phase 1 minimizes the sum of one
    artificial per row, so a nonzero residual means infeasible.
    """
    n = sys_.num_vars
    for c in sys_.constraints:
        _check_arity(c, n)
    eqs = [c for c in sys_.constraints if c.rel == EQ]
    ineqs = [c for c in sys_.constraints if c.rel != EQ]
    # Columns: x, delta, one slack per inequality and one for delta's cap
    # (the "real" ones), then one artificial per row, then the right-hand side.
    real = n + 1 + len(ineqs) + 1
    width = real + len(eqs) + len(ineqs) + 1
    rows: list[list[Fraction]] = []

    def add_row(coeffs, delta, slack, rhs) -> None:
        row = [ZERO] * (width + 1)
        row[:n] = coeffs
        row[n] = delta
        if slack is not None:
            row[n + 1 + slack] = ONE
        row[-1] = rhs
        if rhs < 0:
            row = [-v for v in row]
        row[real + len(rows)] = ONE
        rows.append(row)

    for c in eqs:
        add_row(c.coeffs, ZERO, None, c.rhs)
    for k, c in enumerate(ineqs):
        sign = -ONE if c.rel.is_lower else ONE
        add_row([sign * x for x in c.coeffs], ONE if c.rel.strict else ZERO, k, sign * c.rhs)
    add_row([ZERO] * n, ONE, len(ineqs), ONE)  # delta <= 1

    basis = list(range(real, width))
    obj: list[Fraction] = []  # reduced costs z_j - c_j, then the objective value

    def pivot(r: int, col: int) -> None:
        piv = rows[r][col]
        if piv != ONE:
            rows[r] = [v / piv for v in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][col]
                if f != 0:
                    rows[i] = [v - f * w for v, w in zip(rows[i], prow)]
        f = obj[col]
        if f != 0:
            obj[:] = [v - f * w for v, w in zip(obj, prow)]
        basis[r] = col

    def optimize(cost: list[Fraction], allowed: int) -> None:
        """Maximize cost . x, entering only the first `allowed` columns."""
        acc = [ZERO] * (width + 1)
        for i in range(len(rows)):
            cb = cost[basis[i]]
            if cb != 0:
                acc = [a + cb * v for a, v in zip(acc, rows[i])]
        obj[:] = [a - cj for a, cj in zip(acc, cost + [ZERO])]
        while True:
            # Bland: the lowest improving column enters, and among the rows
            # of least ratio the one of lowest basic column leaves.
            entering = next((j for j in range(allowed) if obj[j] < 0), None)
            if entering is None:
                return
            leaving = best = None
            for i in range(len(rows)):
                if rows[i][entering] > 0:
                    ratio = rows[i][-1] / rows[i][entering]
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]
                    ):
                        best = ratio
                        leaving = i
            if leaving is None:
                # Phase 1's objective is at most 0, and phase 2's is delta <= 1.
                raise LpError("internal: bounded simplex objective is unbounded")
            pivot(leaving, entering)

    optimize([ZERO] * real + [-ONE] * (width - real), width)
    if obj[-1] != 0:
        return None
    # Drive the artificials out of the basis; rows that cannot pivot are redundant.
    for i in range(len(rows) - 1, -1, -1):
        if basis[i] >= real:
            col = next((j for j in range(real) if rows[i][j] != 0), None)
            if col is None:
                del rows[i]
                del basis[i]
            else:
                pivot(i, col)
    cost = [ZERO] * width
    cost[n] = ONE
    optimize(cost, real)
    point = [ZERO] * (n + 1)
    for i, col in enumerate(basis):
        if col <= n:
            point[col] = rows[i][-1]
    if point.pop() == 0 and any(c.rel.strict for c in ineqs):
        return None
    if not sys_.check(point):
        raise LpError("internal: simplex witness fails re-substitution")
    return point
