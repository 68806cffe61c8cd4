"""Exact rational linear feasibility.

Two engines:

* :func:`simplex_feasible` -- two-phase simplex, the one engine of the
  solver's hot path (the probabilistic weight systems).  It has no
  variable-count cap; strict inequalities are handled by maximizing a
  shared slack.  Its witness is a basic solution, with no more nonzero
  columns than rows; the probabilistic logic's support bound rests on
  this.
* :func:`feasible` -- Fourier-Motzkin elimination with native handling of
  strict inequalities, exponential in the variable count and capped at
  `MAX_FM_VARS` variables.  An equality enters as two inequalities, so
  there is one elimination path, and an explicit elimination order names
  each variable once.  It is the reference engine: the reference
  enumeration `conclusions()` and the tests use it as an oracle for the
  simplex.

Both return an exact rational witness point or None, and verify a witness
by re-substitution before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .numerics import Comp, ONE, ZERO


class CapExceeded(RuntimeError):
    """A configured enumeration or size cap was hit; distinct from infeasible."""


class LpError(RuntimeError):
    pass


EQ = "=="


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    rel: Comp | str
    rhs: Fraction

    def evaluate(self, point: Sequence[Fraction]) -> bool:
        lhs = sum((c * x for c, x in zip(self.coeffs, point)), ZERO)
        if self.rel == EQ:
            return lhs == self.rhs
        return self.rel.holds(lhs, self.rhs)


@dataclass
class LinSystem:
    num_vars: int
    constraints: list[Constraint]

    def add(self, coeffs: Iterable, rel, rhs) -> None:
        row = tuple(Fraction(c) for c in coeffs)
        if len(row) != self.num_vars:
            raise LpError(f"constraint arity {len(row)} != {self.num_vars}")
        self.constraints.append(Constraint(row, rel, Fraction(rhs)))

    def check(self, point: Sequence[Fraction]) -> bool:
        return all(c.evaluate(point) for c in self.constraints)


def system(num_vars: int) -> LinSystem:
    return LinSystem(num_vars, [])


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


def feasible(
    sys_: LinSystem,
    order: Sequence[int] | None = None,
    nonneg: bool = False,
) -> list[Fraction] | None:
    """Fourier-Motzkin feasibility; returns an exact witness point or None.

    Every constraint becomes `<=`/`<` rows (an equality becomes two), and
    the variables are eliminated one by one.  `order` optionally fixes the
    elimination order, naming each variable once (useful to cross-check that
    the verdict does not depend on it).  With `nonneg` the variables are
    taken to be nonnegative, as in `simplex_feasible`.  Systems over more
    than `MAX_FM_VARS` variables raise `CapExceeded`.
    """
    n = sys_.num_vars
    if n > MAX_FM_VARS:
        raise CapExceeded(f"linear system has {n} variables (cap {MAX_FM_VARS})")
    if order is None:
        order = range(n)
    elif sorted(order) != list(range(n)):
        raise LpError("elimination order must name each variable once")

    rows: list[tuple[list[Fraction], bool, Fraction]] = []
    if nonneg:
        for j in range(n):
            rows.append(([-ONE if k == j else ZERO for k in range(n)], False, ZERO))
    for c in sys_.constraints:
        if c.rel in (EQ, Comp.LE, Comp.LT):
            rows.append((list(c.coeffs), c.rel is Comp.LT, c.rhs))
        if c.rel in (EQ, Comp.GE, Comp.GT):
            rows.append(([-x for x in c.coeffs], c.rel is Comp.GT, -c.rhs))
        elif c.rel not in (Comp.LE, Comp.LT):
            raise LpError(f"unknown relation {c.rel!r}")

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

    if not sys_.check(point) or (nonneg and any(x < 0 for x in point)):
        raise LpError("internal: witness fails re-substitution")
    return point


# ---------------------------------------------------------------------------
# Simplex
# ---------------------------------------------------------------------------


def _simplex_max(c: list[Fraction], A: list[list[Fraction]], b: list[Fraction]):
    """Maximize c.x subject to A x = b, x >= 0 (b >= 0 required).

    Two-phase dense tableau simplex with Bland's rule and a maintained
    reduced-cost row.  Returns (status, x) with status in {"optimal",
    "unbounded", "infeasible"}.
    """
    m = len(A)
    n = len(c)
    rows = [list(A[i]) + [ONE if j == i else ZERO for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    obj: list[Fraction] = []  # reduced costs z_j - c_j, then objective value

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

    def reset_objective(cost: list[Fraction]) -> None:
        obj.clear()
        width = len(rows[0])
        acc = [ZERO] * width
        for i in range(len(rows)):
            cb = cost[basis[i]]
            if cb != 0:
                acc = [a + cb * v for a, v in zip(acc, rows[i])]
        obj.extend(a - cj for a, cj in zip(acc[:-1], cost + [ZERO]))
        obj.append(acc[-1])

    def run(allowed: int) -> str:
        while True:
            entering = None
            for j in range(allowed):
                if obj[j] < 0 and j not in basis:
                    entering = j
                    break
            if entering is None:
                return "optimal"
            leaving = None
            best = None
            for i in range(len(rows)):
                if rows[i][entering] > 0:
                    ratio = rows[i][-1] / rows[i][entering]
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]
                    ):
                        best = ratio
                        leaving = i
            if leaving is None:
                return "unbounded"
            pivot(leaving, entering)

    total = n + m
    phase1 = [ZERO] * n + [-ONE] * m
    reset_objective(phase1)
    run(total)
    value = sum((phase1[basis[i]] * rows[i][-1] for i in range(len(rows))), ZERO)
    if value != 0:
        return "infeasible", None
    # Drive artificials out of the basis; rows that cannot pivot are redundant.
    for i in range(len(rows) - 1, -1, -1):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != 0), None)
            if col is None:
                del rows[i]
                del basis[i]
            else:
                pivot(i, col)
    reset_objective(list(c) + [ZERO] * m)
    status = run(n)
    if status == "unbounded":
        return "unbounded", None
    x = [ZERO] * n
    for i in range(len(rows)):
        if basis[i] < n:
            x[basis[i]] = rows[i][-1]
    return "optimal", x


def simplex_feasible(sys_: LinSystem) -> list[Fraction] | None:
    """Feasibility over nonnegative variables, with an exact witness; no
    variable-count cap.

    Strict inequalities are enforced by maximizing a shared slack and
    requiring it positive.
    """
    n = sys_.num_vars
    ineqs = [c for c in sys_.constraints if c.rel != EQ]
    eqs = [c for c in sys_.constraints if c.rel == EQ]
    has_strict = any(c.rel in (Comp.LT, Comp.GT) for c in ineqs)
    # Columns: x, delta, slack per inequality + bound.
    cols = n + 1 + len(ineqs) + 1
    A: list[list[Fraction]] = []
    b: list[Fraction] = []

    def new_row(coeffs, delta_coef, slack_index, rhs):
        row = [ZERO] * cols
        row[:n] = coeffs
        row[n] = delta_coef
        if slack_index is not None:
            row[n + 1 + slack_index] = ONE
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        A.append(row)
        b.append(rhs)

    for c in eqs:
        new_row(c.coeffs, ZERO, None, c.rhs)
    for k, c in enumerate(ineqs):
        if c.rel in (Comp.LE, Comp.LT):
            coeffs, rhs = list(c.coeffs), c.rhs
        else:
            coeffs, rhs = [-x for x in c.coeffs], -c.rhs
        delta = ONE if c.rel.strict else ZERO
        new_row(coeffs, delta, k, rhs)
    new_row([ZERO] * n, ONE, len(ineqs), ONE)  # delta <= 1

    objective = [ZERO] * cols
    objective[n] = ONE
    status, x = _simplex_max(objective, A, b)
    if status == "infeasible":
        return None
    if status == "unbounded":
        raise LpError("internal: bounded slack objective reported unbounded")
    if has_strict and x[n] == 0:
        return None
    point = x[:n]
    if not sys_.check(point):
        raise LpError("internal: simplex witness fails re-substitution")
    return point

