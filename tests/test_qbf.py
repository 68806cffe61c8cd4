"""Quantified Boolean formulas through Ladner's reduction to `alc`.

Each instance is a QBF `Q_0 x_0 ... Q_{n-1} x_{n-1}. M`, with `M` a random
3-CNF over the x_j, encoded in Ladner's box form (Ladner, "The computational
complexity of provability in systems of modal propositional logic", SIAM J.
Comput. 1977), with the rest of the formula under one box per level:

- `T_n` is `M`, here n random 3-clauses;
- `T_i = Q_i & ~dia ~(P_i & T_{i+1})`;
- `Q_i` is `dia x_i & dia ~x_i` for a universal `x_i` and `dia ~0` for an
  existential one;
- `P_i` is the conjunction over j <= i of `(~x_j | ~dia ~x_j) & (x_j | ~dia x_j)`,
  which keeps each chosen value on every successor.

On this crisp fragment `T_0 > 1/2` is satisfiable in `alc` iff `T_0` is
classically satisfiable, iff the QBF is true.  Each verdict is checked
against the brute-force evaluator below, which uses nothing from nexfuz.
"""

import random
from fractions import Fraction

import pytest

from nexfuz import (
    Comp, Interval, Sequent, SolverCaps, check_sequent, get_logic, parse, sat_threshold,
)


def random_qbf(rng: random.Random, n: int):
    """Quantifiers (True: universal) and n clauses of signed variable indices."""
    quants = [rng.random() < 0.5 for _ in range(n)]
    clauses = [
        [(rng.randrange(n), rng.random() < 0.5) for _ in range(3)]
        for _ in range(n)
    ]
    return quants, clauses


def qbf_true(quants, clauses, values=()) -> bool:
    """Brute-force evaluation, one quantifier at a time."""
    if len(values) == len(quants):
        return all(any(values[j] == positive for j, positive in clause) for clause in clauses)
    branches = (qbf_true(quants, clauses, values + (b,)) for b in (False, True))
    return all(branches) if quants[len(values)] else any(branches)


def ladner_text(quants, clauses) -> str:
    t = " & ".join(
        "(" + " | ".join(f"x{j}" if positive else f"~x{j}" for j, positive in clause) + ")"
        for clause in clauses
    )
    for i in reversed(range(len(quants))):
        q = f"(dia x{i} & dia ~x{i})" if quants[i] else "dia ~0"
        p = " & ".join(f"(~x{j} | ~dia ~x{j}) & (x{j} | ~dia x{j})" for j in range(i + 1))
        t = f"{q} & ~dia ~(({p}) & ({t}))"
    return t


def instances():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(7):
            yield random_qbf(rng, n)


@pytest.mark.slow
def test_ladner_encoding_matches_brute_force():
    logic = get_logic("alc")
    caps = SolverCaps(max_layer_literals=64)
    half = Fraction(1, 2)
    verdicts = []
    for quants, clauses in instances():
        formula = parse(ladner_text(quants, clauses))
        verdict = sat_threshold(formula, Comp.GT, half, logic, caps=caps, verify=True)
        expected = qbf_true(quants, clauses)
        assert verdict.sat == expected, (quants, clauses)
        if verdict.sat:
            verdict.model.validate()
            seq = Sequent([(formula, Interval.from_comparison(Comp.GT, half))])
            assert check_sequent(verdict.model, verdict.state, seq)
        verdicts.append(expected)
    assert True in verdicts and False in verdicts
