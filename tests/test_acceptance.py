"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated scale
and tolerance (all exact; no tolerances anywhere), printing one summary
line.  Run with `pytest tests/test_acceptance.py -v` for per-criterion
pass/fail lines.
"""

import random
from fractions import Fraction as F

import pytest

from helpers import (
    classical_sat,
    rand_formula,
    rand_interval,
    rand_metric_space,
    rand_model,
    rand_rational,
    rand_sequent,
    seq_satisfied,
)

from nexfuz.logics import get_logic
from nexfuz.lp import feasible, system
from nexfuz.models import check_sequent, eval_formula
from nexfuz.numerics import Comp, EMPTY, Interval, UNIT
from nexfuz.prop_tableau import Closed, One, Two, apply_rule
from nexfuz.sequents import Sequent
from nexfuz.solver import SolveStats, sat, sat_threshold
from nexfuz.syntax import (
    And,
    Atom,
    Diamond,
    Minus,
    Modal,
    Neg,
    Zero,
    modal_depth,
    parse,
)

LOGICS = ("alc", "lgen", "mp", "metric-fuzzy", "metric-crisp")

CORPUS_SIZE = 500  # criterion 1: >= 500 sequents per instance logic
MODEL_CASES = 200  # criterion 2: >= 200 cases per logic
RULE_TRIALS = 10_000  # criterion 3: >= 10^4 valuations per rule
LP_SYSTEMS = 1_000  # criterion 8: >= 10^3 random systems


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval.make(F(lo), F(hi), lo_open, hi_open)


# ---------------------------------------------------------------------------
# Corpus 1: shared by criteria 1, 5, 6, 7
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus1():
    runs = {}
    for idx, name in enumerate(LOGICS):
        rng = random.Random(52_000 + idx)
        entries = []
        for _ in range(CORPUS_SIZE):
            space = rand_metric_space(rng) if name.startswith("metric") else None
            seq = rand_sequent(
                rng, name, depth=3, space=space, max_den=16, layer_budget=4
            )
            logic = get_logic(name, space)
            stats = SolveStats()
            verdict = sat(seq, logic, stats=stats, verify=False)
            entries.append((seq, space, verdict, stats))
        runs[name] = entries
    return runs


def test_criterion_1_witness_round_trip(corpus1):
    """SAT witnesses model-check exactly on every corpus sequent."""
    checked = 0
    for name in LOGICS:
        for seq, _space, verdict, _stats in corpus1[name]:
            if verdict.sat:
                assert check_sequent(verdict.model, verdict.state, seq), (name, seq)
                verdict.model.validate()
                checked += 1
    assert checked > 0
    print(f"\n[criterion 1] PASS: {checked} SAT witnesses re-checked exactly "
          f"over {len(LOGICS) * CORPUS_SIZE} sequents")


def test_criterion_2_model_first_completeness():
    """Point sequents at evaluated values are always found satisfiable."""
    total = 0
    for idx, name in enumerate(LOGICS):
        rng = random.Random(61_000 + idx)
        done = 0
        while done < MODEL_CASES:
            if name.startswith("metric"):
                space = rand_metric_space(rng)
                kind = "metric-crisp" if name == "metric-crisp" else "metric"
                model = rand_model(rng, kind, rng.randint(1, 4), space=space, max_den=8)
            else:
                space = None
                kind = {"alc": "fuzzyrel", "lgen": "prob", "mp": "prob"}[name]
                model = rand_model(rng, kind, rng.randint(1, 4), max_den=8)
            logic = get_logic(name, space)
            formula = rand_formula(rng, name, depth=2, space=space, max_den=8)
            value = eval_formula(model, model.states[0], formula)
            seq = Sequent([(formula, Interval.point(value))])
            verdict = sat(seq, logic, verify=False)
            assert verdict.sat, (name, formula, value)
            assert check_sequent(verdict.model, verdict.state, seq)
            done += 1
            total += 1
    print(f"\n[criterion 2] PASS: {total} point-valued sequents all SAT")


# ---------------------------------------------------------------------------
# Criterion 3: local rule correctness, >= 10^4 valuations per rule
# ---------------------------------------------------------------------------

_DIA_B = Modal(Diamond(), Atom("b"))
_DIA_C = Modal(Diamond(), Atom("c"))
_LABELS = [_DIA_B, _DIA_C, Atom("a")]


def _context(rng):
    seq = Sequent()
    for label in _LABELS:
        if rng.random() < 0.5:
            seq = seq.insert(label, rand_interval(rng, 8))
    return seq


def _valuations(rng, count):
    for _ in range(count):
        yield {label: rand_rational(rng, 8) for label in _LABELS}


def _assert_rule_equivalence(premise, rng, trials=40):
    result = apply_rule(premise)
    for val in _valuations(rng, trials):
        lhs = seq_satisfied(premise, val)
        if isinstance(result, Closed):
            rhs = False
        elif isinstance(result, One):
            rhs = seq_satisfied(result.conclusion, val)
        elif isinstance(result, Two):
            rhs = seq_satisfied(result.left, val) or seq_satisfied(result.right, val)
        else:
            rhs = lhs
        assert lhs == rhs, (premise, result, val)


def test_criterion_3_rule_local_correctness():
    checks = {}

    def run(rule_name, premise_maker, seed):
        rng = random.Random(seed)
        done = 0
        while done < RULE_TRIALS:
            premise = premise_maker(rng)
            _assert_rule_equivalence(premise, rng, trials=25)
            done += 25
        checks[rule_name] = done

    run("Ax", lambda rng: _context(rng).insert(rng.choice(_LABELS), EMPTY), 71)
    run(
        "Ax0",
        lambda rng: _context(rng).insert(
            Zero(), iv(rand_rational(rng, 8), 1, lo_open=True).intersect(UNIT)
        ),
        72,
    )
    run("Drop0", lambda rng: _context(rng).insert(Zero(), iv(0, rand_rational(rng, 8))), 73)
    run(
        "Neg",
        lambda rng: _context(rng).insert(Neg(rng.choice(_LABELS)), rand_interval(rng, 8)),
        74,
    )

    def minus_premise(rng):
        interval = rand_interval(rng, 8)
        return _context(rng).insert(
            Minus(rng.choice(_LABELS), rand_rational(rng, 8)), interval
        )

    run("Minus", minus_premise, 75)

    def minus_zero_premise(rng):
        return _context(rng).insert(
            Minus(rng.choice(_LABELS), rand_rational(rng, 8)),
            iv(0, rand_rational(rng, 8), hi_open=rng.random() < 0.5).intersect(UNIT),
        )

    run("MinusZero", minus_zero_premise, 76)

    def min_premise(rng):
        return _context(rng).insert(
            And(rng.choice(_LABELS), rng.choice(_LABELS)), rand_interval(rng, 8)
        )

    run("Min", min_premise, 77)

    # Merge-on-insert stands in for the interval-intersection rule.
    rng = random.Random(78)
    done = 0
    while done < RULE_TRIALS:
        label = rng.choice(_LABELS)
        i, j = rand_interval(rng, 8), rand_interval(rng, 8)
        merged = Sequent([(label, i)]).insert(label, j)
        for val in _valuations(rng, 25):
            lhs = i.contains(val[label]) and j.contains(val[label])
            assert lhs == seq_satisfied(merged, val)
        done += 25
    checks["Intersect"] = done

    assert all(done >= RULE_TRIALS for done in checks.values())
    print(f"\n[criterion 3] PASS: rule equivalences held for "
          f"{sum(checks.values())} valuations across {len(checks)} rules")


# ---------------------------------------------------------------------------
# Criterion 4: hand-derived verdict catalog
# ---------------------------------------------------------------------------


def test_criterion_4_hand_catalog():
    alc = get_logic("alc")

    # {0 in [0,0]}: the constant has value 0 in every model state.
    assert sat(Sequent([(Zero(), iv(0, 0))]), alc).sat

    # {0 in (0,1]}: 0 is excluded; unsatisfiable.
    assert not sat(Sequent([(Zero(), iv(0, 1, lo_open=True))]), alc).sat

    # {a & ~a in (1/2,1]}: min(x, 1-x) <= 1/2 for every x, so never > 1/2.
    assert not sat(Sequent([(parse("a & ~a"), iv("1/2", 1, lo_open=True))]), alc).sat

    # Diamond conflict: value of dia a must be exactly 1/2; the conclusion
    # carries a root transition of degree exactly 1/2.
    seq = Sequent([(parse("dia a & ~(dia a)"), iv("1/2", 1))])
    verdict = sat(seq, alc)
    assert verdict.sat
    assert eval_formula(verdict.model, verdict.state, parse("dia a")) == F(1, 2)
    assert F(1, 2) in verdict.model.successors(verdict.state).values()
    assert check_sequent(verdict.model, verdict.state, seq)

    # Uniform two-point distribution over argument values 4/5 and 2/5:
    # thresholds worth trying are the successor values; by hand,
    #   min(2/5, mass{>=2/5}=1)   = 2/5
    #   min(4/5, mass{>=4/5}=1/2) = 1/2  -> value 1/2.
    uniform = {
        "kind": "prob",
        "states": ("x", "y", "z"),
        "trans": {"x": {"y": F(1, 2), "z": F(1, 2)}, "y": {"y": F(1)}, "z": {"z": F(1)}},
        "atoms": {"x": {"a": F(0)}, "y": {"a": F(4, 5)}, "z": {"a": F(2, 5)}},
    }
    from nexfuz.models import FiniteModel

    m = FiniteModel(**uniform)
    assert eval_formula(m, "x", parse("G a")) == F(1, 2)
    # Largest value whose upward mass beats 3/10: mass{>=4/5} = 1/2 > 3/10,
    # so the value is 4/5 itself.
    assert eval_formula(m, "x", parse("M{3/10} a")) == F(4, 5)
    print("\n[criterion 4] PASS: hand-derived catalog verified exactly")


# ---------------------------------------------------------------------------
# Criteria 5-7: shape of the search, checked on corpus 1
# ---------------------------------------------------------------------------


def test_criterion_5_caratheodory_bound(corpus1):
    seen = 0
    for name in ("lgen", "mp"):
        for _seq, _space, _verdict, stats in corpus1[name]:
            for n_literals, support in stats.witness_branching:
                assert support <= 2 * n_literals + 1, (name, n_literals, support)
                seen += 1
    assert seen > 0
    print(f"\n[criterion 5] PASS: {seen} probabilistic layers within the "
          f"2n+1 branching bound")


def test_criterion_6_space_shape(corpus1):
    """Recursion depth is bounded by modal depth, and per-level retained
    sequents stay quadratic in the level's input size.

    The quadratic bound follows from the subformula count: a level input of
    combined size n has at most O(n) propositional subformulas, and every
    retained literal carries endpoints whose binary size is linear in n, so
    8*n^2 + 128 over-approximates every sequent a level can retain.  The
    saturation stack holds at most one pending branch per minimum-splitting
    plus the current sequent, bounded by n + 2.
    """
    levels = 0
    for name in LOGICS:
        for seq, _space, _verdict, stats in corpus1[name]:
            depth = max((modal_depth(f) for f, _ in seq.items()), default=0)
            assert stats.max_depth <= depth, (name, seq)
            for level, peak in stats.level_peak_size.items():
                n = stats.level_input_size[level]
                assert peak <= 8 * n * n + 128, (name, seq, level, peak, n)
                levels += 1
            for level, stack in stats.level_peak_stack.items():
                n = stats.level_input_size[level]
                assert stack <= n + 2, (name, seq, level, stack, n)
    assert levels > 0
    print(f"\n[criterion 6] PASS: depth and {levels} per-level storage "
          f"shapes within bounds")


def test_criterion_7_atoms_transparency(corpus1):
    """Declaring unused atoms never changes a verdict."""
    extra = ("unused1", "unused2", "unused3")
    compared = 0
    for name in LOGICS:
        for seq, space, verdict, _stats in corpus1[name]:
            logic = get_logic(name, space)
            again = sat(seq, logic, verify=False, declared_atoms=extra)
            assert again.sat == verdict.sat, (name, seq)
            if again.sat:
                assert check_sequent(again.model, again.state, seq)
            compared += 1
    print(f"\n[criterion 7] PASS: verdicts identical with 3 unused atoms "
          f"declared, {compared} sequents")


# ---------------------------------------------------------------------------
# Criterion 8: elimination engine oracle
# ---------------------------------------------------------------------------


def test_criterion_8_lp_oracle():
    from nexfuz.lp import EQ

    rng = random.Random(88_001)
    agreements = 0
    for _ in range(LP_SYSTEMS):
        n = rng.randint(1, 3)
        s = system(n)
        for j in range(n):
            row = [0] * n
            row[j] = 1
            s.add(row, Comp.GE, 0)
            s.add(row, Comp.LE, 1)
        for _ in range(rng.randint(1, 4)):
            coeffs = [F(rng.randint(-2, 2)) for _ in range(n)]
            rhs = F(rng.randint(-8, 8), rng.randint(1, 8))
            rel = rng.choice([Comp.LE, Comp.LT, Comp.GE, Comp.GT, EQ])
            s.add(coeffs, rel, rhs)
        base = feasible(s)
        if base is not None:
            assert s.check(base)
        order = list(range(n))
        rng.shuffle(order)
        other = feasible(s, order=order)
        assert (other is None) == (base is None), (s.constraints, order)
        if other is not None:
            assert s.check(other)
        agreements += 1
    assert agreements >= LP_SYSTEMS
    print(f"\n[criterion 8] PASS: {agreements} systems agree across "
          f"elimination orders with exact witnesses")


# ---------------------------------------------------------------------------
# Criterion 9: crisp-fragment sanity for the diamond logic
# ---------------------------------------------------------------------------

# Formulas avoiding the truncated-subtraction connective, with their
# classical (two-valued Kripke) satisfiability determined independently:
# brute-force tableau search over bounded successor demands, frozen here.
# Classically unsatisfiable entries are anchored by the constant 0, whose
# truth degree is 0 in every fuzzy model, so the 1/2-threshold query and
# the classical verdict coincide on this suite.
ZADEH_SUITE = [
    ("a", True),
    ("~a", True),
    ("a | b", True),
    ("a & b", True),
    ("dia a", True),
    ("~dia a", True),
    ("dia a & ~(dia b)", True),
    ("dia (a & b) & dia (a & ~b)", True),
    ("a & dia (b | ~a)", True),
    ("dia dia a & ~dia b", True),
    ("~(a & ~a)", True),
    ("dia a | ~dia a", True),
    ("~dia 0", True),
    ("dia ~0", True),
    ("0", False),
    ("a & 0", False),
    ("dia 0", False),
    ("dia (a & 0)", False),
    ("0 | 0", False),
    ("dia dia 0", False),
]


def test_criterion_9_crisp_fragment_threshold():
    alc = get_logic("alc")
    assert len(ZADEH_SUITE) == 20
    for text, expected in ZADEH_SUITE:
        formula = parse(text)
        assert classical_sat(formula) == expected, f"oracle drifted on {text}"
        got = sat_threshold(formula, Comp.GE, F(1, 2), alc).sat
        assert got == expected, f"{text}: threshold 1/2 gave {got}, classical {expected}"
    print("\n[criterion 9] PASS: 20 crisp-fragment formulas match classical "
          "satisfiability at threshold 1/2")


def test_criterion_9_companion_strict_threshold_boundary():
    """The exact boundary: min(x, 1-x) reaches 1/2 but never exceeds it, so
    formulas like a & ~a are 1/2-satisfiable yet classically unsatisfiable;
    the strict threshold restores the correspondence on such formulas."""
    alc = get_logic("alc")
    for text in ("a & ~a", "dia a & ~(dia a)", "(a | ~a) & (b & ~b)"):
        formula = parse(text)
        assert not classical_sat(formula)
        assert sat_threshold(formula, Comp.GE, F(1, 2), alc).sat
        assert not sat_threshold(formula, Comp.GT, F(1, 2), alc).sat
    for text, expected in ZADEH_SUITE:
        formula = parse(text)
        got = sat_threshold(formula, Comp.GT, F(1, 2), alc).sat
        assert got == expected, f"{text}: strict threshold diverged"
