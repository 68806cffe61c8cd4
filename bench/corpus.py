"""Seeded workload generation, frozen inside the benchmark.

The generators mirror the random corpus generators of the test suite, but
they are a copy: an edit to the tests cannot change a workload.  They emit
formula, interval, metric-space and model *text* (JSON-ready), never
`nexfuz` objects, so generating a workload needs no import of the program
and its digest does not depend on the program's printer.

Every workload is a fixed list of jobs.  A solve job is one query in the
form the CLI reads it (sequent JSON text, plus metric-space JSON text for
the metric logics) and carries the verdict it must get when that verdict is
known without running the solver under test.  An eval job is one model JSON
text plus formula texts to evaluate at every state.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("relational", "prob-hard", "depth-ladder", "model-eval")
DEFAULT_SEED = 1
ATOMS = ("a", "b", "c")

# relational and prob-hard are each one corpus, generated from a fixed corpus
# seed; the run seed renames atoms and reorders queries, which keeps every
# verdict (see `seeded_variant`).  prob-hard is the hard corpus
# of the roadmap baseline (corpus seed 7).
RELATIONAL_CORPUS_SEED = 2024
RELATIONAL_QUERIES = 2400
PROB_HARD_CORPUS_SEED = 7
PROB_HARD_PER_LOGIC = 100
# model-eval: models per pass, and the formula shapes evaluated at every state.
MODEL_EVAL_JOBS = 60
EVAL_TEMPLATES = (
    "M (M (M (A)))",
    "~(M (((A) - C) & (M (M (~(A))))))",
)
# depth-ladder rungs.  `dia^n a >= p` is SAT for every p in (0, 1]; the
# conjunction `a & ~a` never exceeds 1/2, so `dia^n (a & ~a) >= q` is UNSAT
# for q > 1/2.  Rungs from 250 on exceed the interpreter's recursion limit in
# the solver as it stands; they are kept, and counted as failed, so that a
# fix shows as fewer failures.
DIA_SAT_RUNGS = (50, 100, 125, 250, 300)
DIA_UNSAT_RUNGS = (50, 100)
G_CHAIN_RUNGS = (2, 4, 5, 7)


# ---------------------------------------------------------------------------
# Random text generators (copied from the test helpers, emitting text)
# ---------------------------------------------------------------------------


def rand_rational(rng: random.Random, max_den: int = 16) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def interval_text(x: Fraction, y: Fraction, lo_open: bool = False, hi_open: bool = False) -> str:
    return f"{'(' if lo_open else '['}{x},{y}{')' if hi_open else ']'}"


def rand_interval(rng: random.Random, max_den: int = 16) -> str:
    x, y = sorted((rand_rational(rng, max_den), rand_rational(rng, max_den)))
    lo_open = x != y and rng.random() < 0.3
    hi_open = x != y and rng.random() < 0.3
    return interval_text(x, y, lo_open, hi_open)


def rand_modal_op(rng: random.Random, logic: str, labels=None, max_den: int = 16) -> str:
    if logic == "alc":
        return "dia"
    if logic == "lgen":
        return "G"
    if logic == "mp":
        return f"M{{{rand_rational(rng, max_den)}}}"
    return f"dia{{{rng.choice(labels)}, {rand_rational(rng, max_den)}}}"


class FormulaBuilder:
    """Random formulas with a per-depth-level modal budget shared across one
    whole sequent, so that every recursion layer of the solver sees at most
    `layer_budget` modal literals."""

    def __init__(self, rng, logic, labels=None, max_den=16, layer_budget=4):
        self.rng = rng
        self.logic = logic
        self.labels = labels
        self.max_den = max_den
        self.layer_budget = layer_budget
        self.budgets: dict[int, int] = {}

    def build(self, depth: int, level: int = 0) -> str:
        rng = self.rng
        remaining = self.budgets.setdefault(level, self.layer_budget)
        choices = ["atom", "atom", "neg", "minus", "and", "zero"]
        if depth > 0 and remaining > 0:
            choices += ["modal", "modal", "modal"]
        kind = rng.choice(choices)
        if kind == "atom":
            return rng.choice(ATOMS)
        if kind == "zero":
            return "0"
        if kind == "neg":
            return f"~({self.build(depth, level)})"
        if kind == "minus":
            arg = self.build(depth, level)
            return f"({arg}) - {rand_rational(rng, self.max_den)}"
        if kind == "and":
            left = self.build(depth, level)
            return f"({left}) & ({self.build(depth, level)})"
        self.budgets[level] -= 1
        op = rand_modal_op(rng, self.logic, self.labels, self.max_den)
        return f"{op} ({self.build(depth - 1, level + 1)})"


def rand_literals(rng, logic, depth=3, labels=None, max_den=16, max_literals=2,
                  layer_budget=4) -> list[tuple[str, str]]:
    builder = FormulaBuilder(rng, logic, labels, max_den, layer_budget)
    return [
        (builder.build(depth), rand_interval(rng, max_den))
        for _ in range(rng.randint(1, max_literals))
    ]


def rand_metric_space(rng: random.Random, min_labels: int = 1, max_labels: int = 3,
                      max_den: int = 8) -> dict:
    """Random finite metric space from points on the rational line."""
    n = rng.randint(min_labels, max_labels)
    labels = [f"l{i}" for i in range(n)]
    points = [rand_rational(rng, max_den) for _ in range(n)]
    dist = [[str(abs(points[i] - points[j])) for j in range(n)] for i in range(n)]
    return {"labels": labels, "dist": dist}


def rand_model(rng: random.Random, kind: str, n_states: int, space: dict | None = None,
               max_den: int = 16) -> dict:
    states = [f"x{i}" for i in range(n_states)]
    atoms = {x: {a: str(rand_rational(rng, max_den)) for a in ATOMS} for x in states}
    trans: dict = {}
    if kind == "prob":
        for x in states:
            supp = rng.sample(states, n_states // 2)
            weights = [rng.randint(1, max_den) for _ in supp]
            total = sum(weights)
            trans[x] = {y: str(Fraction(w, total)) for y, w in zip(supp, weights)}
    elif kind == "fuzzyrel":
        for x in states:
            trans[x] = {
                y: str(rand_rational(rng, max_den)) for y in states if rng.random() < 0.6
            }
    else:
        for x in states:
            trans[x] = [
                {"label": label, "to": y, "deg": str(rand_rational(rng, max_den))}
                for y in states
                for label in space["labels"]
                if rng.random() < 0.4
            ]
    model = {"kind": kind, "states": states, "trans": trans, "atoms": atoms}
    if space is not None:
        model["metric"] = space
    return model


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def sequent_text(literals) -> str:
    return json.dumps(
        {"literals": [{"formula": f, "interval": i} for f, i in literals]}
    )


def solve_job(name: str, logic: str, literals, space: dict | None = None, expect=None) -> dict:
    return {
        "name": name,
        "logic": logic,
        "sequent": sequent_text(literals),
        "space": None if space is None else json.dumps(space),
        "expect": expect,
    }


def relational_base(size: int = RELATIONAL_QUERIES) -> list[tuple]:
    """Random depth-3 queries of the relational logics with 1-3 literals and
    3-4 metric labels, a third each of alc, metric-fuzzy and metric-crisp,
    as (name, logic, literals, space)."""
    rng = random.Random(RELATIONAL_CORPUS_SEED)
    logics = ("alc", "metric-fuzzy", "metric-crisp")
    base = []
    for k in range(size):
        logic = logics[k % 3]
        space = None if logic == "alc" else rand_metric_space(rng, 3, 4)
        labels = None if space is None else space["labels"]
        literals = rand_literals(rng, logic, depth=3, labels=labels, max_literals=3)
        base.append((f"rel{k}", logic, literals, space))
    return base


def prob_hard_base(size: int = PROB_HARD_PER_LOGIC) -> list[tuple]:
    """The hard probabilistic corpus: `lgen` then `mp` queries with up to 3
    literals and up to 6 modal literals per recursion layer, as
    (name, logic, literals, space)."""
    base = []
    for logic in ("lgen", "mp"):
        rng = random.Random(PROB_HARD_CORPUS_SEED)
        for k in range(size):
            literals = rand_literals(rng, logic, depth=3, max_literals=3, layer_budget=6)
            base.append((f"{logic}{k}", logic, literals, None))
    return base


def _rename_atoms(formula: str, renaming: dict[str, str]) -> str:
    # Atoms are single letters among ATOMS; every other identifier in the
    # generated text ("dia", "G", "M", "l0", ...) is longer or different.
    out = []
    for k, ch in enumerate(formula):
        alone = not (k and formula[k - 1].isalnum()) and not (
            k + 1 < len(formula) and formula[k + 1].isalnum()
        )
        out.append(renaming[ch] if ch in renaming and alone else ch)
    return "".join(out)


def seeded_variant(seed: int, base) -> list[dict]:
    """A fixed corpus under a seeded renaming of atoms and order of queries.
    Neither changes a verdict or the work a query costs.  The corpus is
    fixed because its cost is not steady: fresh random corpora of these
    shapes differed by more than the regression bound from seed to seed, in
    the tail for relational and in the whole pass for prob-hard.  Shuffling
    the literals within a query was tried too: it changed the time of some
    queries 2.5-fold, because the tableau then meets the branches in
    another order."""
    rng = random.Random(seed)
    jobs = []
    for name, logic, literals, space in base:
        renaming = dict(zip(ATOMS, rng.sample(ATOMS, len(ATOMS))))
        literals = [(_rename_atoms(f, renaming), i) for f, i in literals]
        jobs.append(solve_job(name, logic, literals, space))
    rng.shuffle(jobs)
    return jobs


def _g_chain(atom: str, nesting: int) -> str:
    f = atom
    for _ in range(nesting):
        f = f"G({f}) & ~G ~({f})"
    return f


def depth_ladder(seed: int, scale: int = 1) -> list[dict]:
    """Deep queries whose verdicts are known by construction.

    `scale` divides the rung sizes (the self-test runs a tiny ladder)."""
    rng = random.Random(seed)
    jobs = []
    for n in DIA_SAT_RUNGS:
        n = max(1, n // scale)
        atom, p = rng.choice(ATOMS), rand_rational(rng) or Fraction(1)
        literals = [("dia " * n + atom, interval_text(p, Fraction(1)))]
        jobs.append(solve_job(f"dia{n}", "alc", literals, expect=True))
    for n in DIA_UNSAT_RUNGS:
        n = max(1, n // scale)
        atom = rng.choice(ATOMS)
        q = Fraction(1, 2) + Fraction(rng.randint(1, 8), 16)
        literals = [("dia " * n + f"({atom} & ~{atom})", interval_text(q, Fraction(1)))]
        jobs.append(solve_job(f"dia{n}-unsat", "alc", literals, expect=False))
    for nesting in G_CHAIN_RUNGS:
        nesting = max(1, nesting // scale)
        # SAT at threshold 1/2: over a point-mass successor, G(f) and
        # ~G ~(f) both take f's value there, so the chain takes the value of
        # its atom `nesting` steps down, which can be 1/2.
        literals = [(_g_chain(rng.choice(ATOMS), nesting), "[1/2,1]")]
        jobs.append(solve_job(f"G{nesting}", "lgen", literals, expect=True))
    return jobs


def model_eval(seed: int, size: int = MODEL_EVAL_JOBS) -> list[dict]:
    """Dense random models of 12-20 states, each with one depth-3 formula
    template filled in at random.  The mix of kinds, state counts (12, 14,
    ..., 20), metric label counts (3, 4), probabilistic operators and
    formula shapes is the same for every seed; the seed draws the models,
    atoms, constants and operator parameters.  Evaluation cost grows steeply
    with nesting and state count, and free random shapes made the cost of a
    pass differ by a quarter from seed to seed."""
    rng = random.Random(seed)
    kinds = ("prob", "fuzzyrel", "metric")
    jobs = []
    for k in range(size):
        kind, step = kinds[k % 3], k // 3
        space = rand_metric_space(rng, 3 + step % 2, 3 + step % 2) if kind == "metric" else None
        model = rand_model(rng, kind, 12 + 2 * (step % 5), space)
        if kind == "prob":
            logic = ("lgen", "mp")[step % 2]
        else:
            logic = "alc" if kind == "fuzzyrel" else "metric-fuzzy"
        labels = None if space is None else space["labels"]
        template = EVAL_TEMPLATES[step // 5 % len(EVAL_TEMPLATES)]
        formula = _fill(rng, template, logic, labels)
        jobs.append({"name": f"model{k}", "model": json.dumps(model), "formulas": [formula]})
    return jobs


def _fill(rng, template: str, logic: str, labels) -> str:
    """Fill each "M" of a template with a random operator of the logic, each
    "A" with a random atom and each "C" with a random constant."""
    out = []
    for ch in template:
        if ch == "M":
            out.append(rand_modal_op(rng, logic, labels))
        elif ch == "A":
            out.append(rng.choice(ATOMS))
        elif ch == "C":
            out.append(str(rand_rational(rng)))
        else:
            out.append(ch)
    return "".join(out)


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The workload's job list; `tiny` shrinks it for the self-test."""
    if workload == "relational":
        return seeded_variant(seed, relational_base(12 if tiny else RELATIONAL_QUERIES))
    if workload == "prob-hard":
        return seeded_variant(seed, prob_hard_base(6 if tiny else PROB_HARD_PER_LOGIC))
    if workload == "depth-ladder":
        return depth_ladder(seed, 25 if tiny else 1)
    if workload == "model-eval":
        return model_eval(seed, 3 if tiny else MODEL_EVAL_JOBS)
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


def digest(jobs: list[dict]) -> str:
    """Digest of a generated workload: equal digests mean equal inputs."""
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()[:16]
