"""Correctness gates, run outside every timed region.

A mismatch found here fails the run; it is never counted as a failed
query.  The gates:

* every SAT witness passes `FiniteModel.validate()` and `check_sequent`;
* a verdict known by construction (`expect` on a job) must be met;
* `relational` verdicts equal the reference enumeration (the default
  `OneStepLogic.search` over `conclusions()`);
* `prob-hard` verdicts equal the verdicts recorded for the corpus;
* `model-eval` values equal an independent evaluator's, and the values
  recorded for the default seed;
* at the default seed, every workload's digest equals the recorded one.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


class Mismatch(Exception):
    """An output of the program under test is wrong."""


def load_expected(workload: str) -> dict:
    path = EXPECTED_DIR / f"{workload}.json"
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def naive_wrapper(nx, inner):
    """The instance logic with its `search` override hidden, so the default
    enumeration over `conclusions()` decides."""

    class NaiveWrapper(nx.onestep.OneStepLogic):
        def __init__(self):
            self.inner = inner
            self.name = inner.name
            self.kind = inner.kind
            self.space = getattr(inner, "space", None)

        def supports(self, op):
            return inner.supports(op)

        def conclusions(self, gamma):
            return inner.conclusions(gamma)

        def realize(self, gamma, conclusion, tau):
            return inner.realize(gamma, conclusion, tau)

    return NaiveWrapper()


def reference_verdict(nx, job: dict) -> bool:
    seq = nx.Sequent.loads(job["sequent"])
    space = nx.MetricSpace.from_json(json.loads(job["space"])) if job["space"] else None
    logic = naive_wrapper(nx, nx.get_logic(job["logic"], space))
    return nx.sat(seq, logic, verify=False).sat


def check_witness(nx, job: dict, model, state) -> None:
    try:
        model.validate()
    except ValueError as exc:
        raise Mismatch(f"{job['name']}: invalid witness: {exc}") from exc
    if not nx.check_sequent(model, state, nx.Sequent.loads(job["sequent"])):
        raise Mismatch(f"{job['name']}: witness does not satisfy the query")


def reference_values(nx, job: dict) -> list[str]:
    """Every requested value by direct recursion over the modal operators'
    defining liftings, independent of `models.eval_formula`."""
    model = nx.FiniteModel.from_json(json.loads(job["model"]))
    syn, lift = nx.syntax, nx.liftings
    memo: dict = {}

    def ev(x, f):
        key = (x, f)
        if key not in memo:
            memo[key] = _value(x, f)
        return memo[key]

    def _value(x, f):
        if isinstance(f, syn.Zero):
            return 0
        if isinstance(f, syn.Atom):
            return model.atoms[x][f.name]
        if isinstance(f, syn.Neg):
            return 1 - ev(x, f.arg)
        if isinstance(f, syn.Minus):
            return max(0, ev(x, f.arg) - f.c)
        if isinstance(f, syn.And):
            return min(ev(x, f.left), ev(x, f.right))
        op, row = f.op, model.trans.get(x, {})
        if isinstance(op, syn.Diamond):
            return lift.diamond_value([(d, ev(y, f.arg)) for y, d in row.items()])
        if isinstance(op, syn.Generally):
            return lift.generally_value([(w, ev(y, f.arg)) for y, w in row.items()])
        if isinstance(op, syn.MoreThan):
            return lift.more_than_value([(w, ev(y, f.arg)) for y, w in row.items()], op.p)
        triples = [(label, d, ev(y, f.arg)) for (label, y), d in row.items()]
        return lift.metric_diamond_value(triples, op.label, op.c, model.space)

    return [
        str(ev(x, nx.parse(text))) for text in job["formulas"] for x in model.states
    ]


def check_solve_outcomes(nx, workload: str, jobs, outcomes) -> int:
    """Gate one pass of solve outcomes; returns the number of verdicts
    compared against a reference.

    `outcomes[k]` is ("ok", verdict) or ("failed", exception name).
    """
    expected = None
    if workload == "prob-hard":
        expected = load_expected("prob-hard")["verdicts"]
    compared = 0
    for job, (status, value) in zip(jobs, outcomes):
        if status != "ok":
            continue
        verdict = value
        if verdict.sat:
            check_witness(nx, job, verdict.model, verdict.state)
        want = job["expect"]
        if want is None and expected is not None:
            want = expected.get(job["name"])
        if want is None and workload == "relational":
            want = reference_verdict(nx, job)
        if want is not None:
            compared += 1
            if bool(verdict.sat) != bool(want):
                raise Mismatch(
                    f"{job['name']}: verdict {'SAT' if verdict.sat else 'UNSAT'}, "
                    f"expected {'SAT' if want else 'UNSAT'}"
                )
    return compared


def check_eval_outcomes(nx, jobs, outcomes, seed: int, default_seed: int) -> int:
    """Gate one pass of model-eval values; returns the values compared."""
    recorded = load_expected("model-eval")["values"] if seed == default_seed else None
    compared = 0
    for job, (status, values) in zip(jobs, outcomes):
        if status != "ok":
            continue
        want = reference_values(nx, job)
        if recorded is not None and recorded[job["name"]] != want:
            raise Mismatch(f"{job['name']}: independent evaluator disagrees with the record")
        if [str(v) for v in values] != want:
            raise Mismatch(f"{job['name']}: evaluated values differ from the reference")
        compared += len(want)
    return compared


def check_digest(workload: str, seed: int, default_seed: int, got: str) -> None:
    if seed != default_seed:
        return
    want = load_expected(workload)["digest"]
    if got != want:
        raise Mismatch(f"{workload}: input digest {got} differs from the recorded {want}")
