#!/usr/bin/env python3
"""Digests of every benchmark job's output, to show that a change keeps them.

    python3 scripts/solve_digest.py [--seed N] [--workload W ...] [--check]

Run from anywhere; the program is imported from this checkout's `src/` and
the job lists from `bench/corpus.py`, which is only read.  Each solve job
runs as the benchmark runs it (`Sequent.loads`, `MetricSpace.from_json`,
`get_logic`, `sat` with verification on), once.  One SHA-256 is printed per
workload, over each solve job's name, verdict, witness JSON and every
`SolveStats` field, or over each `model-eval` job's name and values.

`--check` compares the seed-1 digests with `RECORDED`, exits 1 on a
difference and 0 when all match.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import corpus  # noqa: E402
import nexfuz as nx  # noqa: E402

# Seed-1 digests.  `model-eval` is from before `Interval` held its endpoints
# as integer pairs; `depth-ladder` is from when each layer's modal formulas
# became the tableau's leaves.  `relational` and `prob-hard` are from when
# the tableau began to propagate before it splits a minimum, into disjoint
# branches: verdicts and witnesses stayed, and these `SolveStats` fields
# moved on this many jobs:
# - `relational`: `level_peak_stack` 89, `level_peak_size` 76, `nodes` 18
#   (17 up, 1 down), `level_input_size` 10, `max_depth` 1;
# - `prob-hard`: `nodes` 12 (2 up, 10 down), `level_peak_size` 11,
#   `level_input_size` 8, `witness_branching` 8, `level_peak_stack` 8.
# Every later change to the solver must keep them or say why.
RECORDED = {
    "relational": "5e6c380d74244e7019087683da4e8474df40916201ef35313fcbe4ab9cd258ef",
    "prob-hard": "e5c8661aa913ade3e1402cc97024d384fd1af7dec62641c9d22ee53fbb52e698",
    "depth-ladder": "984f742333d513399c380b3a6cb29ec3549af138f735ee8b523a3d08aa17be02",
    "model-eval": "9714c014544be5ce30c317c104668d7b8471a53702843d0625848fda721ee0e5",
}


def solve_record(job: dict) -> dict:
    seq = nx.Sequent.loads(job["sequent"])
    space = nx.MetricSpace.from_json(json.loads(job["space"])) if job["space"] else None
    stats = nx.SolveStats()
    verdict = nx.sat(seq, nx.get_logic(job["logic"], space), stats=stats, verify=True)
    return {
        "name": job["name"],
        "sat": verdict.sat,
        "state": verdict.state,
        "model": verdict.model.to_json() if verdict.sat else None,
        "stats": dataclasses.asdict(stats),
    }


def eval_record(job: dict) -> dict:
    model = nx.FiniteModel.from_json(json.loads(job["model"]))
    values = [
        str(nx.eval_formula(model, x, nx.parse(text)))
        for text in job["formulas"]
        for x in model.states
    ]
    return {"name": job["name"], "values": values}


def workload_digest(workload: str, seed: int) -> str:
    record = eval_record if workload == "model-eval" else solve_record
    h = hashlib.sha256()
    for job in corpus.generate(workload, seed):
        # Dict keys of the stats tables are ints; json makes them strings.
        h.update(json.dumps(record(job), sort_keys=True, default=str).encode())
        h.update(b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    ap.add_argument("--workload", action="append", choices=corpus.WORKLOADS)
    ap.add_argument("--check", action="store_true",
                    help="compare the seed-1 digests with the recorded ones")
    args = ap.parse_args(argv)
    if args.check and args.seed != 1:
        ap.error("--check compares seed 1 only")
    differ = 0
    for workload in args.workload or corpus.WORKLOADS:
        got = workload_digest(workload, args.seed)
        note = ""
        if args.check:
            same = got == RECORDED[workload]
            differ += not same
            note = "  ok" if same else f"  DIFFERS (recorded {RECORDED[workload]})"
        print(f"{workload:13} {got}{note}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
