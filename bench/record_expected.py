#!/usr/bin/env python3
"""Write the recorded expectations under bench/expected/ for the default seed.

    python3 bench/record_expected.py

Records every workload's input digest, the `prob-hard` corpus verdicts and
the `model-eval` values.  The values come from the benchmark's independent
evaluator.  The verdicts come from the solver with witness verification on;
each is also decided by the reference enumeration where that finishes
within REFERENCE_LIMIT_S, and a disagreement aborts the recording.  Rerun
this only when a workload's definition changes on purpose.
"""

from __future__ import annotations

import json
import signal
import sys

import checks
import corpus
import run

REFERENCE_LIMIT_S = 5


def main() -> int:
    nx = run.import_program()
    seed = corpus.DEFAULT_SEED
    out = {}
    for workload in corpus.WORKLOADS:
        jobs = corpus.generate(workload, seed)
        out[workload] = {"seed": seed, "digest": corpus.digest(jobs)}
    out["model-eval"]["values"] = {
        job["name"]: checks.reference_values(nx, job)
        for job in corpus.generate("model-eval", seed)
    }
    verdicts, cross_checked = {}, 0
    signal.signal(signal.SIGALRM, run._on_alarm)
    for job in corpus.generate("prob-hard", seed):
        verdict = nx.sat(nx.Sequent.loads(job["sequent"]), nx.get_logic(job["logic"]),
                         verify=True)
        if verdict.sat:
            checks.check_witness(nx, job, verdict.model, verdict.state)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_LIMIT_S)
        try:
            reference = checks.reference_verdict(nx, job)
        except (run.QueryTimeout, nx.CapExceeded):
            reference = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if reference is not None:
            cross_checked += 1
            if reference != verdict.sat:
                raise checks.Mismatch(f"{job['name']}: solver and reference enumeration disagree")
        verdicts[job["name"]] = verdict.sat
    out["prob-hard"]["verdicts"] = dict(sorted(verdicts.items()))
    out["prob-hard"]["reference_checked"] = cross_checked
    checks.EXPECTED_DIR.mkdir(exist_ok=True)
    for workload, data in out.items():
        with open(checks.EXPECTED_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"recorded {len(out)} workloads; {cross_checked} of {len(verdicts)} prob-hard "
          "verdicts also decided by the reference enumeration")
    return 0


if __name__ == "__main__":
    sys.exit(main())
