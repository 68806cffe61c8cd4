#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny size per workload.

    python3 bench/selftest.py

For every workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json (and `failed_share`), that a traced run prints
every per-layer metric, and that a deliberately wrong expectation makes the
run fail without a result line.  It also checks that the benchmark, copied
without the program, exits non-zero without a result line.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import corpus
import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(workload: str, trace: int) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace), "--tiny"])
    return code, out.getvalue()


def result_line(text: str) -> dict | None:
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics(workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, text = invoke(workload, trace)
        assert code == 0, f"{workload}: exit {code}\n{text}"
        result = result_line(text)
        assert result is not None and result["correct"], f"{workload}: no result line"
        names = [m["name"] for m in SPEC[key]]
        assert sorted(result["metrics"]) == sorted(names), (workload, key)
        for name in names + (["failed_share"] if trace == 0 else []):
            assert f"\n{name} " in "\n" + text, f"{workload}: {name} not printed"


@contextlib.contextmanager
def patched(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _flip_first_expect(generate):
    def wrong(*args, **kwargs):
        jobs = generate(*args, **kwargs)
        jobs[0] = dict(jobs[0], expect=not jobs[0]["expect"])
        return jobs
    return wrong


def _flip_recorded(load):
    def wrong(workload):
        data = load(workload)
        data["verdicts"] = {k: not v for k, v in data["verdicts"].items()}
        return data
    return wrong


# One wrong expectation per workload, injected where that workload's
# reference comes from.
WRONG = {
    "relational": (checks, "reference_verdict",
                   lambda f: lambda nx, job: not f(nx, job)),
    "prob-hard": (checks, "load_expected", _flip_recorded),
    "depth-ladder": (corpus, "generate", _flip_first_expect),
    "model-eval": (checks, "reference_values",
                   lambda f: lambda nx, job: ["-1"] + f(nx, job)[1:]),
}


def check_wrong_expectation_fails(workload: str) -> None:
    owner, attr, make = WRONG[workload]
    with patched(owner, attr, make):
        code, text = invoke(workload, 0)
    assert code == 1, f"{workload}: wrong expectation gave exit {code}"
    assert result_line(text) is None, f"{workload}: result printed despite a wrong output"


def check_fails_without_program() -> None:
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "relational", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the program"
    assert result_line(proc.stdout) is None, "printed a result without the program"


def main() -> int:
    for workload in corpus.WORKLOADS:
        check_metrics(workload)
        check_wrong_expectation_fails(workload)
        print(f"ok {workload}")
    check_fails_without_program()
    print("ok without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
