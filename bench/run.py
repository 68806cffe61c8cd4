#!/usr/bin/env python3
"""The nexfuz benchmark: time to a verified verdict, per workload.

    python3 bench/run.py --workload relational --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  One
client, closed loop, no threads: each job starts when the previous one has
ended.  A solve job runs from sequent JSON text to a verified verdict
(`Sequent.loads`, `MetricSpace.from_json`, `get_logic`, `sat` with
verification on, as the CLI runs them).  An eval job runs from model JSON to
every requested value.  Passes over the workload's fixed job list repeat for
`--seconds`, and at least `MIN_PASSES` times.  Timings are reported in
reference seconds, corrected for the host's drifting speed (see `probe`).

With `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and prints per-layer metrics (see
spans.py).  The outputs of the first pass are checked against references
after the timed passes (see checks.py); later passes must repeat them.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A wrong output exits with code 1, a
missing program with code 2, both without that line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import corpus
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_PASSES = 4
MIN_TRACED_PAIRS = 2
SETUP_REPEATS = 5
# A job running longer than this is stopped, counted as failed and charged
# this time, like a job that raised.
QUERY_LIMIT_S = 4.0
# The tail percentile is the highest of these that keeps at least
# TAIL_BEYOND samples beyond it at MIN_PASSES passes.
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)
TAIL_BEYOND = 10
TIMEOUT = "timeout"
# Host speed.  The development host's speed drifts by up to 2x over tens of
# seconds, with CPU time equal to wall time, so timings are reported in
# reference seconds: wall seconds times the host's speed, which is
# PROBE_REFERENCE_S over the time `probe` takes at that moment.
PROBE_STEPS = 3000
PROBE_REFERENCE_S = 0.010
PROBE_EVERY_S = 0.25


class ProgramMissing(Exception):
    pass


class QueryTimeout(Exception):
    pass


def import_program():
    """Import `nexfuz` from this checkout's `src/`, afresh each call."""
    if not (SRC / "nexfuz" / "__init__.py").is_file():
        raise ProgramMissing(f"no nexfuz package under {SRC}")
    for name in [m for m in sys.modules if m == "nexfuz" or m.startswith("nexfuz.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    nx = importlib.import_module("nexfuz")
    if Path(nx.__file__).resolve().parent != SRC / "nexfuz":
        raise ProgramMissing(f"nexfuz imported from {nx.__file__}, not from {SRC}")
    # Importing a submodule binds it on its package: nx.solver, nx.lp, ...
    for sub in ("liftings", "logics.probabilistic", "lp", "models", "onestep", "sequents",
                "solver", "syntax"):
        importlib.import_module(f"nexfuz.{sub}")
    return nx


def entry_points(nx):
    """The program's entry points as the benchmark calls them; the tracer
    wraps them here, at the benchmark's own call sites."""
    return types.SimpleNamespace(
        loads=nx.Sequent.loads,
        parse=nx.parse,
        get_logic=nx.get_logic,
        sat=nx.sat,
        eval_formula=nx.eval_formula,
    )


def run_solve(nx, api, job):
    seq = api.loads(job["sequent"])
    space = nx.MetricSpace.from_json(json.loads(job["space"])) if job["space"] else None
    logic = api.get_logic(job["logic"], space)
    stats = nx.SolveStats()
    verdict = api.sat(seq, logic, stats=stats, verify=True)
    return verdict, stats


def run_eval(nx, api, job):
    model = nx.FiniteModel.from_json(json.loads(job["model"]))
    values = []
    for text in job["formulas"]:
        formula = api.parse(text)
        values.extend(api.eval_formula(model, x, formula) for x in model.states)
    return values, None


def _on_alarm(signum, frame):
    raise QueryTimeout()


def probe() -> float:
    """Wall time of a fixed pure-Python computation like the program's own
    work: exact rational arithmetic, tuple hashing and dict updates."""
    start = perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, PROBE_STEPS):
        total += Fraction(1, i % 97 + 1)
        table[(i % 50, total.denominator % 7)] = total
    return perf_counter() - start


def run_pass(nx, api, jobs, runner, tracer=None):
    """One pass.  Returns per job the time in reference seconds (failures
    charged QUERY_LIMIT_S) and ("ok", result, stats) or ("failed", reason,
    None); the pass's wall time; and the host speed seen during the pass.

    The host speed is measured by `probe` before the first job, between
    jobs once PROBE_EVERY_S have passed, and after the last job.  A job's
    wall time is divided by the mean of the probes that bracket it, over
    PROBE_REFERENCE_S."""
    walls, outcomes, probes = [], [], [(0, probe())]
    last_probe = perf_counter()
    for k, job in enumerate(jobs):
        if perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append((k, probe()))
            last_probe = perf_counter()
        if tracer is not None:
            tracer.job = job["name"]
            tracer.enter("bench")
        signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
        start = perf_counter()
        try:
            result, stats = runner(nx, api, job)
            outcome = ("ok", result, stats)
        except AssertionError as exc:
            raise checks.Mismatch(f"{job['name']}: {exc}") from exc
        except QueryTimeout:
            outcome = ("failed", TIMEOUT, None)
        except Exception as exc:  # a typed failure of the program: counted
            outcome = ("failed", type(exc).__name__, None)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.exit()
        walls.append(elapsed)
        outcomes.append(outcome)
    probes.append((len(jobs), probe()))
    times = []
    for (first, before), (end, after) in zip(probes, probes[1:]):
        speed = PROBE_REFERENCE_S * 2 / (before + after)
        times.extend(
            walls[k] * speed if outcomes[k][0] == "ok" else QUERY_LIMIT_S
            for k in range(first, end)
        )
    speed = PROBE_REFERENCE_S / statistics.median(t for _, t in probes)
    return times, outcomes, sum(walls), speed


def summary(outcome):
    """What later passes must repeat: the failure, or the verdict and
    witness size, or the values."""
    status, result, _ = outcome
    if status != "ok":
        return result
    if isinstance(result, list):
        return tuple(result)
    return (bool(result.sat), len(result.model.states) if result.sat else 0)


def tail_percentile(queries: int) -> float:
    nominal = queries * MIN_PASSES
    for p in TAIL_PERCENTILES:
        if nominal * (100 - p) / 100 >= TAIL_BEYOND:
            return p
    return TAIL_PERCENTILES[-1]


def gate(nx, workload, jobs, first, seed) -> int:
    outcomes = [(status, result) for status, result, _ in first]
    if workload == "model-eval":
        return checks.check_eval_outcomes(nx, jobs, outcomes, seed, corpus.DEFAULT_SEED)
    return checks.check_solve_outcomes(nx, workload, jobs, outcomes)


def setup(workload, seed, tiny):
    """Import, generate and JSON-encode, SETUP_REPEATS times; returns the
    median time in reference seconds and in wall seconds, the program, the
    jobs and their digest."""
    times, walls, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        before = probe()
        start = perf_counter()
        nx = import_program()
        jobs = corpus.generate(workload, seed, tiny)
        walls.append(perf_counter() - start)
        times.append(walls[-1] * PROBE_REFERENCE_S * 2 / (before + probe()))
        digests.add(corpus.digest(jobs))
    if len(digests) != 1:
        raise checks.Mismatch(f"{workload}: generation is not deterministic: {sorted(digests)}")
    return statistics.median(times), statistics.median(walls), nx, jobs, digests.pop()


def pass_record(traced, times, outcomes, wall, speed, tracer):
    """What a pass keeps once it has ended: its times, what later passes
    must repeat and, for a traced pass, the tracer's totals.  Verdicts and
    witnesses are dropped, so that memory does not grow with the passes."""
    entry = {
        "traced": traced,
        "times": times,
        "wall": wall,
        "speed": speed,
        "summaries": [summary(o) for o in outcomes],
        "failed": [o[0] != "ok" for o in outcomes],
    }
    if traced:
        solved = [(r, st) for status, r, st in outcomes if status == "ok" and st is not None]
        entry.update(
            self_s=dict(tracer.self_s),
            calls=dict(tracer.calls),
            counts=dict(tracer.counts),
            nodes=sum(st.nodes for _, st in solved),
            max_depth=max((st.max_depth for _, st in solved), default=0),
            states=[len(r.model.states) for r, _ in solved if r.sat],
        )
    return entry


def measure(nx, api, jobs, runner, seconds, min_passes, tracer=None):
    """Passes until `seconds` are used up, alternating untraced and traced
    passes when a tracer is given.  Returns the pass records and the full
    outcomes of the first pass, which the gates check."""
    passes, first = [], None
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install(nx, api)
        gc.collect()
        try:
            times, outcomes, wall, speed = run_pass(nx, api, jobs, runner,
                                                    tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        first = first or outcomes
        passes.append(pass_record(traced, times, outcomes, wall, speed, tracer))
        del outcomes
        elapsed = perf_counter() - start
        per_pass = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + per_pass > seconds:
            return passes, first


def check_repeats(jobs, passes) -> None:
    """Every pass must repeat the outputs of the first.  A job over the time
    limit may pass in another pass, and a traced pass may fail a job the
    untraced ones solve (reported as a traced-only failure)."""
    reference = passes[0]["summaries"]
    for entry in passes[1:]:
        for job, want, got, failed in zip(jobs, reference, entry["summaries"], entry["failed"]):
            if got == want or TIMEOUT in (got, want) or (entry["traced"] and failed):
                continue
            raise checks.Mismatch(f"{job['name']}: pass outputs differ: {want} then {got}")


def end_to_end(jobs, passes, setup_s, setup_wall):
    """The end-to-end metrics, in reference seconds, printed with the wall
    time and host speed they come from."""
    pass_s = statistics.median(sum(p["times"]) for p in passes)
    pass_wall = statistics.median(p["wall"] for p in passes)
    speed = statistics.median(p["speed"] for p in passes)
    # The samples are the jobs of every pass, each taking its job's median
    # time over the passes: over the raw times, the nearest-rank percentile
    # would pick the extreme sample of whichever job sits at the rank.
    per_job = sorted(statistics.median(ts) for ts in zip(*(p["times"] for p in passes)))
    failed = sum(sum(p["failed"]) for p in passes)
    attempted = len(jobs) * len(passes)
    p_tail = tail_percentile(len(jobs))
    rank = -(-attempted * p_tail // 100)
    tail = per_job[-(-int(rank) // len(passes)) - 1]
    beyond = attempted - int(rank)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"host speed {speed:.3f} of the reference (median over passes)")
    print(f"setup_s {setup_s:.6f} s  (wall {setup_wall:.6f} s)")
    print(f"pass_s {pass_s:.6f} s  (wall {pass_wall:.6f} s, queries {len(jobs)}, "
          f"passes {len(passes)}, throughput {len(jobs) / pass_s:.1f} queries/s)")
    print(f"solve_p50_ms {statistics.median(per_job) * 1e3:.6f} ms  (samples {attempted})")
    print(f"solve_tail_ms {tail * 1e3:.6f} ms  (p{p_tail:g}, samples {attempted}, "
          f"beyond {beyond})")
    print(f"failed_share {failed / attempted:.6f}  ({failed} of {attempted} attempted)")
    print(f"peak_rss_mb {peak_rss_mb:.6f} MB")
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "solve_p50_ms": (statistics.median(per_job) * 1e3, "ms"),
        "solve_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return attempted, failed, metrics


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(passes):
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    self_s, calls, counts = Counter(), Counter(), Counter()
    for p in traced:
        self_s.update(p["self_s"])
        calls.update(p["calls"])
        counts.update(p["counts"])
    nodes = sum(p["nodes"] for p in traced)
    max_depth = max(p["max_depth"] for p in traced)
    states = [k for p in traced for k in p["states"]]

    def s(name):
        return self_s.get(name, 0.0) / n

    def c(name):
        return calls.get(name, 0) / n

    untraced_pass = statistics.median(sum(p["times"]) for p in untraced)
    traced_pass = statistics.median(sum(p["times"]) for p in traced)
    traced_wall = sum(p["wall"] for p in traced) / n
    solver_self = s("solver.sat") + s("solver.child")
    child_requests = counts.get("solver.child_requests", 0)
    prob = "logics.probabilistic"
    m = {
        "syntax.parse_s": (s("syntax.parse"), "s"),
        "syntax.parse_calls": (c("syntax.parse"), "count"),
        "sequents.loads_s": (s("sequents.loads"), "s"),
        "metricspace.from_json_s": (s("metricspace.from_json"), "s"),
        "logics.get_logic_s": (s("logics.get_logic"), "s"),
        "onestep.decompose_s": (s("onestep.decompose"), "s"),
        "onestep.decompose_calls": (c("onestep.decompose"), "count"),
        "onestep.substitute_s": (s("onestep.substitute"), "s"),
        "onestep.substitute_calls": (c("onestep.substitute"), "count"),
        "prop_tableau.saturate_s": (s("prop_tableau.saturate"), "s"),
        "prop_tableau.end_sequents": (counts.get("prop_tableau.saturate_yields", 0) / n, "count"),
        "prop_tableau.end_sequents_per_node": (
            _ratio(counts.get("prop_tableau.saturate_yields", 0), nodes), "ratio"),
        "solver.self_s": (solver_self, "s"),
        "solver.nodes": (nodes / n, "count"),
        "solver.max_depth": (max_depth, "count"),
        "solver.child_requests": (child_requests / n, "count"),
        "solver.memo_hit_ratio": (_ratio(counts.get("solver.memo_hits", 0), child_requests),
                                  "ratio"),
    }
    for logic in ("alc", "metric", "probabilistic"):
        m[f"logics.{logic}.search_s"] = (s(f"logics.{logic}.search"), "s")
        m[f"logics.{logic}.realize_s"] = (s(f"logics.{logic}.realize"), "s")
    decodes = calls.get(f"{prob}.decode", 0)
    child_solves = counts.get(f"{prob}.child_solves", 0)
    fm_calls, simplex_calls = calls.get("lp.fm", 0), calls.get("lp.simplex", 0)
    carath = calls.get("lp.caratheodory", 0)
    m.update({
        f"{prob}.decode_s": (s(f"{prob}.decode"), "s"),
        f"{prob}.decode_calls": (decodes / n, "count"),
        f"{prob}.consistent_ratio": (_ratio(counts.get(f"{prob}.consistent", 0), decodes),
                                     "ratio"),
        f"{prob}.child_solves": (child_solves / n, "count"),
        f"{prob}.good_ratio": (_ratio(counts.get(f"{prob}.child_sat", 0), child_solves), "ratio"),
        "lp.fm_s": (s("lp.fm"), "s"),
        "lp.fm_calls": (fm_calls / n, "count"),
        "lp.fm_vars_mean": (_ratio(counts.get("lp.fm_vars", 0), fm_calls), "count"),
        "lp.fm_infeasible_ratio": (_ratio(counts.get("lp.fm_infeasible", 0), fm_calls), "ratio"),
        "lp.simplex_s": (s("lp.simplex"), "s"),
        "lp.simplex_calls": (simplex_calls / n, "count"),
        "lp.simplex_vars_mean": (_ratio(counts.get("lp.simplex_vars", 0), simplex_calls),
                                 "count"),
        "lp.caratheodory_s": (s("lp.caratheodory"), "s"),
        "lp.support_in_mean": (_ratio(counts.get("lp.support_in", 0), carath), "count"),
        "lp.support_out_mean": (_ratio(counts.get("lp.support_out", 0), carath), "count"),
        "models.child_eval_s": (s("models.child_eval"), "s"),
        "models.child_eval_calls": (c("models.child_eval"), "count"),
        "models.verify_s": (s("models.verify"), "s"),
        "models.assemble_s": (s("models.assemble"), "s"),
        "models.witness_states_mean": (_ratio(sum(states), len(states)), "count"),
        "models.witness_states_max": (max(states, default=0), "count"),
        "models.eval_s": (s("models.eval"), "s"),
        "models.validate_s": (s("models.validate"), "s"),
        "models.json_s": (s("models.json"), "s"),
        "bench.self_s": (s("bench"), "s"),
        "trace.untraced_pass_s": (untraced_pass, "s"),
        "trace.traced_pass_s": (traced_pass, "s"),
        "trace.overhead_s": (traced_pass - untraced_pass, "s"),
        "trace.overhead_ratio": (_ratio(traced_pass - untraced_pass, untraced_pass), "ratio"),
        "trace.accounted_ratio": (_ratio(sum(self_s.values()) / n - s("bench"), traced_wall),
                                  "ratio"),
    })
    return m


def traced_only_failures(jobs, passes):
    """Jobs that fail in the first traced pass but not in the first pass:
    the wrappers add Python frames, so a deep rung can hit the recursion
    limit only under tracing."""
    untraced = next(p for p in passes if not p["traced"])
    traced = next(p for p in passes if p["traced"])
    return [
        f"{job['name']} ({reason})"
        for job, failed, traced_failed, reason in zip(
            jobs, untraced["failed"], traced["failed"], traced["summaries"])
        if traced_failed and not failed
    ]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few jobs per workload, for the self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        setup_s, setup_wall, nx, jobs, digest = setup(args.workload, args.seed, args.tiny)
        print(f"workload {args.workload}  seed {args.seed}  digest {digest}  jobs {len(jobs)}")
        print(f"python {sys.version.split()[0]}  cpus {os.cpu_count()}")
        if not args.tiny:
            checks.check_digest(args.workload, args.seed, corpus.DEFAULT_SEED, digest)
        api = entry_points(nx)
        runner = run_eval if args.workload == "model-eval" else run_solve
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        tracer = Tracer() if args.trace else None
        try:
            passes, first = measure(nx, api, jobs, runner, args.seconds,
                                    2 * MIN_TRACED_PAIRS if tracer else MIN_PASSES, tracer)
        finally:
            signal.signal(signal.SIGALRM, previous)
        if tracer:
            attempted = sum(len(p["times"]) for p in passes)
            failed = sum(sum(p["failed"]) for p in passes)
            metrics = per_layer(passes)
            only = traced_only_failures(jobs, passes)
            print(f"traced-only failures: {len(only)}" + (f"  ({', '.join(only)})" if only else ""))
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
            for name, (value, unit) in metrics.items():
                print(f"{name} {value:.6f} {unit}")
        else:
            attempted, failed, metrics = end_to_end(jobs, passes, setup_s, setup_wall)
        check_repeats(jobs, passes)
        compared = gate(nx, args.workload, jobs, first, args.seed)
        print(f"checked: {compared} outputs against references; every pass, traced or not, "
              "repeats the first")
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except checks.Mismatch as exc:
        print(f"WRONG OUTPUT: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
