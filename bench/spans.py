"""Span tracing of the program from outside.

`Tracer.install` replaces the public entry points of each `nexfuz` module,
as the modules that call them see them, with wrappers that record a span
per call; `uninstall` puts the originals back.  Nothing under `src/` is
edited.  A span records its name, the job it belongs to, its start and end
and the span that caused it.  Spans are kept in memory and written out when
the run ends.  A span's self time is its duration minus the time covered by
its child spans, so the self times of one pass add up to the pass.

Boundaries that carry no span of their own (the memo lookups and hashing of
the recursion, atom handling, the signature check) are charged to the
enclosing solver span: `solver.self_s` is the self time of `solver.sat`
plus that of every `solver.child` span, the `solve_child` callable each
instance search receives.  So an instance search's self time excludes the
child recursion it asks for.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.job = None
        self.stats = None
        self._restore: list = []

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append([len(self.spans), name, perf_counter(), 0.0])
        self.spans.append((name, self.job, parent))

    def exit(self) -> None:
        end = perf_counter()
        index, name, start, child = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][3] += duration
        self.spans[index] += (start, end)

    def reset(self) -> None:
        """Start a new pass: drop the spans and totals of the previous one."""
        self.spans.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, job, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "job": job, "parent": parent,
                                     "start": start, "end": end}) + "\n")

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, name, count=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    def wrap_generator(self, fn, name):
        """Each resumption of the generator is one span; yields are counted."""
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    tracer.enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    tracer.counts[name + "_yields"] += 1
                    yield item
            finally:
                gen.close()

        return traced

    def wrap_search(self, fn, logic):
        tracer = self
        name = f"logics.{logic}.search"

        def search(self_, gamma, solve_child):
            def child(q):
                nodes = tracer.stats.nodes
                tracer.enter("solver.child")
                try:
                    result = solve_child(q)
                finally:
                    tracer.exit()
                counts = tracer.counts
                counts["solver.child_requests"] += 1
                counts["solver.memo_hits"] += tracer.stats.nodes == nodes
                counts[f"logics.{logic}.child_solves"] += 1
                counts[f"logics.{logic}.child_sat"] += bool(result.sat)
                return result

            tracer.enter(name)
            try:
                return fn(self_, gamma, child)
            finally:
                tracer.exit()

        return search

    def wrap_sat(self, fn):
        tracer = self

        def sat(seq, logic, **kwargs):
            tracer.stats = kwargs["stats"]
            tracer.enter("solver.sat")
            try:
                return fn(seq, logic, **kwargs)
            finally:
                tracer.exit()

        return sat

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, make, static: bool = False) -> None:
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        original = getattr(owner, attr, None)
        if original is None:
            print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found, not traced")
            return
        replacement = make(original)
        setattr(owner, attr, staticmethod(replacement) if static else replacement)
        self._restore.append((owner, attr, raw if isinstance(owner, type) else original))

    def install(self, nx, api) -> None:
        """Wrap every traced boundary of the program and of the benchmark's
        own entry-point table `api`."""
        solver, lp = nx.solver, nx.lp
        prob = nx.logics.probabilistic
        wrap = self.wrap
        self._patch(api, "loads", lambda f: wrap(f, "sequents.loads"))
        self._patch(api, "parse", lambda f: wrap(f, "syntax.parse"))
        self._patch(api, "get_logic", lambda f: wrap(f, "logics.get_logic"))
        self._patch(api, "sat", self.wrap_sat)
        self._patch(api, "eval_formula", lambda f: wrap(f, "models.eval"))
        self._patch(nx.sequents, "parse", lambda f: wrap(f, "syntax.parse"))
        self._patch(nx.MetricSpace, "from_json", lambda f: wrap(f, "metricspace.from_json"),
                    static=True)
        self._patch(nx.FiniteModel, "from_json", lambda f: wrap(f, "models.json"), static=True)
        self._patch(nx.FiniteModel, "validate", lambda f: wrap(f, "models.validate"))
        self._patch(solver, "top_level_decompose", lambda f: wrap(f, "onestep.decompose"))
        self._patch(solver, "substitute", lambda f: wrap(f, "onestep.substitute"))
        self._patch(solver, "saturate", lambda f: self.wrap_generator(f, "prop_tableau.saturate"))
        self._patch(solver, "eval_formula", lambda f: wrap(f, "models.child_eval"))
        self._patch(solver, "check_sequent", lambda f: wrap(f, "models.verify"))
        self._patch(solver, "assemble_witness", lambda f: wrap(f, "models.assemble"))
        for cls, logic in ((nx.logics.FuzzyAlcLogic, "alc"), (nx.logics.MetricLogic, "metric"),
                           (nx.logics.ProbabilisticLogic, "probabilistic")):
            self._patch(cls, "search", lambda f, logic=logic: self.wrap_search(f, logic))
            self._patch(cls, "realize", lambda f, logic=logic: wrap(f, f"logics.{logic}.realize"))
        self._patch(prob, "vector_intervals",
                    lambda f: wrap(f, "logics.probabilistic.decode", _count_decode))
        self._patch(lp, "feasible", lambda f: wrap(f, "lp.fm", _count_lp("lp.fm")))
        self._patch(lp, "simplex_feasible", lambda f: wrap(f, "lp.simplex", _count_lp("lp.simplex")))
        self._patch(lp, "caratheodory_reduce",
                    lambda f: wrap(f, "lp.caratheodory", _count_caratheodory))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, type) and original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _count_decode(counts, args, result) -> None:
    counts["logics.probabilistic.consistent"] += result is not None


def _count_lp(name):
    def count(counts, args, result) -> None:
        counts[name + "_vars"] += args[0].num_vars
        counts[name + "_infeasible"] += result is None

    return count


def _count_caratheodory(counts, args, result) -> None:
    counts["lp.support_in"] += sum(1 for w in args[1] if w > 0)
    counts["lp.support_out"] += len(result[0])
