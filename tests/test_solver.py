import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from helpers import NaiveWrapper, rand_formula, rand_metric_space, rand_model, rand_sequent

from nexfuz.lp import CapExceeded
from nexfuz.logics import LOGIC_NAMES, get_logic
from nexfuz.models import FiniteModel, check_sequent, eval_formula
from nexfuz.numerics import Comp, Interval, NumericError
from nexfuz.onestep import Conclusion
from nexfuz.prop_tableau import saturate
from nexfuz.sequents import Sequent
from nexfuz import models, solver
from nexfuz.solver import SolveStats, SolverCaps, sat, sat_threshold
from nexfuz.syntax import And, Atom, Diamond, Modal, Neg, modal_depth, parse, to_text


def iv(lo, hi, lo_open=False, hi_open=False):
    return Interval.make(F(lo), F(hi), lo_open, hi_open)


ALC = get_logic("alc")


class TestBasics:
    def test_zero_point_sat(self):
        assert sat(Sequent([(parse("0"), iv(0, 0))]), ALC).sat

    def test_zero_positive_unsat(self):
        assert not sat(Sequent([(parse("0"), iv(0, 1, lo_open=True))]), ALC).sat

    def test_min_negation_ceiling(self):
        assert not sat(Sequent([(parse("a & ~a"), iv("1/2", 1, lo_open=True))]), ALC).sat

    def test_worked_diamond_example(self):
        seq = Sequent([(parse("dia a & ~(dia a)"), iv("1/2", 1))])
        verdict = sat(seq, ALC)
        assert verdict.sat
        assert check_sequent(verdict.model, verdict.state, seq)
        # the root transition structure is forced to degree exactly 1/2
        row = verdict.model.successors(verdict.state)
        assert F(1, 2) in row.values()

    def test_threshold_wrappers(self):
        assert sat_threshold(parse("a"), Comp.GE, F(0), ALC).sat
        assert not sat_threshold(parse("0"), Comp.GT, F(0), ALC).sat
        v = sat_threshold(parse("G a"), Comp.GE, F(1, 2), get_logic("lgen"))
        assert v.sat
        assert eval_formula(v.model, v.state, parse("G a")) >= F(1, 2)

    def test_witness_checked_under_optimize(self):
        # `python -O` drops asserts and sets `__debug__` to False; the fresh
        # check of the finished witness still runs, by default, in `sat` and
        # in `sat_threshold`.
        code = (
            "from fractions import Fraction\n"
            "import nexfuz.solver as solver\n"
            "from nexfuz.logics import get_logic\n"
            "from nexfuz.numerics import Comp, Interval\n"
            "from nexfuz.sequents import Sequent\n"
            "from nexfuz.syntax import parse\n"
            "calls = []\n"
            "check = solver.check_sequent\n"
            "solver.check_sequent = lambda *a: calls.append(a) or check(*a)\n"
            "logic, half = get_logic('alc'), Fraction(1, 2)\n"
            "seq = Sequent([(parse('dia a'), Interval.from_comparison(Comp.GE, half))])\n"
            "print(solver.sat(seq, logic).sat, "
            "solver.sat_threshold(parse('dia a'), Comp.GE, half, logic).sat, "
            "__debug__, len(calls))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (os.path.dirname(os.path.dirname(solver.__file__)),
                        os.environ.get("PYTHONPATH")) if p
        )}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
        assert out.split() == ["True", "True", "False", "2"]

    def test_threshold_refuses_floats(self):
        with pytest.raises(NumericError):
            sat_threshold(parse("dia a"), Comp.GE, 0.1, ALC)
        assert sat_threshold(parse("dia a"), Comp.GE, "1/10", ALC).sat

    def test_threshold_outside_unit_interval(self):
        # Refused on either side, never read as an empty interval (UNSAT).
        for comp in Comp:
            for p in (F(3, 2), F(-1, 2)):
                with pytest.raises(NumericError):
                    sat_threshold(parse("a"), comp, p, ALC)

    def test_unknown_modality_rejected(self):
        with pytest.raises(ValueError):
            sat_threshold(parse("G a"), Comp.GE, F(1, 2), ALC)

    def test_cap_exceeded_is_not_unsat(self):
        caps = SolverCaps(max_layer_literals=1)
        seq = Sequent([(parse("dia a & dia b"), iv(0, 1))])
        with pytest.raises(CapExceeded):
            sat(seq, ALC, caps=caps)

    def test_expectation_modality_rejected(self):
        with pytest.raises(ValueError, match="arithmetically entangled"):
            get_logic("probably")
        with pytest.raises(ValueError, match="unknown logic"):
            get_logic("nope")


class TestWitnesses:
    def test_every_sat_witness_checks(self):
        rng = random.Random(71)
        for logic_name in ("alc", "lgen", "mp"):
            logic = get_logic(logic_name)
            done = 0
            while done < 25:
                seq = rand_sequent(rng, logic_name, depth=2, max_den=8)
                done += 1
                verdict = sat(seq, logic)
                if verdict.sat:
                    assert check_sequent(verdict.model, verdict.state, seq)

    def test_metric_witnesses(self):
        rng = random.Random(72)
        done = 0
        while done < 20:
            space = rand_metric_space(rng)
            crisp = rng.random() < 0.5
            name = "metric-crisp" if crisp else "metric-fuzzy"
            logic = get_logic(name, space)
            seq = rand_sequent(rng, name, depth=2, space=space, max_den=8)
            done += 1
            verdict = sat(seq, logic)
            if verdict.sat:
                assert check_sequent(verdict.model, verdict.state, seq)
                verdict.model.validate()

    def test_deterministic(self):
        seq = Sequent([(parse("dia (a - 1/4) & ~dia b"), iv("1/4", "3/4"))])
        a = sat(seq, ALC)
        b = sat(seq, ALC)
        assert a.sat == b.sat
        assert a.model.to_json() == b.model.to_json()


class TestModelFirstCompleteness:
    def _run(self, logic_name, seed, cases=30):
        rng = random.Random(seed)
        space = None
        kind = {"alc": "fuzzyrel", "lgen": "prob", "mp": "prob"}.get(logic_name)
        done = 0
        while done < cases:
            if kind is None:
                space = rand_metric_space(rng)
                model_kind = "metric-crisp" if logic_name == "metric-crisp" else "metric"
                model = rand_model(rng, model_kind, rng.randint(1, 4), space=space, max_den=8)
            else:
                model = rand_model(rng, kind, rng.randint(1, 4), max_den=8)
            logic = get_logic(logic_name, space)
            f = rand_formula(rng, logic_name, depth=2, space=space, max_den=8)
            x = model.states[0]
            value = eval_formula(model, x, f)
            done += 1
            seq = Sequent([(f, Interval.point(value))])
            verdict = sat(seq, logic)
            assert verdict.sat, f"point sequent for {f} = {value} reported UNSAT"
            assert check_sequent(verdict.model, verdict.state, seq)

    def test_alc(self):
        self._run("alc", 81)

    def test_lgen(self):
        self._run("lgen", 82)

    def test_mp(self):
        self._run("mp", 83)

    def test_metric(self):
        self._run("metric-fuzzy", 84, cases=20)

    def test_metric_crisp(self):
        self._run("metric-crisp", 85, cases=20)


class TestSearchParity:
    def test_fast_paths_match_naive_enumeration(self):
        for name in ("lgen", "mp", "metric-fuzzy", "metric-crisp"):
            rng = random.Random(999)
            done = 0
            while done < 25:
                space = rand_metric_space(rng) if name.startswith("metric") else None
                seq = rand_sequent(rng, name, depth=2, space=space, max_den=8,
                                   layer_budget=2)
                done += 1
                fast = sat(seq, get_logic(name, space), verify=False)
                slow = sat(seq, NaiveWrapper(get_logic(name, space)), verify=False)
                assert fast.sat == slow.sat, (name, seq)
                for verdict in (fast, slow):
                    if verdict.sat:
                        assert check_sequent(verdict.model, verdict.state, seq)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["lgen", "mp"])
    def test_wide_probabilistic_layers(self, name):
        # Up to six modal literals per layer; every case runs, none is
        # skipped, and some end-sequent is at least three literals wide.
        rng = random.Random(999)
        widths = []

        class Counting(NaiveWrapper):
            def conclusions(self, lits):
                widths.append(len(lits))
                return super().conclusions(lits)

        for _ in range(100):
            seq = rand_sequent(rng, name, depth=3, max_den=8, layer_budget=6)
            fast = sat(seq, get_logic(name), verify=False)
            slow = sat(seq, Counting(get_logic(name)), verify=False)
            assert fast.sat == slow.sat, (name, seq)
            for verdict in (fast, slow):
                if verdict.sat:
                    assert check_sequent(verdict.model, verdict.state, seq)
        assert max(widths) >= 3


class TestDifferential:
    """Each instance's `search_steps` against the default enumeration over
    its `conclusions()`, on one random sequent per logic for every drawn
    seed: the same verdict, and every witness checks.  A seed on which the
    two disagree is pinned here with `@example(seed=...)`, as the saved
    failure corpus."""

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fast_matches_naive(self, seed):
        rng = random.Random(seed)
        for name in LOGIC_NAMES:
            space = rand_metric_space(rng) if name.startswith("metric") else None
            seq = rand_sequent(rng, name, depth=2, space=space, max_den=8, layer_budget=2)
            fast = sat(seq, get_logic(name, space), verify=False)
            slow = sat(seq, NaiveWrapper(get_logic(name, space)), verify=False)
            assert fast.sat == slow.sat, (name, seq)
            for verdict in (fast, slow):
                if verdict.sat:
                    assert check_sequent(verdict.model, verdict.state, seq), (name, seq)


class ZeroDegreeWitness(NaiveWrapper):
    """Gives every conclusion edge degree 0, so a diamond evaluates to 0."""

    def conclusions(self, lits):
        for c in self.inner.conclusions(lits):
            yield Conclusion(c.cells, tuple(F(0) for _ in c.edges))


class TestRealizeCheck:
    def test_missed_literal_raises_without_verify(self):
        seq = Sequent([(parse("dia a"), iv("1/2", 1))])
        assert sat(seq, NaiveWrapper(ALC), verify=False).sat
        with pytest.raises(AssertionError, match=r"dia a the value 0, outside \[1/2,1\]"):
            sat(seq, ZeroDegreeWitness(ALC), verify=False)

    def test_state_the_root_cannot_reach_is_checked(self):
        # The root is UNSAT (`c & ~c` is at most 1/2), but the state added for
        # `dia a in [1/2,1]` before that branch died is still checked.
        seq = Sequent([(parse("dia dia a"), iv("1/2", 1)), (parse("dia (c & ~c)"), iv("3/4", 1))])
        assert not sat(seq, NaiveWrapper(ALC)).sat
        for verify in (False, True):
            with pytest.raises(AssertionError, match=r"dia a the value 0, outside \[1/2,1\]"):
                sat(seq, ZeroDegreeWitness(ALC), verify=verify)


class TestRecursionShape:
    def test_depth_bounded_by_modal_depth(self):
        rng = random.Random(91)
        for _ in range(30):
            seq = rand_sequent(rng, "alc", depth=3, max_den=8)
            depth = max((modal_depth(f) for f, _ in seq.items()), default=0)
            stats = SolveStats()
            sat(seq, ALC, stats=stats)
            assert stats.max_depth <= depth

    def test_reused_stats(self):
        # The depth check used to read the caller's `stats.max_depth`, which
        # still held the first solve's depth 2 when the depth-0 query ran.
        stats = SolveStats()
        assert sat_threshold(parse("dia dia a"), Comp.GE, F(1, 2), ALC, stats=stats).sat
        assert sat_threshold(parse("a"), Comp.GE, F(1, 2), ALC, stats=stats).sat
        assert stats.max_depth == 2 and stats.nodes == 4
        # Over two solves each level table holds the key-wise maximum of the
        # two solves' own tables, and `witness_branching` is concatenated.
        rng = random.Random(94)
        for name in ("alc", "lgen"):
            for _ in range(15):
                seqs = [rand_sequent(rng, name, depth=2, max_den=8) for _ in range(2)]
                apart = [SolveStats(), SolveStats()]
                for seq, one in zip(seqs, apart):
                    sat(seq, get_logic(name), stats=one)
                both = SolveStats()
                for seq in seqs:
                    sat(seq, get_logic(name), stats=both)
                first, second = apart
                assert both.nodes == first.nodes + second.nodes
                assert both.max_depth == max(first.max_depth, second.max_depth)
                for table in ("level_input_size", "level_peak_size", "level_peak_stack"):
                    t1, t2 = getattr(first, table), getattr(second, table)
                    assert getattr(both, table) == {
                        k: max(t1.get(k, -1), t2.get(k, -1)) for k in t1.keys() | t2.keys()
                    }, table
                assert both.witness_branching == (first.witness_branching
                                                  + second.witness_branching)

    @pytest.mark.parametrize("name, text, tables", [
        # The cap stops the child at level 1, after level 0 has split.
        ("alc", "(a | dia (b & (dia a & dia ~b))) & c",
         (1, 2, {0: 24, 1: 15}, {0: 34, 1: 27}, {0: 2, 1: 1})),
        # The cap stops the root, after its stack has risen to 3.
        ("lgen", "(a | G (b | G a)) & (c | G (G a & G ~b))",
         (0, 1, {0: 34}, {0: 47}, {0: 3})),
    ])
    def test_stats_at_a_cap(self, name, text, tables):
        # The values a solve records before the cap stops it.
        stats = SolveStats()
        with pytest.raises(CapExceeded, match="2 modal literals"):
            sat_threshold(parse(text), Comp.GE, F(1, 2), get_logic(name),
                          caps=SolverCaps(max_layer_literals=1), stats=stats)
        assert (stats.max_depth, stats.nodes, stats.level_input_size, stats.level_peak_size,
                stats.level_peak_stack) == tables
        assert stats.witness_branching == []

    def test_intervals_built_independent_of_depth(self, monkeypatch):
        # Each `dia` level of the chain meets, intersects and ray-splits
        # intervals it already holds, and builds no new one: only the
        # input's threshold interval is built, at any depth.
        built = []
        init = Interval.__init__

        def counting(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(Interval, "__init__", counting)
        counts = []
        for n in (100, 500):
            formula = parse("dia " * n + "a")
            built.clear()
            assert sat_threshold(formula, Comp.GE, F(1, 2), ALC).sat
            counts.append(len(built))
        assert counts[0] == counts[1] <= 2, counts

    def test_each_state_swept_once(self, monkeypatch):
        # The check of every added state shares the fresh table of the
        # input's check at the root: one diamond sweep per state with a
        # successor, not one more for each state's own check.
        calls = []
        sweep = models.diamond_sweep
        monkeypatch.setattr(models, "diamond_sweep", lambda *a: calls.append(1) or sweep(*a))
        verdict = sat_threshold(parse("dia " * 2000 + "a"), Comp.GE, F(1, 2), ALC)
        assert verdict.sat and len(verdict.model.states) == 2001
        assert len(calls) <= 2001

    def test_no_stats_no_level_tables(self, monkeypatch):
        # Without `stats` the solver keeps no level tables, so it never
        # measures a sequent's size.
        def refuse(seq):
            raise AssertionError("combined_size called without stats")

        seqs = [rand_sequent(random.Random(93), name, depth=2, max_den=8)
                for name in ("alc", "lgen", "mp")]
        monkeypatch.setattr(Sequent, "combined_size", refuse)
        for seq, name in zip(seqs, ("alc", "lgen", "mp")):
            sat(seq, get_logic(name))
        with pytest.raises(AssertionError, match="without stats"):
            sat(seqs[0], ALC, stats=SolveStats())

    def test_children_no_larger_than_their_end_sequent(self):
        # So `level_peak_size` measures only end-sequents: a child gets each
        # argument of a modal formula, smaller than it; a cell costs no more
        # bits than its literal's interval (0 or 1 in place of an endpoint);
        # and a repeated argument is one entry.
        rng = random.Random(83)
        for name in LOGIC_NAMES:
            checked = 0
            while checked < 200:
                space = rand_metric_space(rng) if name.startswith("metric") else None
                logic = get_logic(name, space)
                seq = rand_sequent(rng, name, depth=2, space=space, max_den=8, max_literals=3)
                for gamma in saturate(seq):
                    lits = [(f.op, i) for f, i in gamma.items() if isinstance(f, Modal)]
                    args = [f.arg for f in gamma if isinstance(f, Modal)]
                    for conclusion in logic.conclusions(tuple(lits)):
                        for cells in conclusion.cells:
                            child = Sequent(zip(args, cells))
                            assert child.combined_size() <= gamma.combined_size(), (
                                name, gamma, child)
                            checked += 1

    def test_atoms_transparency(self):
        # Declared atoms that no literal pins change no verdict, and every
        # witness state gives them 0, the probabilistic sink included.
        rng = random.Random(92)
        extra = ("unused1", "unused2")
        sinks = 0
        for _ in range(20):
            seq = rand_sequent(rng, "lgen", depth=2, max_den=8)
            base = sat(seq, get_logic("lgen"))
            again = sat(seq, get_logic("lgen"), declared_atoms=extra)
            assert base.sat == again.sat
            if again.sat:
                for state in again.model.states:
                    assert [again.model.atoms[state][a] for a in extra] == [0, 0], state
                sinks += "sink" in again.model.states
        assert sinks > 0
        # Half of the root's mass goes to the sink, where `G G b` reads b.
        seq = Sequent([(parse("G a"), Interval.from_comparison(Comp.GE, F(1, 2)))])
        verdict = sat(seq, get_logic("lgen"), declared_atoms=("b",))
        assert verdict.model.atoms["sink"] == {"b": 0}
        assert eval_formula(verdict.model, verdict.state, parse("G G b")) == 0


def g_chain(nesting: int) -> str:
    """`G(f) & ~G ~(f)` nested over an atom: SAT at 1/2, with the two
    literals of each level sharing their argument."""
    f = "a"
    for _ in range(nesting):
        f = f"G({f}) & ~G ~({f})"
    return f


class TestDeepInputs:
    """Deep inputs run in linear time, at the interpreter's default
    recursion limit."""

    @pytest.fixture(autouse=True)
    def default_recursion_limit(self):
        assert sys.getrecursionlimit() <= 1000

    def test_deep_diamond_chain_sat(self):
        seq = Sequent([(parse("dia " * 1000 + "a"), iv("1/2", 1))])
        verdict = sat(seq, ALC, verify=False)
        assert verdict.sat
        verdict.model.validate()
        assert check_sequent(verdict.model, verdict.state, seq)

    def test_deep_diamond_chain_unsat(self):
        seq = Sequent([(parse("dia " * 1000 + "(a & ~a)"), iv("3/4", 1))])
        assert not sat(seq, ALC).sat

    def test_deep_parse_print_and_eval(self):
        text = "dia " * 1000 + "a"
        f = parse(text)
        assert f.modal_depth == 1000
        assert to_text(f) == text
        assert parse(to_text(f)) is f
        states = tuple(f"x{i}" for i in range(3))
        model = FiniteModel(
            "fuzzyrel",
            states,
            {"x0": {"x1": F(3, 4)}, "x1": {"x2": F(1, 2), "x1": F(1, 3)}, "x2": {"x2": F(1)}},
            {x: {"a": F(2, 3)} for x in states},
        )
        model.validate()
        assert eval_formula(model, "x0", f) == F(1, 2)
        assert eval_formula(model, "x0", Neg(f)) == F(1, 2)

    def test_deep_parentheses_round_trip(self):
        # dia (a & dia (a & ... a)): every level opens a parenthesis.
        f = Atom("a")
        for _ in range(1000):
            f = Modal(Diamond(), And(Atom("a"), f))
        text = to_text(f)
        assert text.count("(") == 1000
        assert parse(text) is f
        seq = Sequent([(f, iv("1/2", 1))])
        assert Sequent.loads(seq.dumps()) == seq

    def test_deep_redundant_parentheses(self):
        assert parse("(" * 1000 + "a" + ")" * 1000) is Atom("a")

    def test_equal_deep_subtrees(self):
        deep = "dia " * 500 + "a"
        f = parse(f"{deep} & {deep}")
        assert f.left is f.right
        seq = Sequent([(f, iv("1/2", 1))])
        stats = SolveStats()
        verdict = sat(seq, ALC, stats=stats)
        assert verdict.sat and check_sequent(verdict.model, verdict.state, seq)
        assert stats.max_depth == 500

    def test_parallel_edges_to_a_shared_child_merge(self):
        # Both literals of the root's end-sequent ask for a successor with
        # a >= 1/2: one memoized child, reached by one merged edge.
        seq = Sequent([(parse("dia a & dia a"), iv("1/2", 1))])
        stats = SolveStats()
        verdict = sat(seq, ALC, stats=stats)
        assert verdict.sat and stats.nodes == 2
        model = verdict.model
        row = model.successors(verdict.state)
        assert len(row) == 1 and model.states == ("s0", "s1")
        assert row["s1"] >= F(1, 2)
        assert check_sequent(model, verdict.state, seq)

    @pytest.mark.parametrize(
        "nesting, states_before", [(2, 11), (3, 23), (4, 47), (5, 95), (6, 191)]
    )
    def test_g_chain_witness_is_shared(self, nesting, states_before):
        seq = Sequent([(parse(g_chain(nesting)), iv("1/2", 1))])
        stats = SolveStats()
        verdict = sat(seq, get_logic("lgen"), stats=stats)
        assert verdict.sat
        verdict.model.validate()
        states = len(verdict.model.states)
        assert states < states_before
        assert states <= stats.nodes + 1  # a state per SAT sequent, and the sink
