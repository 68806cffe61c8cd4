"""Satisfiability with witness extraction.

The decision procedure, per modal level:

1. split the input sequent into a propositional layer over fresh truth
   variables plus bindings of the variables to the guarded subformulas;
2. saturate the propositional layer, enumerating open end-sequents;
3. split each end-sequent once into atom values and modal literals, and
   ask the instance logic for a conclusion over those literals whose
   variable sequents are all satisfiable (after substituting the bound
   formulas back in);
4. on success, add a state with the conclusion's edges, over the
   children's states, to the solve's witness DAG, and check that every
   modal literal of the end-sequent evaluates there into its interval.

Each sequent being solved is one frame on an explicit stack.  A frame runs
its instance search, a generator (see `OneStepLogic.search_steps`), until
the search asks about a child sequent not solved yet; a frame for that
child goes on top, and its verdict is sent back to the search when it is
done.  So the stack depth is bounded by the modal depth of the input, never
by the interpreter's recursion limit.  Every distinct sequent is solved
once, and each satisfiable one is one state of the witness DAG.  All
nondeterminism is resolved by exhaustive, deterministically ordered
backtracking, so verdicts and witnesses are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .lp import CapExceeded
from .models import FiniteModel, WitnessDag, check_sequent
from .numerics import ZERO, Comp, Interval
from .onestep import Literal, OneStepLogic, SearchSuccess, substitute, top_level_decompose
from .prop_tableau import TraceFn, saturate
from .sequents import Sequent
from .syntax import Formula, Modal, Var, modal_depth, subformulas


@dataclass
class SolverCaps:
    """Explicit limits; exceeding one raises CapExceeded, never UNSAT."""

    max_layer_literals: int = 8


@dataclass
class SolveStats:
    """Counters backing the space-shape assertions in the test suite."""

    max_depth: int = 0
    nodes: int = 0
    level_input_size: dict[int, int] = field(default_factory=dict)
    level_peak_size: dict[int, int] = field(default_factory=dict)
    level_peak_stack: dict[int, int] = field(default_factory=dict)
    witness_branching: list[tuple[int, int]] = field(default_factory=list)

    def _bump(self, table: dict[int, int], level: int, value: int) -> None:
        table[level] = max(table.get(level, 0), value)


@dataclass
class Verdict:
    sat: bool
    model: FiniteModel | None = None
    state: str | None = None

    def __bool__(self) -> bool:
        return self.sat


class _Frame:
    """One sequent being solved: its variable binding, its stream of
    end-sequents and the instance search over the current end-sequent."""

    __slots__ = ("seq", "depth", "binding", "ends", "lits", "atoms", "steps")

    def __init__(self, seq: Sequent, depth: int, binding: dict[Var, Formula], ends):
        self.seq = seq
        self.depth = depth
        self.binding = binding
        self.ends = ends
        self.lits: tuple[Literal, ...] = ()  # the current end-sequent's modal literals
        self.atoms: dict[str, Fraction] | None = None  # and its atom values
        self.steps = None  # the instance search over `lits`, once started


def _check_signature(seq: Sequent, logic: OneStepLogic) -> None:
    for f, _ in seq.items():
        for sub in subformulas(f):
            if isinstance(sub, Modal) and not logic.supports(sub.op):
                raise ValueError(f"modality {sub.op} is not part of logic {logic.name!r}")


def sat(
    seq: Sequent,
    logic: OneStepLogic,
    caps: SolverCaps | None = None,
    stats: SolveStats | None = None,
    verify: bool | None = None,
    declared_atoms=(),
    trace: TraceFn | None = None,
) -> Verdict:
    """Decide satisfiability of an exact sequent over formulas.

    Returns a verdict carrying a checkable witness model on success.  With
    `verify` (defaulting to the interpreter's debug mode) the witness is
    model-checked against the input before returning.  `declared_atoms`
    extends the atom signature: every witness state gives them value 0
    unless an atom literal pins them, so they never change a verdict.
    `trace`, when given, receives every propositional rule application of
    every layer the solve saturates (see `prop_tableau.saturate`).  The
    counters and level tables of `stats` are kept only when it is given.
    """
    caps = caps or SolverCaps()
    if verify is None:
        verify = __debug__
    _check_signature(seq, logic)
    dag = WitnessDag(logic.kind, logic.space)
    defaults = {name: ZERO for name in sorted(set(declared_atoms))}
    memo: dict[Sequent, int | None] = {}  # sequent -> its DAG state, None if UNSAT
    # Checked against this solve's own depth: `stats` may carry another
    # solve's counters.
    depth_bound = max((modal_depth(f) for f, _ in seq.items()), default=0)

    def open_frame(current: Sequent, depth: int) -> _Frame:
        if depth > depth_bound:
            raise AssertionError("recursion exceeded the modal depth of the input")
        hook = None
        if stats is not None:
            stats.nodes += 1
            stats.max_depth = max(stats.max_depth, depth)
            stats._bump(stats.level_input_size, depth, current.combined_size())
            hook = partial(stats._bump, stats.level_peak_stack, depth)
        decomp = top_level_decompose(current)
        if len(decomp.variables) > caps.max_layer_literals:
            raise CapExceeded(
                f"{len(decomp.variables)} modal literals in one layer "
                f"(cap {caps.max_layer_literals})"
            )
        ends = saturate(decomp.lifted, trace=trace, stack_hook=hook)
        return _Frame(current, depth, decomp.binding, ends)

    def advance(frame: _Frame, state: int | None) -> Sequent | None:
        """Run the frame, the child `state` answering its pending request,
        until it asks for an unsolved child sequent (returned) or its
        verdict is in the memo (None returned)."""
        while True:
            if frame.steps is None:
                gamma = next(frame.ends, None)
                if gamma is None:
                    memo[frame.seq] = None
                    return None
                if stats is not None:
                    stats._bump(stats.level_peak_size, frame.depth, gamma.combined_size())
                # An end-sequent's labels are Modal(op, Var) or Atom, and
                # none of its intervals is empty (the Ax rule closed those).
                atoms, lits = dict(defaults), []
                for label, interval in gamma.items():
                    if isinstance(label, Modal):
                        lits.append((label.op, label.arg, interval))
                    else:
                        atoms[label.name] = interval.pick()
                frame.lits, frame.atoms = tuple(lits), atoms
                frame.steps = logic.search_steps(frame.lits)
                state = None
            try:
                q = frame.steps.send(state)
            except StopIteration as stop:
                frame.steps = None
                if stop.value is not None:
                    memo[frame.seq] = add_state(frame, stop.value)
                    return None
                continue
            child = substitute(q, frame.binding)
            if stats is not None:
                stats._bump(stats.level_peak_size, frame.depth, child.combined_size())
            if child not in memo:
                return child
            state = memo[child]

    def add_state(frame: _Frame, found: SearchSuccess) -> int:
        edges = found.conclusion.edges
        if stats is not None and logic.kind == "prob":
            support = sum(1 for w in edges if w != 0)
            stats.witness_branching.append((len(frame.lits), support))
        state = dag.add(edges, found.children, frame.atoms)
        for op, var, interval in frame.lits:
            formula = Modal(op, frame.binding[var])
            value = dag.value(state, formula)
            if not interval.contains(value):
                raise AssertionError(
                    f"witness state gives {formula} the value {value}, "
                    f"outside {interval}"
                )
        return state

    stack = [open_frame(seq, 0)]
    state = None
    while stack:
        frame = stack[-1]
        child = advance(frame, state)
        if child is not None:
            stack.append(open_frame(child, frame.depth + 1))
            state = None
            continue
        stack.pop()
        state = memo[frame.seq]

    root = memo[seq]
    result = Verdict(False)
    if root is not None:
        model = dag.witness(root)
        result = Verdict(True, model, model.root)
        # A fresh evaluation of the finished model, independent of the
        # values cached while it was built.
        if verify and not check_sequent(model, model.root, seq):
            raise AssertionError("witness model fails to satisfy the input sequent")
    return result


def sat_threshold(
    formula: Formula,
    comp: Comp,
    p: Fraction,
    logic: OneStepLogic,
    caps: SolverCaps | None = None,
    stats: SolveStats | None = None,
    verify: bool | None = None,
) -> Verdict:
    """Decide whether the formula attains a truth degree `comp p` somewhere."""
    interval = Interval.from_comparison(comp, p)
    seq = Sequent([(formula, interval)])
    return sat(seq, logic, caps=caps, stats=stats, verify=verify)
