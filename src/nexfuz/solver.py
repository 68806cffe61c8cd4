"""Satisfiability with witness extraction.

The decision procedure, per modal level:

1. saturate the sequent's propositional layer, whose leaves are its atoms
   and its modal formulas, enumerating open end-sequents;
2. split each end-sequent once into atom values and `(op, interval)` modal
   literals, one per label `Modal(op, arg)`, each keeping its argument;
3. ask the instance logic for a conclusion over those literals whose
   successors are all satisfiable: each successor's cells, one interval
   per literal, bound the literals' arguments, so its child sequent pairs
   each argument with its cell (literals may share an argument, and then
   its cells meet by intersection);
4. on success, add a state with the conclusion's edges, over the
   children's states, to the solve's witness DAG, and check that every
   modal literal of the end-sequent evaluates there into its interval.

Each sequent is solved by one generator, `solve` in `sat`: it saturates the
layer, splits each end-sequent and drives the instance search (see
`OneStepLogic.search_steps`), yielding each child sequent not solved yet
and being sent back that child's state.  The generators of the sequents
being solved sit on an explicit stack, one per modal level, so the depth
is bounded by the modal depth of the input, never by the interpreter's
recursion limit.  Every distinct sequent is solved once, and each
satisfiable one is one state of the witness DAG.  All nondeterminism is
resolved by exhaustive, deterministically ordered backtracking, so verdicts
and witnesses are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Generator

from .lp import CapExceeded
from .models import FiniteModel, WitnessDag, check_sequent, eval_formula
from .numerics import Comp, Interval
from .onestep import OneStepLogic
from .prop_tableau import TraceFn, saturate
from .records import Record
from .sequents import Sequent
from .syntax import Formula, Modal, modal_depth, subformulas


# The memo's answer for a sequent not solved yet (None means UNSAT).
_UNSOLVED = object()


class SolverCaps(Record):
    """Explicit limits; exceeding one raises CapExceeded, never UNSAT."""

    __slots__ = _fields = ("max_layer_literals",)

    def __init__(self, max_layer_literals: int = 8):
        # distinct modal literals of one end-sequent
        self.max_layer_literals = max_layer_literals


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


class Verdict(Record):
    __slots__ = _fields = ("sat", "model", "state")

    def __init__(self, sat: bool, model: FiniteModel | None = None, state: str | None = None):
        self.sat, self.model, self.state = sat, model, state

    def __bool__(self) -> bool:
        return self.sat


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
    verify: bool = True,
    declared_atoms=(),
    trace: TraceFn | None = None,
) -> Verdict:
    """Decide satisfiability of an exact sequent over formulas.

    Returns a verdict carrying a checkable witness model on success.  With
    `verify` (the default) the finished witness is model-checked against
    the input on a fresh value table before returning, under `python -O`
    too; a witness that fails raises `AssertionError`.  `declared_atoms`
    extends the atom signature: every witness state, the probabilistic
    `sink` included, gives them value 0 unless an atom literal pins them,
    so they never change a verdict.
    `trace`, when given, receives every propositional rule application of
    every layer the solve saturates (see `prop_tableau.saturate`).  The
    counters and level tables of `stats` are kept only when it is given.
    """
    caps = caps or SolverCaps()
    _check_signature(seq, logic)
    dag = WitnessDag(logic.kind, logic.space, declared_atoms)
    memo: dict[Sequent, int | None] = {}  # sequent -> its DAG state, None if UNSAT
    # Checked against this solve's own depth: `stats` may carry another
    # solve's counters.
    depth_bound = max((modal_depth(f) for f, _ in seq.items()), default=0)

    def solve(current: Sequent, depth: int) -> Generator[Sequent, int | None, int | None]:
        """The solve of one sequent, as a generator: it yields each child
        sequent not solved yet and is sent back that child's state (None:
        unsatisfiable); it returns the sequent's own state, or None."""
        if depth > depth_bound:
            raise AssertionError("recursion exceeded the modal depth of the input")
        hook = None
        if stats is not None:
            stats.nodes += 1
            stats.max_depth = max(stats.max_depth, depth)
            stats._bump(stats.level_input_size, depth, current.combined_size())
            hook = partial(stats._bump, stats.level_peak_stack, depth)
        for gamma in saturate(current, trace=trace, stack_hook=hook):
            if stats is not None:
                # No child built below is larger than its end-sequent.
                stats._bump(stats.level_peak_size, depth, gamma.combined_size())
            # An end-sequent's labels are Modal or Atom, and none of its
            # intervals is empty (the Ax rule closed those).
            atoms, modals, lits, args = {}, [], [], []
            for label, interval in gamma.items():
                if isinstance(label, Modal):
                    modals.append((label, interval))
                    lits.append((label.op, interval))
                    args.append(label.arg)
                else:
                    atoms[label.name] = interval.pick()
            if len(lits) > caps.max_layer_literals:
                raise CapExceeded(
                    f"{len(lits)} modal literals in one end-sequent "
                    f"(cap {caps.max_layer_literals})"
                )
            steps = logic.search_steps(tuple(lits))
            state = None
            while True:
                try:
                    cells = steps.send(state)
                except StopIteration as stop:
                    found = stop.value
                    break
                # Arguments may repeat: their cells meet by intersection.
                child = Sequent(zip(args, cells))
                state = memo.get(child, _UNSOLVED)
                if state is _UNSOLVED:
                    state = yield child
            if found is None:
                continue
            edges = found.conclusion.edges
            if stats is not None and logic.kind == "prob":
                support = sum(1 for w in edges if w != 0)
                stats.witness_branching.append((len(lits), support))
            state = dag.add(edges, found.children, atoms)
            for label, interval in modals:
                value = eval_formula(dag.model, state, label)
                if not interval.contains(value):
                    raise AssertionError(
                        f"witness state gives {label} the value {value}, outside {interval}"
                    )
            return state
        return None

    # The depth-first recursion over child sequents, on an explicit stack of
    # (sequent, solve) pairs, so it is never bounded by the interpreter's
    # recursion limit.
    stack = [(seq, solve(seq, 0))]
    state = None
    while stack:
        current, steps = stack[-1]
        try:
            child = steps.send(state)
        except StopIteration as stop:
            stack.pop()
            state = memo[current] = stop.value
            continue
        stack.append((child, solve(child, len(stack))))
        state = None

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
    verify: bool = True,
) -> Verdict:
    """Decide whether the formula attains a truth degree `comp p` somewhere."""
    interval = Interval.from_comparison(comp, p)
    seq = Sequent([(formula, interval)])
    return sat(seq, logic, caps=caps, stats=stats, verify=verify)
