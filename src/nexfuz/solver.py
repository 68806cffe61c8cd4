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
   children's states, to the solve's witness DAG, and record the modal
   literals of the end-sequent, each of which must evaluate there into its
   interval.

When the search ends, one fresh value table over the returned witness
checks the input's literals at its root (with `verify`), then the recorded
literals of every state the witness keeps, which the root's evaluation
has mostly computed already; the states it does not keep (children of a
failed parent, every state of an UNSAT solve) are checked in one fresh
table over the DAG.  So each subformula is evaluated once at each state.

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
    """Counters backing the space-shape assertions in the test suite.

    A level is a sequent's modal depth below the input, which is level 0.

    - `max_depth`: the deepest level solved;
    - `nodes`: the sequents solved, one per distinct sequent;
    - `level_input_size`: per level, the largest `combined_size()` of a
      sequent solved there;
    - `level_peak_size`: per level, the largest `combined_size()` of an
      end-sequent its saturation yielded (no child is larger);
    - `level_peak_stack`: per level, the highest depth of the saturation
      stack;
    - `witness_branching`: per probabilistic state added, the number of
      modal literals and the support size of its conclusion.

    One `SolveStats` passed to several solves adds up `nodes`, keeps the
    maximum of `max_depth` and, key by key, of each level table, and
    appends to `witness_branching`.  A solve stopped by `CapExceeded`
    leaves every value recorded up to the cap.
    """

    max_depth: int = 0
    nodes: int = 0
    level_input_size: dict[int, int] = field(default_factory=dict)
    level_peak_size: dict[int, int] = field(default_factory=dict)
    level_peak_stack: dict[int, int] = field(default_factory=dict)
    witness_branching: list[tuple[int, int]] = field(default_factory=list)


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

    Returns a verdict carrying a checkable witness model on success.  Every
    state the solve adds is checked, on a fresh value table after the
    search, under `python -O` too: each modal literal of the end-sequent it
    realizes must evaluate there into its interval.  With `verify` (the
    default) the same table over the finished witness first checks the
    input at its root.  A failed check raises `AssertionError`.
    `declared_atoms` extends the atom signature: every witness state, the
    probabilistic `sink` included, gives them value 0 unless an atom literal
    pins them, so they never change a verdict.
    `trace`, when given, receives every propositional rule application of
    every layer the solve saturates (see `prop_tableau.saturate`).  The
    counters and level tables of `stats` are kept only when it is given.
    """
    caps = caps or SolverCaps()
    _check_signature(seq, logic)
    dag = WitnessDag(logic.kind, logic.space, declared_atoms)
    memo: dict[Sequent, int | None] = {}  # sequent -> its DAG state, None if UNSAT
    added = []  # (DAG state, its end-sequent's modal literals), checked after the search
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
            if depth > stats.max_depth:
                stats.max_depth = depth
            size, table = current.combined_size(), stats.level_input_size
            if table.get(depth, -1) < size:
                table[depth] = size
            # The saturation stack's rising depths; the last is its peak.
            peaks = []
            hook = peaks.append
        for gamma in saturate(current, trace=trace, stack_hook=hook):
            if stats is not None:
                # No child built below is larger than its end-sequent.  Its
                # size is cached: at a level with no propositional rule
                # left, `gamma` is `current`.
                size, table = gamma.combined_size(), stats.level_peak_size
                if table.get(depth, -1) < size:
                    table[depth] = size
                table = stats.level_peak_stack
                if table.get(depth, -1) < peaks[-1]:
                    table[depth] = peaks[-1]
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
            added.append((state, modals))
            return state
        if stats is not None:
            # The stack may have risen after the last end-sequent.
            table = stats.level_peak_stack
            if table.get(depth, -1) < peaks[-1]:
                table[depth] = peaks[-1]
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
    names = {}
    result = Verdict(False)
    if root is not None:
        model, names = dag.extract(root)
        result = Verdict(True, model, model.root)
        kept = [(names[x], label, interval)
                for x, modals in added if x in names for label, interval in modals]
        _check_witness(model, model.root, seq if verify else Sequent(), kept)
    rest = [(x, label, interval)
            for x, modals in added if x not in names for label, interval in modals]
    if rest:
        _check_witness(dag.model, rest[0][0], Sequent(), rest)
    return result


def _check_witness(model: FiniteModel, state, seq: Sequent, checks: list) -> None:
    """Raise `AssertionError` unless `check_sequent` passes.  A failure names
    the first `(state, label, interval)` of `checks` outside its interval,
    evaluated on `model`'s own table, which the solve never fills; with none
    of them outside, it is the input sequent's."""
    if check_sequent(model, state, seq, checks):
        return
    for x, label, interval in checks:
        value = eval_formula(model, x, label)
        if not interval.contains(value):
            raise AssertionError(
                f"witness state gives {label} the value {value}, outside {interval}"
            )
    raise AssertionError("witness model fails to satisfy the input sequent")


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
