"""One-step layer: decomposition and the pluggable modal rule API.

A sequent over formulas is split into a propositional part over fresh truth
variables (one per outermost modal occurrence) plus a binding of those
variables to the guarded subformulas.  The solver splits each saturated
end-sequent once into its atom values and its modal literals, `(op,
interval)` pairs, keeping each literal's bound argument formula itself.
Instance logics consume those literals and produce *conclusions*: lists of
successor states, each given by its *cells*, one interval per literal in
literal order bounding the successor's value of that literal's argument,
with the root's edges to those states.  The edges depend on the conclusion
alone, never on the successors' actual truth values.  The search for a
conclusion whose successors are all satisfiable is a generator the solver
drives (`OneStepLogic.search_steps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterator

from .numerics import Interval
from .sequents import Sequent, SequentError
from .syntax import And, Atom, Formula, Minus, Modal, ModalOp, Neg, Var, Zero

# One modal literal of an end-sequent: Modal(op, v) in interval, for a
# variable v the instance never sees.
Literal = tuple[ModalOp, Interval]

# One successor state of a conclusion: an interval per literal, in literal
# order, bounding the state's value of that literal's argument.
Cells = tuple[Interval, ...]


@dataclass(frozen=True)
class Decomposition:
    binding: dict[Var, Formula]  # in order of occurrence
    lifted: Sequent


def top_level_decompose(seq: Sequent) -> Decomposition:
    """Replace each outermost modal argument with a fresh variable.

    Fresh variables are numbered v1, v2, ... in left-to-right order over the
    sequent's literals, one per modal occurrence even when arguments repeat.
    Atoms are nullary and stay in place.
    """
    binding: dict[Var, Formula] = {}

    def rewrite(f: Formula) -> Formula:
        # Post-order over the propositional layer with an explicit stack:
        # `todo` holds nodes to visit (False) or to rebuild (True), `done`
        # the rewritten children, left before right.
        todo: list[tuple[Formula, bool]] = [(f, False)]
        done: list[Formula] = []
        while todo:
            g, rebuild = todo.pop()
            if rebuild:
                if isinstance(g, Neg):
                    done.append(Neg(done.pop()))
                elif isinstance(g, Minus):
                    done.append(Minus(done.pop(), g.c))
                else:
                    right = done.pop()
                    done.append(And(done.pop(), right))
            elif isinstance(g, Modal):
                v = Var(f"v{len(binding) + 1}")
                binding[v] = g.arg
                done.append(Modal(g.op, v))
            elif isinstance(g, (Zero, Atom)):
                done.append(g)
            elif isinstance(g, (Neg, Minus)):
                todo += [(g, True), (g.arg, False)]
            elif isinstance(g, And):
                todo += [(g, True), (g.right, False), (g.left, False)]
            elif isinstance(g, Var):
                raise SequentError("input formulas must not contain truth variables")
            else:
                raise TypeError(f"not a formula: {g!r}")
        return done[0]

    lifted = Sequent((rewrite(f), i) for f, i in seq.items())
    return Decomposition(binding, lifted)


# ---------------------------------------------------------------------------
# Modal rule API
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Conclusion:
    """One alternative of a modal rule: the cells of each successor state,
    and the root's edge to each, in the encoding of the
    logic's model kind: a weight ("prob"), a degree ("fuzzyrel") or a
    (label, degree) pair ("metric"/"metric-crisp").  Probabilistic edges
    may number one more, to an inert dummy successor, so that they sum to 1.

    Whatever truth values the successors take inside their cells, every
    literal of the premise evaluates on these edges into its interval.  The
    solver checks this for every state it adds, so an instance need not
    re-check it.
    """

    cells: tuple[Cells, ...]
    edges: tuple


@dataclass
class SearchSuccess:
    conclusion: Conclusion
    children: list[int]  # the witness-DAG state of each successor


# Yields the cells of successors, receives their states (None:
# unsatisfiable), returns the result.
SearchSteps = Generator[Cells, "int | None", "SearchSuccess | None"]


class OneStepLogic:
    """A pluggable instance logic: the modal rule and its search."""

    name: str = "?"
    kind: str = "?"
    space = None  # metric label space, for the metric instances only

    def supports(self, op: ModalOp) -> bool:
        raise NotImplementedError

    def conclusions(self, lits: tuple[Literal, ...]) -> Iterator[Conclusion]:
        """Lazily enumerate the conclusions of the modal rule for `lits`.

        `lits` are the modal literals of a saturated end-sequent, in literal
        order.  The solver guarantees their shape: operators the logic
        supports (the input's signature is checked) and non-empty intervals
        (the tableau's axiom rule closes every empty literal).  Their
        arguments are distinct variables, one per modal occurrence, so a
        successor's value of one literal's argument is independent of the
        others'.
        """
        raise NotImplementedError

    def search_steps(self, lits: tuple[Literal, ...]) -> SearchSteps:
        """Find a conclusion whose successors are all satisfiable.

        This is the search protocol between an instance logic and the
        solver.  `lits` are the modal literals of an end-sequent, as for
        `conclusions` (the solver pins its atom literals itself).  The
        search is a generator:

        * it yields a successor's cells whenever it needs to know whether
          some state has its literals' arguments' values in those cells;
        * the solver sends back such a state in the witness DAG, or None
          when there is none.  State 0 is a state, so a search tests `is
          None`, never truthiness;
        * it returns a `SearchSuccess` naming the conclusion and the states
          of its successors, in order, or None when no conclusion has all
          its successors satisfiable.

        The solver drives every generator from one loop with an explicit
        stack, so the search depth is never bounded by Python recursion;
        an implementation must not call back into the solver itself.

        The default iterates `conclusions` in order and yields each
        conclusion's cells until one fails.  Instances may override it
        with an equivalent decision procedure when plain enumeration is too
        large, preserving the verdict.
        """
        for conclusion in self.conclusions(lits):
            children = []
            for cells in conclusion.cells:
                state = yield cells
                if state is None:
                    break
                children.append(state)
            else:
                return SearchSuccess(conclusion, children)
        return None
