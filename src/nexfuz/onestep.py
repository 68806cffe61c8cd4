"""The one-step layer: the pluggable modal rule API.

The solver saturates each sequent's propositional layer, whose leaves are
its atoms and its modal formulas, and splits each open end-sequent once
into its atom values and its modal literals: a label `Modal(op, arg)` in an
interval is the literal `(op, interval)`, and `arg` is what the literal's
successors bound.  Equal modal formulas share one label, so a layer's
literals are distinct, but two of them may share an argument.  Instance
logics consume the literals and produce *conclusions*: lists of successor
states, each given by its *cells*, one interval per literal in literal
order bounding the successor's value of that literal's argument, with the
root's edges to those states.  The edges depend on the conclusion alone,
never on the successors' actual truth values.  The search for a conclusion
whose successors are all satisfiable is a generator the solver drives
(`OneStepLogic.search_steps`).
"""

from __future__ import annotations

from typing import Generator, Iterator

from .numerics import Interval
from .records import Record, Value
from .syntax import ModalOp

# One modal literal of an end-sequent: Modal(op, arg) in interval, for an
# argument the instance never sees.
Literal = tuple[ModalOp, Interval]

# One successor state of a conclusion: an interval per literal, in literal
# order, bounding the state's value of that literal's argument.
Cells = tuple[Interval, ...]


class Conclusion(Value):
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

    __slots__ = _fields = ("cells", "edges")

    def __init__(self, cells: tuple[Cells, ...], edges: tuple):
        self.cells, self.edges = cells, edges


class SearchSuccess(Record):
    __slots__ = _fields = ("conclusion", "children")

    def __init__(self, conclusion: Conclusion, children: list[int]):
        self.conclusion = conclusion
        self.children = children  # the witness-DAG state of each successor


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
        (the tableau's axiom rule closes every empty literal).  The
        instance never sees their arguments and treats each literal's cell
        as independent of the others'; where two literals share an
        argument, the solver meets their cells by intersection in the
        child sequent.
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
