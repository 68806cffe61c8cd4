"""One-step layer: decomposition, substitution, the pluggable modal rule API.

A sequent over formulas is split into a propositional part over fresh truth
variables (one per outermost modal occurrence) plus a binding of those
variables to the guarded subformulas.  Instance logics consume saturated
end-sequents over modal labels and produce *conclusions*: alternative lists
of exact sequents over the variables describing admissible successor states,
each with a transition structure over those states.  That structure depends
on the conclusion alone, never on the successors' actual truth values.  The
search for a conclusion whose successor sequents are all satisfiable is a
generator the solver drives (`OneStepLogic.search_steps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterator, Sequence

from .numerics import Interval, UNIT
from .sequents import Sequent, SequentError
from .syntax import And, Atom, Formula, Minus, Modal, ModalOp, Neg, Var, Zero


@dataclass(frozen=True)
class Decomposition:
    variables: tuple[Var, ...]
    binding: dict[Var, Formula]
    lifted: Sequent


def top_level_decompose(seq: Sequent) -> Decomposition:
    """Replace each outermost modal argument with a fresh variable.

    Fresh variables are numbered v1, v2, ... in left-to-right order over the
    sequent's literals, one per modal occurrence even when arguments repeat.
    Atoms are nullary and stay in place.
    """
    variables: list[Var] = []
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
                v = Var(f"v{len(variables) + 1}")
                variables.append(v)
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
    return Decomposition(tuple(variables), binding, lifted)


def substitute(q: Sequent, binding: dict[Var, Formula]) -> Sequent:
    """Replace variables by their bound formulas, intersecting on collisions."""
    out = Sequent()
    for label, interval in q.items():
        if not isinstance(label, Var):
            raise SequentError(f"expected a variable label, found {label!r}")
        out = out.insert(binding[label], interval)
    return out


# ---------------------------------------------------------------------------
# Transition witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionWitness:
    """Root transition structure realizing a conclusion.

    `kind` matches the finite-model kinds.  `edges` is per successor state:
    a probability weight ("prob"), a fuzzy degree ("fuzzyrel"), or a
    (label, degree) pair ("metric"/"metric-crisp").  For the probabilistic
    kind the edge list may be longer than the conclusion (a single inert
    dummy successor) so that the weights can sum to one.
    """

    kind: str
    edges: tuple


# ---------------------------------------------------------------------------
# Modal rule API
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Conclusion:
    """One alternative of a modal rule: a list of variable sequents, one per
    successor state, and the transition structure over those states.

    Whatever truth values the successors take inside their sequents, every
    literal of the premise evaluates on `witness` into its interval.  The
    solver checks this for every state it adds, so an instance need not
    re-check it.
    """

    sequents: tuple[Sequent, ...]
    witness: TransitionWitness


@dataclass
class SearchSuccess:
    conclusion: Conclusion
    children: list[int]  # the witness-DAG state of each conclusion sequent


# Yields child sequents, receives their states (None: unsatisfiable),
# returns the result.
SearchSteps = Generator[Sequent, "int | None", "SearchSuccess | None"]


class OneStepLogic:
    """A pluggable instance logic: the modal rule and its search."""

    name: str = "?"
    kind: str = "?"
    space = None  # metric label space, for the metric instances only

    def supports(self, op: ModalOp) -> bool:
        raise NotImplementedError

    def conclusions(self, gamma: Sequent) -> Iterator[Conclusion]:
        """Lazily enumerate the conclusions of the modal rule for `gamma`.

        `gamma` is an exact sequent whose labels are all of the form
        Modal(op, Var); the conclusions are exact over the variables.
        """
        raise NotImplementedError

    def search_steps(self, gamma: Sequent) -> SearchSteps:
        """Find a conclusion whose sequents are all satisfiable.

        This is the search protocol between an instance logic and the
        solver.  `gamma` holds the modal literals of an end-sequent (the
        solver pins its atom literals itself).  The search is a generator:

        * it yields a variable sequent whenever it needs to know whether
          the successor state that sequent describes is satisfiable;
        * the solver sends back that successor's state in the witness DAG,
          or None when the sequent is unsatisfiable.  State 0 is a state,
          so a search tests `is None`, never truthiness;
        * it returns a `SearchSuccess` naming the conclusion and the states
          of its sequents, in order, or None when no conclusion has all its
          sequents satisfiable.

        The solver drives every generator from one loop with an explicit
        stack, so the search depth is never bounded by Python recursion;
        an implementation must not call back into the solver itself.

        The default iterates `conclusions` in order and yields each
        conclusion's sequents until one fails.  Instances may override it
        with an equivalent decision procedure when plain enumeration is too
        large, preserving the verdict.
        """
        for conclusion in self.conclusions(gamma):
            children = []
            for q in conclusion.sequents:
                state = yield q
                if state is None:
                    break
                children.append(state)
            else:
                return SearchSuccess(conclusion, children)
        return None


def split_atoms(gamma: Sequent) -> tuple[list[tuple[str, Interval]], Sequent]:
    """Separate atom literals from modal literals."""
    atoms: list[tuple[str, Interval]] = []
    modal = Sequent()
    for label, interval in gamma.items():
        if isinstance(label, Atom):
            atoms.append((label.name, interval))
        elif isinstance(label, Modal):
            modal = modal.insert(label, interval)
        else:
            raise SequentError(f"end-sequent label is neither modal nor atom: {label!r}")
    return atoms, modal


def modal_literals(gamma: Sequent) -> list[tuple[ModalOp, Var, Interval]]:
    """Unpack an end-sequent over Modal(op, Var) labels, in literal order."""
    out = []
    for label, interval in gamma.items():
        if not isinstance(label, Modal) or not isinstance(label.arg, Var):
            raise SequentError(f"not a one-layer modal label: {label!r}")
        out.append((label.op, label.arg, interval))
    return out


def exact_over_vars(intervals: dict[Var, Interval], variables: Sequence[Var]) -> Sequent:
    """Build a variable sequent total over `variables` (default full interval)."""
    return Sequent((v, intervals.get(v, UNIT)) for v in variables)
