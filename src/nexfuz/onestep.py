"""One-step layer: decomposition, substitution, the pluggable modal rule API.

A sequent over formulas is split into a propositional part over fresh truth
variables (one per outermost modal occurrence) plus a binding of those
variables to the guarded subformulas.  Instance logics consume saturated
end-sequents over modal labels and produce *conclusions*: alternative lists
of exact sequents over the variables describing admissible successor states,
together with a `realize` construction that turns concrete successor truth
values into an actual transition structure.  The search for a conclusion
whose successor sequents are all satisfiable is a generator the solver
drives (`OneStepLogic.search_steps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Generator, Iterator, Sequence

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
    """Root transition structure produced by `realize`.

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
    """One alternative of a modal rule: an indexed list of variable sequents."""

    index: int
    sequents: tuple[Sequent, ...]
    data: object = None  # instance-specific payload for realize


ChildSolver = Callable[[Sequent], "object"]
# `OneStepLogic.search` takes a callable mapping a variable sequent to a
# child outcome, the object `search_steps` receives for it (see there).


@dataclass
class SearchSuccess:
    conclusion: Conclusion
    children: list  # one child outcome per conclusion sequent


# Yields child sequents, receives child outcomes, returns the result.
SearchSteps = Generator[Sequent, object, "SearchSuccess | None"]


class OneStepLogic:
    """A pluggable instance logic: modal rule enumeration plus realize."""

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

    def realize(
        self,
        gamma: Sequent,
        conclusion: Conclusion,
        tau: Callable[[int, Var], Fraction],
    ) -> TransitionWitness:
        """Build a transition structure over the conclusion's states.

        `tau(j, v)` is the actual truth value of v's bound formula at state
        j; values are guaranteed to lie inside conclusion.sequents[j][v].
        The solver checks every state it realizes: each literal of `gamma`,
        evaluated on the structure, must lie in its interval, so an
        instance need not re-check it.
        """
        raise NotImplementedError

    def search_steps(self, gamma: Sequent) -> SearchSteps:
        """Find a conclusion whose sequents are all satisfiable.

        This is the search protocol between an instance logic and the
        solver.  `gamma` holds the modal literals of an end-sequent (the
        solver pins its atom literals itself).  The search is a generator:

        * it yields a variable sequent whenever it needs to know whether
          the successor state that sequent describes is satisfiable;
        * the solver sends back a *child outcome* for each yielded sequent:
          `outcome.sat` tells whether it is satisfiable and, when it is,
          `outcome.value_of(var)` is the exact truth value, at the child
          witness state, of the formula the variable stands for;
        * it returns a `SearchSuccess` naming the conclusion and the
          outcomes of its sequents, in order, or None when no conclusion
          has all its sequents satisfiable.

        The solver drives every generator from one loop with an explicit
        stack, so the search depth is never bounded by Python recursion;
        an implementation must not call back into the solver itself.  The
        values an outcome reports are the ones `realize` later receives as
        `tau`.

        The default iterates `conclusions` in order and yields each
        conclusion's sequents until one fails.  Instances may override it
        with an equivalent decision procedure when plain enumeration is too
        large, preserving the verdict.
        """
        for conclusion in self.conclusions(gamma):
            children = []
            for q in conclusion.sequents:
                outcome = yield q
                if not outcome.sat:
                    break
                children.append(outcome)
            else:
                return SearchSuccess(conclusion, children)
        return None

    def search(self, gamma: Sequent, solve_child: ChildSolver) -> SearchSuccess | None:
        """Run `search_steps`, answering each yielded sequent with
        `solve_child`, so that tests can run a search on its own."""
        steps = self.search_steps(gamma)
        try:
            q = next(steps)
            while True:
                q = steps.send(solve_child(q))
        except StopIteration as stop:
            return stop.value


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
