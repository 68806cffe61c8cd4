"""Finite models: construction, validation, exact evaluation, witnesses.

A model is a finite coalgebra of one of four kinds plus an atom valuation:

* "prob":          per-state finite-support probability distribution;
* "fuzzyrel":      rational transition degree per state pair (sparse);
* "metric":        per-state labelled fuzzy edges over a metric label space;
* "metric-crisp":  as "metric" with degrees restricted to {0, 1}.

Evaluation is exact, bottom-up and set-at-a-time: one subformula over a set
of states per step.  It is memoized in the model's own value table, shared
by every `eval_formula` call on that model.  Every entry but the scale is a
dict of `int` numerators over that one scale, which starts at 1 and only
grows: one column per subformula, and each state's successor row, stored on
its first read.  `Fraction` stays at the boundary.  The table is sound
because a model is not changed after its first evaluation; the one model
that is, a `WitnessDag`'s, only gains states.  A solve grows its witness in
a `WitnessDag`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import lcm
from operator import attrgetter

from . import jsonfile
from .liftings import diamond_sweep, generally_sweep, metric_diamond_sweep, more_than_sweep
from .metricspace import MetricSpace, MetricSpaceError
from .numerics import ONE, ZERO, format_rational, parse_rational
from .sequents import Sequent
from .syntax import (
    And,
    Atom,
    Diamond,
    Formula,
    Generally,
    Minus,
    Modal,
    MetricDiamond,
    MoreThan,
    Neg,
    Zero,
)

KINDS = ("prob", "fuzzyrel", "metric", "metric-crisp")
# `eval_formula`'s results: equal values, recently made, share one object.
_fraction = lru_cache(maxsize=256)(Fraction)
_denominator = attrgetter("denominator")


class ModelError(ValueError):
    pass


def _check_unit(rows, what: str) -> None:
    """Raise `ModelError` unless every value of the dicts `rows` is an exact
    rational (a `Fraction` or an `int`; a float is refused) in [0, 1],
    compared in `int`.  Each distinct value object is read once: the values
    of a model read from JSON share their objects (see `parse_rational`)."""
    for v in {id(v): v for row in rows for v in row.values()}.values():
        if not isinstance(v, (Fraction, int)):
            raise ModelError(f"{v!r} is not an exact rational")
        n, d = v.as_integer_ratio()
        if not 0 <= n <= d:
            raise ModelError(f"{what} {v} outside [0, 1]")


def _check_distribution(row: dict, what: str) -> None:
    """Raise `ModelError` unless the weights of `row` sum to 1, summed as
    `int` numerators over their LCM; the `Fraction` total is built only
    for the message."""
    den = lcm(*(q.denominator for q in row.values()))
    if sum(q.numerator * (den // q.denominator) for q in row.values()) != den:
        raise ModelError(f"{what} sums to {sum(row.values(), ZERO)}, not 1")


@dataclass
class FiniteModel:
    kind: str
    states: tuple[str, ...]
    # prob/fuzzyrel: {state: {successor: degree}};
    # metric kinds:  {state: {(label, successor): degree}}
    trans: dict
    atoms: dict[str, dict[str, Fraction]]
    space: MetricSpace | None = None
    root: str | None = None
    # Caches that evaluation fills (`values` is `eval_formula`'s table); a model is
    # not changed after its first evaluation.  Not init fields, so `dataclasses.replace`
    # starts a model afresh; not compared, so equality ignores them.
    values: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _state_set: frozenset | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ModelError("duplicate state names")
        metric = self.kind in ("metric", "metric-crisp")
        if metric and self.space is None:
            raise ModelError("metric models need a metric space")
        if self.root is not None and (not isinstance(self.root, str) or self.root not in state_set):
            raise ModelError(f"root {self.root!r} is not a state name")
        label_set = set(self.space.labels) if metric else ()
        _check_unit(self.trans.values(), "transition degree")
        for x, row in self.trans.items():
            if x not in state_set:
                raise ModelError(f"transition from unknown state {x!r}")
            if not metric:
                for y in row:
                    if y not in state_set:
                        raise ModelError(f"transition to unknown state {y!r}")
                continue
            for (label, y), degree in row.items():
                if y not in state_set:
                    raise ModelError(f"transition to unknown state {y!r}")
                if label not in label_set:
                    raise MetricSpaceError(f"unknown label {label!r}")
                if self.kind == "metric-crisp" and degree not in (ZERO, ONE):
                    raise ModelError("crisp transition degree must be 0 or 1")
        if self.kind == "prob":
            for x in self.states:
                _check_distribution(self.trans.get(x, {}), f"distribution at {x!r}")
        for x in self.atoms:
            if x not in state_set:
                raise ModelError(f"atom valuation at unknown state {x!r}")
        _check_unit(self.atoms.values(), "atom value")

    def has_state(self, state) -> bool:
        """Whether `state` is a state of the model, in O(1).  A state with a
        transition row answers without building the state set, so neither
        a witness nor a `WitnessDag`'s growing model ever builds it."""
        if state in self.trans:
            return True
        if self._state_set is None:
            self._state_set = frozenset(self.states)
        return state in self._state_set

    def atom_value(self, state: str, name: str) -> Fraction:
        try:
            return self.atoms[state][name]
        except KeyError:
            raise ModelError(f"atom {name!r} undefined at state {state!r}") from None

    def successors(self, state: str) -> dict:
        return self.trans.get(state, {})

    # -- JSON -----------------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind in ("prob", "fuzzyrel"):
            trans = {
                x: {y: format_rational(d) for y, d in row.items()}
                for x, row in self.trans.items()
            }
        else:
            trans = {
                x: [
                    {"label": label, "to": y, "deg": format_rational(d)}
                    for (label, y), d in row.items()
                ]
                for x, row in self.trans.items()
            }
        out = {
            "kind": self.kind,
            "states": list(self.states),
            "trans": trans,
            "atoms": {
                x: {a: format_rational(v) for a, v in row.items()}
                for x, row in self.atoms.items()
            },
        }
        if self.space is not None:
            out["metric"] = self.space.to_json()
        if self.root is not None:
            out["root"] = self.root
        return out

    @staticmethod
    def from_json(data: dict) -> FiniteModel:
        try:
            kind = data["kind"]
            states = data["states"]
            raw_trans = data["trans"]
            raw_atoms = data.get("atoms", {})
        except (TypeError, KeyError) as exc:
            raise ModelError("model JSON needs kind/states/trans") from exc
        if not isinstance(states, list) or not all(isinstance(x, str) for x in states):
            raise ModelError("model JSON 'states' must be a list of state names")
        if kind not in KINDS:
            # Before the rows, whose format depends on the kind.
            raise ModelError(f"unknown model kind {kind!r}")
        space = None
        if "metric" in data:
            space = MetricSpace.from_json(data["metric"])
        try:
            if kind in ("prob", "fuzzyrel"):
                trans = {
                    x: _parse_row(x, "transition degree", row.items())
                    for x, row in raw_trans.items()
                }
            else:
                trans = {x: _parse_edges(x, row) for x, row in raw_trans.items()}
            atoms = {
                x: _parse_row(x, "atom value", row.items()) for x, row in raw_atoms.items()
            }
        except (AttributeError, TypeError, KeyError) as exc:
            raise ModelError(
                "model JSON rows must map states to degrees (metric edges: "
                f"'label', 'to', 'deg'); malformed entry: {exc!r}"
            ) from exc
        model = FiniteModel(kind, tuple(states), trans, atoms, space, data.get("root"))
        model.validate()
        return model

    @staticmethod
    def load(path: str) -> FiniteModel:
        """The model in a JSON file; a repeated key in any object raises
        `ValueError`."""
        return FiniteModel.from_json(jsonfile.load(path))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


def _parse_row(x, what: str, items) -> dict:
    """The (key, text) pairs of state x's JSON row as {key: rational}.  A
    text that is not a string is reported with the state and the value."""
    try:
        return {key: parse_rational(text) for key, text in items}
    except (AttributeError, TypeError):
        for _, text in items:
            if not isinstance(text, str):
                raise ModelError(
                    f"{what} at state {x!r} must be a rational string, not {text!r}"
                ) from None
        raise


def _parse_edges(x, edges) -> dict:
    """State x's JSON list of metric edges as {(label, target): degree}.  Two
    edges with one label and one target raise `ModelError`."""
    items = [((e["label"], e["to"]), e["deg"]) for e in edges]
    row = _parse_row(x, "transition degree", items)
    if len(row) < len(items):
        seen = set()
        for (label, y), _ in items:
            if (label, y) in seen:
                raise ModelError(f"two edges at state {x!r} with label {label!r} to {y!r}")
            seen.add((label, y))
    return row


def eval_formula(model: FiniteModel, state: str, formula: Formula) -> Fraction:
    """Exact truth degree of `formula` at `state`.

    Values are memoized in the model's own table `model.values`, so repeated
    calls on one model share every value computed before.  This relies on
    the model not being changed after its first evaluation (a `WitnessDag`
    only adds states, which leaves the values at existing states as they
    are); `dataclasses.replace(model)` is the same model with an empty table.

    Every entry of the table but one is a dict of `int` numerators over one
    scale D, which the table keeps under the key None: 1 when the table
    starts, then grown, with every numerator, to fit each atom value, edge
    degree, distance or formula constant read.  The operators take only
    min, 1 - x, x - c, mass sums and reach - distance, so values lie in
    (1/D)Z.  Each subformula f has its column, `table[f] = {state: value}`;
    each state x read under a modal operator has its row, `table[x, None] =
    {successor key: edge numerator}`, stored on its first read.

    Evaluation runs bottom-up, one subformula over a set of states at a
    time, on an explicit stack, so formula depth is not bounded by the
    interpreter's recursion limit.  An entry (f, states) holds the states
    f is missing at.  When it is first popped it pushes a marker for itself,
    then each child with the states that child is missing at: the
    successors of those states under a modal operator, the same states
    otherwise.  When the marker is popped the children's columns hold those
    states, and one loop computes f at all of them.  A subformula shared by
    two parents may be pushed by both; a state computed twice gets the
    same value.
    """
    if not model.has_state(state):
        raise ModelError(f"unknown state {state!r}")
    memo = model.values
    memo.setdefault(None, 1)
    column = memo.get(formula)
    if column is not None and state in column:
        return _fraction(column[state], memo[None])
    plain = model.kind in ("prob", "fuzzyrel")
    stack = [(formula, [state], False)]
    while stack:
        f, xs, ready = stack.pop()
        if ready:
            column = memo.get(f)
            if column is None:
                column = memo[f] = {}
            if isinstance(f, Modal):
                _fill_modal(model, memo, f, xs, column)
            else:
                _fill(model, memo, f, xs, column)
            continue
        stack.append((f, xs, True))
        if isinstance(f, Modal):
            targets = []
            for x in xs:
                keys = model.trans.get(x, ())
                targets += keys if plain else [y for _, y in keys]
            children = ((f.arg, dict.fromkeys(targets)),)
        elif isinstance(f, (Neg, Minus)):
            children = ((f.arg, xs),)
        elif isinstance(f, And):
            children = ((f.right, xs), (f.left, xs))
        else:
            continue
        for g, ys in children:
            done = memo.get(g)
            ys = [y for y in ys if y not in done] if done else list(ys)
            if ys:
                stack.append((g, ys, False))
    return _fraction(memo[formula][state], memo[None])


def _scaled(memo: dict, *qs) -> list[int]:
    """The rationals `qs` as numerators over the table's scale, which first
    grows to a multiple of their denominators, with every numerator of
    every column and row in it, in place."""
    if not qs:
        return []
    scale = memo[None]
    grown = lcm(scale, *map(_denominator, qs))
    if grown != scale:
        k = grown // scale
        del memo[None]
        for entry in memo.values():
            for x, n in entry.items():
                entry[x] = n * k
        memo[None] = grown
    return [q.numerator * (grown // q.denominator) for q in qs]


def _fill(model: FiniteModel, memo: dict, f: Formula, xs, column: dict) -> None:
    """Write the values of the propositional formula f at the states `xs`
    into its column, from its children's columns, which hold every state
    needed.  The entry's one `_scaled` call may grow the scale, so it comes
    before any column is read."""
    if isinstance(f, Atom):
        column.update(zip(xs, _scaled(memo, *[model.atom_value(x, f.name) for x in xs])))
    elif isinstance(f, Zero):
        column.update(dict.fromkeys(xs, 0))
    elif isinstance(f, Neg):
        scale, arg = memo[None], memo[f.arg]
        for x in xs:
            column[x] = scale - arg[x]
    elif isinstance(f, Minus):
        (c,) = _scaled(memo, f.c)
        arg = memo[f.arg]
        for x in xs:
            v = arg[x] - c
            column[x] = v if v > 0 else 0
    elif isinstance(f, And):
        left, right = memo[f.left], memo[f.right]
        for x in xs:
            a, b = left[x], right[x]
            column[x] = a if a < b else b
    else:
        raise ModelError(f"not a formula: {f!r}")


def _fill_modal(model: FiniteModel, memo: dict, f: Modal, xs, column: dict) -> None:
    """The modal operator's sweep at each state of `xs`, over its row and its
    argument's column.  The sweep is chosen once, with the check of the
    operator against the model kind.  The operator's constants (`M{p}`'s p,
    `dia{l,c}`'s c and the distances) and the edge degrees of the rows read
    here for the first time are scaled in one call; those rows are then
    stored in the table."""
    op, kind = f.op, model.kind
    if isinstance(op, Diamond):
        if kind != "fuzzyrel":
            raise ModelError(f"diamond evaluated on a {kind!r} model")
        sweep, consts = diamond_sweep, ()
    elif isinstance(op, (Generally, MoreThan)):
        if kind != "prob":
            name = "'generally'" if isinstance(op, Generally) else "M{p}"
            raise ModelError(f"{name} evaluated on a {kind!r} model")
        if isinstance(op, Generally):
            sweep, consts = generally_sweep, ()
        else:
            sweep, consts = more_than_sweep, (op.p,)
    elif isinstance(op, MetricDiamond):
        if kind not in ("metric", "metric-crisp"):
            raise ModelError(f"metric diamond evaluated on a {kind!r} model")
        space = model.space
        sweep, consts = None, (op.c, *space.matrix[space.index(op.label)])
    else:
        raise ModelError(f"unknown modal operator {op!r}")
    rows, degrees = [], []
    for x in xs:
        if (x, None) not in memo:
            row = model.successors(x)
            rows.append((x, row))
            degrees += row.values()
    nums = iter(_scaled(memo, *consts, *degrees))
    consts = list(islice(nums, len(consts)))
    for x, row in rows:
        memo[x, None] = dict(zip(row, nums))
    arg = memo.get(f.arg)
    if arg is None:  # no state of `xs` has a successor
        column.update(dict.fromkeys(xs, 0))
        return
    value = arg.__getitem__
    if sweep is None:  # `dia{l,c}`, whose edges carry labels
        reach, *dists = consts
        slacks = {label: reach - d for label, d in zip(space.labels, dists)}
        for x in xs:
            column[x] = metric_diamond_sweep(
                [(label, d, value(y)) for (label, y), d in memo[x, None].items()], slacks
            )
        return
    for x in xs:
        row = memo[x, None]
        column[x] = sweep(zip(row.values(), map(value, row)), *consts)


def check_sequent(model: FiniteModel, state: str, seq: Sequent, checks=()) -> bool:
    """Exact membership of every literal's truth degree in its interval.

    The literals are evaluated on `dataclasses.replace(model)`, the same
    model with an empty table of its own: the check is independent of any
    value cached in `model.values`, and leaves no cache behind.  Each of
    `checks`, a `(state, formula, interval)` triple, is evaluated after the
    sequent in the same fresh table, so a value the sequent's literals
    computed is a table hit, and must lie in its interval too.  An unknown
    state raises `ModelError`, also for an empty sequent.
    """
    if not model.has_state(state):
        raise ModelError(f"unknown state {state!r}")
    fresh = replace(model)
    return all(
        interval.contains(eval_formula(fresh, state, f)) for f, interval in seq.items()
    ) and all(interval.contains(eval_formula(fresh, x, f)) for x, f, interval in checks)


# ---------------------------------------------------------------------------
# Witness assembly
# ---------------------------------------------------------------------------


class WitnessDag:
    """The witness model one solve grows, shared by all its sub-solves.

    The solver adds one state per satisfiable sequent, after the states of
    that sequent's successors, so the structure is a DAG: a sub-verdict
    reached from several places is one shared state, not a copy.  States
    are numbered in the order they are added; one inert `sink` state with a
    self-loop serves every probabilistic witness that needs a dummy
    successor.  Every state, the sink included, gives each of
    `declared_atoms` the value 0 unless its own atoms pin it.  The DAG model
    (`model`) may be evaluated while it grows: its table stays valid,
    because the DAG only adds states, so a state and the states below it
    never change once added, and a column gains the new states as they are
    read.  A new state's row enters the table on its first read, as every
    row does.

    `witness(root)` extracts the states reachable from a root as a
    `FiniteModel`, named s0 (the root), s1, ... in breadth-first order, with
    the sink keeping its name; `extract(root)` also returns the name of
    each extracted state.
    """

    def __init__(self, kind: str, space: MetricSpace | None = None, declared_atoms=()):
        if kind not in KINDS:
            raise ModelError(f"unknown model kind {kind!r}")
        # States are ints while the DAG grows; names are given on extraction.
        self.model = FiniteModel(kind, (), {}, {}, space)
        self.sink: int | None = None
        self.declared = {name: ZERO for name in sorted(set(declared_atoms))}

    def _new_state(self, row: dict, atoms: dict[str, Fraction]) -> int:
        x = len(self.model.trans)
        self.model.trans[x] = row
        self.model.atoms[x] = {**self.declared, **atoms}
        return x

    def add(
        self,
        edges: tuple,
        targets: list[int],
        atoms: dict[str, Fraction] | None = None,
    ) -> int:
        """Add a state with one edge per target state, and return it.

        The edges are read in the DAG's own kind (see `onestep.Conclusion`):
        probability weights, fuzzy degrees, or (label, degree) pairs.  Edges
        that reach one target twice merge: probability weights add, fuzzy
        and metric degrees take the maximum, which leaves every modal
        operator's value unchanged.  Probabilistic edges may number one
        more than the targets; that edge goes to the sink.
        """
        kind, targets = self.model.kind, list(targets)
        if kind == "prob" and len(edges) == len(targets) + 1:
            if self.sink is None:
                self.sink = len(self.model.trans)
                self._new_state({self.sink: ONE}, {})
            targets.append(self.sink)
        if len(edges) != len(targets):
            raise ModelError(f"{len(edges)} {kind} edges for {len(targets)} targets")
        row: dict = {}
        for target, edge in zip(targets, edges):
            if kind == "prob":
                if edge != ZERO:
                    row[target] = row.get(target, ZERO) + edge
            elif kind == "fuzzyrel":
                if edge != ZERO:
                    row[target] = max(row.get(target, ZERO), edge)
            else:
                label, degree = edge
                if degree != ZERO:
                    row[label, target] = max(row.get((label, target), ZERO), degree)
        if kind == "prob":
            _check_distribution(row, "witness distribution")
        return self._new_state(row, atoms or {})

    def witness(self, root: int) -> FiniteModel:
        """The states reachable from `root`, renamed, as a finite model."""
        return self.extract(root)[0]

    def extract(self, root: int) -> tuple[FiniteModel, dict[int, str]]:
        """`witness(root)`, and the witness name of each DAG state it keeps,
        in breadth-first order."""
        kind, trans, atoms = self.model.kind, self.model.trans, self.model.atoms
        plain = kind in ("prob", "fuzzyrel")
        names = {root: "s0"}
        order = [root]
        count = 1
        out_trans: dict = {}
        # `order` grows while it is read: breadth-first.  Each state's row is
        # renamed as its successors are named.
        for x in order:
            row = out_trans[names[x]] = {}
            for key, d in trans[x].items():
                y = key if plain else key[1]
                if y not in names:
                    if y == self.sink:
                        names[y] = "sink"
                    else:
                        names[y] = f"s{count}"
                        count += 1
                    order.append(y)
                row[names[y] if plain else (key[0], names[y])] = d
        return FiniteModel(
            kind,
            tuple(names[x] for x in order),
            out_trans,
            {names[x]: atoms[x] for x in order},
            self.model.space,
            "s0",
        ), names
