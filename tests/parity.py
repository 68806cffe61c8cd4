#!/usr/bin/env python3
"""Verdict parity of the fast one-step searches with their references, at scale.

    python3 tests/parity.py [--seed N ...] [--scale K]

`probabilistic_parity` and `metric_parity` each take a seed and a number of
layers, and raise `AssertionError` on the first layer where an instance's
`search_steps` and its reference disagree.  `tests/test_parity.py` runs
each at seed 1 and at the sizes below; this script runs both at `--scale`
times those sizes (default 10) on each `--seed` (default 1).  Every check
is an `assert`, so the script refuses to run under `python -O`.

The child oracle of a layer is a pure function of a successor's cells: the
successor is satisfiable when its cells hold at least a random number of
random pivot values, one per literal.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from helpers import (  # noqa: E402
    edge_gamma,
    edge_interval,
    rand_metric_space,
    rand_rational,
    run_search,
)

from nexfuz import lp  # noqa: E402
from nexfuz.logics import get_logic  # noqa: E402
from nexfuz.logics.probabilistic import (  # noqa: E402
    config_feasible,
    consistent_vectors,
    mass_bounds,
    mass_system,
)
from nexfuz.syntax import MetricDiamond  # noqa: E402

# Layers per run of `tests/test_parity.py`: per flavor, and in all.
PROBABILISTIC_LAYERS = 1000
METRIC_LAYERS = 20000
# Fourier-Motzkin referees the simplex on systems over at most this many
# vectors; its cost grows fast with the number of variables.
FM_VECTORS = 12


def _child_oracle(rng: random.Random, gamma: tuple):
    """A random child oracle for the layer `gamma`: a satisfiable
    successor's state is a number given to its cells on their first
    request, so that a search's children can be checked against its
    cells."""
    pivots = [rand_rational(rng, 6) for _ in gamma]
    hits_needed = rng.randint(0, len(gamma))
    states: dict = {}

    def child(cells):
        hits = sum(cell.contains(p) for cell, p in zip(cells, pivots))
        return states.setdefault(cells, len(states)) if hits >= hits_needed else None

    return child, (pivots, hits_needed)


def probabilistic_parity(seed: int, layers: int) -> Counter:
    """`search_steps` of `lgen` and of `mp` on `layers` layers each of 1-4
    boundary literals (`edge_gamma`), against the Caratheodory reference:
    the simplex over every child-satisfiable consistent vector, which
    `conclusions()` is equivalent to without its enumeration.  Where there
    are at most `FM_VECTORS` such vectors, Fourier-Motzkin
    (`config_feasible`), which shares no code with the simplex, referees
    it.  A conclusion found must be made of child-satisfiable vectors, with
    those children, and with positive weights that solve its own mass
    system.  Returns the count of each (flavor, outcome)."""
    rng = random.Random(seed)
    counts: Counter = Counter()
    for flavor in ("lgen", "mp"):
        logic = get_logic(flavor)
        for _ in range(layers):
            gamma = edge_gamma(rng, flavor)
            child, context = _child_oracle(rng, gamma)
            fast = run_search(logic, gamma, child)
            conds = mass_bounds(gamma)
            vector_of = {cells: vec for vec, cells in consistent_vectors(gamma)}
            good = [vec for cells, vec in vector_of.items() if child(cells) is not None]
            if fast is None:
                sat = bool(good) and lp.simplex_feasible(mass_system(good, conds)) is not None
                assert not sat, (flavor, gamma, context)
            else:
                # A checked conclusion is a solution of the reference's
                # system, whose other vectors weigh 0: no simplex needed.
                sat, cells, edges = True, fast.conclusion.cells, fast.conclusion.edges
                assert fast.children == [child(c) for c in cells], (flavor, gamma, context)
                assert all(w > 0 for w in edges), (flavor, gamma, context)
                support = [vector_of[c] for c in cells]
                assert mass_system(support, conds).check(edges), (flavor, gamma, context)
            if len(good) <= FM_VECTORS:
                refereed = bool(good) and config_feasible(good, conds) is not None
                assert refereed == sat, (flavor, gamma, context)
                counts[flavor, "refereed"] += 1
            counts[flavor, "sat" if sat else "unsat"] += 1
    return counts


def metric_parity(seed: int, layers: int) -> Counter:
    """`MetricLogic.search_steps` against the first conclusion of
    `conclusions()` whose successors are all child-satisfiable, on `layers`
    layers of 1-4 literals over random spaces of 1-4 labels, fuzzy and
    crisp at random.  A literal's reach is 0, 1 or a rational of
    denominator at most 6, and its interval is an `edge_interval`.  A
    conclusion found must have the children of its cells.  Returns the
    count of each (logic, outcome)."""
    rng = random.Random(seed)
    counts: Counter = Counter()
    for _ in range(layers):
        space = rand_metric_space(rng, max_labels=4)
        logic = get_logic(rng.choice(("metric-fuzzy", "metric-crisp")), space)
        gamma = tuple(
            (
                MetricDiamond(
                    rng.choice(space.labels),
                    rng.choice((Fraction(0), Fraction(1), rand_rational(rng, 6))),
                ),
                edge_interval(rng),
            )
            for _ in range(rng.randint(1, 4))
        )
        child, context = _child_oracle(rng, gamma)
        fast = run_search(logic, gamma, child)
        naive = next(
            (c for c in logic.conclusions(gamma)
             if all(child(cells) is not None for cells in c.cells)),
            None,
        )
        assert (naive is None) == (fast is None), (logic.name, space, gamma, context)
        if fast is not None:
            cells = fast.conclusion.cells
            assert fast.children == [child(c) for c in cells], (logic.name, gamma, context)
        counts[logic.name, "sat" if fast is not None else "unsat"] += 1
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, action="append",
                    help="a seed to run; repeat it for more (default 1)")
    ap.add_argument("--scale", type=int, default=10,
                    help="layers as a multiple of the Tier-1 test's (default 10)")
    args = ap.parse_args(argv)
    if not __debug__:
        ap.error("every check is an assert; run without -O")
    for seed in args.seed or [1]:
        for check, layers in (
            (probabilistic_parity, PROBABILISTIC_LAYERS), (metric_parity, METRIC_LAYERS)
        ):
            counts = check(seed, layers * args.scale)
            summary = ", ".join(f"{a} {b} {n}" for (a, b), n in sorted(counts.items()))
            print(f"{check.__name__} seed {seed}, {layers * args.scale} layers: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
