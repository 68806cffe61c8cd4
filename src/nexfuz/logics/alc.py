"""Fuzzy-relational diamond logic: single-conclusion modal rule.

The rule has exactly one conclusion with one successor state per literal.
State i is dedicated to the lower bound of literal i; an upper bound of
literal j is imposed on state i's value of literal j's argument (its cell
j) exactly when no transition degree could meet literal i's lower bound
while staying under that upper bound (their intervals are disjoint).  The
transition degree to state i lies inside literal i's own interval and under
every upper bound whose interval does meet it.
"""

from __future__ import annotations

from typing import Iterator

from ..numerics import UNIT
from ..onestep import Conclusion, Literal, OneStepLogic
from ..sequents import SequentError
from ..syntax import Diamond, ModalOp


class FuzzyAlcLogic(OneStepLogic):
    name = "alc"
    kind = "fuzzyrel"

    def supports(self, op: ModalOp) -> bool:
        return isinstance(op, Diamond)

    def conclusions(self, lits: tuple[Literal, ...]) -> Iterator[Conclusion]:
        states, degrees = [], []
        uppers = [interval.upper_ray() for _, interval in lits]
        for i, (_, interval_i) in enumerate(lits):
            lower = interval_i.lower_ray()
            cells, allowed = [], lower
            for upper in uppers:
                if interval_i.intersect(upper).is_empty:
                    cells.append(upper)
                else:
                    cells.append(UNIT)
                    allowed = allowed.intersect(upper)
            # Literal i's own upper ray always meets its interval, so it
            # only ever caps the degree.
            cells[i] = lower
            if allowed.is_empty:
                raise SequentError("internal: empty degree range in diamond conclusion")
            states.append(tuple(cells))
            degrees.append(allowed.pick())
        yield Conclusion(tuple(states), tuple(degrees))
