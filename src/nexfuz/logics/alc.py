"""Fuzzy-relational diamond logic: single-conclusion modal rule.

The rule has exactly one conclusion with one successor sequent per literal.
State i is dedicated to the lower bound of literal i; an upper bound of
literal j is imposed on state i's value of v_j exactly when no transition
degree could meet literal i's lower bound while staying under that upper
bound (their intervals are disjoint).  The transition degree to state i
lies inside literal i's own interval and under every upper bound whose
interval does meet it.
"""

from __future__ import annotations

from typing import Iterator

from ..onestep import Conclusion, Literal, OneStepLogic, exact_over_vars
from ..sequents import SequentError
from ..syntax import Diamond, ModalOp


class FuzzyAlcLogic(OneStepLogic):
    name = "alc"
    kind = "fuzzyrel"

    def supports(self, op: ModalOp) -> bool:
        return isinstance(op, Diamond)

    def conclusions(self, lits: tuple[Literal, ...]) -> Iterator[Conclusion]:
        variables = [var for _, var, _ in lits]
        sequents, degrees = [], []
        for _, v_i, interval_i in lits:
            cell = {v_i: interval_i.lower_ray()}
            allowed = interval_i.lower_ray()
            for _, v_j, interval_j in lits:
                # Literal i's own upper ray always meets its interval, so
                # it only ever caps the degree.
                upper = interval_j.upper_ray()
                if interval_i.intersect(upper).is_empty:
                    cell[v_j] = upper
                else:
                    allowed = allowed.intersect(upper)
            if allowed.is_empty:
                raise SequentError("internal: empty degree range in diamond conclusion")
            sequents.append(exact_over_vars(cell, variables))
            degrees.append(allowed.pick())
        yield Conclusion(tuple(sequents), tuple(degrees))
