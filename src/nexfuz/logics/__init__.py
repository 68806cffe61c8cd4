"""Instance logic registry."""

from __future__ import annotations

from ..metricspace import MetricSpace
from ..onestep import OneStepLogic
from .alc import FuzzyAlcLogic
from .metric import MetricLogic
from .probabilistic import ProbabilisticLogic

LOGIC_NAMES = ("alc", "lgen", "mp", "metric-fuzzy", "metric-crisp")


def get_logic(name: str, space: MetricSpace | None = None) -> OneStepLogic:
    """Look up an instance logic by name.

    The metric logics require a loaded metric label space.
    """
    if name == "alc":
        return FuzzyAlcLogic()
    if name == "lgen":
        return ProbabilisticLogic("lgen")
    if name == "mp":
        return ProbabilisticLogic("mp")
    if name in ("metric-fuzzy", "metric-crisp"):
        if space is None:
            raise ValueError(f"logic {name!r} needs a metric space")
        return MetricLogic(space, crisp=name == "metric-crisp")
    if name == "probably":
        raise ValueError(
            "the expectation-valued 'probably' modality is not supported: its "
            "successor constraints are arithmetically entangled, so no finite "
            "modal rule with independent successor intervals exists"
        )
    raise ValueError(f"unknown logic {name!r}; choose one of {', '.join(LOGIC_NAMES)}")


__all__ = [
    "FuzzyAlcLogic",
    "MetricLogic",
    "ProbabilisticLogic",
    "LOGIC_NAMES",
    "get_logic",
]
