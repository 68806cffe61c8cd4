"""The fast one-step searches against their references on large seeded
corpora; `tests/parity.py` runs the same checks at larger sizes and on more
seeds."""

import pytest

from parity import METRIC_LAYERS, PROBABILISTIC_LAYERS, metric_parity, probabilistic_parity


@pytest.mark.slow
def test_probabilistic_search_matches_the_caratheodory_reference():
    counts = probabilistic_parity(1, PROBABILISTIC_LAYERS)
    # Both verdicts come up for each flavor, and Fourier-Motzkin referees
    # most layers.
    for flavor in ("lgen", "mp"):
        assert counts[flavor, "sat"] > 100 and counts[flavor, "unsat"] > 100
        assert counts[flavor, "refereed"] > PROBABILISTIC_LAYERS // 2


@pytest.mark.slow
def test_metric_search_matches_conclusions():
    counts = metric_parity(1, METRIC_LAYERS)
    for name in ("metric-fuzzy", "metric-crisp"):
        assert counts[name, "sat"] > 1000 and counts[name, "unsat"] > 1000
