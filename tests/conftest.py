import numpy as np
import pytest

import walshriesz as wr
from walshriesz.walsh import _segment_merge


def spectrum_series(state):
    """Pi's dense coefficients scattered from its sorted spectrum."""
    coeffs = np.zeros(1 << state.used_coordinates)
    coeffs[state.spectrum.indices] = state.spectrum.coeffs
    return coeffs


def single_merge(values, rows: int):
    """(S, MX, MN) of one `_segment_merge` over the whole vector, with
    `rows` (0 or 1) copies of it as the class of prefixes: what
    `_block_merge`, and the transforms `decompose` reads, must give bit
    for bit."""
    s = values.copy()
    mx, mn = s[None].copy()[:rows], s[None].copy()[:rows]
    _segment_merge(s, mx, mn)
    return s, mx, mn


class BuildRecord:
    """A staged build: the state after each factor, plus its gauge/budget."""

    def __init__(self, psi, budget, stages):
        self.psi = psi
        self.budget = budget
        self.states = []
        state = wr.empty_state()
        for _ in range(stages):
            level = wr.choose_next_level(state, psi, budget)
            state = wr.add_factor(state, level)
            self.states.append(state)
        self.final = state

    def stage_series(self):
        return [wr.WalshSeries(s.used_coordinates, spectrum_series(s)) for s in self.states]


@pytest.fixture(scope="session")
def flagship_build():
    """Three stages of the log-slow gauge, scaled budget, 13 coordinates."""
    return BuildRecord(wr.PsiSpec.logpow(1.0), wr.SummabilityBudget(scale=2.25), 3)


@pytest.fixture(scope="session")
def power_build():
    """Three stages of the cubic gauge at the default budget: 6 coordinates,
    small enough for fully exhaustive index sweeps."""
    return BuildRecord(wr.PsiSpec.power(1.0), wr.SummabilityBudget(), 3)
