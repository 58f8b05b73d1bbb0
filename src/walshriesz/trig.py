"""Cosine Riesz products from Rudin-Shapiro sign polynomials.

The flat trigonometric polynomial of power-of-two length l is

    phi_l(t) = sum_(n=1..l) eps_(n-1) cos(nt)

with eps the Rudin-Shapiro sequence; its prefix sup-norm measures below
C sqrt(l) with C = 2 + sqrt2 (checked on a 16l grid at construction).
The factors are dilations

    X_k(t) = a_k phi_(l_k)(l_k t),   a_k = 1/(4 C sqrt(l_k))

so sup |X_k| <= a_k C sqrt(l_k) = 1/4, and the frequency support of X_k
is l_k * {1..l_k}.  The lacunarity rule l_(k+1) > 4 * (max frequency so
far) keeps every product-to-sum frequency |h +- f| distinct and nonzero,
which makes the stage supports exactly disjoint and kills the integrals
of all admissible monomials prod X_k^alpha_k (strong orthogonality) by
pure frequency bookkeeping.

Every spectrum here is a `riesz.Spectrum` of cosine frequencies, with
frequency 0 holding the constant term, and every grid partial sum is
streamed by `walsh.prefix_scan` with the basis f -> cos(f t).  Each
stage is the product Pi (1 + X) by `_cos_multiply`; its term count
asserts the disjointness lacunarity guarantees, since any repeated
frequency would merge two terms.  Every reported sum (a stage's psi sum,
||Pi||_2^2, ||Pi||_A) is exact over the float64 terms and rounded once,
from the histogram of the magnitudes (`riesz._exact_sum`), so it does
not depend on the order the terms come in.

Positivity of all partial sums is certified on a grid oversampled 16x
past the top frequency: the grid minimum less the Bernstein slack
max_freq * ||Pi||_A * (grid spacing)/2, which bounds dips between grid
points, must be nonnegative.  The level rule reads inf Pi_k the same
way.  Builds stop at two stages: a third needs about 26k frequencies on
a grid of 4.2M points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rudin_shapiro import FLATNESS_CONSTANT, rs_sign_sequence
from .riesz import LevelSelectionError, PsiSpec, SummabilityBudget, Spectrum
from .riesz import _admissible, _exact_sum, _magnitudes, _monomial
from .walsh import InvariantViolation, _write_coeff_rows, prefix_scan

__all__ = [
    "CTRIG",
    "TrigFactor",
    "TrigMeasureState",
    "TrigCertificates",
    "build_trig_flat",
    "build_trig_measure",
    "strong_orthogonality_integral",
    "trig_export",
]

CTRIG = FLATNESS_CONSTANT

_MAX_FLAT_LOG = 12
_MAX_STAGES = 2


def _grid_scan(spectrum: Spectrum, points: int):
    """`prefix_scan` of the cosine series on the uniform grid of `points`
    points in [0, 2pi)."""
    t = np.arange(points) * (2.0 * math.pi / points)
    return prefix_scan(spectrum.indices, spectrum.coeffs, lambda f: np.cos(f * t), points)


def _amplitude(level: int) -> float:
    """a_l = 1/(4 C sqrt(l)), C = CTRIG."""
    return 1.0 / (4.0 * CTRIG * math.sqrt(level))


def build_trig_flat(length: int, oversample: int = 16) -> Spectrum:
    """phi_length with measured flatness, as frequencies 1..length and
    their Rudin-Shapiro signs.

    length must be a power of two (<= 2^12); the prefix sup over a
    uniform oversample*length grid is asserted below CTRIG*sqrt(length).
    """
    if length < 1 or (length & (length - 1)) != 0:
        raise ValueError(f"length {length} is not a power of two")
    if length > 1 << _MAX_FLAT_LOG:
        raise ValueError(f"length {length} beyond 2^{_MAX_FLAT_LOG}")
    flat = Spectrum(np.arange(1, length + 1), rs_sign_sequence(length))
    scan = _grid_scan(flat, max(oversample * length, 8))
    peak = max(float(np.max(np.abs(acc))) for _, acc in scan)
    bound = CTRIG * math.sqrt(length)
    if not peak <= bound:
        raise AssertionError(
            f"prefix sup {peak:.6f} above {bound:.6f} for length {length}"
        )
    return flat


@dataclass(frozen=True, eq=False)
class TrigFactor:
    level: int  # the length l_k
    amplitude: float
    freqs: np.ndarray
    coeffs: np.ndarray

    @property
    def sigma2(self) -> float:
        """E_lambda X^2 = (1/2) sum coeffs^2."""
        return 0.5 * float(np.sum(self.coeffs * self.coeffs))


@dataclass(frozen=True, eq=False)
class TrigMeasureState:
    factors: tuple[TrigFactor, ...]
    spectrum: Spectrum  # frequency 0 holds the constant term 1
    norm_a: float

    @property
    def max_freq(self) -> int:
        return int(self.spectrum.indices[-1])


@dataclass(frozen=True)
class TrigCertificates:
    grid_points: int
    grid_min_partial: float
    bernstein_slack: float
    stage_supports_disjoint: bool
    stage_psi_exact: tuple[float, ...]
    stage_psi_bounds: tuple[float, ...]
    parseval_gap: float
    passed: bool


def _norms(spectrum: Spectrum) -> tuple[float, float]:
    """||S||_A and ||S||_2^2 = 1 + (1/2) sum_(f>0) c_f^2 of a cosine series
    S with constant term 1, each an exact sum over its other terms."""
    mags, counts = _magnitudes(spectrum.coeffs[1:])
    return 1.0 + _exact_sum(mags, counts), 1.0 + 0.5 * _exact_sum(mags * mags, counts)


def _bernstein_slack(spectrum: Spectrum, points: int) -> float:
    """max_freq ||S||_A pi / points: no partial sum of S dips further below
    its value at the nearest of `points` uniform grid points, since its
    derivative is at most max_freq ||S||_A."""
    return int(spectrum.indices[-1]) * _norms(spectrum)[0] * math.pi / points


def _choose_trig_level(spectrum, norm_a, stage, psi, budget, oversample):
    max_freq = int(spectrum.indices[-1])
    points = max(oversample * max_freq, 8)
    for _, vals in _grid_scan(spectrum, points):
        pass  # the full sum Pi on the grid
    inf_val = float(vals.min()) - _bernstein_slack(spectrum, points)
    bound = budget.term_bound(stage)
    for level in (1 << j for j in range(_MAX_FLAT_LOG + 1)):
        # lacunarity, then conditions (5) and (6)
        if level > 4 * max_freq and _admissible(_amplitude(level), norm_a, inf_val, psi, bound):
            return level
    raise LevelSelectionError(
        f"no admissible trig level <= {1 << _MAX_FLAT_LOG} for stage {stage}"
    )


def build_trig_measure(
    psi: PsiSpec,
    stages: int,
    budget: SummabilityBudget = SummabilityBudget(),
    oversample: int = 16,
):
    """Build the cosine product and certify it; returns (state, certificates).

    Stage k is Pi_k = Pi_(k-1) (1 + X_k) by `_cos_multiply`; it raises
    InvariantViolation unless its term count shows every frequency
    distinct, as lacunarity guarantees.  Levels stop at 2^12, the longest
    flat polynomial `build_trig_flat` builds.  Raises ValueError unless
    0 <= stages <= 2 and oversample >= 1.  The grid needed for the
    certificate grows like the square of the stage level: a third stage
    would need about 26k frequencies on 4.2M grid points, which does not
    finish.
    """
    psi.validate()
    if not 0 <= stages <= _MAX_STAGES:
        raise ValueError(f"stages {stages} outside [0, {_MAX_STAGES}]")
    if oversample < 1:
        raise ValueError(f"grid oversample {oversample} below 1")
    spectrum = Spectrum(np.zeros(1, dtype=np.int64), np.ones(1))
    factors: list[TrigFactor] = []
    stage_exact: list[float] = []
    stage_bounds: list[float] = []
    norm_a = 1.0

    for stage in range(1, stages + 1):
        level = _choose_trig_level(spectrum, norm_a, stage, psi, budget, oversample)
        amp = _amplitude(level)
        flat = build_trig_flat(level, oversample)
        factor = TrigFactor(level, amp, level * flat.indices, amp * flat.coeffs)
        one_plus_x = Spectrum(np.append(0, factor.freqs), np.append(1.0, factor.coeffs))
        product = _cos_multiply(spectrum, one_plus_x)
        # lacunarity makes every f and f +- h distinct, nonzero and past the
        # old frequencies: any coincidence would merge two terms
        if len(product) != len(spectrum) + factor.freqs.size * (2 * len(spectrum) - 1):
            raise InvariantViolation(f"stage {stage} repeats a frequency")

        # a-priori stage bound: sum of new coeffs^2 is 2 sigma^2 ||Pi||_2^2
        stage_bounds.append(2.0 * factor.sigma2 * _norms(spectrum)[1] * psi.epsilon_bar(amp))
        mags, counts = _magnitudes(product.coeffs[len(spectrum):])
        stage_exact.append(_exact_sum(map(psi.psi, mags.tolist()), counts))

        spectrum = product
        factors.append(factor)
        norm_a *= 1.0 + amp * level

    state = TrigMeasureState(factors=tuple(factors), spectrum=spectrum, norm_a=norm_a)

    # certificates -----------------------------------------------------------
    points = max(oversample * max(state.max_freq, 1), 8)
    gmin = math.inf
    for _, acc in _grid_scan(spectrum, points):
        gmin = min(gmin, float(acc.min()))
    slack = _bernstein_slack(spectrum, points)
    quad = float((acc * acc).mean())
    parseval_gap = abs(quad - _norms(spectrum)[1])

    passed = (
        gmin - slack >= 0.0
        and all(e <= b * (1 + 1e-12) for e, b in zip(stage_exact, stage_bounds))
        and parseval_gap <= 1e-8
    )
    certificates = TrigCertificates(
        grid_points=points,
        grid_min_partial=gmin,
        bernstein_slack=slack,
        stage_supports_disjoint=True,  # else a stage's term count raised
        stage_psi_exact=tuple(stage_exact),
        stage_psi_bounds=tuple(stage_bounds),
        parseval_gap=parseval_gap,
        passed=passed,
    )
    return state, certificates


def strong_orthogonality_integral(factors, alpha) -> float:
    """Exact (2pi)^-1 integral of prod X_k^alpha_k by frequency bookkeeping.

    Admissible alpha: entries in {0, 1, 2}, at least one 1, at most two
    2s.  The product is expanded symbolically with cos a cos b =
    (cos(a+b) + cos(a-b))/2; the returned value is the resulting
    constant term, which is exactly 0.0 when no frequencies cancel.
    """
    factors = list(factors)
    alpha = _monomial(alpha, len(factors))
    prod = Spectrum(np.zeros(1, dtype=np.int64), np.ones(1))  # 0 is the constant term
    for f, a in zip(factors, alpha):
        spec = Spectrum(f.freqs, f.coeffs)
        for _ in range(a):
            prod = _cos_multiply(prod, spec)
    return float(prod.coeffs[prod.indices == 0].sum())


def _cos_multiply(left: Spectrum, right: Spectrum) -> Spectrum:
    """The product of two cosine series, by cos a cos b = (cos(a+b) +
    cos|a-b|)/2 on every pair; a constant term (a = 0) multiplies through
    unhalved.  Zero products are dropped and equal frequencies merged in
    pair order, left outer, right inner, a + b before |a - b|.  It builds
    each stage Pi (1 + X) too: a left term c times the right constant 1
    comes out as c/2 twice at its own frequency, which merges back to c
    exactly."""
    prod = np.multiply.outer(left.coeffs, right.coeffs)
    const = (left.indices == 0)[:, None]
    freqs = np.stack(
        [np.add.outer(left.indices, right.indices),
         np.abs(np.subtract.outer(left.indices, right.indices))], axis=-1
    ).ravel()
    values = np.stack(
        [np.where(const, prod, prod / 2.0), np.where(const, 0.0, prod / 2.0)], axis=-1
    ).ravel()
    keep = values != 0.0
    merged, inverse = np.unique(freqs[keep], return_inverse=True)
    return Spectrum(merged, np.bincount(inverse, weights=values[keep]))


def trig_export(state: TrigMeasureState, path) -> None:
    """CSV `frequency,coeff`, ascending, with the constant at frequency 0,
    written atomically."""
    _write_coeff_rows(path, "frequency", state.spectrum.indices, state.spectrum.coeffs)
