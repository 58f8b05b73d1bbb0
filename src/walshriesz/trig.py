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

Positivity of all partial sums is certified on a grid oversampled 16x
past the top frequency, with the Bernstein slack max_freq * ||S||_A *
(grid spacing)/2 reported to bound dips between grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rudin_shapiro import FLATNESS_CONSTANT, rs_sign_sequence
from .riesz import PsiSpec, SummabilityBudget, LevelSelectionError
from .walsh import _write_csv

__all__ = [
    "CTRIG",
    "TrigPolynomial",
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


@dataclass(frozen=True, eq=False)
class TrigPolynomial:
    """constant + sum coeffs[f] * cos(f t), finitely many frequencies."""

    constant: float
    coeffs: dict[int, float]

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        out = np.full_like(np.asarray(t, dtype=np.float64), self.constant)
        for f, c in sorted(self.coeffs.items()):
            out += c * np.cos(f * t)
        return out

    @property
    def max_freq(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    @property
    def norm_a(self) -> float:
        return abs(self.constant) + sum(abs(c) for c in self.coeffs.values())


def _grid(points: int) -> np.ndarray:
    return np.arange(points) * (2.0 * math.pi / points)


def build_trig_flat(length: int, oversample: int = 16, c: float = CTRIG) -> TrigPolynomial:
    """phi_length with measured flatness.

    length must be a power of two (<= 2^12); the prefix sup over a
    uniform oversample*length grid is asserted below c*sqrt(length).
    """
    if length < 1 or (length & (length - 1)) != 0:
        raise ValueError(f"length {length} is not a power of two")
    if length > 1 << _MAX_FLAT_LOG:
        raise ValueError(f"length {length} beyond 2^{_MAX_FLAT_LOG}")
    signs = rs_sign_sequence(length).astype(np.float64)
    t = _grid(max(oversample * length, 8))
    acc = np.zeros_like(t)
    peak = 0.0
    for n in range(1, length + 1):
        acc += signs[n - 1] * np.cos(n * t)
        peak = max(peak, float(np.max(np.abs(acc))))
    bound = c * math.sqrt(length)
    if not peak <= bound:
        raise AssertionError(
            f"prefix sup {peak:.6f} above {bound:.6f} for length {length}"
        )
    return TrigPolynomial(0.0, {n: float(signs[n - 1]) for n in range(1, length + 1)})


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
    spectrum: dict[int, float]
    constant: float
    norm_a: float
    max_freq: int

    def density(self) -> TrigPolynomial:
        return TrigPolynomial(self.constant, dict(self.spectrum))


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


def _choose_trig_level(
    spectrum, norm_a, max_freq, stage, psi, budget, oversample, c, level_cap
):
    if max_freq == 0:
        inf_val = 1.0
    else:
        t = _grid(max(oversample * max_freq, 8))
        vals = np.ones_like(t)
        for f, coeff in spectrum.items():
            vals += coeff * np.cos(f * t)
        inf_val = float(vals.min())
    level = 1
    while level <= level_cap:
        amp = 1.0 / (4.0 * c * math.sqrt(level))
        if level > 4 * max_freq:
            cond5 = amp * norm_a <= 0.25 * inf_val
            cond6 = norm_a**2 * psi.epsilon_bar(amp) <= budget.term_bound(stage)
            if cond5 and cond6:
                return level
        level *= 2
    raise LevelSelectionError(
        f"no admissible trig level <= {level_cap} for stage {stage}"
    )


def build_trig_measure(
    psi: PsiSpec,
    stages: int,
    budget: SummabilityBudget = SummabilityBudget(),
    oversample: int = 16,
    c: float = CTRIG,
    level_cap: int = 1 << 14,
):
    """Build the cosine product and certify it; returns (state, certificates).

    Capped at three stages: the grid needed for the certificate grows
    like the square of the stage level, which already reaches millions
    of points at stage three.
    """
    psi.validate()
    if not 0 <= stages <= 3:
        raise ValueError("stages must be between 0 and 3")
    spectrum: dict[int, float] = {}
    factors: list[TrigFactor] = []
    stage_new: list[dict[int, float]] = []
    stage_bounds: list[float] = []
    norm_a = 1.0
    max_freq = 0

    for stage in range(1, stages + 1):
        level = _choose_trig_level(
            spectrum, norm_a, max_freq, stage, psi, budget, oversample, c, level_cap
        )
        while True:
            amp = 1.0 / (4.0 * c * math.sqrt(level))
            flat = build_trig_flat(level, oversample, c)
            freqs = np.array([level * n for n in range(1, level + 1)], dtype=np.int64)
            coeffs = amp * np.array(
                [flat.coeffs[n] for n in range(1, level + 1)]
            )
            new: dict[int, float] = {}
            collided = False
            for f, x in zip(freqs, coeffs):
                f = int(f)
                new[f] = new.get(f, 0.0) + float(x)
                for h, ch in spectrum.items():
                    for g in (f + h, f - h):
                        if g <= 0 or g in spectrum:
                            collided = True
                        new[g] = new.get(g, 0.0) + ch * float(x) / 2.0
            if collided or len(new) != (2 * len(spectrum) + 1) * level:
                level *= 2  # lacunarity rule prevents this; retry defensively
                if level > level_cap:
                    raise LevelSelectionError("collision retries exhausted")
                continue
            break

        # a-priori stage bound: sum of new coeffs^2 is 2 sigma^2 ||Pi||_2^2
        norm2sq = 1.0 + 0.5 * sum(v * v for v in spectrum.values())
        sigma2 = 0.5 * float(np.sum(coeffs * coeffs))
        stage_bounds.append(2.0 * sigma2 * norm2sq * psi.epsilon_bar(amp))

        spectrum.update(new)
        stage_new.append(new)
        factors.append(TrigFactor(level, amp, freqs, coeffs))
        norm_a *= 1.0 + amp * level
        max_freq = max(spectrum) if spectrum else 0

    state = TrigMeasureState(
        factors=tuple(factors),
        spectrum=spectrum,
        constant=1.0,
        norm_a=norm_a,
        max_freq=max_freq,
    )

    # certificates -----------------------------------------------------------
    points = max(oversample * max(max_freq, 1), 8)
    t = _grid(points)
    acc = np.ones_like(t)
    gmin = float(acc.min())
    for f in sorted(spectrum):
        acc += spectrum[f] * np.cos(f * t)
        gmin = min(gmin, float(acc.min()))
    coeff_sum = sum(abs(v) for v in spectrum.values())
    slack = max_freq * (1.0 + coeff_sum) * math.pi / points if max_freq else 0.0

    supports = [set(int(f) for f in d) for d in stage_new]
    disjoint = all(
        not (supports[i] & supports[j])
        for i in range(len(supports))
        for j in range(i + 1, len(supports))
    )

    stage_exact = tuple(
        float(sum(psi.psi(abs(v)) for v in d.values())) for d in stage_new
    )
    quad = float((acc * acc).mean())
    exact_l2 = 1.0 + 0.5 * sum(v * v for v in spectrum.values())
    parseval_gap = abs(quad - exact_l2)

    passed = (
        gmin >= 0.0
        and disjoint
        and all(e <= b * (1 + 1e-12) for e, b in zip(stage_exact, stage_bounds))
        and parseval_gap <= 1e-8
    )
    certificates = TrigCertificates(
        grid_points=points,
        grid_min_partial=gmin,
        bernstein_slack=slack,
        stage_supports_disjoint=disjoint,
        stage_psi_exact=stage_exact,
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
    alpha = [int(a) for a in alpha]
    factors = list(factors)
    if len(alpha) > len(factors):
        raise ValueError("multi-index longer than the factor list")
    if any(a not in (0, 1, 2) for a in alpha):
        raise ValueError(f"entries must be 0, 1 or 2: {alpha}")
    if alpha.count(1) < 1:
        raise ValueError(f"multi-index needs at least one entry equal to 1: {alpha}")
    if alpha.count(2) > 2:
        raise ValueError(f"multi-index allows at most two entries equal to 2: {alpha}")

    prod = {0: 1.0}  # frequency -> coefficient, 0 is the constant term
    for f, a in zip(factors, alpha):
        spec = {int(fr): float(cf) for fr, cf in zip(f.freqs, f.coeffs)}
        for _ in range(a):
            prod = _cos_multiply(prod, spec)
    return prod.get(0, 0.0)


def _cos_multiply(left: dict[int, float], right: dict[int, float]) -> dict[int, float]:
    out: dict[int, float] = {}

    def put(f, v):
        if v == 0.0:
            return
        out[f] = out.get(f, 0.0) + v

    for a, ca in left.items():
        for b, cb in right.items():
            if a == 0:
                put(b, ca * cb)
            else:
                put(a + b, ca * cb / 2.0)
                put(abs(a - b), ca * cb / 2.0)
    return out


def trig_export(state: TrigMeasureState, path) -> None:
    """CSV `frequency,coeff`, ascending, with the constant at frequency 0,
    written atomically."""
    rows = [(0, repr(float(state.constant)))]
    rows += [(f, repr(float(state.spectrum[f]))) for f in sorted(state.spectrum)]
    _write_csv(path, ["frequency", "coeff"], rows)
