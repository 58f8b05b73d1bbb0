"""Dyadic-martingale analysis of Walsh series and product measures.

The 2^k-order partial sums M_k of a series form a dyadic martingale:

    M_(k+1) = M_k + r_(k+1) N_k,   N_k = sum_(m < 2^k) c_(2^k + m) w_m

and the maximal prefix function N_k* = sup_(n < 2^k) |sum_(m <= n)
N_hat_k(m) w_m| turns positivity of ALL partial sums into a pointwise
inequality on the martingale:

    every S_p >= 0  (0 <= p <= 2^K)   <=>   N_k* <= M_k for every k < K

(the sums of order q in (2^k, 2^(k+1)] read M_k +- a prefix of N_k, and
both signs of r_(k+1) occur on atoms).  Both sides are computed
independently here and compared; disagreement would be a library bug.

Products Pi_k = prod (1 + X_i) over disjoint blocks are certified
singular-at-finite-scale via Hellinger affinity E_lambda sqrt(Pi_k),
which is multiplicative across independent factors and strictly below 1
per factor, and via mass-concentration curves: the smallest Haar measure
carrying a given fraction of the product's mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .riesz import RieszProductState, Spectrum, factor_values, product_values
from .walsh import (
    AtomTable,
    InvariantViolation,
    WalshSeries,
    _martingale_walk,
    atom_patterns,
    butterfly,
    multiply_by_walsh,
    partial_sum,
    prefix_scan,
    sign_vector,
)

__all__ = [
    "MartingaleDecomposition",
    "PositivityWitness",
    "EquivalenceReport",
    "SingularityReport",
    "OrthogonalityReport",
    "decompose",
    "check_positivity_equivalence",
    "check_shifted_bound",
    "check_p3",
    "singularity_report",
    "verify_product_orthogonality",
    "verify_strong_orthogonality",
    "dyadic_block_envelope",
]


@dataclass(frozen=True, eq=False)
class MartingaleDecomposition:
    """M_0..M_K, N_0..N_(K-1) and the maximal functions N_k*."""

    depth: int
    m_tables: tuple[AtomTable, ...]
    n_tables: tuple[AtomTable, ...]
    n_star: tuple[AtomTable, ...]


def decompose(series: WalshSeries) -> MartingaleDecomposition:
    """Split the series into its martingale increments.

    N_k's coefficients are c_(2^k)..c_(2^(k+1) - 1) reindexed to [0, 2^k)
    (w_(2^k + m) = r_(k+1) w_m for m < 2^k).  The tables are read off
    `_martingale_walk`: N_k* is the largest of MX, -MN and |N_k|, the
    extremes of N_k's proper prefixes and of its full sum.
    """
    m_tables, n_tables, n_star = [], [], []
    for k, (m, n, mx, mn) in enumerate(_martingale_walk(series.coeffs)):
        m_tables.append(AtomTable(k, m))
        if n is not None:
            n_tables.append(AtomTable(k, n))
            n_star.append(AtomTable(k, _n_star(n, mx, mn)))
    return MartingaleDecomposition(
        depth=series.depth,
        m_tables=tuple(m_tables),
        n_tables=tuple(n_tables),
        n_star=tuple(n_star),
    )


def _n_star(n, mx, mn):
    # max(MX, -MN, N, -N) in this order: np.maximum returns its second
    # argument on a tie, so an atom whose prefixes are all zero reads -N,
    # the zero's sign that prefix_extrema of the whole block gives
    return np.maximum(np.maximum(mx, -mn), np.maximum(n, -n))


@dataclass(frozen=True)
class PositivityWitness:
    """Localizes a failure: the first negative prefix order and an atom.

    Reports carry only the prefix scan's witness, so `kind` is always
    "prefix": the maximal-function route only answers yes or no, and a
    disagreement between the two routes raises.
    """

    kind: str
    where: int  # order p
    atom: int
    value: float


@dataclass(frozen=True)
class EquivalenceReport:
    all_prefixes_nonneg: bool
    inequality_holds: bool
    witness: PositivityWitness | None


def check_positivity_equivalence(series: WalshSeries) -> EquivalenceReport:
    """Exhaustive prefix scan vs the maximal-function inequality.

    The two predicates are computed by independent routes, the streaming
    `prefix_scan` over the support and the martingale walk, and must
    agree; a mismatch raises InvariantViolation.  The witness is the
    scan's first failure.
    """
    scan_ok, witness = _all_prefixes_nonneg(series)
    ineq_ok = _maximal_inequality(series)
    if scan_ok != ineq_ok:
        raise InvariantViolation(
            "prefix scan and maximal-function inequality disagree:"
            f" scan={scan_ok} inequality={ineq_ok}"
        )
    return EquivalenceReport(
        all_prefixes_nonneg=scan_ok,
        inequality_holds=ineq_ok,
        witness=witness,
    )


def _all_prefixes_nonneg(series: WalshSeries):
    support = series.support()
    patterns = atom_patterns(series.depth)
    scan = prefix_scan(
        support, series.coeffs[support], lambda n: sign_vector(n, patterns), patterns.size
    )
    for n, acc in scan:
        low = acc.min()
        if low < 0.0:
            return False, PositivityWitness("prefix", n + 1, int(np.argmin(acc)), float(low))
    return True, None


def _maximal_inequality(series: WalshSeries) -> bool:
    """M_0 >= 0 and N_k* <= M_k on every atom for every k < K, one level
    of the walk at a time."""
    if series.coeffs[0] < 0.0:
        return False
    return not any(
        (_n_star(n, mx, mn) - m).max() > 0.0
        for m, n, mx, mn in _martingale_walk(series.coeffs)
        if n is not None
    )


def check_shifted_bound(
    series: WalshSeries, kj: int, m, k: int, tol: float = 1e-12
) -> bool:
    """Pointwise |2^k-prefix of w_m N_kj| <= 2 M_kj on the first-kj atoms.

    Requires m < 2^kj and kj <= k <= K, and a series whose partial sums
    are nonnegative (not re-verified here; the bound is only claimed
    under that hypothesis).  The prefix of the reindexed series is a
    difference of two partial sums of N_kj, each dominated by N_kj*.
    """
    m = int(m)
    if not 0 <= kj < series.depth:
        raise ValueError(f"level {kj} outside [0, {series.depth})")
    if not 0 <= m < (1 << kj):
        raise ValueError(f"index {m} outside [0, 2^{kj})")
    if not kj <= k <= series.depth:
        raise ValueError(f"level {k} outside [{kj}, {series.depth}]")
    n_series = WalshSeries(kj, series.coeffs[1 << kj : 1 << (kj + 1)].copy())
    shifted = multiply_by_walsh(n_series, m)
    order = min(1 << k, n_series.order)
    prefix = partial_sum(shifted, order).values
    m_vals = butterfly(series.coeffs[: 1 << kj].copy())
    return bool(np.all(np.abs(prefix) <= 2.0 * m_vals + tol))


def check_p3(series: WalshSeries) -> bool:
    """True iff every M_k is pointwise nonnegative (k = 0..K).

    Equivalent to nonnegativity of the depth-K atom masses, since each
    M_k is a conditional average of M_K.
    """
    return not any(np.min(m) < 0.0 for m, *_ in _martingale_walk(series.coeffs))


def dyadic_block_envelope(series: WalshSeries | Spectrum) -> list[tuple[int, float]]:
    """(k, max_(2^k <= n < 2^(k+1)) |c_n|) for each dyadic block below the
    top index (0.0 for an empty block), dense or sparse, at any depth.

    A monitored decay diagnostic; nothing is asserted about it.
    """
    if isinstance(series, WalshSeries):
        series = Spectrum(np.arange(series.order), series.coeffs)
    depth = int(series.indices[-1]).bit_length()
    # every index is below 2^depth, so the last edge is the end (2^63 overflows)
    edges = np.append(np.searchsorted(series.indices, [1 << k for k in range(depth)]), len(series))
    mags = np.abs(series.coeffs)
    return [
        (k, float(mags[lo:hi].max()) if hi > lo else 0.0)
        for k, (lo, hi) in enumerate(zip(edges, edges[1:]))
    ]


# ---------------------------------------------------------------------------
# singularity diagnostics for product states
# ---------------------------------------------------------------------------

# the mass fractions delta of the concentration curves
CONCENTRATION_FRACTIONS = (0.5, 0.9, 0.99)


@dataclass(frozen=True)
class SingularityReport:
    """Hellinger affinities and mass-concentration curves per stage.

    hellinger[k] = prod_(i <= k) E_lambda sqrt(1 + X_i) (k = 0 is the
    empty product); hellinger_direct cross-checks against E sqrt(Pi_k)
    on the full atom space.  concentration[k][delta] is the smallest Haar
    measure of a set carrying the fraction delta of Pi_k's mass, for each
    delta in CONCENTRATION_FRACTIONS (fractional atoms allowed: the group
    refines every finite atom).
    """

    hellinger: tuple[float, ...]
    hellinger_direct: tuple[float, ...]
    concentration: tuple[dict[float, float], ...]
    l1_norms: tuple[float, ...]


def _concentration(masses: np.ndarray, delta: float) -> float:
    order = np.sort(masses)[::-1]
    cum = np.cumsum(order)
    total = cum[-1]
    target = delta * total
    i = int(np.searchsorted(cum, target))
    prev = cum[i - 1] if i > 0 else 0.0
    if target <= prev:
        atoms = float(i)
    else:
        atoms = i + (target - prev) / order[i]
    return float(atoms / masses.size)


def singularity_report(
    state: RieszProductState, cross_check_tol: float = 1e-9
) -> SingularityReport:
    hellinger = [1.0]
    direct = [1.0]
    concentration = [{d: d for d in CONCENTRATION_FRACTIONS}]
    l1 = [1.0]
    running = 1.0
    for k, factor in enumerate(state.factors, start=1):
        x_vals = factor_values(factor, factor.block[-1])
        running *= float(np.sqrt(1.0 + x_vals).mean())
        hellinger.append(running)

        depth = factor.block[-1]
        vals = product_values(state.factors[:k], depth)
        direct.append(float(np.sqrt(vals).mean()))
        masses = vals / vals.size
        concentration.append({d: _concentration(masses, d) for d in CONCENTRATION_FRACTIONS})
        l1.append(float(np.abs(vals).mean()))

    gap = max(
        (abs(a - b) for a, b in zip(hellinger, direct)), default=0.0
    )
    if gap > cross_check_tol:
        raise InvariantViolation(
            f"Hellinger multiplicativity off by {gap:.3e} (tol {cross_check_tol})"
        )
    return SingularityReport(
        hellinger=tuple(hellinger),
        hellinger_direct=tuple(direct),
        concentration=tuple(concentration),
        l1_norms=tuple(l1),
    )


# ---------------------------------------------------------------------------
# orthogonality in L^2(mu)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthogonalityReport:
    ok: bool
    max_mean_residual: float
    max_cross_residual: float
    max_second_moment: float


def _factor_list(state_or_factors):
    factors = getattr(state_or_factors, "factors", state_or_factors)
    return list(factors)


def verify_product_orthogonality(
    state_or_factors, tol: float = 1e-10
) -> OrthogonalityReport:
    """Check the normalized factors Y_k = X_k/sigma_k - sigma_k in L^2(mu).

    For disjoint blocks: E_mu Y_k = 0, E_mu Y_k Y_k' = 0 (k != k'), and
    E_mu Y_k^2 <= 2 (1 + sigma_k^2) <= 4.  E_mu is the atom average
    weighted by the full product's values.  Overlapping blocks (the
    negative control) make the cross terms visibly nonzero.
    """
    factors = _factor_list(state_or_factors)
    if len(factors) < 2:
        raise ValueError("need at least two factors")
    depth = max(f.block[-1] for f in factors)
    weights = product_values(factors, depth) / (1 << depth)
    ys = []
    for f in factors:
        sigma = f.norm_2
        ys.append(factor_values(f, depth) / sigma - sigma)
    means = [float(np.dot(weights, y)) for y in ys]
    seconds = [float(np.dot(weights, y * y)) for y in ys]
    crosses = []
    for i in range(len(ys)):
        for j in range(i + 1, len(ys)):
            crosses.append(float(np.dot(weights, ys[i] * ys[j])))
    max_mean = max(abs(v) for v in means)
    max_cross = max(abs(v) for v in crosses)
    max_second = max(seconds)
    ok = max_mean <= tol and max_cross <= tol and max_second <= 4.0 + tol
    return OrthogonalityReport(ok, max_mean, max_cross, max_second)


def verify_strong_orthogonality(state_or_factors, alpha, tol: float = 1e-10) -> bool:
    """|E_lambda prod X_k^alpha_k| <= tol for an admissible multi-index.

    Admissible: entries in {0, 1, 2}, at least one 1, at most two 2s.
    """
    factors = _factor_list(state_or_factors)
    alpha = [int(a) for a in alpha]
    if len(alpha) > len(factors):
        raise ValueError(f"multi-index has {len(alpha)} entries, only {len(factors)} factors")
    if any(a not in (0, 1, 2) for a in alpha):
        raise ValueError(f"entries must be 0, 1 or 2: {alpha}")
    if alpha.count(1) < 1:
        raise ValueError(f"multi-index needs at least one entry equal to 1: {alpha}")
    if alpha.count(2) > 2:
        raise ValueError(f"multi-index allows at most two entries equal to 2: {alpha}")
    active = [(f, a) for f, a in zip(factors, alpha) if a > 0]
    depth = max(f.block[-1] for f, _ in active)
    prod = np.ones(1 << depth)
    for f, a in active:
        vals = factor_values(f, depth)
        prod *= vals if a == 1 else vals * vals
    return bool(abs(float(prod.mean())) <= tol)
