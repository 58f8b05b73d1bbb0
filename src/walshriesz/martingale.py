"""Dyadic-martingale analysis of Walsh series and product measures.

The 2^k-order partial sums M_k of a series form a dyadic martingale:

    M_(k+1) = M_k + r_(k+1) N_k,   N_k = sum_(m < 2^k) c_(2^k + m) w_m

and the maximal prefix function N_k* = sup_(n < 2^k) |sum_(m <= n)
N_hat_k(m) w_m| turns positivity of ALL partial sums into a pointwise
inequality on the martingale:

    every S_p >= 0  (0 <= p <= 2^K)   <=>   N_k* <= M_k for every k < K

(the sums of order q in (2^k, 2^(k+1)] read M_k +- a prefix of N_k, and
both signs of r_(k+1) occur on atoms).  Both sides are computed here,
each in O(K 2^K), by the one segment merge of `walsh._segment_merge`:
the left over int64 limbs holding the coefficients' exact dyadic
expansion, the right in float64 along the martingale walk.  What stays
independent is the arithmetic, the side each decides (the full merge's
smallest prefix MN against the walk's M_k - N_k*), and the check of the
exact minimum against the definition, a cumsum in Python ints of the
partial sums at its first atom.  The two minima must agree within the
float route's rounding allowance; disagreement would be a library bug.  A bug in the
merge itself, shared by both, is caught by the tests' scan oracle
(`walsh.prefix_scan` over `sign_vector`), which shares no code with it.

Products Pi_k = prod (1 + X_i) over disjoint blocks are certified
singular-at-finite-scale via Hellinger affinity E_lambda sqrt(Pi_k),
which is multiplicative across independent factors and strictly below 1
per factor, and via mass-concentration curves: the smallest Haar measure
carrying a given fraction of the product's mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .riesz import CoordinateBudgetError, RieszProductState, Spectrum, _monomial, _product_ranges
from .riesz import factor_values, product_values
from .walsh import (
    AtomTable,
    InvariantViolation,
    WalshSeries,
    _LIMB_BITS,
    _LIMB_MASK,
    _carry,
    _martingale_walk,
    _require_finite,
    _segment_merge,
    butterfly,
    multiply_by_walsh,
    partial_sum,
    sign_vector,
)

__all__ = [
    "MartingaleDecomposition",
    "PositivityWitness",
    "PositivityRoute",
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
    `_martingale_walk`, whose MX and MN are the extremes of N_k's
    nonempty prefixes, its full sum included, so N_k* = max(MX, -MN).
    """
    m_tables, n_tables, n_star = [], [], []
    for k, (m, n, mx, mn) in enumerate(_martingale_walk(series.coeffs)):
        m_tables.append(AtomTable(k, m))
        if n is not None:
            n_tables.append(AtomTable(k, n))
            n_star.append(AtomTable(k, np.maximum(mx, -mn)))
    return MartingaleDecomposition(
        depth=series.depth,
        m_tables=tuple(m_tables),
        n_tables=tuple(n_tables),
        n_star=tuple(n_star),
    )


@dataclass(frozen=True)
class PositivityWitness:
    """Localizes a failure: the first negative prefix order and an atom.

    `where` is the smallest order p with S_p < 0 on some atom, `atom` the
    first atom minimizing S_p and `value` that minimum, all from the exact
    route, so `kind` is always "prefix".
    """

    kind: str
    where: int  # order p
    atom: int
    value: float


@dataclass(frozen=True)
class PositivityRoute:
    """One route's answer to "is every partial sum nonnegative?".

    `minimum` is the smallest S_p over the orders 1..2^K on every atom;
    the exact route's is rounded once to float64.  `verdict` is "pass",
    "fail", or, for the float route, "within rounding" when the minimum
    lies in [-rounding_slack, rounding_slack).  Every route covers
    `atoms` x `orders` = 2^K x 2^K.
    """

    name: str
    arithmetic: str
    minimum: float
    verdict: str
    rounding_slack: float
    atoms: int
    orders: int


@dataclass(frozen=True)
class EquivalenceReport:
    """The two routes' verdicts.  `p3` (every M_k >= 0) and
    `shifted_m0[kj]`, `check_shifted_bound(series, kj, 0, kj)`'s verdict
    |N_kj| <= 2 M_kj for each kj < K, are read off the float route's
    walk."""

    all_prefixes_nonneg: bool
    inequality_holds: bool
    witness: PositivityWitness | None
    routes: tuple[PositivityRoute, ...]
    p3: bool
    shifted_m0: tuple[bool, ...]


# The exact route holds about this many bytes per atom per limb: on the
# seeded dense 2-limb series (coefficients uniform(-1, 1) 2^-U{0..20})
# its tracemalloc peak was 31.1 bytes per atom per limb at depth 16 and
# 24.5 at depth 20, three limb tables and block-sized scratch, and RSS
# rose by 18-21 at depths 16-20 (numpy 2.4); rounded up here.  The float
# walk before it holds no more.  The whole `theorem1-check` command on
# such a series, CSV reader included, took 2.5-3.4 s and 97 MiB of peak
# RSS at depth 20, 4.9-6.4 s and 164 MiB at 21, 10.5-13.0 s and 290 MiB
# at 22 and 22.6-26.5 s and 546 MiB at 23 on one shared Xeon core, the
# reader's text and rows setting the peak; the limit is the deepest
# depth under 30 s and 1 GiB.  `theorem1-check` refuses series deeper
# than the limit, and series whose limbs take more atoms than a 2-limb
# series at the limit.
THEOREM1_DEPTH_LIMIT = 23
_EXACT_BYTES_PER_ATOM = 32
_EXACT_LIMB_ATOMS = 2 << THEOREM1_DEPTH_LIMIT


def check_positivity_equivalence(series: WalshSeries) -> EquivalenceReport:
    """Every partial sum S_p >= 0 (exact) vs the maximal-function
    inequality N_k* <= M_k (float64), each over every order on every atom.

    The exact route runs `_segment_merge` over the coefficients' exact
    dyadic expansion held in int64 limbs, as many as its largest partial
    sum needs, which add and compare without rounding or wrapping, so its
    verdict is a proof for the series as the float64 array holds it, and
    it decides `all_prefixes_nonneg`.  Its minimum is confirmed from the
    definition at the first atom attaining it, in Python ints, once the
    limb tables are freed.  The float route is the martingale walk;
    `inequality_holds` is its literal verdict (minimum >= 0), read
    against the rounding allowance (K+1) 2^-52 ||S||_A as pass, fail or
    within rounding, and `p3` and `shifted_m0` come from the same walk.
    The two minima must agree within the allowance, else
    InvariantViolation.  On failure the witness comes from bisecting the
    order with the exact route, at most K more passes.  Both routes cost O(K 2^K); non-finite
    coefficients raise ValueError.
    """
    float_min, p3, shifted_m0 = _maximal_margin(series)  # first: it refuses non-finite coefficients
    width, exponent = _limb_width(series.coeffs)
    atom, low = _limb_argmin(_exact_prefix_minima(series.coeffs, width, exponent))
    # w_n(t) = w_t(n): the partial sums on one atom are a cumsum along n
    definition, first = _partial_sums_at(series.coeffs, atom, exponent)
    if definition != low:
        raise InvariantViolation(
            f"exact prefix extrema give {low} at atom {atom},"
            f" its partial sums {definition} (units of 2^{exponent})"
        )
    exact_min = _dyadic_float(low, exponent)
    # each partial sum is a K-deep tree of sums of terms of total modulus
    # at most ||S||_A
    slack = (series.depth + 1) * 2.0**-52 * float(np.sum(np.abs(series.coeffs)))
    if abs(float_min - exact_min) > slack:
        raise InvariantViolation(
            "exact and maximal-function routes disagree beyond the rounding"
            f" allowance {slack:.3e}: exact min {exact_min!r}, float min {float_min!r}"
        )
    witness = None
    if low < 0:
        witness = _first_negative(series.coeffs, width, exponent, first)
    size = series.order
    return EquivalenceReport(
        all_prefixes_nonneg=low >= 0,
        inequality_holds=float_min >= 0.0,
        witness=witness,
        p3=p3,
        shifted_m0=shifted_m0,
        routes=(
            PositivityRoute("exact prefix extrema", "integer-dyadic", exact_min,
                            "pass" if low >= 0 else "fail", 0.0, size, size),
            PositivityRoute("maximal function", "float64", float_min,
                            _float_verdict(float_min, slack), slack, size, size),
        ),
    )


# coefficients per chunk of the exact route's per-coefficient passes:
# their int64 and Python-int temporaries stay small beside the tables
_CHUNK = 1 << 14


def _dyadic_chunks(coeffs, exponent: int):
    """(lo, I, shift) for c_lo.., a chunk at a time, with
    c_n = I_n 2^(shift_n + exponent) exactly: the 53-bit integer mantissas
    of `np.frexp` (int64) and their shifts, nonnegative for an exponent
    at most every nonzero coefficient's frexp exponent less 53."""
    for lo in range(0, coeffs.size, _CHUNK):
        chunk = coeffs[lo : lo + _CHUNK]
        mantissa, exp = np.frexp(chunk)
        ints = np.ldexp(mantissa, 53).astype(np.int64)
        yield lo, ints, np.where(chunk != 0.0, exp.astype(np.int64) - 53 - exponent, 0)


def _limb_width(coeffs) -> tuple[int, int]:
    """(L, e): the int64 limbs the exact route needs for these finite
    coefficients (a dense series, or only its nonzero ones), and e, the
    smallest frexp exponent less 53 among them, so c_n = I_n 2^e with
    integers I_n.  Every partial sum is at most A = sum |I_n| in modulus,
    and L limbs of `walsh._LIMB_BITS` = 58 bits hold every value when
    A < 2^(58 L - 1): its top limb stays within 17 of
    value / 2^(58 (L - 1)), below 2^57 in modulus, between carries too
    (see `walsh._LIMB_BITS`), so the top limbs of two values, and their
    difference, are far from wrapping.  A is exact: per chunk, one
    bincount by shift of each of the mantissas' two 26-bit halves, whose
    float64 sums stay below 2^53.  Nothing of size 2^K is allocated past
    a few bytes per coefficient."""
    c = np.asarray(coeffs, dtype=np.float64)
    nonzero = c[c != 0.0]
    exponent = int(np.frexp(nonzero)[1].min()) - 53 if nonzero.size else 0
    total = 0
    for _, ints, shift in _dyadic_chunks(np.abs(c), exponent):
        high = np.bincount(shift, weights=ints >> 26).tolist()
        low = np.bincount(shift, weights=ints & ((1 << 26) - 1)).tolist()
        total += sum(((int(h) << 26) + int(l)) << k for k, (h, l) in enumerate(zip(high, low)))
    return max(1, -(-(total.bit_length() + 1) // _LIMB_BITS)), exponent


def _dyadic_limbs(coeffs, width: int, exponent: int):
    """The coefficients in units of 2^exponent (see `_limb_width`) as an
    int64 limb table of `width` limbs (see `walsh._segment_merge`),
    built a chunk at a time: a mantissa shifted by 58 q + r touches limbs q
    and q + 1 only, and lies whole in limb q when that is the top one."""
    table = np.zeros((width, coeffs.size), np.int64)
    for lo, ints, shift in _dyadic_chunks(coeffs, exponent):
        atoms = np.arange(lo, lo + ints.size)
        q, r = np.divmod(shift, _LIMB_BITS)
        top = q == width - 1
        table[-1, atoms[top]] = ints[top] << r[top]
        atoms, q, r, ints = atoms[~top], q[~top], r[~top], ints[~top]
        table[q, atoms] = (ints.view(np.uint64) << r.astype(np.uint64)).view(np.int64) & _LIMB_MASK
        table[q + 1, atoms] = ints >> (_LIMB_BITS - r)
    _carry(table[:, None], np.empty((1, coeffs.size), np.int64))
    return table


def _dyadic_float(value: int, exponent: int) -> float:
    """value 2^exponent, rounded once to float64 (int true division is
    correctly rounded)."""
    return value / (1 << -exponent) if exponent < 0 else float(value << exponent)


def _exact_prefix_minima(coeffs, width: int, exponent: int):
    """MN, the smallest nonempty partial sum on each of the 2^j atoms of
    c_0..c_(2^j - 1), as a limb table in units of 2^exponent:
    `_segment_merge` with one class of prefixes over `width` limbs."""
    s = _dyadic_limbs(coeffs, width, exponent)
    mx, mn = s[None].copy(), s[None].copy()
    for _ in _segment_merge(s, mx, mn):
        pass
    return mn[0]


def _limb_argmin(table):
    """The first atom of a limb table's smallest value, and that value as
    a Python int: the top limb decides first, then each one below."""
    atoms = np.flatnonzero(table[-1] == table[-1].min())
    for limb in table[-2::-1]:
        values = limb[atoms]
        atoms = atoms[values == values.min()]
    atom = int(atoms[0])
    return atom, sum(int(d) << (_LIMB_BITS * j) for j, d in enumerate(table[:, atom].tolist()))


def _partial_sums_at(coeffs, atom: int, exponent: int):
    """The smallest partial sum on one atom, from the definition in Python
    ints (units of 2^exponent), and the first order whose partial sum is
    negative there (None if none is): a cumsum along n of I_n w_n(atom),
    a chunk at a time."""
    low, first, total = None, None, 0
    for lo, ints, shift in _dyadic_chunks(coeffs, exponent):
        sums = ints.astype(object) << shift.astype(object)
        sums *= sign_vector(atom, np.arange(lo, lo + ints.size, dtype=np.uint64))
        sums[0] += total
        np.cumsum(sums, out=sums)
        total = sums[-1]
        low = min(sums.min(), total if low is None else low)
        if first is None and low < 0:
            first = lo + int(np.argmax(sums < 0)) + 1
    return low, first


def _first_negative(coeffs, width: int, exponent: int, hi: int) -> PositivityWitness:
    """The first order with a negative partial sum, at most `hi` (an order
    known to dip), and the first atom minimizing it.  Bisects the order:
    the smallest S_q over q <= p is the exact pass on c_0..c_(p-1),
    zero-padded to a power of two, in the whole series' limbs and units."""

    def minima_through(p):
        pad = (1 << (p - 1).bit_length()) - p
        return _exact_prefix_minima(np.concatenate([coeffs[:p], np.zeros(pad)]), width, exponent)

    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if minima_through(mid)[-1].min() < 0:
            hi = mid
        else:
            lo = mid
    # every S_q with q < hi is nonnegative, so MN < 0 exactly where S_hi is
    atom, value = _limb_argmin(minima_through(hi))
    return PositivityWitness("prefix", hi, atom, _dyadic_float(value, exponent))


def _maximal_margin(series: WalshSeries) -> tuple[float, bool, tuple[bool, ...]]:
    """The float route, one walk: the smallest M_k - N_k* over k < K and
    the atoms (M_0 at depth 0); p3, whether every M_k (k = 0..K) is
    nonnegative; and for each k < K whether |N_k| <= 2 M_k + 1e-12 on
    every atom, the shifted bound at m = 0.  Orders in (2^k, 2^(k+1)]
    read M_k +- a prefix of N_k, so the first is the smallest partial sum
    of every order: M_k - N_k* is min(M_k - MX, M_k + MN), rounding being
    monotone.  MX and MN include N_k's full sum, whose values M_k +- N_k
    are the two halves of M_(k+1).  The walk's M_k and N_k are
    `butterfly`'s of c[:2^k] and c[2^k:2^(k+1)] bit for bit, so the
    shifted verdicts are `check_shifted_bound(series, k, 0, k)`'s.
    Non-finite coefficients raise ValueError."""
    _require_finite(series.coeffs)
    # per level: the smallest M_k, then M_k + MN and M_k - MX below K
    lows, shifted = [], []
    for m, n, mx, mn in _martingale_walk(series.coeffs):
        lows.append([float(t.min()) for t in ([m] if n is None else [m, m + mn, m - mx])])
        if n is not None:
            shifted.append(bool(np.all(np.abs(n) <= 2.0 * m + _SHIFTED_TOL)))
    return min(map(min, lows)), min(low[0] for low in lows) >= 0.0, tuple(shifted)


def _float_verdict(low: float, slack: float) -> str:
    if low >= slack:
        return "pass"
    return "fail" if low < -slack else "within rounding"


# the shifted bound's allowance for rounding, absolute
_SHIFTED_TOL = 1e-12


def check_shifted_bound(
    series: WalshSeries, kj: int, m, k: int, tol: float = _SHIFTED_TOL
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
    """True iff every M_k is pointwise nonnegative (k = 0..K), read off
    the float route's walk (`check_positivity_equivalence` reports the
    same verdict as `p3`); non-finite coefficients raise ValueError.

    Equivalent to nonnegativity of the depth-K atom masses, since each
    M_k is a conditional average of M_K.
    """
    return _maximal_margin(series)[1]


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

# The dense diagnostics below hold tables of 2^depth atoms: a CLI build
# peaked at 358 MB of RSS at depth 22 (9 s) and at 2.6 GB at depth 25
# (82 s), about this many bytes per atom, so depth 24 needs about 1.3 GB.
DIAGNOSTIC_DEPTH_LIMIT = 24
_DIAGNOSTIC_BYTES_PER_ATOM = 80


def _dense_depth(factors) -> int:
    """The top coordinate of the factors' blocks, refused past
    DIAGNOSTIC_DEPTH_LIMIT before any table of its atoms is allocated."""
    depth = max((f.block[-1] for f in factors), default=0)
    if depth > DIAGNOSTIC_DEPTH_LIMIT:
        raise CoordinateBudgetError(
            f"depth {depth} is past the dense diagnostics' limit {DIAGNOSTIC_DEPTH_LIMIT}:"
            f" they would hold about {_DIAGNOSTIC_BYTES_PER_ATOM << depth:,} bytes"
        )
    return depth


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


def _concentration(masses: np.ndarray) -> dict[float, float]:
    """The concentration curve at every CONCENTRATION_FRACTIONS delta,
    from one sort and one cumsum of the masses."""
    order = np.sort(masses)[::-1]
    cum = np.cumsum(order)
    curve = {}
    for delta in CONCENTRATION_FRACTIONS:
        target = delta * cum[-1]
        i = int(np.searchsorted(cum, target))
        prev = cum[i - 1] if i > 0 else 0.0
        atoms = float(i) if target <= prev else i + (target - prev) / order[i]
        curve[delta] = float(atoms / masses.size)
    return curve


def singularity_report(
    state: RieszProductState, cross_check_tol: float = 1e-9
) -> SingularityReport:
    """The SingularityReport of every stage of `state`.  A signed
    product has no Hellinger affinity: ValueError when some Pi_k dips
    below 0, read off the factors' ranges before any table is built."""
    _dense_depth(state.factors)
    for k, (low, _) in enumerate(_product_ranges(state.factors)):
        if low < 0.0:
            raise ValueError(f"Pi_{k} takes the negative value {low!r}: sqrt(Pi_{k}) is undefined")
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
        concentration.append(_concentration(masses))
        l1.append(float(np.abs(vals).mean()))

    # np.max keeps a NaN gap, which the negated test then refuses
    gap = float(np.max(np.abs(np.subtract(hellinger, direct))))
    if not gap <= cross_check_tol:
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
    depth = _dense_depth(factors)
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
    alpha = _monomial(alpha, len(factors))
    active = [(f, a) for f, a in zip(factors, alpha) if a > 0]
    depth = _dense_depth(f for f, _ in active)
    prod = np.ones(1 << depth)
    for f, a in active:
        vals = factor_values(f, depth)
        prod *= vals if a == 1 else vals * vals
    return bool(abs(float(prod.mean())) <= tol)
