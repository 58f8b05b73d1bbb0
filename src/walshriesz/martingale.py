"""Dyadic-martingale analysis of Walsh series and product measures.

The 2^k-order partial sums M_k of a series form a dyadic martingale:

    M_(k+1) = M_k + r_(k+1) N_k,   N_k = sum_(m < 2^k) c_(2^k + m) w_m

and the maximal prefix function N_k* = sup_(n < 2^k) |sum_(m <= n)
N_hat_k(m) w_m| turns positivity of ALL partial sums into a pointwise
inequality on the martingale:

    every S_p >= 0  (0 <= p <= 2^K)   <=>   N_k* <= M_k for every k < K

(the sums of order q in (2^k, 2^(k+1)] read M_k +- a prefix of N_k, and
both signs of r_(k+1) occur on atoms), so min_k (M_k - N_k*) = min_p S_p
and the two sides are one predicate.  One float64 walk of
`walsh._segment_merge` holds M_k, N_k and N_k's prefix extremes at every
level, O(K 2^K), and decides every verdict whose value lies outside its
derived rounding allowance (`_allowance`); one exact walk, the same
merge over int64 limbs holding the coefficients' dyadic expansion,
settles the rest.  Every run also recomputes the partial sums at one
atom from the definition, in Python ints, sharing no code with the
merge; a bug in the merge itself is caught by the tests' scan oracle
(`walsh.prefix_scan` over `sign_vector`).

Products Pi_k = prod (1 + X_i) over disjoint blocks are certified
singular-at-finite-scale via Hellinger affinity E_lambda sqrt(Pi_k),
which is multiplicative across independent factors and strictly below 1
per factor, and via mass-concentration curves: the smallest Haar measure
carrying a given fraction of the product's mass.
"""

from __future__ import annotations

import math
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
    first atom minimizing S_p and `value` that minimum, all exact, so
    `kind` is always "prefix".
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
    "fail", or, for the float walk, "within rounding" when the minimum
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
    """The exact verdicts: `all_prefixes_nonneg` and `inequality_holds`
    (one predicate), `p3` (every M_k >= 0) and `shifted_m0[kj]`,
    |N_kj| <= 2 M_kj on every atom for each kj < K.  `routes` are the
    routes that ran, the float walk first, the exact walk only when some
    verdict fell within the float walk's allowance; `decided_by` is
    "float64" when none did, else "integer-dyadic"."""

    all_prefixes_nonneg: bool
    inequality_holds: bool
    witness: PositivityWitness | None
    routes: tuple[PositivityRoute, ...]
    p3: bool
    shifted_m0: tuple[bool, ...]
    decided_by: str


# The exact route holds about this many bytes per atom per limb: on the
# seeded dense 2-limb series (coefficients uniform(-1, 1) 2^-U{0..20})
# its tracemalloc peak was 24.5-31.1 bytes per atom per limb at depths
# 16-20, three limb tables and block-sized scratch (numpy 2.4); rounded
# up here.  The float walk before it holds no more.  The whole
# `theorem1-check` on such a series, exact walk run, took 2.5-3.4 s and
# 97 MiB of peak RSS at depth 20 and 22.6-26.5 s and 546 MiB at 23 on
# one shared Xeon core, the reader setting the peak; the limit is the
# deepest depth under 30 s and 1 GiB.  `theorem1-check` refuses deeper
# series, and series whose limbs take more atoms than a 2-limb series at
# the limit.
THEOREM1_DEPTH_LIMIT = 23
_EXACT_BYTES_PER_ATOM = 32
_EXACT_LIMB_ATOMS = 2 << THEOREM1_DEPTH_LIMIT


def check_positivity_equivalence(series: WalshSeries, limbs=None) -> EquivalenceReport:
    """Every S_p >= 0, i.e. N_k* <= M_k at every level, p3 and the m = 0
    shifted bounds, over every order on every atom (`limbs`: the
    caller's `_limb_width` of the coefficients, if it has it).

    The float64 walk (`_maximal_margin`) decides each verdict whose value
    lies outside the allowance `_allowance`.  If any lies within it, one
    exact walk runs, `_segment_merge` over the coefficients' dyadic
    expansion in int64 limbs, which add and compare without rounding or
    wrapping: its smallest prefix decides positivity, the sign of its M_K
    p3 (each M_k is a conditional average of M_K), limb butterflies the
    undecided shifted levels, and its minimum must lie within the
    allowance of the walk's.  Every run recomputes the partial sums at
    one atom, the exact minimum's or else the walk's, from the definition
    in Python ints, which must agree (else InvariantViolation).  The
    witness comes from bisecting the order with the exact merge, at most
    K more passes.  Non-finite coefficients raise ValueError.
    """
    low, atom, p3_low, margins = _maximal_margin(series)  # first: it refuses non-finite coefficients
    c, size = series.coeffs, series.order
    slack = _allowance(series)
    positive, p3 = _decide(low, slack), _decide(p3_low, slack)
    shifted = [_decide(margin, slack) for margin in margins]
    width, exponent = limbs or _limb_width(c)
    routes = [PositivityRoute("maximal function", "float64", low,
                              {True: "pass", False: "fail", None: "within rounding"}[positive],
                              slack, size, size)]
    exact = None in (positive, p3, *shifted)
    if exact:
        top, minima = _exact_prefix_minima(c, width, exponent)
        (atom, exact_low), exact_p3 = _limb_argmin(minima), bool(top[-1].min() >= 0)
        del top, minima  # freed before the shifted levels' butterflies
        if p3 not in (None, exact_p3):
            raise InvariantViolation(f"the float walk's p3 {p3} is not the exact walk's")
        positive, p3 = exact_low >= 0, exact_p3
        shifted = [_exact_shifted(c, k, width, exponent) if s is None else s
                   for k, s in enumerate(shifted)]
        routes.append(PositivityRoute("exact prefix extrema", "integer-dyadic",
                                      _dyadic_float(exact_low, exponent),
                                      "pass" if positive else "fail", 0.0, size, size))
    # w_n(t) = w_t(n): the partial sums on one atom are a cumsum along n
    definition, first = _partial_sums_at(c, atom, exponent)
    if exact and definition != exact_low:
        raise InvariantViolation(
            f"exact prefix extrema give {exact_low} at atom {atom},"
            f" its partial sums {definition} (units of 2^{exponent})"
        )
    reference = _dyadic_float(definition, exponent)
    if abs(low - reference) > slack:
        raise InvariantViolation(
            f"the float walk's minimum {low!r} and the exact {reference!r} (atom {atom})"
            f" disagree beyond the rounding allowance {slack:.3e}"
        )
    return EquivalenceReport(
        all_prefixes_nonneg=positive,
        inequality_holds=positive,
        witness=None if positive else _first_negative(c, width, exponent, first),
        routes=tuple(routes),
        p3=p3,
        shifted_m0=tuple(shifted),
        decided_by="integer-dyadic" if exact else "float64",
    )


def _allowance(series: WalshSeries) -> float:
    """(K+1) 2^-52 ||S||_A, which bounds the float walk's rounding error
    in each value it decides by; inf when ||S||_A >= 2^1022.

    Each value is built from sums of terms +-c_n over binary trees at
    most K deep by max, min, abs and doubling, which are exact (a max or
    min errs no more than its worst operand).  A sum rounds by at most
    u = 2^-53 relative (one whose exact result is subnormal is exact), so
    a depth-d tree errs by at most gamma_d sum |terms|,
    gamma_d = d u / (1 - d u) (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 4).  Positivity's values M_k, M_k + MN and
    M_k - MX (MN, MX prefixes of N_k, depth k over c[2^k:2^(k+1)]) and
    p3's M_k (depth k over c[:2^k]) err by at most gamma_K ||S||_A.  The
    shifted margin 2 M_k - |N_k|, k < K, errs by gamma_k (2 sum_(n<2^k)
    |c_n| + N_k's) plus its own rounding u (2 |M_k| + |N_k|): at most
    2 (k+1) u ||S||_A <= 2 K u ||S||_A to first order.  All lie below
    2 (K+1) u ||S||_A by a factor (K+1)/K or more, far more than the
    float64 sum of |c_n| errs by; its scaling is exact, but for a
    subnormal result's 2^-1075, which matters only when
    ||S||_A < 2^-1023, where every partial sum, a multiple of 2^-1074
    below 2^-1021, is exact.  Below 2^1022 no sum, nor 2 M_k, overflows."""
    total = float(np.sum(np.abs(series.coeffs)))
    return (series.depth + 1) * 2.0**-52 * total if total < 2.0**1022 else math.inf


def _decide(value: float, slack: float) -> bool | None:
    """Whether a value off its exact one by at most `slack` proves that
    one nonnegative (True) or negative (False); None within the slack."""
    return True if value >= slack else False if value < -slack else None


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
    correctly rounded), +-inf past its range."""
    try:
        return value / (1 << -exponent) if exponent < 0 else float(value << exponent)
    except OverflowError:
        return math.copysign(math.inf, value)


def _exact_prefix_minima(coeffs, width: int, exponent: int):
    """(M, MN): the full sum and the smallest nonempty partial sum on each
    of the 2^j atoms of c_0..c_(2^j - 1), as carried limb tables in units
    of 2^exponent: `_segment_merge` with one class of prefixes over
    `width` limbs."""
    s = _dyadic_limbs(coeffs, width, exponent)
    mx, mn = s[None].copy(), s[None].copy()
    for _ in _segment_merge(s, mx, mn):
        pass
    return s, mn[0]


def _exact_shifted(coeffs, k: int, width: int, exponent: int) -> bool:
    """|N_k| <= 2 M_k on every atom, exactly: the signs of 2 M_k -+ N_k
    from limb butterflies of c[:2^k] and c[2^k:2^(k+1)]; `width` limbs
    hold them (|2 M_k| + |N_k| <= 2 sum |I_n|, see `_limb_width`)."""
    m, n = (_dyadic_limbs(part, width, exponent) for part in (coeffs[: 1 << k], coeffs[1 << k : 2 << k]))
    for t in (m, n):
        for _ in _segment_merge(t, np.empty((0, *t.shape), np.int64), np.empty((0, *t.shape), np.int64)):
            pass
    for d in (2 * m - n, 2 * m + n):
        if _carry(d[:, None], np.empty((1, d.shape[1]), np.int64))[-1].min() < 0:
            return False
    return True


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
    negative there (None if none is): a cumsum of I_n w_n(atom) over the
    nonzero coefficients, a chunk at a time.  A zero coefficient repeats
    the partial sum before it, so it changes neither; the orders up to
    the first nonzero coefficient sum to 0."""
    nonzero = np.flatnonzero(coeffs)
    low = 0 if nonzero.size == 0 or nonzero[0] > 0 else None
    first, total = None, 0
    for lo, ints, shift in _dyadic_chunks(coeffs[nonzero], exponent):
        index = nonzero[lo : lo + ints.size]
        sums = ints.astype(object) << shift.astype(object)
        sums *= sign_vector(atom, index.astype(np.uint64))
        sums[0] += total
        np.cumsum(sums, out=sums)
        total = sums[-1]
        low = sums.min() if low is None else min(sums.min(), low)
        if first is None and low < 0:
            first = int(index[np.argmax(sums < 0)]) + 1
    return low, first


def _first_negative(coeffs, width: int, exponent: int, hi: int) -> PositivityWitness:
    """The first order with a negative partial sum, at most `hi` (an order
    known to dip), and the first atom minimizing it.  Bisects the order:
    the smallest S_q over q <= p is the exact pass on c_0..c_(p-1),
    zero-padded to a power of two, in the whole series' limbs and units."""

    def minima_through(p):
        pad = (1 << (p - 1).bit_length()) - p
        return _exact_prefix_minima(np.concatenate([coeffs[:p], np.zeros(pad)]), width, exponent)[1]

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


def _maximal_margin(series: WalshSeries) -> tuple[float, int, float, tuple[float, ...]]:
    """The float walk: (low, atom, p3_low, margins).  low is the smallest
    M_k (M_0 = S_1) and M_k - N_k* = min(M_k + MN, M_k - MX), k < K,
    over the atoms: the smallest partial sum of every order, those in
    (2^k, 2^(k+1)] reading M_k +- a prefix of N_k (MX and MN include its
    full sum).  atom is the first full-depth atom where low falls: index
    a of level k is atom a for M_k and M_k + MN (r_(k+1) = +1) and
    a + 2^k for M_k - MX.  p3_low is the smallest M_k (k = 0..K), margins[k] the
    smallest 2 M_k - |N_k| (k < K).  Non-finite coefficients raise
    ValueError."""
    _require_finite(series.coeffs)
    lows, atoms, p3_lows, margins = [], [], [], []
    for m, n, mx, mn in _martingale_walk(series.coeffs):
        p3_lows.append(m.min())
        for table, offset in [(m, 0)] if n is None else [(m, 0), (m + mn, 0), (m - mx, m.size)]:
            i = int(np.argmin(table))
            lows.append(table[i])
            atoms.append(i + offset)
        if n is not None:
            margins.append(float(np.min(2.0 * m - np.abs(n))))
    first = int(np.argmin(lows))
    return float(lows[first]), atoms[first], float(np.min(p3_lows)), tuple(margins)


def check_shifted_bound(series: WalshSeries, kj: int, m, k: int, tol: float = 0.0) -> bool:
    """Pointwise |2^k-prefix of w_m N_kj| <= 2 M_kj + tol on the first-kj
    atoms, in float64, `tol` allowing for rounding.

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
    """True iff every M_k (k = 0..K), a conditional average of the atom
    masses M_K, is pointwise nonnegative: `check_positivity_equivalence`'s
    exact p3.  Non-finite coefficients raise ValueError."""
    return check_positivity_equivalence(series).p3


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
