"""Dyadic-martingale analysis of Walsh series and product measures.

The 2^k-order partial sums M_k of a series form a dyadic martingale:

    M_(k+1) = M_k + r_(k+1) N_k,   N_k = sum_(m < 2^k) c_(2^k + m) w_m

and the maximal prefix function N_k* = sup_(n < 2^k) |sum_(m <= n)
N_hat_k(m) w_m| turns positivity of ALL partial sums into a pointwise
inequality on the martingale:

    every S_p >= 0  (0 <= p <= 2^K)   <=>   N_k* <= M_k for every k < K

(the sums of order q in (2^k, 2^(k+1)] read M_k +- a prefix of N_k, and
both signs of r_(k+1) occur on atoms), so min_k (M_k - N_k*) = min_p S_p
and the two sides are one predicate.  It also gives p3, every M_k >= 0,
and with it the m = 0 shifted bounds: M_(k+1) = M_k +- N_k >= 0 on the
two halves of each atom gives |N_k| <= M_k <= 2 M_k.  One float64
`walsh.prefix_extrema` pass over the whole series reads min_p S_p as its
smallest MN and p3 off M_K, its full sum, O(k 2^k) for each nonzero
block N_k and O(2^k) for each block of +0.0, and decides every verdict
whose value lies outside its derived rounding allowance (`_allowance`);
one exact pass, the same merge over int64 limbs holding the
coefficients' dyadic expansion, settles the rest.  Every run also
recomputes the partial sums at one atom from the definition, exactly in
int64 digits, sharing no code with the merge; a bug in the merge itself
is caught by the tests' scan oracle (`walsh.prefix_scan` over
`sign_vector`).

Products Pi_k = prod (1 + X_i) over disjoint blocks are certified
singular-at-finite-scale via Hellinger affinity E_lambda sqrt(Pi_k),
which is multiplicative across independent factors and strictly below 1
per factor, and via mass-concentration curves: the smallest Haar measure
carrying a given fraction of the product's mass.  Both are read off
Pi_k's few distinct values and their counts, not off its atoms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .riesz import CoordinateBudgetError, RieszProductState, Spectrum, _exact_sum, _histogram
from .riesz import SPECTRUM_LIMIT, _product_ranges, factor_values, product_values
from .walsh import (
    THEOREM1_DEPTH_LIMIT,
    AtomTable,
    InvariantViolation,
    WalshSeries,
    _LIMB_BITS,
    _LIMB_MASK,
    _carry,
    _segment_merge,
    butterfly,
    multiply_by_walsh,
    partial_sum,
    prefix_extrema,
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
    (w_(2^k + m) = r_(k+1) w_m for m < 2^k).  M_k is `butterfly(c[:2^k])`
    and (N_k, MX, MN) are `prefix_extrema(c[2^k:2^(k+1)])`, whose MX and
    MN are the extremes of N_k's nonempty prefixes, its full sum
    included, so N_k* = max(MX, -MN): O(K 2^K) in all.  Non-finite
    coefficients raise ValueError.
    """
    c = series.coeffs
    m_tables = [AtomTable(k, butterfly(c[: 1 << k])) for k in range(series.depth + 1)]
    n_tables, n_star = [], []
    for k in range(series.depth):
        n, mx, mn = prefix_extrema(c[1 << k : 2 << k])
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
    "fail", or, for the float pass, "within rounding" when the minimum
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
    (one predicate) and `p3` (every M_k >= 0, which proves the m = 0
    shifted bound |N_k| <= 2 M_k at every level k < K).  `routes` are the
    routes that ran, the float pass first, the exact pass only when some
    verdict fell within the float pass's allowance; `decided_by` is
    "float64" when none did, else "integer-dyadic"."""

    all_prefixes_nonneg: bool
    inequality_holds: bool
    witness: PositivityWitness | None
    routes: tuple[PositivityRoute, ...]
    p3: bool
    decided_by: str


# The exact route holds about this many bytes per atom per limb: on the
# seeded dense 2-limb series (coefficients uniform(-1, 1) 2^-U{0..20})
# its tracemalloc peak was 24.5-31.1 bytes per atom per limb at depths
# 16-20, three limb tables and block-sized scratch (numpy 2.4); rounded
# up here.  The float pass before it holds no more.  Limbs that would
# take more atoms than a 2-limb series at `walsh.THEOREM1_DEPTH_LIMIT`
# are refused (`_exact_width`) just before an exact merge would run.
_EXACT_BYTES_PER_ATOM = 32
_EXACT_LIMB_ATOMS = 2 << THEOREM1_DEPTH_LIMIT


def check_positivity_equivalence(series: WalshSeries) -> EquivalenceReport:
    """Every S_p >= 0, i.e. N_k* <= M_k at every level, and p3, over
    every order on every atom.

    The float64 pass (`_maximal_margin`) decides each verdict whose value
    lies outside the allowance `_allowance`: positivity by the smallest
    partial sum, p3 by the smallest M_K.  If either lies within it, one
    exact pass runs, `_segment_merge` over the coefficients' dyadic
    expansion in int64 limbs, which add and compare without rounding or
    wrapping: its smallest prefix decides positivity, the sign of its M_K
    p3, and its minimum must lie within the allowance of the float
    pass's.  Every run recomputes the partial sums at one atom, the exact
    minimum's or else the float pass's, from the definition
    (`_partial_sums_at`), which must agree (else InvariantViolation).  The
    witness comes from bisecting the order with the exact merge, at most
    K more passes.  Limbs too many for the exact merge raise
    CoordinateBudgetError before it runs (`_exact_width`), and non-finite
    coefficients ValueError.
    """
    # sums past float64's range read +-inf or nan, unwarned: the allowance
    # is inf there, and the exact pass decides
    with np.errstate(over="ignore", invalid="ignore"):
        low, atom, p3_low = _maximal_margin(series)  # first: it refuses non-finite coefficients
        slack = _allowance(series)
    c, size = series.coeffs, series.order
    positive, p3 = _decide(low, slack), _decide(p3_low, slack)
    exponent, width = _dyadic_exponent(c), None
    routes = [PositivityRoute("maximal function", "float64", low,
                              {True: "pass", False: "fail", None: "within rounding"}[positive],
                              slack, size, size)]
    exact = None in (positive, p3)
    if exact:
        width = _exact_width(series)
        top, minima = _exact_prefix_minima(c, width, exponent)
        (atom, exact_low), exact_p3 = _limb_argmin(minima), bool(top[-1].min() >= 0)
        del top, minima  # freed before the witness's bisection
        if p3 not in (None, exact_p3):
            raise InvariantViolation(f"the float pass's p3 {p3} is not the exact pass's")
        positive, p3 = exact_low >= 0, exact_p3
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
            f"the float pass's minimum {low!r} and the exact {reference!r} (atom {atom})"
            f" disagree beyond the rounding allowance {slack:.3e}"
        )
    return EquivalenceReport(
        all_prefixes_nonneg=positive,
        inequality_holds=positive,
        witness=None if positive else _first_negative(c, width or _exact_width(series), exponent, first),
        routes=tuple(routes),
        p3=p3,
        decided_by="integer-dyadic" if exact else "float64",
    )


def _allowance(series: WalshSeries) -> float:
    """(K+1) 2^-52 ||S||_A, which bounds the float pass's rounding error
    in each value it decides by; inf when ||S||_A >= 2^1022.

    Each value is built from sums of terms +-c_n over binary trees at
    most K deep by max, min, abs and doubling, which are exact (a max or
    min errs no more than its worst operand).  A sum rounds by at most
    u = 2^-53 relative (one whose exact result is subnormal is exact), so
    a depth-d tree errs by at most gamma_d sum |terms|,
    gamma_d = d u / (1 - d u) (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 4).  Positivity's value, the pass's MN, is
    some M_k + MN_k or M_k - MX_k (MN_k, MX_k prefixes of N_k, depth k
    over c[2^k:2^(k+1)]), and p3's is M_K: both err by at most
    gamma_K ||S||_A.
    `cli._shifted_bound_sweep` takes this allowance as the `tol` of
    `check_shifted_bound`, which compares |N_k|, k < K, with 2 M_k + tol:
    the two sides err by gamma_k (2 sum_(n<2^k) |c_n| + N_k's) and the
    rounding of adding tol, u (2 |M_k| + tol), at most
    2 (k+1) u ||S||_A <= 2 K u ||S||_A to first order, so a failure
    proves |N_k| > 2 M_k.  All lie below
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


def _dyadic_exponent(coeffs) -> int:
    """The smallest frexp exponent less 53 among the nonzero coefficients,
    0 if none is: c_n = I_n 2^e with integers I_n."""
    return int(np.frexp(coeffs[coeffs != 0.0])[1].min()) - 53 if coeffs.any() else 0


def _exact_width(series: WalshSeries) -> int:
    """The limbs of `_limb_width` for the exact merge over the series,
    refused (CoordinateBudgetError, naming the limbs and the bytes) when
    they would take more atoms than a 2-limb series at the depth limit."""
    width = _limb_width(series.coeffs)[0]
    if width << series.depth > _EXACT_LIMB_ATOMS:
        raise CoordinateBudgetError(
            f"the exact positivity route would hold {width} int64 limbs per value, about"
            f" {width * _EXACT_BYTES_PER_ATOM << series.depth:,} bytes at depth {series.depth}, past"
            f" the {_EXACT_BYTES_PER_ATOM * _EXACT_LIMB_ATOMS:,} bytes of a 2-limb series at the"
            f" depth limit {THEOREM1_DEPTH_LIMIT}: the coefficients' exponents are too far apart")
    return width


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
    exponent = _dyadic_exponent(c)
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
    _segment_merge(s, mx, mn)
    return s, mn[0]


def _limb_argmin(table):
    """The first atom of a limb table's smallest value, and that value as
    a Python int: the top limb decides first, then each one below."""
    atoms = np.flatnonzero(table[-1] == table[-1].min())
    for limb in table[-2::-1]:
        values = limb[atoms]
        atoms = atoms[values == values.min()]
    atom = int(atoms[0])
    return atom, sum(int(d) << (_LIMB_BITS * j) for j, d in enumerate(table[:, atom].tolist()))


# `_partial_sums_at` sums int64 digits of 48 bits: `_CHUNK` = 2^14 of
# them and a carried one stay below 2^63
_DIGIT_BITS = 48
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1


def _partial_sums_at(coeffs, atom: int, exponent: int):
    """The smallest partial sum on one atom, from the definition (a Python
    int, units of 2^exponent), and the first order whose partial sum is
    negative there (None if none is): a cumsum of I_n w_n(atom) over the
    nonzero coefficients, a chunk at a time.  A zero coefficient repeats
    the partial sum before it, so it changes neither; the orders up to
    the first nonzero coefficient sum to 0.  Exact, and in no code of the
    merge's: each term is three digits of `_DIGIT_BITS` bits, summed row
    by row along the chunk, and each sum carried into a signed top digit
    over low ones in [0, 2^48)."""
    nonzero = np.flatnonzero(coeffs)
    low = 0 if nonzero.size == 0 or nonzero[0] > 0 else None
    first, total = None, 0
    top = math.frexp(float(np.max(np.abs(coeffs), initial=0.0)))[1] - exponent
    width = (top + nonzero.size.bit_length()) // _DIGIT_BITS + 2  # holds every partial sum
    for lo, ints, shift in _dyadic_chunks(coeffs[nonzero], exponent):
        index = nonzero[lo : lo + ints.size]
        signs = sign_vector(atom, index.astype(np.uint64))
        q = shift // _DIGIT_BITS
        r = shift - _DIGIT_BITS * q
        sums = np.zeros((width, ints.size), np.int64)
        flat, at = sums.ravel(), q * ints.size + np.arange(ints.size)  # digit q of each column
        flat[at] = ((ints & (1 << (_DIGIT_BITS - r)) - 1) << r) * signs
        flat[at + ints.size] = ((ints >> (_DIGIT_BITS - r)) & _DIGIT_MASK) * signs
        flat[at + 2 * ints.size] = (ints >> np.minimum(2 * _DIGIT_BITS - r, 63)) * signs
        sums[:, 0] += total
        np.cumsum(sums, axis=1, out=sums)
        for j in range(width - 1):
            sums[j + 1] += sums[j] >> _DIGIT_BITS
            sums[j] &= _DIGIT_MASK
        total, columns = sums[:, -1].copy(), np.arange(ints.size)
        for digits in sums[::-1]:
            columns = columns[digits[columns] == digits[columns].min()]
        least = sum(int(d) << (_DIGIT_BITS * j) for j, d in enumerate(sums[:, columns[0]].tolist()))
        low = least if low is None else min(least, low)
        if first is None and low < 0:
            first = int(index[np.argmax(sums[-1] < 0)]) + 1
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


def _maximal_margin(series: WalshSeries) -> tuple[float, int, float]:
    """The float pass: (low, atom, p3_low) from one `prefix_extrema` over
    the whole series.  low is its smallest MN, the smallest partial sum
    of every order 1..2^K over every atom (an order in (2^k, 2^(k+1)]
    reads M_k +- a prefix of N_k, which the merge's level k forms), and
    atom the first atom where it falls.  p3_low is the smallest M_K, the
    pass's S: each M_k is a conditional average of M_K, so every M_k is
    nonnegative exactly when M_K is.  Non-finite coefficients raise
    ValueError."""
    s, _, mn = prefix_extrema(series.coeffs)
    atom = int(np.argmin(mn))
    return float(mn[atom]), atom, float(s.min())


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
    # views: the gather of `multiply_by_walsh` and `butterfly` copy
    n_series = WalshSeries(kj, series.coeffs[1 << kj : 1 << (kj + 1)])
    shifted = multiply_by_walsh(n_series, m)
    order = min(1 << k, n_series.order)
    prefix = partial_sum(shifted, order).values
    m_vals = butterfly(series.coeffs[: 1 << kj])
    return bool(np.all(np.abs(prefix) <= 2.0 * m_vals + tol))


def check_p3(series: WalshSeries) -> bool:
    """True iff every M_k (k = 0..K), a conditional average of the atom
    masses M_K, is pointwise nonnegative: `check_positivity_equivalence`'s
    exact p3.  Non-finite coefficients raise ValueError."""
    return check_positivity_equivalence(series).p3


def dyadic_block_envelope(series: WalshSeries | Spectrum) -> list[tuple[int, float]]:
    """(k, max_(2^k <= n < 2^(k+1)) |c_n|) for each dyadic block below the
    top index (0.0 for an empty block), dense or sparse, at any depth.

    A monitored decay diagnostic; nothing is asserted about it.  A dense
    series' blocks are its slices c[2^k:2^(k+1)], read in place.
    """
    mags = np.abs(series.coeffs)
    if isinstance(series, WalshSeries):
        edges = [1 << k for k in range(series.depth + 1)]
    else:
        depth = int(series.indices[-1]).bit_length()
        # every index is below 2^depth, so the last edge is the end (2^63 overflows)
        edges = np.append(np.searchsorted(series.indices, [1 << k for k in range(depth)]), len(series))
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
    empty product); hellinger_direct cross-checks against E sqrt(Pi_k),
    read off Pi_k's value histogram, not off the atom space.
    concentration[k][delta] is the smallest Haar measure of a set
    carrying the fraction delta of Pi_k's mass, for each delta in
    CONCENTRATION_FRACTIONS (fractional atoms allowed: the group refines
    every finite atom).
    """

    hellinger: tuple[float, ...]
    hellinger_direct: tuple[float, ...]
    concentration: tuple[dict[float, float], ...]


def _mean(values: np.ndarray, counts: np.ndarray) -> float:
    """The mean of a histogram's values, exact and rounded once (its
    total count is a power of two)."""
    return _exact_sum(values, counts) / int(counts.sum())


def _concentration(values: np.ndarray, counts: np.ndarray) -> dict[float, float]:
    """The concentration curve at every CONCENTRATION_FRACTIONS delta from
    Pi's value histogram (`values` ascending, each on `counts` atoms).
    The heaviest atoms come first, and within a group of equal masses the
    mass grows linearly, so one cumsum over the groups serves: delta of
    the mass is reached in the first group g whose cumulative mass C_g
    reaches it, after T_(g-1) + (target - C_(g-1)) / value_g atoms."""
    values, counts = values[::-1], counts[::-1]
    cum, atoms = np.cumsum(values * counts), np.cumsum(counts)
    curve = {}
    for delta in CONCENTRATION_FRACTIONS:
        target = delta * cum[-1]
        g = int(np.searchsorted(cum, target))
        prev, before = (cum[g - 1], int(atoms[g - 1])) if g > 0 else (0.0, 0)
        taken = before if target <= prev else before + (target - prev) / values[g]
        curve[delta] = float(taken / int(atoms[-1]))
    return curve


def singularity_report(
    state: RieszProductState, cross_check_tol: float = 1e-9
) -> SingularityReport:
    """The SingularityReport of every stage of `state`, from value
    histograms: each factor's 1 + X (`Factor.value_histogram`, from the
    pair law for a construction factor), and Pi_k's as
    the products of Pi_(k-1)'s distinct values and those of 1 + X_k, in
    the factors' order, each on the product of their counts (the blocks
    are disjoint), the values the dense product takes, bit for bit.
    Every mean is exact and rounded once.  A signed or non-finite
    product has no Hellinger affinity: ValueError when some Pi_k dips
    below 0 or is not finite, read off the factors' ranges before any
    histogram is built."""
    for k, (low, high) in enumerate(_product_ranges(state.factors)):
        if low < 0.0:
            raise ValueError(f"Pi_{k} takes the negative value {low!r}: sqrt(Pi_{k}) is undefined")
        if not high < math.inf:
            raise ValueError(f"Pi_{k} takes the value {high!r}: its means are undefined")
    hellinger = [1.0]
    direct = [1.0]
    concentration = [{d: d for d in CONCENTRATION_FRACTIONS}]
    values, counts = np.ones(1), np.ones(1, np.int64)  # Pi_0's histogram
    for factor in state.factors:
        fvalues, fcounts = factor.value_histogram
        hellinger.append(hellinger[-1] * _mean(np.sqrt(fvalues), fcounts))
        values, counts = _histogram(np.multiply.outer(values, fvalues).ravel(),
                                    np.multiply.outer(counts, fcounts).ravel())
        direct.append(_mean(np.sqrt(values), counts))
        concentration.append(_concentration(values, counts))

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


def _groups(factors) -> list[tuple[list[int], list[int]]]:
    """The factors' positions, joined while their blocks share a
    coordinate, each group with the increasing union of its blocks.
    Groups share no coordinate, so they are independent under Haar
    measure; a valid state's groups are its single factors.  A group on
    more than log2 SPECTRUM_LIMIT = 24 coordinates raises
    CoordinateBudgetError, before any table of its atoms is allocated."""
    groups = []
    for i, f in enumerate(factors):
        members, coords = [i], set(f.block)
        for group in [g for g in groups if g[1] & coords]:
            groups.remove(group)
            members, coords = group[0] + members, group[1] | coords
        groups.append((members, coords))
    for _, coords in groups:
        if 1 << len(coords) > SPECTRUM_LIMIT:
            raise CoordinateBudgetError(
                f"an orthogonality group on the {len(coords)} coordinates {min(coords)}..{max(coords)}:"
                f" one table of its atoms takes {8 << len(coords):,} bytes, past the limit of"
                f" {SPECTRUM_LIMIT:,} atoms")
    return sorted((sorted(members), sorted(coords)) for members, coords in groups)


def verify_product_orthogonality(
    state_or_factors, tol: float = 1e-10
) -> OrthogonalityReport:
    """Check the normalized factors Y_k = X_k/sigma_k - sigma_k in L^2(mu).

    For disjoint blocks: E_mu Y_k = 0, E_mu Y_k Y_k' = 0 (k != k'), and
    E_mu Y_k^2 <= 2 (1 + sigma_k^2) <= 4.  E_mu is the Haar average
    weighted by the full product.  Each group of factors sharing
    coordinates (`_groups`) is evaluated on its own atoms, with weights
    W_g = prod_(i in g) (1 + X_i) / 2^|coords_g|: its mass E W_g, and
    E W_g Y_i, E W_g Y_i^2 and E W_g Y_i Y_j for its members.  The
    groups are independent, so an E_mu figure of group g is its group
    figure times the other groups' masses, and a cross term of two
    groups the product of their means times the remaining masses.
    Overlapping blocks (the negative control) share a group, where the
    cross terms are visibly nonzero.
    """
    factors = list(getattr(state_or_factors, "factors", state_or_factors))
    if len(factors) < 2:
        raise ValueError("need at least two factors")
    mass, group_of, means, seconds, inner = [], {}, {}, {}, []
    for g, (members, coords) in enumerate(_groups(factors)):
        weights = product_values([factors[i] for i in members], coords) / (1 << len(coords))
        ys = {i: factor_values(factors[i], coords) / factors[i].norm_2 - factors[i].norm_2
              for i in members}
        # einsum's own loop sums in the calling thread: np.dot hands the sum to
        # BLAS, whose worker threads wait for a core under load (8 ms a call
        # against 0.03 ms at d16) and whose bits depend on their count
        mass.append(float(np.einsum("i->", weights)))
        for i in members:
            group_of[i] = g
            means[i] = float(np.einsum("i,i", weights, ys[i]))
            seconds[i] = float(np.einsum("i,i", weights, ys[i] * ys[i]))
        inner += [(g, float(np.einsum("i,i", weights, ys[i] * ys[j])))
                  for i, j in itertools.combinations(members, 2)]

    def rest(*skip):
        """The product of the masses of the groups not in `skip`."""
        return math.prod(m for h, m in enumerate(mass) if h not in skip)

    max_mean = max(abs(means[i] * rest(group_of[i])) for i in means)
    max_second = max(seconds[i] * rest(group_of[i]) for i in seconds)
    max_cross = max([abs(v * rest(g)) for g, v in inner] + [
        abs(means[i] * means[j] * rest(group_of[i], group_of[j]))
        for i, j in itertools.combinations(means, 2) if group_of[i] != group_of[j]])
    ok = max_mean <= tol and max_cross <= tol and max_second <= 4.0 + tol
    return OrthogonalityReport(ok, max_mean, max_cross, max_second)
