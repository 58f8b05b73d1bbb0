"""Walsh functions on the dyadic group, Paley ordering.

The group is D = {-1,+1}^N with coordinate functions r_1, r_2, ...
(Rademacher functions).  Walsh functions are their finite products,
indexed by the binary digits of n:

    n = sum_j alpha_j 2^(j-1),   w_n = prod_j r_j^alpha_j

so w_0 = 1, w_1 = r_1, w_2 = r_2, w_3 = r_1 r_2, w_4 = r_3, and the
index of a product is the XOR of the indices: w_m w_n = w_(m XOR n).

Finite model: an atom fixes the signs of the first m coordinates.  Atoms
are encoded as m-bit integers with the convention

    bit (j-1) of pattern == 0  ->  r_j = +1
    bit (j-1) of pattern == 1  ->  r_j = -1

which makes w_n(t) = (-1)^popcount(n AND pattern).  Tables of values on
all 2^m atoms are indexed by pattern in increasing order.

The transform pair is the natural-order (Paley-consistent) fast
Walsh-Hadamard butterfly H with H^2 = 2^m I:

    values = H(coeffs)            (synthesis, `inverse_fwht`)
    coeffs = H(values) / 2^m      (analysis, `fwht`)

Parseval: mean_t values(t)^2 = sum_n c_n^2.

Every dense pass runs on one loop, `_segment_merge`, whose merge of two
adjacent segments is the dyadic martingale step M_(k+1) = M_k + r_(k+1) N_k
applied in place to their full sums and prefix extrema: `butterfly` is
that merge with no class of prefixes, `prefix_extrema` with one, the
positivity certificate's signed block pass, over int64, with a pair per
coefficient magnitude, and `_martingale_walk` reads its levels.  Run over int64 limbs, 62 bits to
a limb and as many limbs as the sums need, the merge is exact:
`theorem1-check`'s exact positivity route merges the coefficients'
dyadic expansion that way.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WalshIndex",
    "Atom",
    "AtomTable",
    "WalshSeries",
    "NormBundle",
    "LemmaWitness",
    "InvariantViolation",
    "SeriesFormatError",
    "DepthLimitError",
    "product_index",
    "walsh_eval",
    "walsh_signs",
    "butterfly",
    "fwht",
    "inverse_fwht",
    "partial_sum",
    "multiply_by_walsh",
    "prefix_extrema",
    "u_norm",
    "norm_bundle",
    "verify_lemma",
    "series_to_csv",
    "series_from_csv",
    "series_to_json",
    "series_from_json",
    "read_coeff_rows",
]


class InvariantViolation(RuntimeError):
    """A mathematical identity the library guarantees failed to hold."""


class SeriesFormatError(ValueError):
    """Malformed serialized series (carries a line number when parsing CSV)."""


class DepthLimitError(ValueError):
    """A serialized series deeper than the reader's limit, refused before
    its dense coefficients are allocated."""

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(f"depth {depth} past the limit {limit}")
        self.depth = depth
        self.limit = limit


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def atom_patterns(m: int) -> np.ndarray:
    """All 2^m atom patterns in increasing order."""
    if m < 0 or m > 31:
        raise ValueError(f"atom coordinate count {m} out of range [0, 31]")
    return np.arange(1 << m, dtype=np.uint64)


def sign_vector(n: int, patterns: np.ndarray) -> np.ndarray:
    """w_n evaluated on the given atom patterns, as an int64 vector of +-1.

    w_n(t) = w_t(n), so on the patterns 0..2^K - 1 this is also the row
    of every w_m at the one atom n.  The parity stays uint8 until the
    one int64 result, so a call allocates one full-width array.
    """
    parity = np.bitwise_count(np.uint64(n) & patterns) & 1
    return np.subtract(1, parity << 1, dtype=np.int64)


def walsh_signs(n: int, m: int) -> np.ndarray:
    """w_n on all 2^m atoms."""
    if n < 0:
        raise ValueError("Walsh index must be nonnegative")
    return sign_vector(n, atom_patterns(m))


@dataclass(frozen=True)
class WalshIndex:
    """A Walsh index n together with its digit sequence (alpha_j)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("Walsh index must be nonnegative")

    @property
    def bits(self) -> tuple[int, ...]:
        """(alpha_1, alpha_2, ...): alpha_j is the coefficient of 2^(j-1)."""
        return tuple((self.n >> j) & 1 for j in range(self.n.bit_length()))

    @classmethod
    def from_bits(cls, bits) -> "WalshIndex":
        return cls(sum(int(b) << j for j, b in enumerate(bits)))

    def __xor__(self, other: "WalshIndex") -> "WalshIndex":
        return WalshIndex(self.n ^ int(other))

    def __int__(self) -> int:
        return self.n


def product_index(m, n) -> int:
    """Index of w_m * w_n: exponents add mod 2, so the index is m XOR n."""
    m, n = int(m), int(n)
    if m < 0 or n < 0:
        raise ValueError("Walsh indices must be nonnegative")
    return m ^ n


@dataclass(frozen=True)
class Atom:
    """One sign assignment of r_1..r_m, encoded as an m-bit pattern."""

    m: int
    pattern: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("coordinate count must be nonnegative")
        if not 0 <= self.pattern < (1 << self.m):
            raise ValueError(f"pattern {self.pattern} not an {self.m}-bit integer")

    def sign(self, j: int) -> int:
        """Value of r_j on this atom (j is 1-based)."""
        if not 1 <= j <= self.m:
            raise ValueError(f"coordinate {j} outside 1..{self.m}")
        return -1 if (self.pattern >> (j - 1)) & 1 else 1


def walsh_eval(n, t: Atom) -> int:
    """w_n(t).  Every set bit of n must name one of t's m coordinates."""
    n = int(n)
    if n < 0:
        raise ValueError("Walsh index must be nonnegative")
    if n >> t.m:
        raise ValueError(
            f"index {n} uses coordinates beyond the atom's {t.m}"
        )
    return 1 - 2 * ((n & t.pattern).bit_count() & 1)


@dataclass(frozen=True, eq=False)
class AtomTable:
    """Values of a function of r_1..r_m on all 2^m atoms, pattern order."""

    m: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.shape != (1 << self.m,):
            raise ValueError(
                f"table needs {1 << self.m} values, got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class WalshSeries:
    """Real coefficients c_0..c_(2^K - 1) in Paley order."""

    depth: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.shape != (1 << self.depth,):
            raise ValueError(
                f"depth {self.depth} needs {1 << self.depth} coefficients,"
                f" got shape {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs) -> "WalshSeries":
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.ndim != 1 or not _is_pow2(coeffs.size):
            raise ValueError(f"coefficient count {coeffs.size} is not a power of two")
        return cls(coeffs.size.bit_length() - 1, coeffs)

    @classmethod
    def zeros(cls, depth: int) -> "WalshSeries":
        return cls(depth, np.zeros(1 << depth))

    @property
    def order(self) -> int:
        return 1 << self.depth

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.coeffs)


def butterfly(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, natural (Paley) order: the
    full sums S of `_segment_merge` with no class of prefixes.

    Self-inverse up to the factor 2^m.  Integer input is summed exactly
    in int64, so +-1-coefficient polynomials evaluate exactly (ValueError
    when sum |c| reaches 2^63); the rest in float64.
    """
    s = _merge_input(values)
    for _ in _segment_merge(s, np.empty((0, s.size), s.dtype), np.empty((0, s.size), s.dtype)):
        pass
    return s


def fwht(table: AtomTable) -> WalshSeries:
    """Analysis: coefficients c_n = mean_t f(t) w_n(t)."""
    vals = np.asarray(table.values, dtype=np.float64)
    return WalshSeries(table.m, butterfly(vals) / vals.size)


def inverse_fwht(series: WalshSeries) -> AtomTable:
    """Synthesis: f(t) = sum_n c_n w_n(t) on all atoms of the series' depth."""
    return AtomTable(series.depth, butterfly(series.coeffs))


def partial_sum(series: WalshSeries, p: int) -> AtomTable:
    """Values of sum_{n < p} c_n w_n on all atoms of the series' depth."""
    if not 0 <= p <= series.order:
        raise ValueError(f"order {p} outside [0, {series.order}]")
    c = np.zeros_like(series.coeffs)
    c[:p] = series.coeffs[:p]
    return AtomTable(series.depth, butterfly(c))


def multiply_by_walsh(series: WalshSeries, m) -> WalshSeries:
    """Coefficients of w_m * S: d_n = c_(n XOR m)."""
    m = int(m)
    if not 0 <= m < series.order:
        raise ValueError(f"index {m} outside [0, {series.order})")
    idx = np.arange(series.order) ^ m
    return WalshSeries(series.depth, series.coeffs[idx])


def prefix_extrema(coeffs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, MX, MN) on all 2^K atoms of c_0..c_(2^K - 1): the full sum and
    the largest and smallest nonempty partial sum, in O(K 2^K), by
    `_segment_merge` with one class of prefixes.  S equals `butterfly`
    bit for bit; integer input is summed exactly in int64 (ValueError
    when sum |c| reaches 2^63).  Extremes of non-finite partial sums
    mean nothing, so a non-finite coefficient raises ValueError naming
    it (`butterfly` propagates them).
    """
    s = _merge_input(coeffs)
    _require_finite(s)
    mx, mn = s[None].copy(), s[None].copy()
    for _ in _segment_merge(s, mx, mn):
        pass
    return s, mx[0], mn[0]


def _merge_input(values) -> np.ndarray:
    """A fresh table for `_segment_merge` from a power-of-two-length
    vector: integer input widened to int64, the rest float64.  Every
    partial sum and transform value is at most sum |c| in modulus, so
    integer input is refused (ValueError) when that sum reaches 2^63,
    where int64 would wrap; the sum is taken in Python ints unless
    2^K max |c| is already below 2^63."""
    v = np.asarray(values)
    if v.ndim != 1 or not _is_pow2(v.size):
        raise ValueError(f"length {v.size} is not a power of two")
    if not np.issubdtype(v.dtype, np.integer):
        return v.astype(np.float64)
    if v.size * max(-int(v.min()), int(v.max())) >= 1 << 63 and sum(map(abs, v.tolist())) >= 1 << 63:
        raise ValueError("integer coefficients whose moduli sum to 2^63 or more would overflow int64")
    return v.astype(np.int64)


def _segment_merge(s, mx, mn):
    """The package's one butterfly loop: (S, MX, MN) of every segment,
    merged in place up to all 2^K atoms in O(K 2^K).

    `s` holds the segments' full sums and `mx`, `mn` zero or more rows,
    one per class of prefixes, each starting from length-1 segments; the
    three are C-contiguous, so their reshapes are views, and share no
    memory.  The merge is the martingale step
    M_(k+1) = M_k + r_(k+1) N_k: a prefix of a segment [a | b] is a
    prefix of a, or Sa plus r times a prefix of b, r the segment's top
    coordinate.  On the r = +1 half S = Sa + Sb, MX = max(MXa, Sa + MXb),
    MN = min(MNa, Sa + MNb); on the r = -1 half S = Sa - Sb,
    MX = max(MXa, Sa - MNb), MN = min(MNa, Sa - MXb), with b's rows taken
    in reverse order: a class that records a sign of b's prefixes changes
    with it, so such classes come in mirrored rows, the class of -b as
    many rows from the end as that of b from the start.  An empty class
    reads MX = -inf, MN = +inf, or in int64 a sentinel far from any sum.
    The two halves take the slots of a and b, and two scratch rows per
    class (one with no class) hold the new r = -1 halves while a's slots
    are overwritten.
    A level runs in blocks of 2^14 values per row (limbs counted) of its
    segment pairs' positions, so the scratch rows are a block wide and a
    block's dozen or more passes find their rows in cache.

    Only the arithmetic depends on the tables.  Float tables round as
    float64 does, int64 tables add exactly (the caller keeps them from
    wrapping) and object arrays of Python ints add exactly, all by the
    plain ufuncs.  A limb table, int64 of shape (L, 2^K) with `mx`, `mn`
    of shape (rows, L, 2^K) and L >= 2, holds each value exactly as
    sum_j d_j 2^(62 j): the low limbs d_j in [0, 2^62), the top one
    signed.  It adds and subtracts limb by limb and then carries, and
    compares by the sign of the difference's top limb; every value and
    every difference of two must fit, which `martingale._limb_width`
    sees to.  A one-limb table is an int64 table.

    A generator of the levels: it yields h just before merging the
    segments of length h into those of 2h; once it is exhausted the
    tables hold the whole merge.
    """
    width, n = s.shape if s.ndim == 2 else (1, s.size)
    rows = len(mx)
    block = min(_MERGE_BLOCK // width, max(n // 2, 1))
    add, sub, maximum, minimum = _limb_ops(max(rows, 1) * block) if width > 1 else _PLAIN_OPS
    spare = np.empty(max(2 * rows, 1) * width * block, s.dtype)
    h = 1
    while h < n:
        yield h
        level = (width, n // (2 * h), 2, h)
        sh = s.reshape(level)
        if rows:
            xh, nh = mx.reshape(rows, *level), mn.reshape(rows, *level)
        for cut in _blocks(n // (2 * h), h, block):
            sa, sb = sh[cut].transpose(2, 0, 1, 3)
            if rows:
                xa, xb = xh[cut].transpose(3, 0, 1, 2, 4)
                na, nb = nh[cut].transpose(3, 0, 1, 2, 4)
                up, down = spare[: 2 * rows * sa.size].reshape(2, rows, *sa.shape)
                maximum(xa, sub(sa, nb[::-1], out=up), out=up)
                minimum(na, sub(sa, xb[::-1], out=down), out=down)
                maximum(xa, add(sa, xb, out=xb), out=xa)
                minimum(na, add(sa, nb, out=nb), out=na)
                xb[...], nb[...] = up, down
            diff = sub(sa, sb, out=spare[: sa.size].reshape(sa.shape))
            add(sa, sb, out=sa)
            sb[...] = diff
        h *= 2


# values per row of a block of `_segment_merge`, limbs counted: on one
# Xeon core 2^13 to 2^15 ran depth-20 merges fastest, and whole levels
# ran the float one 1.3 and the 2-limb one 1.4 times slower
_MERGE_BLOCK = 1 << 14


def _blocks(segments: int, h: int, block: int):
    """Index tuples cutting one level's (..., segments, 2, h) views into
    blocks of at most `block` positions of its segment pairs: whole
    segment pairs while they are short, runs of positions once they are
    long.  A level that fits one block is one block."""
    if segments * h <= block:
        return [(...,)]
    per, count = min(h, block), max(block // h, 1)
    return [(..., slice(m, m + count), slice(None), slice(p, p + per))
            for m in range(0, segments, count) for p in range(0, h, per)]


# limb arithmetic: the limb axis is the third from last of every operand
_LIMB_BITS = 62
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_PLAIN_OPS = (np.add, np.subtract, np.maximum, np.minimum)


def _carry(t, tmp):
    """Bring every low limb of `t` into [0, 2^62), in place, carrying the
    rest upwards (an arithmetic shift: a borrow is a carry of -1); `tmp`
    is one limb of scratch."""
    for j in range(t.shape[-3] - 1):
        t[..., j + 1, :, :] += np.right_shift(t[..., j, :, :], _LIMB_BITS, out=tmp)
        t[..., j, :, :] &= _LIMB_MASK
    return t


def _limb_ops(size: int):
    """`_segment_merge`'s add, subtract, maximum and minimum on limb
    tables, with one limb of scratch, `size` values, for every call.
    maximum and minimum write into `out`, which is one of their
    operands, the other one where it wins, branch-free limb by limb: with
    keep = -1 where `out` stays and 0 elsewhere,
    out = ((out ^ other) & keep) ^ other."""
    spare = np.empty(size, np.int64)

    def scratch(t):
        shape = t.shape[:-3] + t.shape[-2:]
        return spare[: math.prod(shape)].reshape(shape)

    def add(a, b, out):
        return _carry(np.add(a, b, out=out), scratch(out))

    def sub(a, b, out):
        return _carry(np.subtract(a, b, out=out), scratch(out))

    def keep(a, b):
        # -1 where a >= b: the sign of a - b's top limb, borrows carried up
        d = np.subtract(a[..., 0, :, :], b[..., 0, :, :], out=scratch(a))
        for j in range(1, a.shape[-3]):
            d >>= _LIMB_BITS
            d += a[..., j, :, :]
            d -= b[..., j, :, :]
        d >>= 63
        return np.invert(d, out=d)

    def pick(out, other, mask):
        for j in range(out.shape[-3]):
            limb, rival = out[..., j, :, :], other[..., j, :, :]
            limb ^= rival
            limb &= mask
            limb ^= rival
        return out

    def maximum(a, b, out):
        other = b if out is a else a
        return pick(out, other, keep(out, other))

    def minimum(a, b, out):
        other = b if out is a else a
        return pick(out, other, keep(other, out))

    return add, sub, maximum, minimum


def _martingale_walk(coeffs):
    """Walk the dyadic martingale of c_0..c_(2^K - 1) along the levels of
    one `_segment_merge` over the whole series.

    Just before level 2^k is merged, slots [0, 2^k) hold M_k and slots
    [2^k, 2^(k+1)) hold N_k, with coefficients c_(2^k)..c_(2^(k+1) - 1),
    and the extremes MX, MN of its nonempty prefixes, its full sum
    included; merging them is the step M_(k+1) = M_k + r_(k+1) N_k.  So
    for k = 0..K-1 this yields copies of (M_k, N_k, MX, MN) on the 2^k
    atoms of the first k coordinates, then (M_K, None, None, None).
    M_k equals `butterfly(c[:2^k])` and (N_k, MX, MN) equal
    `prefix_extrema(c[2^k:2^(k+1)])`, bit for bit.
    """
    s = np.array(coeffs, dtype=np.float64)
    mx, mn = s[None].copy(), s[None].copy()
    for h in _segment_merge(s, mx, mn):
        yield s[:h].copy(), s[h : 2 * h].copy(), mx[0, h : 2 * h].copy(), mn[0, h : 2 * h].copy()
    yield s, None, None, None


def _require_finite(coeffs, error=ValueError) -> None:
    """Raise `error` naming the first non-finite coefficient, if any."""
    if not np.all(np.isfinite(coeffs)):
        n = int(np.argmin(np.isfinite(coeffs)))  # the first False
        raise error(f"coefficient {n}, {float(coeffs[n])!r}, is not finite")


def u_norm(coeffs: np.ndarray) -> float:
    """sup over prefix orders p of the sup-norm of the p-th partial sum,
    read off the `prefix_extrema` tables (the empty sum counts as 0).
    Integer input stays in exact integer arithmetic; non-finite input
    raises ValueError."""
    _, mx, mn = prefix_extrema(coeffs)
    best = max(0, mx.max(), -mn.min())
    return int(best) if np.issubdtype(mx.dtype, np.integer) else float(best)


def prefix_scan(indices, coeffs, basis, size: int):
    """Stream the partial sums of a sparse series sum c_n basis(n), each
    basis vector of length `size`: after support index n, yield (n, acc)
    with acc = S_(n+1), the partial sum of every order up to the next
    support index.  The package's one streaming partial-sum loop: cosine
    series on a grid t pass `lambda f: np.cos(f * t)`, the tests' Walsh
    oracles `lambda n: sign_vector(n, patterns)`.  acc is one buffer
    updated in place, and each term goes through one more: full-width temporaries
    freed at the heap top are returned to the system and faulted back in
    on the next step.  O(|support| size)."""
    acc = np.zeros(size)
    term = np.empty(size)
    for n, c in zip(indices, coeffs):
        np.add(acc, np.multiply(basis(int(n)), c, out=term), out=acc)
        yield int(n), acc


@dataclass(frozen=True)
class NormBundle:
    """The norms used throughout: l2, prefix-sup (U), coefficient sum (A),
    coefficient max (PM), and the plain sup-norm of the full polynomial."""

    l2: float
    u: float
    a: float
    pm: float
    sup: float


def norm_bundle(series: WalshSeries) -> NormBundle:
    """Every norm of the series from one `prefix_extrema` pass;
    non-finite coefficients raise ValueError."""
    c = series.coeffs
    values, mx, mn = prefix_extrema(c)
    return NormBundle(
        l2=float(np.sqrt(np.sum(c * c))),
        u=float(max(0, mx.max(), -mn.min())),
        a=float(np.sum(np.abs(c))),
        pm=float(np.max(np.abs(c))) if c.size else 0.0,
        sup=float(np.max(np.abs(values))),
    )


@dataclass(frozen=True)
class LemmaWitness:
    """Orders (lower, upper) with prefix_{2^k}(w_m S) = w_m (S_upper - S_lower)."""

    m: int
    k: int
    lower: int
    upper: int
    max_error: float


def verify_lemma(series: WalshSeries, m, k: int, tol: float = 1e-12) -> LemmaWitness:
    """Check the reindexing identity for the 2^k-prefix of w_m * S.

    {n XOR m : n < 2^k} is the consecutive segment [a, a + 2^k) where a
    clears the low k bits of m, so the prefix equals w_m (S_b - S_a)
    pointwise.  Raises InvariantViolation if the identity fails beyond
    tol (it cannot, short of a bug).
    """
    m = int(m)
    if not 0 <= m < series.order:
        raise ValueError(f"index {m} outside [0, {series.order})")
    if not 0 <= k <= series.depth:
        raise ValueError(f"level {k} outside [0, {series.depth}]")
    block = 1 << k
    lower = m & ~(block - 1)
    upper = lower + block

    shifted = multiply_by_walsh(series, m)
    lhs = partial_sum(shifted, block).values
    diff = partial_sum(series, upper).values - partial_sum(series, lower).values
    rhs = walsh_signs(m, series.depth) * diff
    max_error = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
    if max_error > tol:
        raise InvariantViolation(
            f"reindexing identity failed: m={m} k={k} error={max_error:.3e}"
        )
    return LemmaWitness(m=m, k=k, lower=lower, upper=upper, max_error=max_error)


# ---------------------------------------------------------------------------
# serialization: CSV `n,coeff` (dense or sparse rows) and JSON
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _atomic_open(path, mode: str = "w"):
    """Handle on a temp file beside `path`, opened in `mode` (text with no
    newline translation unless binary), renamed over it on success and
    removed on error: readers never see a partial write."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_csv(path, header, rows) -> None:
    """The CLI's report CSV writer: header plus rows, written atomically."""
    with _atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _python_items(values: np.ndarray, fn):
    """`fn` of the array's items as Python objects, in the items' order,
    converted 2^16 at a time, so a deep spectrum is never held as one
    list.  Each chunk calls `fn` once per distinct bit pattern (so -0.0
    and 0.0 stay apart): a Riesz product's coefficients take a few
    distinct values only.
    """
    for lo in range(0, values.size, 1 << 16):
        chunk = values[lo : lo + (1 << 16)]
        bits, inverse = np.unique(chunk.view(np.int64), return_inverse=True)
        table = np.fromiter(map(fn, bits.view(chunk.dtype).tolist()), object, bits.size)
        yield from table[inverse].tolist()


# rows per chunk of `_write_coeff_rows`: in a fresh process that has
# built, certified and psi-summed the depth-22 ladder measure (peak RSS
# 43.4 MB), exporting it in 2^16-row chunks raised peak RSS to 47.5 MB;
# 2^12- and 2^14-row chunks left it at 43.4 MB (Linux x86-64, numpy 2.4)
_ROW_CHUNK = 1 << 14


def _write_coeff_rows(path, index_name: str, indices, coeffs) -> None:
    """The package's one series and spectrum writer: CSV `<index_name>,coeff`
    with one `n,repr(c)` line per term, the bytes `csv.writer` would write,
    written atomically.  The nonnegative int64 `indices` and float64
    `coeffs` go through `_coeff_row_bytes` `_ROW_CHUNK` = 2^14 rows at a
    time: no Python call is made per row, and each of a chunk's arrays
    stays below 1 MB (larger chunks raised peak RSS, see `_ROW_CHUNK`)."""
    with _atomic_open(path, "wb") as fh:
        fh.write(f"{index_name},coeff\r\n".encode())
        for lo in range(0, indices.size, _ROW_CHUNK):
            fh.write(_coeff_row_bytes(indices[lo : lo + _ROW_CHUNK], coeffs[lo : lo + _ROW_CHUNK]))


def _coeff_row_bytes(indices: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """One nonempty chunk's `n,repr(c)` lines, each ended by CR LF, as a
    uint8 array.

    Each row is first laid out at one fixed width: the index's decimal
    digits right-aligned, a comma, the coefficient's repr left-aligned,
    CR LF, with NUL bytes for leading zeros and padding; dropping the NULs
    leaves the lines.  repr is called once per distinct bit pattern (so
    -0.0 and 0.0 stay apart) and its bytes gathered through the inverse
    of `np.unique`.
    """
    bits, inverse = np.unique(coeffs.view(np.int64), return_inverse=True)
    text = np.array([repr(c).encode() for c in bits.view(np.float64).tolist()])
    digits = len(str(int(indices.max())))
    rows = np.empty((indices.size, digits + text.itemsize + 3), np.uint8)
    _index_digits(indices, rows[:, :digits])
    rows[:, digits] = ord(",")
    rows[:, digits + 1 : -2] = text.take(inverse).view(np.uint8).reshape(indices.size, -1)
    rows[:, -2:] = (ord("\r"), ord("\n"))
    flat = rows.ravel()
    # `> 0` rather than `!= 0`: numpy's uint8 != loop lies on library pages
    # no other step of a unit touches, 64 kB more resident memory
    return flat[flat > 0]


def _index_digits(indices: np.ndarray, out: np.ndarray) -> None:
    """Nonnegative int64 `indices` as ASCII decimal digits, right-aligned
    in the uint8 columns `out`, as many as the largest index has digits:
    the units digit always, each higher digit only while the index has
    one, NUL in place of leading zeros."""
    last = out.shape[1] - 1
    rest = indices
    for col in range(last, -1, -1):
        quot = rest // 10
        digit = rest - 10 * quot + ord("0")
        out[:, col] = digit if col == last else digit * (rest > 0)
        rest = quot


def series_to_csv(series: WalshSeries, path) -> None:
    """Every coefficient, zeros included, as CSV `n,coeff`."""
    _write_coeff_rows(path, "n", np.arange(series.order), series.coeffs)


def read_coeff_rows(source) -> list[tuple[int, float]]:
    """Parse `n,coeff` rows (header required, n strictly increasing)."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="") as fh:
            text = fh.read()
    else:
        text = source.read()
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise SeriesFormatError("line 1: empty file, expected header 'n,coeff'")
    header = [cell.strip().lower() for cell in rows[0]]
    if header[:2] != ["n", "coeff"]:
        raise SeriesFormatError(f"line 1: expected header 'n,coeff', got {rows[0]!r}")
    out: list[tuple[int, float]] = []
    prev = -1
    for i, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise SeriesFormatError(f"line {i}: expected two fields, got {row!r}")
        try:
            n = int(row[0])
            c = float(row[1])
        except ValueError as exc:
            raise SeriesFormatError(f"line {i}: {exc}") from None
        if not math.isfinite(c):
            raise SeriesFormatError(f"line {i}: coefficient {row[1].strip()!r} is not finite")
        if n < 0:
            raise SeriesFormatError(f"line {i}: negative index {n}")
        if n <= prev:
            raise SeriesFormatError(f"line {i}: index {n} not increasing")
        prev = n
        out.append((n, c))
    if not out:
        raise SeriesFormatError("line 2: no coefficient rows")
    return out


def series_from_csv(source, max_depth: int | None = None, check=None) -> WalshSeries:
    """Load a series from `n,coeff` rows; sparse rows are zero-filled.

    The depth is the smallest K with every index below 2^K.  A depth
    past `max_depth` raises DepthLimitError, and `check(depth, values)`,
    given the rows' coefficients as a float64 array, may raise, both
    before anything of size 2^K is allocated; that same array then fills
    the dense coefficients in one assignment.
    """
    rows = read_coeff_rows(source)
    top = rows[-1][0]
    depth = top.bit_length()
    if max_depth is not None and depth > max_depth:
        raise DepthLimitError(depth, max_depth)
    values = np.fromiter((c for _, c in rows), np.float64, len(rows))
    if check is not None:
        check(depth, values)
    if top >= 1 << 26:
        raise SeriesFormatError(f"index {top} too large for a dense series")
    coeffs = np.zeros(1 << depth)
    coeffs[np.fromiter((n for n, _ in rows), np.int64, len(rows))] = values
    return WalshSeries(depth, coeffs)


def series_to_json(series: WalshSeries) -> str:
    return json.dumps(
        {"depth": series.depth, "coeffs": [float(c) for c in series.coeffs]}
    )


def series_from_json(text: str) -> WalshSeries:
    data = json.loads(text)
    try:
        depth = int(data["depth"])
        coeffs = data["coeffs"]
    except (KeyError, TypeError) as exc:
        raise SeriesFormatError(f"bad series JSON: {exc}") from None
    coeffs = np.asarray(coeffs, dtype=np.float64)
    _require_finite(coeffs, SeriesFormatError)
    return WalshSeries(depth, coeffs)
