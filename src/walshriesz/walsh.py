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
that merge with no class of prefixes, `prefix_extrema` and the
positivity certificate's head tables with one, its signed block pass
with two, and `_martingale_walk` reads its levels.  Run over object
arrays of Python ints, the merge is exact: `theorem1-check`'s exact
positivity route merges the coefficients' dyadic expansion that way.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
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

    `s` holds the segments' full sums and `mx`, `mn` zero, one or two
    rows, one per class of prefixes, each starting from length-1
    segments; the three are C-contiguous, so their reshapes are views,
    and share no memory.  The merge is the martingale step
    M_(k+1) = M_k + r_(k+1) N_k: a prefix of a segment [a | b] is a
    prefix of a, or Sa plus r times a prefix of b, r the segment's top
    coordinate.  On the r = +1 half S = Sa + Sb, MX = max(MXa, Sa + MXb),
    MN = min(MNa, Sa + MNb); on the r = -1 half S = Sa - Sb,
    MX = max(MXa, Sa - MNb), MN = min(MNa, Sa - MXb), with b's rows taken
    in reverse order: a class that records a sign of b's prefixes changes
    with it.  An empty class reads MX = -inf, MN = +inf.  The two halves
    take the slots of a and b, and two half-width scratch rows per class
    (one with no class) hold the new r = -1 halves while a's slots are
    overwritten.  Float tables round as float64 does; object arrays of
    Python ints are merged exactly, never rounding or wrapping.

    A generator of the levels: it yields h just before merging the
    segments of length h into those of 2h; once it is exhausted the
    tables hold the whole merge.
    """
    n, rows = s.size, len(mx)
    spare = np.empty(max(2 * rows, 1) * (n // 2), s.dtype)
    h = 1
    while h < n:
        yield h
        sa, sb = s.reshape(-1, 2, h).transpose(1, 0, 2)
        if rows:
            xa, xb = mx.reshape(rows, -1, 2, h).transpose(2, 0, 1, 3)
            na, nb = mn.reshape(rows, -1, 2, h).transpose(2, 0, 1, 3)
            up, down = spare.reshape(2, rows, -1, h)
            np.maximum(xa, np.subtract(sa, nb[::-1], out=up), out=up)
            np.minimum(na, np.subtract(sa, xb[::-1], out=down), out=down)
            np.maximum(xa, np.add(sa, xb, out=xb), out=xa)
            np.minimum(na, np.add(sa, nb, out=nb), out=na)
            xb[...], nb[...] = up, down
        diff = np.subtract(sa, sb, out=spare[: n // 2].reshape(-1, h))
        sa += sb
        sb[...] = diff
        h *= 2


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
def _atomic_open(path):
    """Text handle on a temp file beside `path`, renamed over it on
    success and removed on error: readers never see a partial write."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
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


def _python_items(values: np.ndarray, fn=None):
    """The array's items as Python objects, or `fn` of them, converted 2^16
    at a time, so a deep spectrum is never held as one list.

    With `fn`, each chunk calls it once per distinct bit pattern (so -0.0
    and 0.0 stay apart) and yields its results in the items' order: a
    Riesz product's coefficients take a few distinct values only.
    """
    for lo in range(0, values.size, 1 << 16):
        chunk = values[lo : lo + (1 << 16)]
        if fn is None:
            yield from chunk.tolist()
        else:
            bits, inverse = np.unique(chunk.view(np.int64), return_inverse=True)
            table = np.fromiter(map(fn, bits.view(chunk.dtype).tolist()), object, bits.size)
            yield from table[inverse].tolist()


def _write_coeff_rows(path, index_name: str, indices, coeffs) -> None:
    """The package's one series and spectrum writer: CSV `<index_name>,coeff`
    with one `n,repr(c)` line per term, the bytes `csv.writer` would write,
    written atomically.  Lines are joined 2^10 at a time, about 30 kB per
    string: 2^12-line strings, near glibc malloc's 128 kB mmap threshold,
    raised the benchmark's deep-d22 peak RSS by 2.5 MB (Linux x86-64)."""
    lines = itertools.starmap(
        "{},{}\r\n".format, zip(_python_items(indices), _python_items(coeffs, repr))
    )
    with _atomic_open(path) as fh:
        fh.write(f"{index_name},coeff\r\n")
        while block := "".join(itertools.islice(lines, 1 << 10)):
            fh.write(block)


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


def series_from_csv(source, max_depth: int | None = None) -> WalshSeries:
    """Load a series from `n,coeff` rows; sparse rows are zero-filled.

    The depth is the smallest K with every index below 2^K.  A depth
    past `max_depth` raises DepthLimitError before anything of size 2^K
    is allocated.
    """
    rows = read_coeff_rows(source)
    top = rows[-1][0]
    depth = top.bit_length()
    if max_depth is not None and depth > max_depth:
        raise DepthLimitError(depth, max_depth)
    if top >= 1 << 26:
        raise SeriesFormatError(f"index {top} too large for a dense series")
    coeffs = np.zeros(1 << depth)
    for n, c in rows:
        coeffs[n] = c
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
