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
coefficient magnitude.  The first two run it by dyadic blocks
N_k = c[2^k:2^(k+1)] (`_block_merge`), which leaves blocks of +0.0
unmerged, bit for bit the one merge: a Riesz product's series is zero in
all but a few.  One `prefix_extrema` pass is `theorem1-check`'s float
positivity route: its smallest MN is the smallest partial sum of every
order on every atom.  Run over int64 limbs, 58 bits to a limb, as many
limbs as the sums need and carried once every four levels, the merge is
exact: `theorem1-check`'s exact positivity route merges the
coefficients' dyadic expansion that way.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Atom",
    "AtomTable",
    "WalshSeries",
    "NormBundle",
    "LemmaWitness",
    "InvariantViolation",
    "SeriesFormatError",
    "CoordinateBudgetError",
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
    "read_coeff_rows",
]


class InvariantViolation(RuntimeError):
    """A mathematical identity the library guarantees failed to hold."""


class SeriesFormatError(ValueError):
    """Malformed serialized series (carries a line number when parsing CSV)."""


class CoordinateBudgetError(ValueError):
    """A state past a size limit: a series deeper than
    THEOREM1_DEPTH_LIMIT (`series_from_csv`), a product block past
    coordinate 1023 (the certificates count atoms in float64), Walsh
    indices built past coordinate 63 (they are int64: the spectrum and
    the export), a spectrum past `riesz.SPECTRUM_LIMIT` terms, an
    orthogonality group on more than log2 SPECTRUM_LIMIT = 24
    coordinates, a psi stage with more than SPECTRUM_LIMIT magnitude
    products or with a sum or bound below float64's normal range, a
    factor whose integer coefficients sum past the 61 bits of the
    certificate's int64 block tables, or an exact positivity route whose
    limbs would take more atoms than a 2-limb series at
    THEOREM1_DEPTH_LIMIT."""


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
    full sums S of `_segment_merge` with no class of prefixes, run by
    `_block_merge`.  It skips the dyadic blocks c[2^k:2^(k+1)] of +0.0,
    whose transform is +0.0, and joins M_k to such a block as
    [M_k + 0.0, M_k], the single merge's bits, signed zeros included.

    Self-inverse up to the factor 2^m.  Integer input is summed exactly
    in int64, so +-1-coefficient polynomials evaluate exactly (ValueError
    when sum |c| reaches 2^63); the rest in float64.
    """
    s = _merge_input(values)
    _block_merge(s, np.empty((0, s.size), s.dtype), np.empty((0, s.size), s.dtype))
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
    c = series.coeffs  # `butterfly` copies its input
    return AtomTable(series.depth, butterfly(c if p == c.size else np.concatenate([c[:p], np.zeros(c.size - p)])))


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
    `_segment_merge` with one class of prefixes, run by `_block_merge`
    (bit for bit the single merge).  S equals `butterfly`
    bit for bit; integer input is summed exactly in int64 (ValueError
    when sum |c| reaches 2^63).  Extremes of non-finite partial sums
    mean nothing, so a non-finite coefficient raises ValueError naming
    it (`butterfly` propagates them).
    """
    s = _merge_input(coeffs)
    _require_finite(s)
    mx, mn = s[None].copy(), s[None].copy()
    _block_merge(s, mx, mn)
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


def _segment_merge(s, mx, mn, merged: int = 1):
    """The package's one butterfly loop: (S, MX, MN) of every segment,
    merged in place up to all 2^K atoms in O(K 2^K), from segments of
    length `merged` (1, or tables whose segments of that length are
    merged already: `_block_merge` joins a block to M_k so).
    `butterfly` and `prefix_extrema` run it by dyadic blocks through
    `_block_merge`, which leaves a block of +0.0 unmerged:
    every S, MX and MN of it is +0.0 already, so the level that joins it
    reads M_k -+ 0.0, which `_block_merge` writes as it is, M_k + 0.0
    turning -0.0 into +0.0 as the merge would.

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
    A level runs in blocks of 2^14 values per row (limbs counted), so
    the scratch rows are a block wide and a block's passes find their
    rows in cache.  A merge of 2^12 atoms or more runs its levels below
    `_TILE` = 16 a block at a time: its 16-atom segments are gathered
    into a (16, tiles) scratch tile per table, atom outer, where level h
    runs on runs of h * tiles values, then scattered back.  Every value
    meets the same operands in the same order either way, so the tables
    come out bit for bit those of the level-by-level merge.

    Only the arithmetic depends on the tables.  Float tables round as
    float64 does, int64 tables add exactly (the caller keeps them from
    wrapping) and object arrays of Python ints add exactly, all by the
    plain ufuncs.  A limb table, int64 of shape (L, 2^K) with `mx`, `mn`
    of shape (rows, L, 2^K) and L >= 2, holds each value exactly as
    sum_j d_j 2^(58 j): carried, the low limbs d_j lie in [0, 2^58) and
    the top one is signed.  It adds and subtracts limb by limb with no
    carry, and compares by the sign of the difference's top limb, borrows
    carried up (`_limb_ops`).  The low limbs grow by a bit per level, so
    every `_CARRY_LEVELS` = 4 levels, and at the last, each block is
    carried once merged, while it is in cache.  Tables go in and come
    out carried; every value must fit, which `martingale._limb_width`
    sees to.  A one-limb table is an int64 table.
    """
    width, n = s.shape if s.ndim == 2 else (1, s.size)
    rows = len(mx)
    block = min(_MERGE_BLOCK // width, max(n // 2, 1))
    tiles = max(block // _TILE, 1) if n >= _TILED_FROM and merged == 1 else 0
    room = max(block, tiles * _TILE // 2)
    add, sub, maximum, minimum, carry = _limb_ops(max(rows, 1) * room) if width > 1 else _PLAIN_OPS
    spare = np.empty(max(2 * rows, 1) * width * room, s.dtype)

    def carries(level_index):
        # whether merging the segments of length 2^level_index carries
        return carry is not None and (level_index % _CARRY_LEVELS == _CARRY_LEVELS - 1
                                      or 2 << level_index == n)

    def merge(level, s, mx, mn, cut=(...,), carried=False):
        # one level, cut to a block, of the (width, segment pairs, 2, run)
        # view of s and of each row of mx, mn; `carried` carries the
        # block's limbs once it is merged, while they are in cache
        sa, sb = s.reshape(level)[cut].transpose(2, 0, 1, 3)
        halves = [sa, sb]
        if rows:
            xa, xb = mx.reshape(rows, *level)[cut].transpose(3, 0, 1, 2, 4)
            na, nb = mn.reshape(rows, *level)[cut].transpose(3, 0, 1, 2, 4)
            up, down = spare[: 2 * rows * sa.size].reshape(2, rows, *sa.shape)
            maximum(xa, sub(sa, nb[::-1], out=up), out=up)
            minimum(na, sub(sa, xb[::-1], out=down), out=down)
            maximum(xa, add(sa, xb, out=xb), out=xa)
            minimum(na, add(sa, nb, out=nb), out=na)
            xb[...], nb[...] = up, down
            halves += [xa, xb, na, nb]
        diff = sub(sa, sb, out=spare[: sa.size].reshape(sa.shape))
        add(sa, sb, out=sa)
        sb[...] = diff
        if carried:
            for half in halves:
                carry(half)

    tables = s.reshape(width, n), mx.reshape(rows, width, n), mn.reshape(rows, width, n)
    if tiles:
        scratch = np.empty((1 + 2 * rows) * width * _TILE * tiles, s.dtype)
        for first in range(0, n // _TILE, tiles):
            cut = slice(first, min(first + tiles, n // _TILE))
            count = cut.stop - first
            tile = scratch[: scratch.size // tiles * count].reshape(1 + 2 * rows, width, _TILE, count)
            parts = tile[0], tile[1 : 1 + rows], tile[1 + rows :]
            segments = [t.reshape(*t.shape[:-1], n // _TILE, _TILE)[..., cut, :] for t in tables]
            for part, segment in zip(parts, segments):
                part[...] = segment.swapaxes(-1, -2)
            for k in range(_TILE.bit_length() - 1):
                merge((width, _TILE >> (k + 1), 2, count << k), *parts, carried=carries(k))
            for part, segment in zip(parts, segments):
                segment[...] = part.swapaxes(-1, -2)
    h = _TILE if tiles else merged
    while h < n:
        level = (width, n // (2 * h), 2, h)
        for cut in _blocks(n // (2 * h), h, block):
            merge(level, *tables, cut, carries(h.bit_length() - 1))
        h *= 2


# atoms per tile of `_segment_merge`'s short levels: on one shared Xeon
# core (numpy 2.4) 16-atom tiles ran the 2-limb merge of the depth-16
# benchmark series fastest, in 40 ms against 43-47 ms for 8, 32 and 64
# atoms and 75 ms level by level, and a block of tiles per run beat half
# or a quarter of one.  Below `_TILED_FROM` atoms the gather and scatter
# cost more than the longer runs save
_TILE = 16
_TILED_FROM = 1 << 12


# values per row of a block of `_segment_merge`, limbs counted: on one
# Xeon core 2^13 to 2^15 ran depth-20 merges fastest, and whole levels
# ran the float one 1.3 and the 2-limb one 1.4 times slower
_MERGE_BLOCK = 1 << 14


def _block_merge(s, mx, mn):
    """`_segment_merge` of a float64 or int64 vector `s` whose rows `mx`,
    `mn` start as copies of it (or are empty), by dyadic blocks, bit for
    bit the single merge, in O(k 2^k) for each block N_k = s[2^k:2^(k+1)]
    that holds a nonzero bit and O(2^k) for each block of +0.0 past the
    first run.

    A first run s[:2^j] merges in one call, and each later block merges
    alone and then joins M_k = s[:2^k] by one level of the merge.  A block
    of +0.0 is not merged: its S, MX and MN are +0.0 already, and the
    level's operands Sa -+ 0.0 are Sa, but Sa + 0.0 turns -0.0 into
    +0.0, so the level is S = [M_k + 0.0, M_k], MX = [max(MXa, M_k + 0.0),
    max(MXa, M_k)], MN = [min(MNa, M_k + 0.0), min(MNa, M_k)], the values
    the merge computes.  A block holding -0.0 is merged.  The first run
    ends at the first block of +0.0 past every nonzero block shorter than
    `_TILED_FROM`, so that a block merged alone is a tiled merge (a
    shorter one pays a call per level: the depth-16 benchmark measure's
    top block, zero at N_2 only, took 1.56 ms merged from N_3 on block by
    block against 0.81 ms in one merge, minima of 200 runs on 2 shared
    Xeon cores).  Below `_TILED_FROM` values, and when no such block is
    zero, the single merge runs as it is.
    """
    n = s.size
    levels = range(n.bit_length() - 1)
    zero = [n >= _TILED_FROM and not s[1 << k : 2 << k].view(np.int64).any() for k in levels]
    short = max((k for k in levels if not zero[k] and 1 << k < _TILED_FROM), default=-1)
    j = next((k for k in levels if zero[k] and k > short), len(levels))
    _segment_merge(s[: 1 << j], mx[:, : 1 << j], mn[:, : 1 << j])
    for k in levels[j:]:
        h = 1 << k
        a, b = slice(0, h), slice(h, 2 * h)
        if zero[k]:
            s[b] = s[a]
            s[a] += 0  # M_k + 0.0
            if len(mx):
                np.maximum(mx[:, a], s[b], out=mx[:, b])
                np.minimum(mn[:, a], s[b], out=mn[:, b])
                np.maximum(mx[:, a], s[a], out=mx[:, a])
                np.minimum(mn[:, a], s[a], out=mn[:, a])
        else:
            _segment_merge(s[b], mx[:, b], mn[:, b])
            _segment_merge(s[: 2 * h], mx[:, : 2 * h], mn[:, : 2 * h], h)


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


# limb arithmetic: the limb axis is the third from last of every operand.
# Limbs are added and subtracted with no carry, and a merge carries its
# tables once every `_CARRY_LEVELS` levels (see `_segment_merge`).  Each
# merged value's limbs are sums or differences of two earlier values'
# limbs, so a low limb below 2^58 in modulus grows by at most one bit per
# level: after four levels it is below 2^62, and the difference of two
# such limbs, which the comparison forms, is below 2^63.  The low limbs
# together are then below 2^(58 (L - 1) + 4) in modulus, so the top limb
# stays within 17 of value / 2^(58 (L - 1)), which
# `martingale._limb_width` keeps below 2^57.  The 2-limb merge of the
# depth-16 benchmark series took 48 ms so, against 53 ms with 62-bit
# limbs carried after every add and subtract (2 shared Xeon cores)
_LIMB_BITS = 58
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_CARRY_LEVELS = 4
_PLAIN_OPS = (np.add, np.subtract, np.maximum, np.minimum, None)


def _carry(t, tmp):
    """Bring every low limb of `t` into [0, 2^58), in place, carrying the
    rest upwards (an arithmetic shift: a borrow is a carry of -1); `tmp`
    is one limb of scratch."""
    for j in range(t.shape[-3] - 1):
        t[..., j + 1, :, :] += np.right_shift(t[..., j, :, :], _LIMB_BITS, out=tmp)
        t[..., j, :, :] &= _LIMB_MASK
    return t


def _limb_ops(size: int):
    """`_segment_merge`'s add, subtract, maximum, minimum and carry on limb
    tables, with one limb of scratch, `size` values, for every call.
    add and subtract are the plain ufuncs, limb by limb: their low limbs
    leave [0, 2^58) until `carry` brings them back.  maximum and minimum
    compare by the sign of the difference's top limb, borrows carried up
    (exact for limbs grown as `_CARRY_LEVELS` allows), and write into
    `out`, which is one of their operands, the other one where it wins,
    branch-free limb by limb: with keep = -1 where `out` stays and 0
    elsewhere, out = ((out ^ other) & keep) ^ other."""
    spare = np.empty(size, np.int64)

    def scratch(t):
        shape = t.shape[:-3] + t.shape[-2:]
        return spare[: math.prod(shape)].reshape(shape)

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

    def carry(t):
        return _carry(t, scratch(t))

    return np.add, np.subtract, maximum, minimum, carry


def _require_finite(coeffs) -> None:
    """Raise ValueError naming the first non-finite coefficient, if any."""
    if not np.all(np.isfinite(coeffs)):
        n = int(np.argmin(np.isfinite(coeffs)))  # the first False
        raise ValueError(f"coefficient {n}, {float(coeffs[n])!r}, is not finite")


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
    updated in place, and each term goes through one more (freed
    full-width temporaries would be faulted back in each step).
    O(|support| size)."""
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
# serialization: CSV `n,coeff`, dense or sparse rows
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _atomic_open(path, mode: str = "w"):
    """Handle on a temp file beside `path`, opened in `mode` (text with no
    newline translation unless binary), renamed over it on success and
    removed on error: readers never see a partial write.  A `path` that
    exists and is not a regular file, such as /dev/null or a FIFO, is
    written in place instead: a rename would replace it by a file."""
    newline = None if "b" in mode else ""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, newline=newline) as fh:
            yield fh
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode, newline=newline) as fh:
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


# inner rows per template of `_write_coeff_rows`, and the most bytes of
# copies it joins for one write: at 2^18 the depth-22 ladder export peaks
# at 1.08 MiB of tracemalloc (2.76 MiB at 2^20), the 200 kB of digit
# tables included, and raised the peak RSS of a fresh process that had
# built the state by 1.0 MB, where building the spectrum took 9.8 MB
# (Linux x86-64, numpy 2.4)
_ROW_CHUNK = 1 << 14
_WRITE_BYTES = 1 << 18
_POWERS = np.array([10**k for k in range(1, 19)])


def _write_coeff_rows(path, index_name: str, indices, coeffs, outer=((0,), (1.0,))) -> None:
    """The package's one series and spectrum writer: CSV `<index_name>,coeff`
    with one `n,repr(c)` line per term, the bytes `csv.writer` would write,
    written atomically.  Row (i, j) is `f_i + p_j, repr(c_i * q_j)` for
    the outer part (f, c), by default 1 at 0, and the inner part p =
    `indices`, q = `coeffs`, indices increasing with (i, j).  Each
    `_ROW_CHUNK` of inner rows is laid out by `_coeff_row_bytes` once per
    c_i and digit counts, and an inner part of one chunk is copied for
    the other outer terms (`_copied_rows`): no Python call per row."""
    f, c = np.asarray(outer[0], np.int64), np.asarray(outer[1], np.float64)
    # per chunk of inner rows, each outer term's template key as bytes: c_i
    # and the count of inner rows below each power of 10 once f_i is added
    below = indices.searchsorted(_POWERS - f[:, None])
    starts = range(0, indices.size, _ROW_CHUNK)
    kinds = [np.column_stack([c.view(np.int64), (below - a).clip(0, _ROW_CHUNK)]).view(
        f"V{8 + 8 * _POWERS.size}").ravel().tolist() for a in starts]
    templates, batch, size = {}, [], 0
    with _atomic_open(path, "wb") as fh:
        fh.write(f"{index_name},coeff\r\n".encode())
        for i in range(f.size):
            for a, kind in zip(starts, kinds):
                if a:
                    templates.clear()
                p, key = indices[a : a + _ROW_CHUNK], (a, kind[i])
                template = templates.get(key)
                if batch and (template is None or size + template[0].size > _WRITE_BYTES):
                    fh.write(_copied_rows(f[i - len(batch) : i], p, batch))
                    batch, size = [], 0
                if template is None:  # 1 at 0 leaves the inner part as it is
                    q = coeffs[a : a + p.size]
                    texts = _coeff_texts(q if c[i] == 1.0 else c[i] * q)
                    templates[key] = [_coeff_row_bytes(p + f[i] if f[i] else p, *texts), None]
                    fh.write(templates[key][0])
                else:
                    batch.append(template)
                    size += template[0].size
        if batch:
            fh.write(_copied_rows(f[f.size - len(batch) :], p, batch))


def _coeff_texts(values: np.ndarray):
    """`(inverse, (texts, lengths))`, `texts[inverse]` the texts of
    `values`: a comma, the repr and CR LF, `lengths` bytes long, padded
    with NULs to a multiple of 32 bytes, one repr per distinct int64 bit
    pattern (-0.0 is not 0.0), grouped by `np.unique` on int64 (`numpy.ma`
    stays unimported)."""
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = [b"," + repr(c).encode() + b"\r\n" for c in keys.view(np.float64).tolist()]
    lengths = np.array(list(map(len, texts)))
    return inverse, (np.array(texts, f"S{-(-int(lengths.max()) // 32) * 32}"), lengths)


def _copied_rows(f: np.ndarray, p: np.ndarray, templates: list) -> np.ndarray:
    """The lines of the indices f_i + p_j from one `[rows, commas]`
    template per f_i, laid out for indices of the same digit counts.  A
    template's commas are found on its first copy; the copies go after 8
    bytes of headroom, which `_index_digits` may write into."""
    for template in templates:
        if template[1] is None:  # on its first copy
            template[1] = np.flatnonzero(template[0] == ord(","))
    sizes = [t[0].size for t in templates]
    rows = np.empty(8 + sum(sizes), np.uint8)
    np.concatenate([t[0] for t in templates], out=rows[8:])
    ends = np.concatenate([t[1] for t in templates]).reshape(len(templates), -1)
    ends += np.cumsum([8, *sizes[:-1]])[:, None]
    _index_digits(np.add.outer(f, p).ravel(), ends.ravel(), rows)
    return rows[8:]


def _coeff_row_bytes(indices: np.ndarray, inverse: np.ndarray, texts) -> np.ndarray:
    """The `n,repr(c)` CR LF lines of strictly increasing `indices` and
    the texts of `_coeff_texts`, as a uint8 array, each row at its own
    length.  For each run of one digit count, in order, the padded texts
    go in as cells no longer than its shortest row, last cells first, so
    that later rows and then the digits overwrite the NULs."""
    texts, lengths = texts
    powers = indices.searchsorted(_POWERS[: len(str(int(indices[-1]))) - 1]).tolist()
    sizes = lengths[inverse] + 1
    for lo in powers:
        sizes[lo:] += 1  # one more digit from each power of 10 on
    # where each text starts, after 8 bytes of headroom for `_index_digits`
    starts = np.cumsum(sizes) - lengths[inverse] + 8
    rows = np.empty(int(starts[-1] + lengths[inverse[-1]]) + texts.itemsize, np.uint8)
    runs = sorted({0, *powers, indices.size})
    for lo, hi in zip(runs, runs[1:]):
        cell = min(32, 1 << (int(sizes[lo:hi].min()).bit_length() - 1))
        out = np.ndarray(rows.size - cell + 1, f"V{cell}", rows, strides=(1,))
        cells, at, which = texts.view(f"V{cell}").reshape(texts.size, -1), starts[lo:hi], inverse[lo:hi]
        for k in reversed(range(cells.shape[1])):
            out[at + cell * k] = cells[:, k][which]
    _index_digits(indices, starts, rows)
    return rows[8 : rows.size - texts.itemsize]


def _index_digits(indices: np.ndarray, ends: np.ndarray, rows: np.ndarray) -> None:
    """Strictly increasing nonnegative int64 `indices` as ASCII digits in
    the uint8 `rows`, each field ending before its int64 offset in `ends`.
    From 6 digits on, an index takes unaligned 8-byte stores of zero-padded
    digits (`_eight_digits`): one ending at `ends`, and past 8 digits one
    or two more from the field's start.  The store of a 6- or 7-digit index
    also writes the CR LF or LF before its field, which every field has:
    the line end of the row before it, or, before the first row, 8 bytes of
    headroom.  4- and 5-digit indices take 4-byte cells of `_digit_cells`,
    shorter ones digit by digit.  Nothing else in `rows` changes."""
    padded = _digit_cells()
    cells = np.ndarray((rows.size - 3,), np.uint32, buffer=rows, strides=(1,))
    wide = np.ndarray((rows.size - 7,), np.uint64, buffer=rows, strides=(1,))
    bounds = [0, *indices.searchsorted(_POWERS).tolist(), indices.size]
    for d, (lo, hi) in enumerate(zip(bounds, bounds[1:]), 1):
        if lo == hi:
            continue
        rest, end = indices[lo:hi], ends[lo:hi]
        if d < 4:
            for k in range(1, d + 1):
                quot = rest // 10
                rows[end - k], rest = rest - 10 * quot + ord("0"), quot
        elif d < 6:
            if d == 5:
                cells[end - 5] = padded[rest // 10]
                rest = rest - 10_000 * (rest // 10_000)
            cells[end - 4] = padded[rest]
        else:
            for k in range(8, d, 8):  # the leading digits, 8 at a time
                wide[end - d + k - 8] = _eight_digits(rest // 10 ** (d - k) % 10**8)
            last = _eight_digits(rest % 10**8 if d > 8 else rest)
            if d < 8:
                last.view(np.uint8).reshape(-1, 8)[:, : 8 - d] = np.frombuffer(b"\r\n"[d - 6 :], np.uint8)
            wide[end - 8] = last


def _eight_digits(values: np.ndarray) -> np.ndarray:
    """The zero-padded ASCII digits of int64 `values` below 10^8, each as
    one uint64 holding its 8 bytes in memory order."""
    lead, trail = _digit_pairs()
    quot = values // 10_000
    digits = trail[values - 10_000 * quot]
    digits |= lead[quot]
    return digits


@functools.cache
def _digit_cells() -> np.ndarray:
    """The zero-padded ASCII digits of 0..9999 as a uint32 table of 4-byte
    cells, built on the first write, not at import, with the integer
    steps the cells use (other numpy routines map more of its library)."""
    cells = np.empty((10_000, 4), np.uint8)
    rest = np.arange(10_000)
    for col in (3, 2, 1, 0):
        quot = rest // 10
        cells[:, col] = rest - 10 * quot + ord("0")
        rest = quot
    return cells.view(np.uint32).ravel()


@functools.cache
def _digit_pairs() -> np.ndarray:
    """`_digit_cells` in 8-byte cells, a (2, 10^4) uint64 table NUL but
    for the digits: in the first 4 bytes in row 0, in the last 4 in row
    1, so that two cells OR-ed hold 8 digits.  Built on the first write of
    an index of 6 digits or more."""
    pairs = np.zeros((2, 10_000, 2), np.uint32)
    pairs[0, :, 0] = pairs[1, :, 1] = _digit_cells()
    return pairs.view(np.uint64)[..., 0]


def series_to_csv(series: WalshSeries, path) -> None:
    """Every coefficient, zeros included, as CSV `n,coeff`."""
    _write_coeff_rows(path, "n", np.arange(series.order), series.coeffs)


def read_coeff_rows(source) -> tuple[np.ndarray, np.ndarray]:
    """Parse `n,coeff` rows (header required, n strictly increasing) into
    int64 indices and float64 coefficients.

    `_read_rows`, one Python step per row, is the definition.  The text is
    first read by one `np.loadtxt` parse, `_read_rows_array`, which gives
    up (None) where it cannot vouch for the same result: on anything csv
    would quote, split or refuse differently, on any field numpy's parser
    rejects, and on a failed array check (a non-finite coefficient, a
    negative or non-increasing index, no rows).  Only then does the row
    loop run, returning its rows or raising a line-numbered
    SeriesFormatError; its indices of 2^63 or more come back in an object
    array of Python ints for the caller to refuse.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="") as fh:
            text = fh.read()
    else:
        text = source.read()
    parsed = _read_rows_array(text)
    if parsed is not None:
        del text  # released before the fields are copied out of the rows
        return parsed[0].copy(), parsed[1].copy()
    rows = _read_rows(text)
    indices = [n for n, _ in rows]
    wide = indices[-1] >> 63
    return (np.array(indices, dtype=object if wide else np.int64),
            np.array([c for _, c in rows], dtype=np.float64))


def _read_rows(text: str) -> list[tuple[int, float]]:
    """The reader's definition: csv rows of `text`, each index read by
    `int` and each coefficient by `float`, blank rows skipped, extra
    columns ignored, every fault a SeriesFormatError naming its line."""
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


_ROW_DTYPE = np.dtype([("n", np.int64), ("c", np.float64)])
# characters of text per chunk that `_read_rows_array` splits into lines
_LINE_CHUNK = 1 << 16


def _read_rows_array(text: str):
    """`_read_rows` of `text` as (int64 indices, float64 coefficients),
    the two fields of one `_ROW_DTYPE` array that one `np.loadtxt` parse
    of the lines after the header fills, or None where that might differ.

    The text must hold no quote (csv's quoting) and no NUL (which csv
    refuses before Python 3.11), the header line no carriage return
    before its end, and no line may be longer than csv's field size
    limit.  Lines are split at LF alone, `_LINE_CHUNK` characters at a
    time; numpy's reader ends a line at a CR before the LF, skips empty
    lines as csv does, and raises on a lone CR, where csv would end a
    row.  Its int64 and float64 fields then read what `int` and `float`
    read: whitespace around a field, a sign, ASCII digits, and for floats
    `PyOS_string_to_double`'s grammar, `float`'s without underscores.
    It raises on other digits, on `1_0`, on `5.0` as an index (older
    numpy warns, and warnings are raised here), on an index past int64
    and on a blank line, which the row loop skips.
    """
    if '"' in text or "\0" in text:
        return None
    stop = text.find("\n") + 1 or len(text)
    head = text[:stop].removesuffix("\n").removesuffix("\r")
    if "\r" in head or [c.strip().lower() for c in head.split(",")[:2]] != ["n", "coeff"]:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _loadtxt(itertools.chain.from_iterable(_line_chunks(text, stop)), _ROW_DTYPE)
    except (ValueError, OverflowError, Warning):
        return None
    indices, coeffs = rows["n"], rows["c"]
    if not (indices.size and indices[0] >= 0 and (indices[1:] > indices[:-1]).all()
            and np.isfinite(coeffs).all()):
        return None
    return indices, coeffs


def _loadtxt(lines, dtype):
    return np.loadtxt(lines, dtype, comments=None, delimiter=",", usecols=(0, 1), ndmin=1)


def _line_chunks(text: str, start: int):
    """The lines of `text` from `start` on, split at LF, as one list per
    chunk, for `itertools.chain` to hand on one at a time (a generator
    resumed per line took 6-10% longer to read a dense depth-20 series);
    ValueError at a line longer than csv's field size limit (a chunk no
    longer than the limit holds none)."""
    limit = csv.field_size_limit()
    while start < len(text):
        stop = text.find("\n", start + _LINE_CHUNK) + 1 or len(text)
        lines = text[start:stop].split("\n")
        if stop - start > limit and max(map(len, lines)) > limit:
            raise ValueError("a line longer than csv's field size limit")
        yield lines
        start = stop


# The deepest series `series_from_csv` reads, the package's one limit on
# a dense series.  `theorem1-check` on a seeded dense 2-limb series
# (coefficients uniform(-1, 1) 2^-U{0..20}), its exact positivity pass
# run, took 2.5-3.4 s and 97 MiB of peak RSS at depth 20 and
# 22.6-26.5 s and 546 MiB at 23 on one shared Xeon core: 23 is the
# deepest depth under 30 s and 1 GiB.  At 23 this reader alone peaks at
# 525 MiB of RSS, set by the file read, which holds the 247 MiB text and
# its bytes at once.
THEOREM1_DEPTH_LIMIT = 23


def series_from_csv(source) -> WalshSeries:
    """Load a series from `n,coeff` rows; sparse rows are zero-filled.

    The depth is the smallest K with every index below 2^K.  A series
    deeper than THEOREM1_DEPTH_LIMIT raises CoordinateBudgetError, naming
    the depth and the bytes of its dense coefficients, before they are
    allocated.
    """
    indices, values = read_coeff_rows(source)
    depth = int(indices[-1]).bit_length()
    if depth > THEOREM1_DEPTH_LIMIT:
        raise CoordinateBudgetError(f"depth {depth} is past the dense-series limit"
                                    f" {THEOREM1_DEPTH_LIMIT}: its coefficients would take {8 << depth:,} bytes")
    coeffs = np.zeros(1 << depth)
    coeffs[indices] = values
    return WalshSeries(depth, coeffs)
