"""Core Walsh machinery: indexing, transforms, partial sums, the
reindexing identity, and norms.

Expected values marked as frozen were computed with the brute-force
oracles at the top of this file (explicit sign products and the full
transform matrix), which stay independent of the butterfly code paths.
"""

import csv
import io
import itertools
import math
import operator
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walshriesz as wr
from conftest import single_merge
from oracles import Atom, walsh_eval
from walshriesz.walsh import (
    _LIMB_BITS, _limb_ops, _read_rows, _read_rows_array, _segment_merge,
    atom_patterns, sign_vector,
)


def brute_walsh(n: int, pattern: int) -> int:
    """w_n at an atom as an explicit product of Rademacher signs."""
    value = 1
    j = 0
    while n >> j:
        if (n >> j) & 1:
            value *= -1 if (pattern >> j) & 1 else 1
        j += 1
    return value


def brute_matrix(m: int) -> np.ndarray:
    """H[t, n] = w_n(t), assembled entry by entry."""
    size = 1 << m
    h = np.zeros((size, size), dtype=np.int64)
    for t in range(size):
        for n in range(size):
            h[t, n] = brute_walsh(n, t)
    return h


def reference_butterfly(values: np.ndarray) -> np.ndarray:
    """The standalone butterfly loop `walsh.butterfly` had before it became
    the merge with no class of prefixes; it keeps the input's dtype."""
    v = np.array(values)
    n = v.shape[0]
    h = 1
    while h < n:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        v[:, :h] += v[:, h:]
        v[:, h:] = left - v[:, h:]
        v = v.reshape(n)
        h *= 2
    return v


# ---------------------------------------------------------------------------
# indexing and evaluation
# ---------------------------------------------------------------------------

def test_walsh_eval_empty_product():
    for pattern in range(8):
        assert walsh_eval(0, Atom(3, pattern)) == 1


def test_walsh_eval_small_identities():
    # w_3 = r_1 r_2 so both signs flipped give +1
    assert walsh_eval(3, Atom(2, 0b11)) == 1
    # w_4 = r_3
    assert walsh_eval(4, Atom(3, 0b100)) == -1
    assert walsh_eval(1, Atom(1, 0)) == 1
    assert walsh_eval(2, Atom(2, 0b10)) == -1


def test_walsh_eval_out_of_range():
    with pytest.raises(ValueError, match="coordinates"):
        walsh_eval(4, Atom(2, 0))


def test_walsh_eval_matches_brute_oracle():
    for n in range(16):
        for pattern in range(16):
            assert walsh_eval(n, Atom(4, pattern)) == brute_walsh(n, pattern)


@given(st.integers(0, 63), st.integers(0, 63))
@settings(max_examples=100)
def test_product_index_is_pointwise_product(m, n):
    # w_m w_n = w_(m XOR n): exponents add mod 2
    patterns = atom_patterns(6)
    left = sign_vector(m ^ n, patterns)
    right = sign_vector(m, patterns) * sign_vector(n, patterns)
    assert np.array_equal(left, right)


def test_sign_vector_matches_scalar_walsh_eval():
    patterns = atom_patterns(7)
    for n in (0, 1, 6, 77, 127):
        signs = sign_vector(n, patterns)
        assert signs.dtype == np.int64
        assert signs.tolist() == [walsh_eval(n, Atom(7, int(t))) for t in patterns]


def test_orthonormality_up_to_1024():
    # mean_t w_j(t) = delta_(j,0); row sums of H are butterfly(ones).
    # Combined with the product identity above this gives
    # mean w_m w_n = delta_(m,n) for all m, n < 2^10.
    sums = wr.butterfly(np.ones(1 << 10, dtype=np.int64))
    assert sums[0] == 1 << 10
    assert np.all(sums[1:] == 0)


def test_orthonormality_direct_small():
    for m in range(8):
        for n in range(8):
            mean = np.mean(wr.walsh_signs(m, 3) * wr.walsh_signs(n, 3))
            assert mean == (1.0 if m == n else 0.0)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_butterfly_matches_brute_matrix():
    for m in range(0, 7):
        h = brute_matrix(m)
        for n in range(1 << m):
            e = np.zeros(1 << m)
            e[n] = 1.0
            assert np.array_equal(wr.butterfly(e), h[:, n])


@pytest.mark.parametrize("m", range(13))
def test_butterfly_matches_reference_loop_bit_for_bit(m):
    # float64 with signed zeros, int64, and the Rudin-Shapiro pair at
    # level m: the merge's full sums are the old loop's, byte for byte
    rng = np.random.default_rng(m)
    size = 1 << m
    floats = rng.uniform(-1, 1, size)
    floats[rng.random(size) < 0.3] = 0.0
    floats[rng.random(size) < 0.3] = -0.0
    pair = wr.build_pair(m)
    for values in (floats, -floats, rng.integers(-1000, 1001, size), pair.p, pair.q):
        got, want = wr.butterfly(values), reference_butterfly(values)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_butterfly_widens_small_integers_exactly():
    # int8 would wrap: 256 ones sum to 0 in int8
    values = wr.butterfly(np.ones(256, dtype=np.int8))
    assert values.dtype == np.int64
    assert values[0] == 256 and not values[1:].any()


def test_integer_input_refused_where_int64_would_wrap():
    # sum |c| bounds every partial sum and transform value; at 2^63 it
    # no longer fits int64, one below it does
    too_big = np.array([2**62, 2**62])
    for call in (wr.butterfly, wr.prefix_extrema, wr.u_norm):
        with pytest.raises(ValueError, match="2\\^63"):
            call(too_big)
    with pytest.raises(ValueError, match="2\\^63"):
        wr.butterfly(np.array([-(2**63), 0]))
    s, mx, mn = wr.prefix_extrema(np.array([2**62, 2**62 - 1]))
    assert s.tolist() == [2**63 - 1, 1] and mx.tolist() == [2**63 - 1, 2**62]
    assert mn.tolist() == [2**62, 1]
    assert wr.u_norm(np.array([2**62, 2**62 - 1])) == 2**63 - 1
    # a large spread-out uint64 input that fits stays exact
    assert wr.butterfly(np.full(4, 2**60, dtype=np.uint64)).tolist() == [2**62, 0, 0, 0]


def test_fwht_constant_table():
    series = wr.fwht(wr.AtomTable(1, np.array([1.0, 1.0])))
    assert np.array_equal(series.coeffs, [1.0, 0.0])


def test_inverse_fwht_two_coeffs():
    # 1 + 0.5 r_1 at (r_1=+1), (r_1=-1): frozen from direct evaluation
    table = wr.inverse_fwht(wr.WalshSeries.from_coeffs([1.0, 0.5]))
    assert np.array_equal(table.values, [1.5, 0.5])


def test_roundtrip_exact_m8():
    rng = np.random.default_rng(42)
    values = rng.uniform(-1, 1, 256)
    back = wr.inverse_fwht(wr.fwht(wr.AtomTable(8, values)))
    assert np.max(np.abs(back.values - values)) < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_roundtrip_and_parseval(seed, m):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, 1 << m)
    series = wr.WalshSeries.from_coeffs(coeffs)
    table = wr.inverse_fwht(series)
    again = wr.fwht(table)
    assert np.max(np.abs(again.coeffs - coeffs)) < 1e-12
    lhs = np.mean(table.values**2)
    rhs = np.sum(coeffs**2)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_non_power_of_two_rejected():
    with pytest.raises(ValueError, match="power of two"):
        wr.WalshSeries.from_coeffs([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="power of two"):
        wr.butterfly(np.ones(6))


# ---------------------------------------------------------------------------
# partial sums and multiplication
# ---------------------------------------------------------------------------

def test_partial_sum_edges():
    series = wr.WalshSeries.from_coeffs([1.0, 0.5, 0.25, 0.0])
    assert np.array_equal(wr.partial_sum(series, 0).values, np.zeros(4))
    full = wr.partial_sum(series, 4).values
    assert np.array_equal(full, wr.inverse_fwht(series).values)
    # 1 + 0.5 r_1 on four atoms: frozen from direct evaluation
    assert np.array_equal(wr.partial_sum(series, 2).values, [1.5, 0.5, 1.5, 0.5])
    with pytest.raises(ValueError):
        wr.partial_sum(series, 5)


def test_multiply_by_walsh_reindexes():
    series = wr.WalshSeries.from_coeffs([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(wr.multiply_by_walsh(series, 0).coeffs, series.coeffs)
    assert np.array_equal(wr.multiply_by_walsh(series, 1).coeffs, [2.0, 1.0, 4.0, 3.0])
    with pytest.raises(ValueError):
        wr.multiply_by_walsh(series, 4)


@given(st.integers(0, 2**32 - 1), st.integers(0, 31))
@settings(max_examples=60, deadline=None)
def test_multiply_by_walsh_pointwise(seed, m):
    rng = np.random.default_rng(seed)
    series = wr.WalshSeries.from_coeffs(rng.uniform(-1, 1, 32))
    product = wr.inverse_fwht(wr.multiply_by_walsh(series, m)).values
    direct = wr.walsh_signs(m, 5) * wr.inverse_fwht(series).values
    assert np.max(np.abs(product - direct)) < 1e-12


# ---------------------------------------------------------------------------
# the reindexing identity
# ---------------------------------------------------------------------------

def test_lemma_segment_for_identity_multiplier():
    series = wr.WalshSeries.from_coeffs(np.arange(8.0))
    for k in range(4):
        witness = wr.verify_lemma(series, 0, k)
        assert (witness.lower, witness.upper) == (0, 1 << k)


def test_lemma_segment_for_high_bit():
    # m = 2^k' with k' >= k: XOR is an order-preserving shift of [0, 2^k)
    series = wr.WalshSeries.from_coeffs(np.random.default_rng(7).uniform(-1, 1, 64))
    witness = wr.verify_lemma(series, 16, 3)
    assert (witness.lower, witness.upper) == (16, 24)
    witness = wr.verify_lemma(series, 16, 4)
    assert (witness.lower, witness.upper) == (16, 32)


def test_lemma_exhaustive_small_depth():
    rng = np.random.default_rng(123)
    series = wr.WalshSeries.from_coeffs(rng.uniform(-1, 1, 64))
    for m in range(64):
        for k in range(7):
            witness = wr.verify_lemma(series, m, k)
            assert witness.max_error <= 1e-12
            assert witness.upper - witness.lower == 1 << k


@given(st.integers(0, 2**32 - 1), st.integers(0, 31), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_lemma_random(seed, m, k):
    rng = np.random.default_rng(seed)
    series = wr.WalshSeries.from_coeffs(rng.uniform(-1, 1, 32))
    wr.verify_lemma(series, m, k)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_norm_bundle_hand_case():
    series = wr.WalshSeries.from_coeffs([1.0, 0.5, 0.0, 0.0])
    bundle = wr.norm_bundle(series)
    assert bundle.a == 1.5
    assert bundle.pm == 1.0
    assert abs(bundle.l2 - np.sqrt(1.25)) < 1e-15
    # prefixes: 0, 1, 1 +- 0.5 -> sup over prefixes is 1.5
    assert bundle.u == 1.5
    assert bundle.sup == 1.5


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_norm_inequalities(seed):
    rng = np.random.default_rng(seed)
    series = wr.WalshSeries.from_coeffs(rng.uniform(-1, 1, 64))
    b = wr.norm_bundle(series)
    tol = 1e-12
    assert b.pm <= b.l2 + tol
    assert b.l2 <= np.sqrt(b.a * b.pm) + tol
    assert b.sup <= b.u + tol
    assert b.sup <= b.a + tol


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_prefix_extrema_and_u_norm_reject_non_finite_coefficients(bad):
    # a NaN compares false, so the prefix sup alone would read 0.0
    for call in (wr.prefix_extrema, wr.u_norm):
        with pytest.raises(ValueError, match=r"coefficient 1, .* is not finite"):
            call([1.0, bad])
        with pytest.raises(ValueError, match=r"coefficient 2, .* is not finite"):
            call(np.array([1.0, 0.5, bad, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_norm_bundle_rejects_non_finite_coefficients(bad):
    # the bundle's u would read 0.0 beside NaN l2, a and sup
    with pytest.raises(ValueError, match=r"coefficient 1, .* is not finite"):
        wr.norm_bundle(wr.WalshSeries.from_coeffs([1.0, bad]))


def test_butterfly_propagates_non_finite_values():
    # the transform itself takes any float: NaN in, NaN out
    assert np.isnan(wr.butterfly(np.array([1.0, math.nan]))).all()
    assert wr.butterfly(np.array([math.inf, 1.0])).tolist() == [math.inf, math.inf]


def test_u_norm_integer_exact():
    coeffs = np.array([1, -1, 1, 1], dtype=np.int64)
    value = wr.u_norm(coeffs)
    assert isinstance(value, int)
    # prefix sup computed by hand over 4 atoms
    brute = 0
    for pattern in range(4):
        acc = 0
        for n in range(4):
            acc += coeffs[n] * brute_walsh(n, pattern)
            brute = max(brute, abs(acc))
    assert value == brute


@pytest.mark.parametrize("m", range(9))
def test_prefix_extrema_matches_brute_partial_sums(m):
    h = brute_matrix(m)
    rng = np.random.default_rng(m)
    size = 1 << m
    single = np.zeros(size, dtype=np.int64)
    single[rng.integers(size)] = -3
    cases = [
        rng.uniform(-1, 1, size),
        rng.integers(-5, 6, size),
        np.zeros(size),
        np.zeros(size, dtype=np.int64),
        single,
        single.astype(np.float64),
    ]
    for coeffs in cases:
        # partial[p - 1, t] = S_p(t) for the nonempty prefixes p = 1..2^m
        partial = np.cumsum(h.T * coeffs[:, None], axis=0)
        s, mx, mn = wr.prefix_extrema(coeffs)
        exact = np.issubdtype(coeffs.dtype, np.integer)
        assert s.dtype == mx.dtype == mn.dtype == (np.int64 if exact else np.float64)
        if exact:
            assert np.array_equal(s, partial[-1])
            assert np.array_equal(mx, partial.max(axis=0))
            assert np.array_equal(mn, partial.min(axis=0))
        else:
            tol = (m + 1) * 2.0**-52 * np.sum(np.abs(coeffs))
            assert np.array_equal(s, wr.butterfly(coeffs))
            assert np.max(np.abs(s - partial[-1])) <= tol
            assert np.max(np.abs(mx - partial.max(axis=0))) <= tol
            assert np.max(np.abs(mn - partial.min(axis=0))) <= tol


@pytest.mark.parametrize("m", range(7))
def test_segment_merge_is_exact_over_python_ints(monkeypatch, m):
    # the exact positivity route's arithmetic: +-2^70 plus small signed
    # offsets, past int64 and past float64's mantissa, so a sum whose
    # 2^70 parts cancel reads the offsets alone; the oracle is every
    # prefix on every atom from the definition, w_n(t) through
    # sign_vector, in Python ints, level by level and, tiled from 32
    # atoms, in object-array tiles
    rng = np.random.default_rng(70 + m)
    size = 1 << m
    coeffs = [int(sign) * (1 << 70) + int(offset)
              for sign, offset in zip(rng.choice([-1, 1], size), rng.integers(-9, 10, size))]
    signs = [sign_vector(n, atom_patterns(m)).tolist() for n in range(size)]
    for tiled_from in (None, 32):
        patch_merge(monkeypatch, tiled_from, None)
        s = np.array(coeffs, dtype=object)
        mx, mn = s[None].copy(), s[None].copy()
        _segment_merge(s, mx, mn)
        for t in range(size):
            partial = list(itertools.accumulate(c * row[t] for c, row in zip(coeffs, signs)))
            got = (s[t], mx[0, t], mn[0, t])
            assert all(type(v) is int for v in got)
            assert got == (partial[-1], max(partial), min(partial))


LIMB = 1 << _LIMB_BITS


def to_limbs(values, width):
    """Python ints as a limb table, built here from the definition: limb j
    is digit j base 2^_LIMB_BITS, the top one the signed floor quotient."""
    return np.array([[v // LIMB**j % LIMB if j < width - 1 else v // LIMB**j for v in values]
                     for j in range(width)], dtype=np.int64)


def from_limbs(table, carried=True):
    """A limb table (limb axis first) as Python ints, checking that every
    low limb is in [0, 2^_LIMB_BITS) unless it need not be carried."""
    limbs = table.reshape(len(table), -1).tolist()
    assert not carried or all(0 <= d < LIMB for limb in limbs[:-1] for d in limb)
    return [sum(d * LIMB**j for j, d in enumerate(digits)) for digits in zip(*limbs)]


def limb_coeffs(width, m, pattern):
    """2^m coefficients whose sums fill `width` limbs: +-2^L, +-2^(2L), ...
    (L = _LIMB_BITS) below the largest magnitude 2^m of them may take
    (every sum below 2^(L width - 1) in modulus), plus small signed
    offsets.  "random" draws sign and magnitude; "alternating" flips the
    sign of the largest one, so the partial sums' top limbs cancel every
    other term."""
    rng = np.random.default_rng(100 * width + m)
    size = 1 << m
    top = (1 << (_LIMB_BITS * width - max(m, 5) - 2)) - 10
    magnitudes = [LIMB**j for j in range(1, width)] + [top]
    offsets = rng.integers(-9, 10, size).tolist()
    if pattern == "alternating":
        return [(-1) ** n * top + d for n, d in enumerate(offsets)]
    signs = rng.choice([-1, 1], size).tolist()
    picks = rng.integers(0, len(magnitudes), size).tolist()
    return [s * magnitudes[i] + d for s, i, d in zip(signs, picks, offsets)]


def merge_oracle(coeffs, highs, lows):
    """`_segment_merge`'s (S, MX rows, MN rows) from the definition, in
    Python ints.  Row r starts coefficient n's segment at highs[r][n] and
    lows[r][n]; every sign flip of a prefix mirrors the rows, so at atom t
    row r reads, over n, S_<n(t) plus highs[r][n] (lows[r][n]) where
    w_n(t) = 1 and minus lows[R-1-r][n] (highs[R-1-r][n]) where
    w_n(t) = -1.  With highs = lows = coeffs these are the largest and
    smallest nonempty partial sums."""
    size = len(coeffs)
    signs = np.array([sign_vector(n, atom_patterns(size.bit_length() - 1)) for n in range(size)]).T
    terms = np.array(coeffs, dtype=object)[None, :] * signs
    before = np.cumsum(terms, axis=1) - terms
    plus = signs == 1
    rows = len(highs)
    high = [np.array(v, dtype=object) for v in highs]
    low = [np.array(v, dtype=object) for v in lows]
    mx = [(before + np.where(plus, high[r], -low[rows - 1 - r])).max(axis=1) for r in range(rows)]
    mn = [(before + np.where(plus, low[r], -high[rows - 1 - r])).min(axis=1) for r in range(rows)]
    return (before[:, -1] + terms[:, -1]).tolist(), [v.tolist() for v in mx], [v.tolist() for v in mn]


def merge_starts(coeffs, rows, seed):
    """Starting extremes of `rows` rows: the coefficients themselves for
    one row, small distinct widenings of them for more."""
    if rows < 2:
        return [list(coeffs)] * rows, [list(coeffs)] * rows
    widen = np.random.default_rng(seed).integers(0, 10, (2, rows, len(coeffs))).tolist()
    return ([[c + d for c, d in zip(coeffs, up)] for up in widen[0]],
            [[c - d for c, d in zip(coeffs, down)] for down in widen[1]])


# merge set-ups the tests patch in, (tiled from, block): tiles from 32
# atoms (only tables of 2^12 atoms or more are tiled otherwise), at the
# default blocks and at blocks narrower than half a tile or holding
# several tiles and a partial run; and small blocks with no tiles
MERGE_SETUPS = [(32, None), (32, 8), (32, 48), (32, 144), (None, 8)]


def patch_merge(monkeypatch, tiled_from, block):
    monkeypatch.undo()
    if tiled_from:
        monkeypatch.setattr(wr.walsh, "_TILED_FROM", tiled_from)
    if block:
        monkeypatch.setattr(wr.walsh, "_MERGE_BLOCK", block)


@pytest.mark.parametrize("pattern", ["random", "alternating"])
@pytest.mark.parametrize(("width", "m"), [(w, m) for w in (1, 2, 3, 5) for m in range(10 if w < 5 else 6)])
def test_segment_merge_is_exact_over_limbs(monkeypatch, width, m, pattern):
    # the exact positivity route's arithmetic, against every prefix on
    # every atom from the definition, in Python ints; one limb is a plain
    # int64 table.  Depths 0-9 cover merges shorter than a tile, one tile
    # and many tiles, with 0, 1 and 2 mirrored rows, level by level and
    # tiled, at the default blocks and at small ones, so runs of tiles
    # cross block edges
    coeffs = limb_coeffs(width, m, pattern)
    for rows in (0, 1, 2):
        highs, lows = merge_starts(coeffs, rows, m)
        want = merge_oracle(coeffs, highs, lows)
        for setup in [(None, None), *MERGE_SETUPS]:
            patch_merge(monkeypatch, *setup)
            s = to_limbs(coeffs, width)
            mx = np.array([to_limbs(v, width) for v in highs], np.int64).reshape(rows, *s.shape)
            mn = np.array([to_limbs(v, width) for v in lows], np.int64).reshape(rows, *s.shape)
            _segment_merge(s, mx, mn)
            assert (from_limbs(s), [from_limbs(v) for v in mx], [from_limbs(v) for v in mn]) == want


@pytest.mark.parametrize("rows", [0, 1, 2])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_segment_merge_in_blocks_is_the_whole_level_merge(monkeypatch, rows, width):
    # tiles and small blocks cut merges of depth 0-9: the levels below a
    # tile into runs of tiles, partial ones included, and the longer
    # levels both ways, several segment pairs at a time, then runs of
    # positions; the tables must equal those of whole levels bit for bit,
    # float and limbs alike
    for m in range(10):
        if width == 1:
            start = np.random.default_rng(m).uniform(-1, 1, (1 + 2 * rows, 1 << m))
        else:
            c = limb_coeffs(width, m, "random")
            start = np.stack([to_limbs(c[k:] + c[:k], width) for k in range(1 + 2 * rows)])

        def merged():
            s, mx, mn = start[0].copy(), start[1 : 1 + rows].copy(), start[1 + rows :].copy()
            _segment_merge(s, mx, mn)
            return s, mx, mn

        patch_merge(monkeypatch, None, None)
        whole = merged()
        for setup in MERGE_SETUPS:
            patch_merge(monkeypatch, *setup)
            for got, want in zip(merged(), whole):
                assert np.array_equal(got, want)


def limb_values(width):
    """Integers whose sums and differences fit `width` limbs, half of them
    within a few units of +-2^(_LIMB_BITS j)."""
    bound = 1 << (_LIMB_BITS * width - 2)
    near = st.builds(lambda j, sign, d: sign * LIMB**j + d, st.integers(0, width - 1),
                     st.sampled_from([-1, 1]), st.integers(-3, 3))
    return st.one_of(st.integers(-bound, bound), near)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_limb_ops_match_python_ints(data):
    width = data.draw(st.sampled_from([2, 3, 5]))
    size = data.draw(st.integers(1, 6))
    pair = st.lists(limb_values(width), min_size=size, max_size=size)
    a, b = data.draw(pair), data.draw(pair)
    add, sub, maximum, minimum, carry = _limb_ops(size)
    for op, want in ((add, operator.add), (sub, operator.sub), (maximum, max), (minimum, min)):
        for into in range(2):  # the merge writes into either operand
            ta, tb = to_limbs(a, width)[:, None], to_limbs(b, width)[:, None]
            got = op(ta, tb, out=(ta, tb)[into])
            assert got is (ta, tb)[into]
            # add and subtract leave the carry to `carry`; maximum and
            # minimum pick one carried operand
            assert from_limbs(got, carried=op in (maximum, minimum)) == list(map(want, a, b))
            assert carry(got) is got and from_limbs(got) == list(map(want, a, b))


@given(width=st.sampled_from([2, 3]), m=st.sampled_from([0, 1, 2, 3, 4, 5, 6, 9, 12, 13]),
       lows=st.sampled_from(["top", "zero", "mixed"]),
       signs=st.sampled_from(["plus", "minus", "alternating", "random"]),
       rows=st.sampled_from([0, 1]), setup=st.sampled_from([(None, None), (32, None), (None, 8)]),
       seed=st.integers(0, 2**32 - 1))
@example(width=2, m=12, lows="top", signs="plus", rows=1, setup=(None, None), seed=0)
@example(width=3, m=13, lows="mixed", signs="alternating", rows=1, setup=(None, None), seed=0)
@settings(max_examples=60, deadline=None)
def test_segment_merge_carries_grown_limbs(width, m, lows, signs, rows, setup, seed):
    # limbs are carried only every fourth level: low limbs starting at
    # 2^L - 1 (L = _LIMB_BITS) on terms of one sign double at every level
    # until then, and sums and differences of terms of both signs drive
    # them negative; the tables must still come out carried and equal to
    # the same merge over Python ints, untiled and tiled (2^12 atoms and
    # up by default, from 32 atoms patched), whole levels and small blocks
    rng = np.random.default_rng(seed)
    size = 1 << m
    # top limbs below 2^(L - 2 - m): every sum is below 2^(L width - 2)
    top = rng.integers(0, 1 << (_LIMB_BITS - 2 - m), size)
    top[rng.random(size) < 0.5] = (1 << (_LIMB_BITS - 2 - m)) - 1
    sign = {"plus": np.ones(size, int), "minus": -np.ones(size, int),
            "alternating": (-1) ** np.arange(size), "random": rng.choice([-1, 1], size)}[signs]
    low = {"top": np.full((width - 1, size), True), "zero": np.full((width - 1, size), False),
           "mixed": rng.random((width - 1, size)) < 0.5}[lows]
    coeffs = [sum((LIMB - 1) * LIMB**j for j in range(width - 1) if low[j, n])
              + int(sign[n]) * int(top[n]) * LIMB ** (width - 1) for n in range(size)]
    s = np.array(coeffs, dtype=object)
    mx, mn = (s[None].repeat(rows, axis=0) for _ in range(2))
    _segment_merge(s, mx, mn)
    want = s.tolist(), mx.tolist(), mn.tolist()
    with pytest.MonkeyPatch.context() as monkeypatch:
        patch_merge(monkeypatch, *setup)
        t = to_limbs(coeffs, width)
        tx, tn = (np.array([t] * rows, np.int64).reshape(rows, *t.shape) for _ in range(2))
        _segment_merge(t, tx, tn)
    assert (from_limbs(t), [from_limbs(v) for v in tx], [from_limbs(v) for v in tn]) == want


def test_prefix_extrema_merges_in_place():
    # the merge overwrites its three tables and one scratch table: a
    # merge that allocated fresh tables at each level peaked at 8
    size = 1 << 18
    coeffs = np.random.default_rng(18).uniform(-1, 1, size)
    tracemalloc.start()
    try:
        wr.prefix_extrema(coeffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * coeffs.nbytes


def test_prefix_extrema_rejects_bad_length():
    with pytest.raises(ValueError, match="power of two"):
        wr.prefix_extrema(np.zeros(6))
    with pytest.raises(ValueError, match="power of two"):
        wr.prefix_extrema(np.zeros(0))


def block_series(depth: int, dtype, kinds, seed: int) -> np.ndarray:
    """c_0 and each dyadic block N_k of one kind: "nonzero", "+0", "-0"
    (int64: 0) or "mixed" (+0.0, -0.0 and values).  Values are small
    integers times powers of two, so sums cancel to zeros of both signs."""
    rng = np.random.default_rng(seed)
    c = np.zeros(1 << depth, dtype)
    for lo, kind in zip([0, *(1 << k for k in range(depth))], kinds):
        size = max(lo, 1)
        values = rng.integers(-3, 4, size) * 2.0 ** -rng.integers(0, 8, size)
        zeros = np.where(rng.random(size) < 0.5, -0.0, 0.0)
        block = {"nonzero": values, "+0": np.zeros(size), "-0": np.full(size, -0.0),
                 "mixed": np.where(rng.random(size) < 0.3, values, zeros)}[kind]
        c[lo : lo + size] = block * 2**8 if dtype is np.int64 else block
    return c


BLOCK_KINDS = st.integers(0, 14).flatmap(lambda depth: st.lists(
    st.sampled_from(["nonzero", "+0", "-0", "mixed"]), min_size=depth + 1, max_size=depth + 1))


@given(BLOCK_KINDS, st.sampled_from([np.float64, np.int64]), st.integers(0, 2**32 - 1))
@example(["-0", "-0", "+0", "+0", "+0", "+0", "+0"], np.float64, 0)
@example(["-0", "-0"] + ["+0"] * 12, np.float64, 0)
@settings(max_examples=150, deadline=None)
def test_block_merge_is_the_single_merge_bit_for_bit(kinds, dtype, seed):
    # butterfly and prefix_extrema, by dyadic blocks, against one merge
    # over the whole series: byte for byte, signed zeros included, at the
    # default threshold (blocks skipped from 2^12 values) and at 32
    # values.  The examples' M_1 holds -0.0, which the skipped level N_1
    # turns into +0.0, as M_1 + 0.0 does
    depth = len(kinds) - 1
    c = block_series(depth, dtype, kinds, seed)
    want = [t.tobytes() for t in (single_merge(c, 0)[0], *single_merge(c, 1))]
    for tiled_from in (None, 32):
        with pytest.MonkeyPatch.context() as patch:
            if tiled_from:
                patch.setattr(wr.walsh, "_TILED_FROM", tiled_from)
            assert [t.tobytes() for t in (wr.butterfly(c), *wr.prefix_extrema(c))] == want


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_csv_roundtrip(tmp_path):
    series = wr.WalshSeries.from_coeffs([1.0, -0.25, 0.0, 0.125])
    path = tmp_path / "series.csv"
    wr.series_to_csv(series, path)
    back = wr.series_from_csv(path)
    assert back.depth == series.depth
    assert np.array_equal(back.coeffs, series.coeffs)


def test_csv_writer_bytes_match_csv_module(tmp_path):
    # every dense row is written, zeros and -0.0 included, with the bytes
    # csv.writer gives for the same rows
    series = wr.WalshSeries.from_coeffs([1.0, 0.0, -0.0, 0.1, 0.0, -0.0, 5e-324, 1e16])
    wr.series_to_csv(series, tmp_path / "series.csv")
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "coeff"])
        writer.writerows(enumerate(map(repr, series.coeffs.tolist())))
    assert (tmp_path / "series.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_csv_sparse_rows():
    back = wr.series_from_csv(io.StringIO("n,coeff\n0,1.0\n5,0.5\n"))
    assert back.depth == 3
    assert back.coeffs[5] == 0.5
    assert back.coeffs[1] == 0.0


def test_csv_errors_carry_line_numbers():
    with pytest.raises(wr.SeriesFormatError, match="line 1"):
        wr.series_from_csv(io.StringIO(""))
    with pytest.raises(wr.SeriesFormatError, match="line 3"):
        wr.series_from_csv(io.StringIO("n,coeff\n0,1.0\n1,peach\n"))
    with pytest.raises(wr.SeriesFormatError, match="not increasing"):
        wr.series_from_csv(io.StringIO("n,coeff\n1,1.0\n1,2.0\n"))


# every SeriesFormatError the reader raises, with its line: rows count
# blank ones, and the message is the same with CR LF endings
READER_ERRORS = {
    "empty file": ("", "line 1: empty file, expected header 'n,coeff'"),
    "bad header": ("x,y\n0,1.0\n", "line 1: expected header 'n,coeff', got ['x', 'y']"),
    "one-field header": ("n\n0,1.0\n", "line 1: expected header 'n,coeff', got ['n']"),
    "one field": ("n,coeff\n0,1.0\n\n1\n", "line 4: expected two fields, got ['1']"),
    "bad int": ("n,coeff\n0,1.0\nx,2.0\n", "line 3: invalid literal for int() with base 10: 'x'"),
    "float index": ("n,coeff\n5.0,1.0\n", "line 2: invalid literal for int() with base 10: '5.0'"),
    "bad float": ("n,coeff\n0,1.0\n1,peach\n", "line 3: could not convert string to float: 'peach'"),
    "nan": ("n,coeff\n0,nan\n", "line 2: coefficient 'nan' is not finite"),
    "inf": ("n,coeff\n0,1.0\n1, -inf \n", "line 3: coefficient '-inf' is not finite"),
    "overflow": ("n,coeff\n0,1e400\n", "line 2: coefficient '1e400' is not finite"),
    "negative index": ("n,coeff\n-1,1.0\n", "line 2: negative index -1"),
    "repeated index": ("n,coeff\n1,1.0\n1,2.0\n", "line 3: index 1 not increasing"),
    "falling index": ("n,coeff\n2,1.0\n , \n1,2.0\n", "line 4: index 1 not increasing"),
    "no rows": ("n,coeff\n", "line 2: no coefficient rows"),
    "blank rows only": ("n,coeff\n\n , \n", "line 2: no coefficient rows"),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("case", READER_ERRORS)
def test_reader_errors_name_their_line(case, newline):
    text, message = READER_ERRORS[case]
    with pytest.raises(wr.SeriesFormatError) as err:
        wr.series_from_csv(io.StringIO(text.replace("\n", newline)))
    assert str(err.value) == message


def test_reader_refuses_indices_past_its_callers_limits(tmp_path):
    # a dense series stops at depth THEOREM1_DEPTH_LIMIT, refused from its
    # rows before its coefficients are allocated, a spectrum at 63-bit
    # indices; indices past int64 come from the row loop as Python ints
    limit = wr.walsh.THEOREM1_DEPTH_LIMIT
    assert limit == 23
    for top in ((1 << 24) - 1, 1 << 26, 1 << 63, 1 << 70):
        depth = top.bit_length()
        tracemalloc.start()
        try:
            with pytest.raises(wr.CoordinateBudgetError) as err:
                wr.series_from_csv(io.StringIO(f"n,coeff\n0,1.0\n{top},0.5\n"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert str(err.value) == (f"depth {depth} is past the dense-series limit {limit}:"
                                  f" its coefficients would take {8 << depth:,} bytes")
    # the riesz and package names are the same class
    assert wr.CoordinateBudgetError is wr.riesz.CoordinateBudgetError is wr.walsh.CoordinateBudgetError
    assert wr.series_from_csv(io.StringIO(f"n,coeff\n0,1.0\n{(1 << limit) - 1},0.5\n")).depth == limit
    path = tmp_path / "spectrum.csv"
    for top in (1 << 63, 1 << 70):
        path.write_text(f"n,coeff\n0,1.0\n{top},0.5\n")
        with pytest.raises(wr.SeriesFormatError) as err:
            wr.load_spectrum_csv(path)
        assert str(err.value) == f"index {top} does not fit in 63 bits"
    path.write_text(f"n,coeff\n0,1.0\n{(1 << 63) - 1},0.5\n")
    spectrum = wr.load_spectrum_csv(path)
    assert spectrum.indices.dtype == np.int64
    assert spectrum.indices.tolist() == [0, (1 << 63) - 1]


def reader_outcome(read, text):
    """What a reader makes of `text`: its rows, indices as ints and
    coefficients as hex (signed zeros apart), or its error and message."""
    try:
        rows = read(text)
    except Exception as exc:  # noqa: BLE001 - csv's own errors pass through both
        return type(exc), str(exc)
    if isinstance(rows, tuple):
        indices, coeffs = rows
        assert indices.dtype == (object if int(indices[-1]) >> 63 else np.int64)
        assert coeffs.dtype == np.float64
        rows = list(zip(indices.tolist(), coeffs.tolist()))
    return [(int(n), float(c).hex()) for n, c in rows]


_CLEAN_COEFFS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_INDEX_TOKENS = st.sampled_from([
    "+5", " 7 ", "007", "-0", "1_0", "5.0", "1e3", "x", "", " ", "0x10", "٣", '"3"',
    "+ 5", "#1", str(1 << 63), str((1 << 63) - 1), "\t9", "9\x0c", "9\xa0", "\u30009",
])
_COEFF_TOKENS = st.one_of(
    st.floats(-10, 10).map(lambda x: f"{x:.3g}"),
    st.sampled_from([
        "nan", "-inf", "inf", "Infinity", "1e400", "-1e400", "1_0.5", " 2.5 ", '"1.5"', "",
        "peach", "+5", ".5", "5.", "1E5", "-0", "1.5e", "0x1p3", "\t3", "1\x0c", "#1", "1 2",
        "١", "1\u2028", "1\x00",
    ]),
)
_EXTRA_COLUMNS = st.lists(st.sampled_from(["", "x", "1", " ", '"a,b"', '"open', "#c", "\x00", "é"]),
                          max_size=2)
_BLANK_LINES = st.sampled_from(["", "   ", ",", " , ", "#comment", "\t", "\x0c"])
_HEADERS = st.sampled_from([" N , Coeff ", "n,coeff,extra", '"n",coeff', "x,y", "n", "",
                            "n,co\reff", "n\r,coeff", "n,coeff\r"])


@st.composite
def coeff_texts(draw, messy=True):
    """`n,coeff` texts: increasing indices and repr'd floats, with LF or
    CR LF endings and a final newline or none; when `messy`, one line or
    field in 4, 16 or 64 is replaced by another header, a blank or comment
    line, a lone CR ending, extra columns, or a field with spaces, quotes,
    underscores, a sign, a non-finite or malformed value."""
    indices = sorted(draw(st.sets(st.integers(0, 1 << 40), max_size=8)))
    # one field or line in `odds` is messy
    odds = draw(st.sampled_from([4, 16, 64])) if messy else 0

    def mess():
        return odds and draw(st.integers(1, odds)) == 1

    lines = [draw(_HEADERS) if mess() else "n,coeff"]
    for n in indices:
        if mess():
            lines.append(draw(_BLANK_LINES))
        index = draw(_INDEX_TOKENS) if mess() else str(n)
        coeff = draw(_COEFF_TOKENS) if mess() else draw(_CLEAN_COEFFS)
        extra = draw(_EXTRA_COLUMNS) if mess() else []
        lines.append(",".join([index, coeff, *extra]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + (draw(st.sampled_from(["\n", "\r\n", "\r"])) if mess() else ending)
                   for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def read_text(text):
    return wr.walsh.read_coeff_rows(io.StringIO(text))


# coefficient texts as csv and numpy read them alike: repeated, with
# whitespace, signs, exponents, subnormals and signed zeros
_REPEATED_TEXTS = st.one_of(
    _CLEAN_COEFFS,
    st.sampled_from(["1.5", " 1.5", "1.5 ", "\t-2.5e-3", "+5", "-0", "-0.0", "0.0", "1E5",
                     "2.5e+300", "1e-320", "-4.9406564584124654e-324", ".5", "5."]),
)


@st.composite
def repeated_texts(draw):
    """`n,coeff` texts whose rows take a few coefficient texts, the first
    one 64 times (several 256-character chunks) and then any of them, LF
    or CR LF, with a final newline or none."""
    pool = draw(st.lists(_REPEATED_TEXTS, min_size=1, max_size=4))
    picks = [0] * 64 + draw(st.lists(st.integers(0, len(pool) - 1), max_size=150))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(["n,coeff"] + [f"{n},{pool[i]}" for n, i in enumerate(picks)]) + ending
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@given(st.one_of(coeff_texts(), repeated_texts()), st.sampled_from([1 << 16, 256]))
@example("n,coeff\n0,1.0,\"open\n1,2.0\n", 1 << 16)  # csv's quote swallows the rows after it
@example("n\r,coeff\n0,1.0\n", 1 << 16)  # csv ends the header at the lone CR
@example("n,coeff\n0,1.0\r1,2.0\n", 1 << 16)
@example("n,coeff\r\r\n0,1.0\n", 1 << 16)
@example("n,coeff\n0,1.0,\x00\n", 1 << 16)  # csv refuses NUL before Python 3.11
@settings(max_examples=400, deadline=None)
def test_array_reader_is_the_row_loop(text, chunk):
    # read_coeff_rows equals its definition, the row loop, bit for bit on
    # every text, messy or of a few repeated coefficient texts, split into
    # lines in one chunk or in many, or raises its error with the same
    # message
    with mock.patch.object(wr.walsh, "_LINE_CHUNK", chunk):
        assert reader_outcome(read_text, text) == reader_outcome(_read_rows, text)


@given(coeff_texts(messy=False))
@settings(max_examples=200, deadline=None)
def test_array_reader_reads_clean_texts_without_the_row_loop(text):
    # increasing indices and repr'd floats, LF or CR LF, a final newline
    # or none: one array parse, no fallback
    got = _read_rows_array(text)
    want = reader_outcome(_read_rows, text)
    if isinstance(want, tuple):  # no rows
        assert got is None
    else:
        assert reader_outcome(lambda _: got, text) == want


def test_array_reader_falls_back_on_long_lines(monkeypatch):
    # csv refuses a field past its size limit; so does the row loop, and
    # the array path leaves such a text to it
    text = "n,coeff\n0,1.0\n1,2.0," + "x" * 64 + "\n"
    assert _read_rows_array(text) is not None
    monkeypatch.setattr(wr.walsh, "_LINE_CHUNK", 4)
    old = csv.field_size_limit(32)
    try:
        assert _read_rows_array(text) is None
        with pytest.raises(csv.Error, match="field larger than field limit"):
            read_text(text)
    finally:
        csv.field_size_limit(old)


def test_all_distinct_series_keep_the_float64_parse(monkeypatch):
    # a dense series, whose texts are all distinct, and a measure's few
    # texts repeated: one float64 parse of every line, whose rows are the
    # row loop's bit for bit
    rng = np.random.default_rng(20)
    dense = rng.uniform(-1, 1, 1 << 12) * 2.0 ** -rng.integers(0, 21, 1 << 12)
    repeated = rng.choice([0.0, -0.0, 0.5, -0.25, 2.0**-30, 5e-324], 1 << 12)
    calls = []
    original = wr.walsh._loadtxt
    monkeypatch.setattr(wr.walsh, "_loadtxt", lambda lines, dtype: calls.append(dtype) or original(lines, dtype))
    for c in (dense, repeated):
        text = "n,coeff\r\n" + "".join(f"{n},{v!r}\r\n" for n, v in enumerate(c.tolist()))
        calls.clear()
        indices, coeffs = _read_rows_array(text)
        assert calls == [wr.walsh._ROW_DTYPE]
        assert np.array_equal(indices, np.arange(c.size)) and np.array_equal(coeffs.view(np.int64), c.view(np.int64))
        assert reader_outcome(read_text, text) == reader_outcome(_read_rows, text)


def test_reader_releases_the_text_before_copying_the_rows(tmp_path):
    # a dense depth-18 series: the text is released once the array parse
    # has vouched for the rows, so the peak stays below the text, the
    # parsed rows and the copies of their two fields held at once
    rng = np.random.default_rng(18)
    c = rng.uniform(-1, 1, 1 << 18) * 2.0 ** -rng.integers(0, 21, 1 << 18)
    path = tmp_path / "dense18.csv"
    wr.series_to_csv(wr.WalshSeries(18, c), path)
    text, rows = path.stat().st_size, wr.walsh._ROW_DTYPE.itemsize << 18
    tracemalloc.start()
    try:
        series = wr.series_from_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(series.coeffs.view(np.int64), c.view(np.int64))
    assert peak < text + rows + rows
