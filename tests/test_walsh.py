"""Core Walsh machinery: indexing, transforms, partial sums, the
reindexing identity, and norms.

Expected values marked as frozen were computed with the brute-force
oracles at the top of this file (explicit sign products and the full
transform matrix), which stay independent of the butterfly code paths.
"""

import csv
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walshriesz as wr
from walshriesz.walsh import _segment_merge, atom_patterns, sign_vector


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
        assert wr.walsh_eval(0, wr.Atom(3, pattern)) == 1


def test_walsh_eval_small_identities():
    # w_3 = r_1 r_2 so both signs flipped give +1
    assert wr.walsh_eval(3, wr.Atom(2, 0b11)) == 1
    # w_4 = r_3
    assert wr.walsh_eval(4, wr.Atom(3, 0b100)) == -1
    assert wr.walsh_eval(1, wr.Atom(1, 0)) == 1
    assert wr.walsh_eval(2, wr.Atom(2, 0b10)) == -1


def test_walsh_eval_out_of_range():
    with pytest.raises(ValueError, match="coordinates"):
        wr.walsh_eval(4, wr.Atom(2, 0))


def test_walsh_eval_matches_brute_oracle():
    for n in range(16):
        for pattern in range(16):
            assert wr.walsh_eval(n, wr.Atom(4, pattern)) == brute_walsh(n, pattern)


def test_walsh_index_bits_roundtrip():
    for n in (0, 1, 5, 6, 100, 2**17 + 3):
        idx = wr.WalshIndex(n)
        assert idx.n == sum(b << j for j, b in enumerate(idx.bits))
        assert wr.WalshIndex.from_bits(idx.bits) == idx
    with pytest.raises(ValueError):
        wr.WalshIndex(-1)


def test_product_index_examples():
    assert wr.product_index(0, 17) == 17
    # exponent vectors (1,1,0) + (1,0,1) mod 2 = (0,1,1): frozen from the oracle
    assert wr.product_index(3, 5) == 6
    assert wr.product_index(9, 9) == 0
    assert wr.WalshIndex(3) ^ wr.WalshIndex(5) == wr.WalshIndex(6)


@given(st.integers(0, 63), st.integers(0, 63))
@settings(max_examples=100)
def test_product_index_is_pointwise_product(m, n):
    patterns = atom_patterns(6)
    left = sign_vector(wr.product_index(m, n), patterns)
    right = sign_vector(m, patterns) * sign_vector(n, patterns)
    assert np.array_equal(left, right)


def test_sign_vector_matches_scalar_walsh_eval():
    patterns = atom_patterns(7)
    for n in (0, 1, 6, 77, 127):
        signs = sign_vector(n, patterns)
        assert signs.dtype == np.int64
        assert signs.tolist() == [wr.walsh_eval(n, wr.Atom(7, int(t))) for t in patterns]


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


@pytest.mark.parametrize("m", range(5))
def test_segment_merge_is_exact_over_python_ints(m):
    # the exact positivity route's arithmetic: +-2^70 plus small signed
    # offsets, past int64 and past float64's mantissa, so a sum whose
    # 2^70 parts cancel reads the offsets alone; the oracle is every
    # prefix on every atom from the definition, w_n(t) through
    # sign_vector, in Python ints
    rng = np.random.default_rng(70 + m)
    size = 1 << m
    coeffs = [int(sign) * (1 << 70) + int(offset)
              for sign, offset in zip(rng.choice([-1, 1], size), rng.integers(-9, 10, size))]
    s = np.array(coeffs, dtype=object)
    mx, mn = s[None].copy(), s[None].copy()
    for _ in _segment_merge(s, mx, mn):
        pass
    signs = [sign_vector(n, atom_patterns(m)).tolist() for n in range(size)]
    for t in range(size):
        partial = list(itertools.accumulate(c * row[t] for c, row in zip(coeffs, signs)))
        got = (s[t], mx[0, t], mn[0, t])
        assert all(type(v) is int for v in got)
        assert got == (partial[-1], max(partial), min(partial))


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


def test_json_roundtrip():
    series = wr.WalshSeries.from_coeffs([0.5, 0.25])
    back = wr.series_from_json(wr.series_to_json(series))
    assert back.depth == 1
    assert np.array_equal(back.coeffs, series.coeffs)
    payload = json.loads(wr.series_to_json(series))
    assert payload["depth"] == 1
    # json parses NaN and +-Infinity; like the CSV reader, the series refuses them
    for bad in (math.nan, math.inf, -math.inf):
        text = wr.series_to_json(wr.WalshSeries.from_coeffs([1.0, bad]))
        with pytest.raises(wr.SeriesFormatError, match="coefficient 1, .* is not finite"):
            wr.series_from_json(text)
