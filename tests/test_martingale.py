"""Martingale decomposition, the positivity equivalence, shifted bounds,
and the product-measure diagnostics."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walshriesz as wr
from conftest import single_merge, spectrum_series
from oracles import verify_strong_orthogonality
from walshriesz import martingale, riesz
from walshriesz.martingale import CONCENTRATION_FRACTIONS
from walshriesz.walsh import (
    _LIMB_BITS, _segment_merge, atom_patterns, prefix_scan, sign_vector,
)

C = wr.FLATNESS_CONSTANT


def _random_series(seed, depth=5):
    rng = np.random.default_rng(seed)
    return wr.WalshSeries.from_coeffs(rng.uniform(-1, 1, 1 << depth))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_constant_series():
    series = wr.WalshSeries.from_coeffs([1.0, 0.0, 0.0, 0.0])
    dec = wr.decompose(series)
    for table in dec.m_tables:
        assert np.all(table.values == 1.0)
    for table in dec.n_tables:
        assert np.all(table.values == 0.0)


def test_decompose_index_bookkeeping():
    series = wr.WalshSeries.from_coeffs([1.0, 0.5, 0.25, 0.1])
    dec = wr.decompose(series)
    # N_1 carries c_2, c_3 on w_0, w_1
    n1 = dec.n_tables[1].values
    assert np.allclose(n1, [0.25 + 0.1, 0.25 - 0.1])


def test_decompose_recurrence_and_conservation():
    rng = np.random.default_rng(99)
    series = wr.WalshSeries.from_coeffs(rng.uniform(-1, 1, 64))
    dec = wr.decompose(series)
    c0 = series.coeffs[0]
    for k in range(series.depth):
        mk = dec.m_tables[k].values
        nk = dec.n_tables[k].values
        expected = np.concatenate([mk + nk, mk - nk])  # r_(k+1) = +-1 halves
        assert np.max(np.abs(dec.m_tables[k + 1].values - expected)) < 1e-12
        assert abs(dec.m_tables[k].values.mean() - c0) < 1e-12
    assert abs(dec.m_tables[series.depth].values.mean() - c0) < 1e-12


def test_decompose_telescopes_back_to_series():
    rng = np.random.default_rng(5)
    series = wr.WalshSeries.from_coeffs(rng.uniform(-1, 1, 64))
    dec = wr.decompose(series)
    rebuilt = wr.fwht(dec.m_tables[series.depth])
    assert np.max(np.abs(rebuilt.coeffs - series.coeffs)) < 1e-12


def test_n_star_dominates_prefixes():
    # N_k* is the largest prefix modulus, not just a bound on it
    series = _random_series(17)
    dec = wr.decompose(series)
    for k in range(series.depth):
        coeffs = series.coeffs[1 << k : 1 << (k + 1)]
        acc = np.zeros(1 << k)
        brute = np.zeros(1 << k)
        for n in range(1 << k):
            acc = acc + coeffs[n] * wr.walsh_signs(n, k)
            brute = np.maximum(brute, np.abs(acc))
        assert np.max(np.abs(dec.n_star[k].values - brute)) <= 1e-12


def _walk_cases(depth):
    """Random, sparse and signed-zero coefficients at one depth."""
    rng = np.random.default_rng(depth)
    size = 1 << depth
    dense = rng.uniform(-1, 1, size)
    sparse = np.where(rng.random(size) < 0.3, dense, 0.0)
    signed_zeros = np.where(rng.random(size) < 0.3, -0.0, sparse)
    return [dense, sparse, signed_zeros, np.zeros(size)]


@pytest.mark.parametrize("depth", range(10))
def test_martingale_walk_matches_direct_transforms(monkeypatch, depth):
    # `decompose`'s levels of the martingale, bit for bit, signed zeros
    # included: M_k is the transform of the first 2^k coefficients, and
    # N_k and N_k* = max(MX, -MN) come from the prefix extrema of the
    # block, against one level-by-level merge of each.  Decomposed both
    # level by level and tiled from 32 atoms
    for c in _walk_cases(depth):
        want_m = [single_merge(c[: 1 << k], 0)[0].tobytes() for k in range(depth + 1)]
        want_n, want_star = [], []
        for k in range(depth):
            n, (mx,), (mn,) = single_merge(c[1 << k : 2 << k], 1)
            want_n.append(n.tobytes())
            want_star.append(np.maximum(mx, -mn).tobytes())
        for tiled_from in (None, 32):
            if tiled_from:
                monkeypatch.setattr(wr.walsh, "_TILED_FROM", tiled_from)
            dec = wr.decompose(wr.WalshSeries(depth, c))
            assert [t.values.tobytes() for t in dec.m_tables] == want_m
            assert [t.values.tobytes() for t in dec.n_tables] == want_n
            assert [t.values.tobytes() for t in dec.n_star] == want_star
            monkeypatch.undo()
        assert wr.check_p3(wr.WalshSeries(depth, c)) == all(
            wr.butterfly(c[: 1 << k]).min() >= 0.0 for k in range(depth + 1)
        )


# ---------------------------------------------------------------------------
# positivity equivalence
# ---------------------------------------------------------------------------

def _all_prefixes_nonneg(series):
    """Definition-level oracle: stream every partial sum over the support,
    O(|support| 2^K) in float64.  Returns (ok, witness, minimum over the
    orders 1..2^K); the witness is the first negative order and the first
    atom minimizing it."""
    support = series.support()
    patterns = atom_patterns(series.depth)
    # orders up to the first support index sum nothing
    low = 0.0 if support.size == 0 or support[0] > 0 else math.inf
    witness = None
    scan = prefix_scan(
        support, series.coeffs[support], lambda n: sign_vector(n, patterns), patterns.size
    )
    for n, acc in scan:
        step = float(acc.min())
        low = min(low, step)
        if step < 0.0 and witness is None:
            witness = wr.PositivityWitness("prefix", n + 1, int(np.argmin(acc)), step)
    return witness is None, witness, low


def _assert_matches_oracle(series):
    """The verdicts, minima and witness against the scan, whose sequential
    float sums are off by at most 2^K 2^-52 ||S||_A.  The float pass
    always runs and the exact pass only when the float pass leaves a
    verdict within its allowance; a verdict outside it is the oracle's."""
    report = wr.check_positivity_equivalence(series)
    ok, witness, low = _all_prefixes_nonneg(series)
    tol = series.order * 2.0**-52 * np.sum(np.abs(series.coeffs))
    maximal, *exact = report.routes
    assert (maximal.name, maximal.arithmetic) == ("maximal function", "float64")
    assert report.all_prefixes_nonneg == report.inequality_holds == ok
    assert abs(maximal.minimum - low) <= tol + maximal.rounding_slack
    assert (maximal.atoms, maximal.orders) == (series.order,) * 2
    assert maximal.verdict in ("pass" if ok else "fail", "within rounding")
    assert report.decided_by == ("integer-dyadic" if exact else "float64")
    for route in exact:
        assert (route.name, route.arithmetic) == ("exact prefix extrema", "integer-dyadic")
        assert route.verdict == ("pass" if ok else "fail")
        assert abs(route.minimum - low) <= tol
        assert abs(maximal.minimum - route.minimum) <= maximal.rounding_slack
        assert (route.atoms, route.orders) == (series.order,) * 2
    if ok:
        assert report.witness is None
    else:
        assert (report.witness.where, report.witness.atom) == (witness.where, witness.atom)
        assert abs(report.witness.value - witness.value) <= tol
    return report


def test_equivalence_positive_example():
    report = wr.check_positivity_equivalence(
        wr.WalshSeries.from_coeffs([1.0, 0.5, 0.25, 0.1])
    )
    assert report.all_prefixes_nonneg and report.inequality_holds
    assert report.witness is None


def test_equivalence_negative_example_with_witness():
    report = wr.check_positivity_equivalence(
        wr.WalshSeries.from_coeffs([1.0, -1.5, 0.0, 0.0])
    )
    assert not report.all_prefixes_nonneg and not report.inequality_holds
    # frozen by hand: S_2 = 1 - 1.5 r_1 = -0.5 at the all-plus atom
    assert report.witness.kind == "prefix"
    assert report.witness.where == 2
    assert report.witness.atom == 0
    assert report.witness.value == pytest.approx(-0.5)


def test_equivalence_depth_zero():
    assert wr.check_positivity_equivalence(
        wr.WalshSeries.from_coeffs([2.0])
    ).all_prefixes_nonneg
    report = wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs([-1.0]))
    assert not report.all_prefixes_nonneg and not report.inequality_holds


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_equivalence_never_disagrees(seed):
    # check_positivity_equivalence raises InvariantViolation on mismatch
    wr.check_positivity_equivalence(_random_series(seed))


def test_equivalence_random_bulk():
    agree_true = agree_false = 0
    for seed in range(300):
        report = _assert_matches_oracle(_random_series(seed))
        if report.all_prefixes_nonneg:
            agree_true += 1
        else:
            agree_false += 1
    assert agree_false > 0  # random series mostly dip negative
    # engineered positives exercise the other branch
    for seed in range(40):
        rng = np.random.default_rng(seed)
        tail = rng.uniform(-1, 1, 31)
        coeffs = np.concatenate([[np.sum(np.abs(tail)) + 0.1], tail])
        report = _assert_matches_oracle(wr.WalshSeries.from_coeffs(coeffs))
        assert report.all_prefixes_nonneg and report.inequality_holds
        assert [r.verdict for r in report.routes] == ["pass"]


def test_witness_is_first_negative_order_not_global_minimum():
    # S_2 = 1 - 1.5 r_1 first dips at order 2 (atom 0, -0.5); the global
    # minimum is S_4 = -2.5 at order 4 on atom 2 (r_1 = +1, r_2 = -1)
    series = wr.WalshSeries.from_coeffs([1.0, -1.5, 0.0, 2.0])
    report = _assert_matches_oracle(series)
    assert report.witness == wr.PositivityWitness("prefix", 2, 0, -0.5)
    assert report.routes[0].minimum == -2.5


# depth 3, found by searching seeded series for an exact minimum of 0
# whose float64 pass dips below it
ROUNDING_SCALE = [float.fromhex(h) for h in (
    "0x1.7ee50aa0d6ea2p-2", "0x1.537df6d7e5a20p-8", "0x1.694692cefdb8cp-5",
    "0x1.5a84f90e27880p-5", "0x1.0993aa313bd38p-5", "0x1.91f9fce3e0f60p-7",
    "-0x1.fbee97a696acep-3", "0x1.fcac4d87c6820p-5",
)]


def test_float_route_within_rounding_does_not_overrule_exact_route():
    # the float pass's dip lies within its allowance, so the exact pass runs and
    # decides both sides of the equivalence, which cannot differ
    report = wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs(ROUNDING_SCALE))
    maximal, exact = report.routes
    assert exact.minimum == 0.0 and exact.verdict == "pass"
    assert -maximal.rounding_slack <= maximal.minimum < 0.0
    assert maximal.verdict == "within rounding"
    assert report.all_prefixes_nonneg and report.inequality_holds and report.p3
    assert report.decided_by == "integer-dyadic"
    assert report.witness is None


# S_3 = 1 - 2^-54 r_1 - r_2 is -2^-54 on atom 0, where the float64 pass
# rounds M_1 = 1 - 2^-54 to 1 and reads M_2 = S_3 = 0
CONTRADICTION_ROWS = [1.0, -5.551115123125783e-17, -1.0, 0.0]


def test_verdicts_within_rounding_are_decided_exactly_and_agree():
    report = wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs(CONTRADICTION_ROWS))
    assert [r.verdict for r in report.routes] == ["within rounding", "fail"]
    assert [r.minimum for r in report.routes] == [0.0, -(2.0**-54)]
    assert not report.all_prefixes_nonneg and not report.inequality_holds and not report.p3
    assert report.witness == wr.PositivityWitness("prefix", 3, 0, -(2.0**-54))


def test_routes_disagreeing_beyond_the_allowance_raise(monkeypatch):
    series = wr.WalshSeries.from_coeffs([1.0, 0.5, 0.25, 0.1])
    slack = wr.check_positivity_equivalence(series).routes[0].rounding_slack
    margin = martingale._maximal_margin
    # the float pass's minimum moved past the allowance, still a pass, so
    # the definition at its atom disagrees; the rest of the pass kept
    monkeypatch.setattr(martingale, "_maximal_margin",
                        lambda s: (margin(s)[0] + 2 * slack, *margin(s)[1:]))
    with pytest.raises(wr.InvariantViolation, match="disagree"):
        wr.check_positivity_equivalence(series)


def test_exact_route_rejects_non_finite_coefficients():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs([1.0, 0.5, bad, 0.1]))


def spread_series(depth, seed, positive=False):
    """The seeded dense series of the exact route's sizing: uniform(-1, 1)
    times 2^-U{0..20}, with c_0 making every partial sum positive on request."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, 1 << depth) * 2.0 ** -rng.integers(0, 21, 1 << depth)
    if positive:
        c[0] = np.sum(np.abs(c[1:])) + 1.0
    return c


def dyadic_ints(coeffs, exponent):
    """c_n / 2^exponent as Python ints, from float.as_integer_ratio."""
    out = []
    for num, den in map(float.as_integer_ratio, np.asarray(coeffs).tolist()):
        scaled, rest = divmod(num << -exponent, den)
        assert rest == 0
        out.append(scaled)
    return out


@pytest.mark.parametrize("depth", [0, 3, 11])
def test_exact_minima_equal_the_merge_over_python_ints(depth):
    # the limb tables against the object-array merge, value for value
    for c in (spread_series(depth, depth), spread_series(depth, depth + 1, positive=True)):
        width, exponent = martingale._limb_width(c)
        top, mn = martingale._exact_prefix_minima(c, width, exponent)
        s = np.array(dyadic_ints(c, exponent), dtype=object)
        mx, want = s[None].copy(), s[None].copy()
        _segment_merge(s, mx, want)
        for table, values in ((mn, want[0]), (top, s)):
            got = [sum(d << (_LIMB_BITS * j) for j, d in enumerate(limbs)) for limbs in zip(*table.tolist())]
            assert got == values.tolist()


def test_limb_width_is_the_fewest_limbs_that_hold_every_sum():
    # L limbs hold every partial sum and every difference of two when
    # sum |I_n| < 2^(_LIMB_BITS L - 1); one fewer would not
    cases = [np.zeros(4), [1.0, 0.5], [1.0, 1e-300], [-3.0, 2.0**-70, 5e-324],
             spread_series(12, 12), wr.build_measure(wr.PsiSpec.logpow(1.0), 3,
                                                     wr.SummabilityBudget(2.25)).spectrum.coeffs]
    widths = []
    for c in cases:
        width, exponent = martingale._limb_width(c)
        total = sum(map(abs, dyadic_ints(c, exponent)))
        assert total < 1 << (_LIMB_BITS * width - 1)
        assert width == 1 or total >= 1 << (_LIMB_BITS * width - _LIMB_BITS - 1)
        widths.append(width)
    # in units of 2^-1049 (1e-300's frexp exponent less 53) 1.0 takes 1050
    # bits, and in units of 2^-1126 (5e-324's) 3.0 takes 1128: each sum
    # needs a sign bit more
    assert widths == [1, 1, -(-1051 // _LIMB_BITS), -(-1129 // _LIMB_BITS), 2, 2] == [1, 1, 19, 20, 2, 2]


def test_exact_route_decides_at_the_last_bit_over_many_limbs():
    # S_3 = 1 - r_1 + 1e-300 r_2 is -1e-300 where r_1 = +1, r_2 = -1: 19
    # limbs carry the 1e-300 past the cancelling 1s, and the float route
    # reads the dip as within rounding
    series = wr.WalshSeries.from_coeffs([1.0, -1.0, 1e-300, 0.0])
    assert martingale._limb_width(series.coeffs)[0] == -(-1052 // _LIMB_BITS) == 19
    report = _assert_matches_oracle(series)
    maximal, exact = report.routes
    assert (exact.minimum, exact.verdict) == (-1e-300, "fail")
    assert maximal.verdict == "within rounding"
    assert report.witness == wr.PositivityWitness("prefix", 3, 2, -1e-300)


def test_exact_route_memory_is_stated_per_limb_and_atom(monkeypatch):
    # a 2-limb depth-16 series, every verdict left to the exact pass: the
    # float pass and the limb tables hold about the same, one after the
    # other, and the definition's Python ints come after both, a chunk at
    # a time
    series = wr.WalshSeries.from_coeffs(spread_series(16, 16, positive=True))
    assert martingale._limb_width(series.coeffs)[0] == 2
    monkeypatch.setattr(martingale, "_allowance", lambda series: math.inf)
    tracemalloc.start()
    try:
        report = wr.check_positivity_equivalence(series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_prefixes_nonneg and report.decided_by == "integer-dyadic"
    assert peak < 2 * martingale._EXACT_BYTES_PER_ATOM << 16


def test_exact_merge_refuses_limbs_past_the_limit_before_allocating():
    # a dense depth-20 series whose smallest partial sum, about 0, lies
    # within the float pass's allowance needs the exact merge, and 1e-300
    # beside coefficients near 1 takes it to 19 limbs: refused, naming the
    # limbs and the bytes, while tracemalloc stays far below the 637 MB of
    # its limb tables
    rng = np.random.default_rng(20)
    c = rng.uniform(-1, 1, 1 << 20) * 2.0 ** -rng.integers(0, 21, 1 << 20)
    c[0], c[-1] = 0.0, 1e-300
    c[0] = -wr.prefix_extrema(c)[2].min()
    series = wr.WalshSeries(20, c)
    assert martingale._decide(martingale._maximal_margin(series)[0], martingale._allowance(series)) is None
    assert martingale._limb_width(c)[0] == 19
    tracemalloc.start()
    try:
        with pytest.raises(wr.CoordinateBudgetError) as err:
            wr.check_positivity_equivalence(series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = 19 * martingale._EXACT_BYTES_PER_ATOM << 20
    assert f"19 int64 limbs per value, about {held:,} bytes at depth 20" in str(err.value)
    assert peak < 64 << 20 < held // 8
    # its twin with every partial sum at least 1 is the float pass's
    c[0] += 1.0
    report = wr.check_positivity_equivalence(series)
    assert report.all_prefixes_nonneg and report.p3 and report.decided_by == "float64"


def test_limb_width_is_read_only_for_an_exact_merge(monkeypatch, flagship_build):
    # never on a series the float pass decides as a pass, once for the
    # exact pass, and for a float-decided failure's witness
    width, calls = martingale._limb_width, []
    monkeypatch.setattr(martingale, "_limb_width", lambda c: calls.append(1) or width(c))
    d13 = wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs(spectrum_series(flagship_build.final)))
    assert d13.decided_by == "float64" and calls == []
    at_zero = wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs([1.0, -1.0]))
    assert at_zero.all_prefixes_nonneg and at_zero.decided_by == "integer-dyadic" and len(calls) == 1
    calls.clear()
    failure = wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs([1.0, -2.0]))
    assert failure.decided_by == "float64" and failure.witness is not None and len(calls) >= 1


def dense_partial_sums_at(coeffs, atom, exponent):
    """`_partial_sums_at` over every coefficient, zeros included: a cumsum
    in Python ints along n of I_n w_n(atom)."""
    ints = [sign * scaled for sign, scaled in zip(
        sign_vector(atom, np.arange(len(coeffs), dtype=np.uint64)).tolist(), dyadic_ints(coeffs, exponent))]
    sums = list(itertools.accumulate(ints))
    first = next((p for p, v in enumerate(sums, 1) if v < 0), None)
    return min(sums), first


def python_int_partial_sums_at(coeffs, atom, exponent):
    """`_partial_sums_at` in Python ints: a cumsum of object arrays over
    the nonzero coefficients, a chunk at a time, the route its int64
    digits replaced."""
    nonzero = np.flatnonzero(coeffs)
    low = 0 if nonzero.size == 0 or nonzero[0] > 0 else None
    first, total = None, 0
    for lo, ints, shift in martingale._dyadic_chunks(coeffs[nonzero], exponent):
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


@given(st.sampled_from([1, 7, 1000, (1 << 14) + 3, 40_000]), st.integers(0, 1000),
       st.floats(0.0, 0.9), st.floats(-1.0, 2.0), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_partial_sums_at_in_digits_is_the_python_int_cumsum(size, spread, zeros, head, seed):
    # exponents up to 2000 apart, more than 2^14 nonzeros, and c_0 from
    # below the dips to above them: the same Python-int minimum and the
    # same first negative order on every atom tried
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, size) * 2.0 ** rng.integers(-spread, spread + 1, size)
    c[rng.random(size) < zeros] = 0.0
    c[0] = head * np.sum(np.abs(c))
    exponent = martingale._limb_width(c)[1]
    for atom in (0, 1, int(rng.integers(0, 1 << 20)), size - 1):
        got = martingale._partial_sums_at(c, atom, exponent)
        assert got == python_int_partial_sums_at(c, atom, exponent)
        assert type(got[0]) is int


@pytest.mark.parametrize("case", ["zero runs", "c_0 = 0", "dip after zeros", "zeros", "chunks"])
def test_partial_sums_at_skip_zero_coefficients(case):
    # a zero coefficient repeats the partial sum before it; S_1 = 0 still
    # counts when c_0 = 0
    rng = np.random.default_rng(len(case))
    c = np.where(rng.random(64) < 0.6, 0.0, rng.uniform(-1, 1, 64))
    c[0] = 2.0
    if case == "c_0 = 0":
        c[:5] = [0.0, 0.0, 0.25, -0.5, 0.0]
    elif case == "dip after zeros":
        c[:12] = [0.5] + [0.0] * 10 + [-1.0]
    elif case == "zeros":
        c[:] = 0.0
    elif case == "chunks":
        c = np.where(rng.random(1 << 16) < 0.5, 0.0, rng.uniform(-1, 1, 1 << 16))
        c[0] = 0.0
    exponent = martingale._limb_width(c)[1]
    for atom in (0, 1, 5, c.size - 1):
        assert martingale._partial_sums_at(c, atom, exponent) == dense_partial_sums_at(c, atom, exponent)
    if case == "dip after zeros":
        assert martingale._partial_sums_at(c, 0, exponent)[1] == 12


def test_decisive_series_never_run_the_exact_walk(monkeypatch, flagship_build):
    # the d13 and d16 measures and a seeded positive dense series are
    # decided by the float pass alone; a verdict within its allowance runs
    # the exact pass
    def refuse(*args):
        raise RuntimeError("exact walk")

    d16 = wr.build_measure(wr.PsiSpec.logpow(1.0), 4, wr.SummabilityBudget(scale=6))
    positive = [wr.WalshSeries.from_coeffs(spectrum_series(state)) for state in (flagship_build.final, d16)]
    positive.append(wr.WalshSeries.from_coeffs(spread_series(16, 16, positive=True)))
    monkeypatch.setattr(martingale, "_exact_prefix_minima", refuse)
    for series in positive:
        report = wr.check_positivity_equivalence(series)
        assert report.all_prefixes_nonneg and report.p3
        assert report.decided_by == "float64" and len(report.routes) == 1
    for coeffs in (ROUNDING_SCALE, CONTRADICTION_ROWS):
        with pytest.raises(RuntimeError, match="exact walk"):
            wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs(coeffs))


def scan_verdicts(coeffs):
    """Every verdict of `check_positivity_equivalence` from the definition,
    in Python ints over a common power of two: the partial sums of every
    order on every atom, and M_k = S_(2^k)."""
    size = len(coeffs)
    exponent = min(0, *(math.frexp(x)[1] - 53 for x in coeffs))
    ints = dyadic_ints(coeffs, exponent)
    sums = [list(itertools.accumulate(i * (-1) ** (n & t).bit_count() for n, i in enumerate(ints)))
            for t in range(size)]
    low = min(map(min, sums))
    witness = None
    for p in range(1, size + 1):
        order = [row[p - 1] for row in sums]
        if min(order) < 0:
            atom = order.index(min(order))
            witness = wr.PositivityWitness("prefix", p, atom, min(order) / (1 << -exponent))
            break
    level = [[row[(1 << k) - 1] for row in sums] for k in range(size.bit_length())]
    p3 = min(map(min, level)) >= 0
    return low >= 0, witness, p3


@st.composite
def cancelling_series(draw):
    """Dyadic terms with small exponents, each nudged by a few units of
    2^-50..2^-56, and c_0 within a few ulps of the one that puts the
    smallest partial sum at 0."""
    size = 1 << draw(st.integers(0, 4))
    tail = [draw(st.integers(-3, 3)) * 2.0 ** -draw(st.integers(0, 3))
            + draw(st.integers(-1, 1)) * 2.0 ** -draw(st.integers(50, 56)) for _ in range(size - 1)]
    # the smallest partial sum of the tail alone, in float64: near the
    # exact one, which the nudge of c_0 straddles
    low = min(sum(c * (-1) ** ((n + 1) & t).bit_count() for n, c in enumerate(tail[:p]))
              for p in range(size) for t in range(size))
    c0 = -low + draw(st.integers(-2, 2)) * 2.0 ** -draw(st.integers(50, 54))
    return [c0, *tail]


@pytest.mark.parametrize("coeffs", [
    [1e308, 1e308, -1e308, 1e308],            # S_4 = -2e308: the exact minimum rounds to -inf
    [8e307, 8e307, -8e307, 8e307, 1.0, -1.0, 0.0, 0.0],
    [2.0**1000, 2.0**1000, 0.0, 0.0],
    [5e-324, -5e-324, 5e-324, 0.0],           # every sum exact, the allowance 0.0
    [1e-310, 5e-324, -1e-310, 0.0],
    [2.0**-1022, -(2.0**-1023), 2.0**-1074, -(2.0**-1074)],
])
def test_verdicts_at_the_ends_of_float64(coeffs):
    # at the top of float64 the float pass overflows (||S||_A >= 2^1022, an
    # infinite allowance) or its allowance covers the minimum 0, and the
    # exact pass decides; at the bottom a subnormal allowance covers sums
    # that are all exact; the overflow warns nothing
    report = wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs(coeffs))
    assert report.decided_by == ("integer-dyadic" if max(coeffs) > 1.0 else "float64")
    assert (report.all_prefixes_nonneg, report.witness, report.p3) == scan_verdicts(coeffs)


@given(cancelling_series())
@settings(max_examples=300, deadline=None)
def test_verdicts_equal_the_scan_oracle_near_zero(coeffs):
    report = wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs(coeffs))
    ok, witness, p3 = scan_verdicts(coeffs)
    assert report.all_prefixes_nonneg == report.inequality_holds == ok
    assert report.witness == witness
    assert report.p3 == p3


# ---------------------------------------------------------------------------
# shifted prefix bound
# ---------------------------------------------------------------------------

def test_shifted_bound_m_zero_reduces_to_maximal():
    series = wr.WalshSeries.from_coeffs([1.0, 0.5, 0.25, 0.1, 0, 0, 0, 0])
    for kj in range(3):
        for k in range(kj, 4):
            assert wr.check_shifted_bound(series, kj, 0, k)


def exact_block(ints, lo, size):
    """sum_(n < size) I_(lo + n) w_n on the `size` atoms, in Python ints:
    for each distinct nonzero I, the rows of w_n from `sign_vector`
    summed in int64, then scaled by I exactly."""
    patterns = atom_patterns(size.bit_length() - 1)
    rows = {}
    for n, i in enumerate(ints[lo : lo + size]):
        if i:
            rows[i] = rows.get(i, 0) + sign_vector(n, patterns)
    total = [0] * size
    for i, signs in rows.items():
        total = [v + i * s for v, s in zip(total, signs.tolist())]
    return total


def assert_p3_proves_shifted_bounds(coeffs, multipliers=None, levels=None):
    """Wherever the exact p3 holds, `check_shifted_bound(series, kj, m, k)`
    holds at the float pass's allowance for every kj < K, every m < 2^kj
    and every k in kj..K (or the m of `multipliers(kj)` and the k of
    `levels(kj)`), and so does the exact bound |N_kj| <= M_kj <= 2 M_kj,
    against a Python-int oracle in units of 2^exponent: M_kj and N_kj
    from `exact_block`, and p3 as M_K >= 0.  For k >= kj the checked
    prefix is all of w_m N_kj, of modulus |N_kj| for every m (the
    reindexing identity of `verify_lemma`), so one exact margin per level
    serves every (m, k).  Where the exact margin 2 M_kj - |N_kj| lies
    below minus twice the allowance, every call fails."""
    series = wr.WalshSeries.from_coeffs(coeffs)
    report = wr.check_positivity_equivalence(series)
    slack = report.routes[0].rounding_slack
    exponent = min(0, *(math.frexp(x)[1] - 53 for x in series.coeffs.tolist()))
    ints = dyadic_ints(series.coeffs, exponent)
    assert report.p3 == (min(exact_block(ints, 0, series.order)) >= 0)
    for kj in range(series.depth):
        m_k, n_k = exact_block(ints, 0, 1 << kj), exact_block(ints, 1 << kj, 1 << kj)
        if report.p3:
            assert all(abs(n) <= m for m, n in zip(m_k, n_k))
        margin = min(2 * m - abs(n) for m, n in zip(m_k, n_k)) * Fraction(2) ** exponent
        for m in multipliers(kj) if multipliers else range(1 << kj):
            for k in levels(kj) if levels else range(kj, series.depth + 1):
                held = wr.check_shifted_bound(series, kj, m, k, tol=slack)
                if report.p3:
                    assert held
                elif margin < -2 * Fraction(slack):
                    assert not held
    return report


# the m = 0 shifted bound at and around its edge: |N_0| = 3 > 2 M_0; a
# failure at the top level only; |N_0| = 2 M_0 and just past it
SHIFTED_CASES = [
    [1.0, 3.0], [1.0, -3.0],
    [1.0, 0.5, 0.25, 0.0, 3.0, 0.0, 0.0, 0.0],
    [1.0, 2.0], [1.0, 2.0 + 2e-12], [1.0, -2.0 - 1e-12],
    [0.0],
]


@st.composite
def scaled_series(draw):
    """A seeded uniform(-1, 1) series of depth 0-5 whose c_0 is scaled so
    that every partial sum is positive, or some levels fail the bound."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.uniform(-1, 1, 1 << draw(st.integers(0, 5)))
    c[0] = draw(st.sampled_from([np.sum(np.abs(c[1:])) + 1.0, 0.5, 3.0]))
    return c.tolist()


@given(st.one_of(cancelling_series(), scaled_series(), st.sampled_from(SHIFTED_CASES)))
@settings(max_examples=200, deadline=None)
def test_p3_proves_every_shifted_bound(coeffs):
    assert_p3_proves_shifted_bounds(coeffs)


@pytest.mark.parametrize("coeffs", SHIFTED_CASES)
def test_walk_reads_the_m_zero_shifted_bounds(coeffs):
    # theorem1-check's sweep takes its m = 0 verdicts from p3: only the
    # zero series holds it, and each call fails where the bound fails
    assert assert_p3_proves_shifted_bounds(coeffs).p3 == (coeffs == [0.0])


@pytest.mark.parametrize("seed", range(6))
def test_walk_reads_the_m_zero_shifted_bounds_of_dense_series(seed):
    # positive, signed and borderline series of depth 4-9: c_0 is scaled
    # so that some levels hold the bound and others fail it
    depth = 4 + seed
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, 1 << depth)
    c[0] = [np.sum(np.abs(c[1:])) + 1.0, 0.5, 3.0][seed % 3]
    report = assert_p3_proves_shifted_bounds(c)
    assert seed % 3 or report.p3


def test_walk_reads_the_m_zero_shifted_bounds_of_a_built_measure():
    # the d13 measure at the sweep's two multipliers and at k = kj and K
    state = wr.build_measure(wr.PsiSpec.logpow(1.0), 3, wr.SummabilityBudget(2.25))
    coeffs = spectrum_series(state)
    report = assert_p3_proves_shifted_bounds(
        coeffs, lambda kj: {0, (1 << kj) - 1}, lambda kj: {kj, 13})
    assert report.p3 and len(coeffs) == 1 << 13


def test_shifted_bound_hand_case():
    coeffs = np.zeros(8)
    coeffs[0], coeffs[1] = 1.0, 0.9
    series = wr.WalshSeries.from_coeffs(coeffs)
    assert wr.check_positivity_equivalence(series).all_prefixes_nonneg
    assert wr.check_shifted_bound(series, 1, 1, 1)


def test_shifted_bound_preconditions():
    series = wr.WalshSeries.from_coeffs([1.0, 0.5, 0.25, 0.1])
    with pytest.raises(ValueError):
        wr.check_shifted_bound(series, 1, 2, 1)  # m >= 2^kj
    with pytest.raises(ValueError):
        wr.check_shifted_bound(series, 1, 0, 0)  # k < kj
    with pytest.raises(ValueError):
        wr.check_shifted_bound(series, 2, 0, 2)  # kj = depth


def test_shifted_bound_exhaustive_on_positive_series():
    rng = np.random.default_rng(11)
    tail = rng.uniform(-1, 1, 63)
    coeffs = np.concatenate([[np.sum(np.abs(tail)) + 0.5], tail])
    series = wr.WalshSeries.from_coeffs(coeffs)
    assert wr.check_positivity_equivalence(series).all_prefixes_nonneg
    for kj in range(series.depth):
        for m in range(1 << kj):
            for k in range(kj, series.depth + 1):
                assert wr.check_shifted_bound(series, kj, m, k)


# ---------------------------------------------------------------------------
# P3
# ---------------------------------------------------------------------------

def test_p3_from_nonnegative_masses():
    rng = np.random.default_rng(3)
    masses = rng.uniform(0.0, 2.0, 16)
    series = wr.fwht(wr.AtomTable(4, masses))
    assert wr.check_p3(series)


def test_p3_negative_example():
    assert not wr.check_p3(wr.WalshSeries.from_coeffs([1.0, -1.5, 0.0, 0.0]))


def test_p3_equals_mass_positivity():
    for seed in range(60):
        series = _random_series(seed, depth=4)
        masses_ok = bool(np.min(wr.inverse_fwht(series).values) >= 0.0)
        assert wr.check_p3(series) == masses_ok


def test_equivalence_report_carries_p3():
    # p3 comes off the float route's one pass, as check_p3 reads it
    for seed in range(20):
        series = _random_series(seed, depth=4)
        assert wr.check_positivity_equivalence(series).p3 == wr.check_p3(series)
    assert not wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs([1.0, -1.5, 0, 0])).p3
    masses = np.random.default_rng(3).uniform(0.0, 2.0, 16)
    assert wr.check_positivity_equivalence(wr.fwht(wr.AtomTable(4, masses))).p3


def test_p3_rejects_non_finite_coefficients():
    # a NaN compares false, so the float pass alone would call [1, nan] nonnegative
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"coefficient 1, .* is not finite"):
            wr.check_p3(wr.WalshSeries.from_coeffs([1.0, bad]))


# ---------------------------------------------------------------------------
# singularity diagnostics
# ---------------------------------------------------------------------------

def _built_state(levels):
    state = wr.empty_state()
    for level in levels:
        state = wr.add_factor(state, level)
    return state


def test_singularity_empty_product():
    report = wr.singularity_report(wr.empty_state())
    assert report.hellinger == (1.0,)
    assert report.concentration[0] == {0.5: 0.5, 0.9: 0.9, 0.99: 0.99}


def test_singularity_one_factor_closed_form():
    state = _built_state([0])
    report = wr.singularity_report(state)
    a = 0.5 / C
    expected = (math.sqrt(1 + a) + math.sqrt(1 - a)) / 2
    assert report.hellinger[1] == pytest.approx(expected, abs=1e-15)
    assert report.hellinger[1] < 1
    sigma2 = (0.5 / C) ** 2
    assert report.hellinger[1] <= 1 - sigma2 / 8 + sigma2**2


def test_singularity_multiplicative_cross_check():
    state = _built_state([0, 0, 3])
    report = wr.singularity_report(state)
    assert max(
        abs(a - b) for a, b in zip(report.hellinger, report.hellinger_direct)
    ) <= 1e-9
    assert all(b < a for a, b in zip(report.hellinger, report.hellinger[1:]))
    # total mass stays one: E|Pi_k| = E Pi_k = 1 on the atoms of the blocks
    coords = range(1, state.used_coordinates + 1)
    for k in range(state.stages + 1):
        values = wr.product_values(state.factors[:k], coords)
        assert values.min() > 0.0 and abs(values.mean() - 1.0) <= 1e-12
    assert all(tuple(row) == CONCENTRATION_FRACTIONS for row in report.concentration)


def concentration_by_fraction(masses, delta):
    """One point of the concentration curve, sorting the masses for it
    alone."""
    order = np.sort(masses)[::-1]
    cum = np.cumsum(order)
    target = delta * cum[-1]
    i = int(np.searchsorted(cum, target))
    prev = cum[i - 1] if i > 0 else 0.0
    atoms = float(i) if target <= prev else i + (target - prev) / order[i]
    return float(atoms / masses.size)


@pytest.mark.parametrize("size", [1, 2, 7, 1 << 12])
def test_concentration_sorts_once_bit_for_bit(size):
    # the curve from the masses' histogram, each group's mass growing
    # linearly, against a sort of every mass per fraction: bit for bit
    # where the histogram's group sums are the sorted masses' running
    # sums (distinct masses, or eighths), within 1e-11 relative where they
    # round apart (sevenths)
    rng = np.random.default_rng(size)
    for masses, exact in ((rng.uniform(0, 1, size), True), (rng.integers(0, 3, size) / 8.0, True),
                          (np.full(size, 1.0 / size), size != 7), (rng.integers(0, 3, size) / 7.0, False)):
        if masses.sum() == 0:
            continue
        got = martingale._concentration(*riesz._histogram(masses))
        assert list(got) == list(CONCENTRATION_FRACTIONS)
        for delta, value in got.items():
            want = concentration_by_fraction(masses, delta)
            if exact:
                assert value.hex() == want.hex()
            else:
                assert abs(value - want) <= 1e-11 * want


def test_singularity_refuses_a_signed_product():
    # 1 + 2 r_1 is -1 on half the atoms, where its square root is NaN
    state = wr.RieszProductState((wr.Factor(0, (1,), 2.0, np.array([1]), np.array([2.0])),))
    with pytest.raises(ValueError, match=r"Pi_1 takes the negative value -1\.0"):
        wr.singularity_report(state)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_singularity_refuses_a_non_finite_product(value):
    # a hand-built factor with a non-finite coefficient has no exact mean
    state = wr.RieszProductState((wr.Factor(0, (1,), 1.0, np.array([0]), np.array([value])),))
    with pytest.raises(ValueError, match=rf"Pi_1 takes the value {value!r}: its means are undefined"):
        wr.singularity_report(state)


# ---------------------------------------------------------------------------
# orthogonality in L^2(mu)
# ---------------------------------------------------------------------------

def test_product_orthogonality_disjoint_blocks():
    state = _built_state([0, 1, 2])
    report = wr.verify_product_orthogonality(state)
    assert report.ok
    assert report.max_mean_residual <= 1e-10
    assert report.max_cross_residual <= 1e-10
    assert report.max_second_moment <= 2 * (1 + (0.5 / C) ** 2) + 1e-10


def test_product_orthogonality_needs_two_factors():
    with pytest.raises(ValueError):
        wr.verify_product_orthogonality(_built_state([0]))


def test_product_orthogonality_overlap_detected():
    # same coordinate in both factors: the cross term is visibly nonzero
    state = _built_state([0])
    shared = state.factors[0]
    report = wr.verify_product_orthogonality([shared, shared])
    assert not report.ok
    assert report.max_cross_residual > 1e-3


def test_strong_orthogonality_admissible_cases():
    state = _built_state([0, 1, 2])
    assert verify_strong_orthogonality(state, [1])
    assert verify_strong_orthogonality(state, [1, 2])
    assert verify_strong_orthogonality(state, [2, 1, 2])


def test_strong_orthogonality_rejects_bad_indices():
    state = _built_state([0, 1])
    with pytest.raises(ValueError, match="at least one"):
        verify_strong_orthogonality(state, [2, 2])
    with pytest.raises(ValueError, match="0, 1 or 2"):
        verify_strong_orthogonality(state, [3])
    with pytest.raises(ValueError, match="at most two"):
        verify_strong_orthogonality(_built_state([0, 1, 2, 3]), [2, 2, 2, 1])


def test_orthogonality_at_depth_27_reads_each_factors_own_atoms():
    # a depth-27 state on blocks (1,) and (27,): each factor is its own
    # group, read on its own 2 atoms, so neither check holds a table of
    # the 2^27 atoms (about 1 GiB each)
    state = wr.empty_state()
    for block in ((1,), (27,)):
        state = wr.add_factor(state, 0, wr.BlockSpec(block))
    tracemalloc.start()
    try:
        report = wr.verify_product_orthogonality(state)
        strong = [verify_strong_orthogonality(state, alpha) for alpha in ([1, 1], [1], [2, 1])]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert report.ok and all(strong)


def test_orthogonality_at_depth_42():
    # seven factors on 42 coordinates, each its own group: the last
    # block's 2^20 atoms are the largest table, nothing of size 2^42.
    # Measured 0.07-0.08 s and 36.0 MiB of tracemalloc, the factors'
    # coefficients and block tables included (no Walsh index is built),
    # on 2 shared Xeon cores
    state = wr.build_measure(wr.PsiSpec.power(1.0), 7, wr.SummabilityBudget(6.0))
    assert state.used_coordinates == 42
    tracemalloc.start()
    start = time.perf_counter()
    try:
        report = wr.verify_product_orthogonality(state)
        strong = [verify_strong_orthogonality(state, alpha)
                  for alpha in ([1] * 7, [2, 1, 0, 0, 0, 0, 0])]
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and all(strong)
    assert report.max_mean_residual <= 1e-14 and report.max_second_moment <= 4.0
    assert elapsed < 2.0
    assert peak < 48 << 20


def test_orthogonality_refuses_a_group_past_24_coordinates():
    # a factor on 25 coordinates would be read on 2^25 atoms, 256 MiB a
    # table: both checks refuse before allocating any
    state = wr.add_factor(wr.add_factor(wr.empty_state(), 0), 24)
    tracemalloc.start()
    try:
        for check in (wr.verify_product_orthogonality,
                      lambda s: verify_strong_orthogonality(s, [1, 1])):
            with pytest.raises(wr.CoordinateBudgetError,
                               match="group on the 25 coordinates 2..26: one table of its atoms"
                                     " takes 268,435,456 bytes, past the limit of 16,777,216 atoms"):
                check(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_orthogonality_past_coordinate_63():
    # block tables need no Walsh index, so factors past coordinate 63,
    # whose spectrum int64 cannot hold, are read on their own atoms
    state = wr.add_factor(wr.add_factor(wr.empty_state(), 0, wr.BlockSpec((64,))), 3,
                          wr.BlockSpec((70, 100, 500, 1000)))
    report = wr.verify_product_orthogonality(state)
    assert report.ok and report.max_mean_residual <= 1e-15
    assert verify_strong_orthogonality(state, [1, 2])


def test_singularity_report_at_depth_42():
    # seven factors on 42 coordinates, the last block's 2^20 atoms the
    # largest table: its own Hellinger cross-check passes, Hellinger falls
    # at every stage, and tracemalloc peaks at five or so tables of those
    # 2^20 atoms (its block table, 1 + X and the histogram's sort), 42 MB
    # measured, nothing of size 2^42
    state = wr.build_measure(wr.PsiSpec.power(1.0), 7, wr.SummabilityBudget(6.0))
    assert state.used_coordinates == 42 and state.factors[-1].block[-1] == 42
    tracemalloc.start()
    try:
        report = wr.singularity_report(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.hellinger) == 8
    assert all(b < a for a, b in zip(report.hellinger, report.hellinger[1:]))
    assert max(abs(a - b) for a, b in zip(report.hellinger, report.hellinger_direct)) <= 1e-9
    assert peak < 48 << 20


# ---------------------------------------------------------------------------
# envelope diagnostic
# ---------------------------------------------------------------------------

def test_dyadic_block_envelope():
    series = wr.WalshSeries.from_coeffs([1.0, 0.5, -0.25, 0.1])
    assert wr.dyadic_block_envelope(series) == [(0, 0.5), (1, 0.25)]
    series = _random_series(5)
    support = wr.Spectrum(np.arange(series.order), series.coeffs)
    assert wr.dyadic_block_envelope(support) == wr.dyadic_block_envelope(series)
    # sparse: empty blocks read 0.0; indices past any dense limit, up to 2^63 - 1
    top = (1 << 63) - 1
    envelope = wr.dyadic_block_envelope(wr.Spectrum([0, 5, top], [1.0, -0.25, 0.5]))
    assert len(envelope) == 63
    assert envelope[2] == (2, 0.25) and envelope[-1] == (62, 0.5)
    assert all(v == 0.0 for k, v in envelope if k not in (2, 62))


def test_dense_envelope_reads_blocks_in_place():
    # a dense depth-20 series' blocks are slices of its 8 MiB of
    # coefficients: no 2^20 indices are built beside them (the sparse
    # copy peaked at 16 MiB)
    series = _random_series(20, depth=20)
    tracemalloc.start()
    try:
        envelope = wr.dyadic_block_envelope(series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * series.coeffs.nbytes
    assert envelope == wr.dyadic_block_envelope(wr.Spectrum(np.arange(series.order), series.coeffs))
