"""Martingale decomposition, the positivity equivalence, shifted bounds,
and the product-measure diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walshriesz as wr
from walshriesz import martingale
from walshriesz.martingale import CONCENTRATION_FRACTIONS
from walshriesz.walsh import _martingale_walk, atom_patterns, prefix_scan, sign_vector

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


@pytest.mark.parametrize("depth", range(9))
def test_martingale_walk_matches_direct_transforms(depth):
    # bit for bit, signed zeros included: M_k is the butterfly of the
    # first 2^k coefficients, and N_k* the max(MX, -MN) of prefix_extrema
    # on the whole block, the form the walk's proper-prefix extremes replaced
    for c in _walk_cases(depth):
        walk = list(_martingale_walk(c))
        assert len(walk) == depth + 1 and walk[-1][1:] == (None, None, None)
        for k, (m, *_) in enumerate(walk):
            assert m.tobytes() == wr.butterfly(c[: 1 << k]).tobytes()
        dec = wr.decompose(wr.WalshSeries(depth, c))
        for k in range(depth):
            n, mx, mn = wr.prefix_extrema(c[1 << k : 1 << (k + 1)])
            assert dec.n_tables[k].values.tobytes() == n.tobytes()
            assert dec.n_star[k].values.tobytes() == np.maximum(mx, -mn).tobytes()
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
    """The exact route's verdict, minimum and witness against the scan,
    whose sequential float sums are off by at most 2^K 2^-52 ||S||_A."""
    report = wr.check_positivity_equivalence(series)
    ok, witness, low = _all_prefixes_nonneg(series)
    tol = series.order * 2.0**-52 * np.sum(np.abs(series.coeffs))
    exact, maximal = report.routes
    assert (exact.name, exact.arithmetic) == ("exact prefix extrema", "integer-dyadic")
    assert (maximal.name, maximal.arithmetic) == ("maximal function", "float64")
    assert report.all_prefixes_nonneg == ok
    assert exact.verdict == ("pass" if ok else "fail")
    assert abs(exact.minimum - low) <= tol
    assert abs(maximal.minimum - exact.minimum) <= maximal.rounding_slack
    assert (exact.atoms, exact.orders) == (maximal.atoms, maximal.orders) == (series.order,) * 2
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
        assert [r.verdict for r in report.routes] == ["pass", "pass"]


def test_witness_is_first_negative_order_not_global_minimum():
    # S_2 = 1 - 1.5 r_1 first dips at order 2 (atom 0, -0.5); the global
    # minimum is S_4 = -2.5 at order 4 on atom 2 (r_1 = +1, r_2 = -1)
    series = wr.WalshSeries.from_coeffs([1.0, -1.5, 0.0, 2.0])
    report = _assert_matches_oracle(series)
    assert report.witness == wr.PositivityWitness("prefix", 2, 0, -0.5)
    assert report.routes[0].minimum == -2.5


# depth 3, found by searching seeded series for an exact minimum of 0
# whose float64 walk dips below it
ROUNDING_SCALE = [float.fromhex(h) for h in (
    "0x1.7ee50aa0d6ea2p-2", "0x1.537df6d7e5a20p-8", "0x1.694692cefdb8cp-5",
    "0x1.5a84f90e27880p-5", "0x1.0993aa313bd38p-5", "0x1.91f9fce3e0f60p-7",
    "-0x1.fbee97a696acep-3", "0x1.fcac4d87c6820p-5",
)]


def test_float_route_within_rounding_does_not_overrule_exact_route():
    report = wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs(ROUNDING_SCALE))
    exact, maximal = report.routes
    assert exact.minimum == 0.0 and exact.verdict == "pass"
    assert -maximal.rounding_slack <= maximal.minimum < 0.0
    assert maximal.verdict == "within rounding"
    assert report.all_prefixes_nonneg and not report.inequality_holds
    assert report.witness is None


def test_routes_disagreeing_beyond_the_allowance_raise(monkeypatch):
    series = wr.WalshSeries.from_coeffs([1.0, 0.5, 0.25, 0.1])
    slack = wr.check_positivity_equivalence(series).routes[1].rounding_slack
    margin = martingale._maximal_margin
    # the float route's minimum moved past the allowance; its p3 kept
    monkeypatch.setattr(martingale, "_maximal_margin",
                        lambda s: (margin(s)[0] + 2 * slack, margin(s)[1]))
    with pytest.raises(wr.InvariantViolation, match="disagree"):
        wr.check_positivity_equivalence(series)


def test_exact_route_rejects_non_finite_coefficients():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs([1.0, 0.5, bad, 0.1]))


# ---------------------------------------------------------------------------
# shifted prefix bound
# ---------------------------------------------------------------------------

def test_shifted_bound_m_zero_reduces_to_maximal():
    series = wr.WalshSeries.from_coeffs([1.0, 0.5, 0.25, 0.1, 0, 0, 0, 0])
    for kj in range(3):
        for k in range(kj, 4):
            assert wr.check_shifted_bound(series, kj, 0, k)


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
    # p3 comes off the float route's one walk, as check_p3 reads it
    for seed in range(20):
        series = _random_series(seed, depth=4)
        assert wr.check_positivity_equivalence(series).p3 == wr.check_p3(series)
    assert not wr.check_positivity_equivalence(wr.WalshSeries.from_coeffs([1.0, -1.5, 0, 0])).p3
    masses = np.random.default_rng(3).uniform(0.0, 2.0, 16)
    assert wr.check_positivity_equivalence(wr.fwht(wr.AtomTable(4, masses))).p3


def test_p3_rejects_non_finite_coefficients():
    # a NaN compares false, so the walk alone would call [1, nan] nonnegative
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
    # total mass stays one: E|Pi_k| = E Pi_k = 1
    assert all(abs(x - 1.0) <= 1e-12 for x in report.l1_norms)
    assert all(tuple(row) == CONCENTRATION_FRACTIONS for row in report.concentration)


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
    assert wr.verify_strong_orthogonality(state, [1])
    assert wr.verify_strong_orthogonality(state, [1, 2])
    assert wr.verify_strong_orthogonality(state, [2, 1, 2])


def test_strong_orthogonality_rejects_bad_indices():
    state = _built_state([0, 1])
    with pytest.raises(ValueError, match="at least one"):
        wr.verify_strong_orthogonality(state, [2, 2])
    with pytest.raises(ValueError, match="0, 1 or 2"):
        wr.verify_strong_orthogonality(state, [3])
    with pytest.raises(ValueError, match="at most two"):
        wr.verify_strong_orthogonality(_built_state([0, 1, 2, 3]), [2, 2, 2, 1])


def test_dense_diagnostics_refuse_past_the_depth_limit():
    # a depth-27 state: its dense tables would take about 10 GB, so every
    # diagnostic refuses it, naming the depth, before allocating them
    assert martingale.DIAGNOSTIC_DEPTH_LIMIT == 24
    state = wr.empty_state()
    for block in ((1,), (27,)):
        state = wr.add_factor(state, 0, wr.BlockSpec(block))
    routes = (
        lambda: wr.singularity_report(state),
        lambda: wr.verify_product_orthogonality(state),
        lambda: wr.verify_strong_orthogonality(state, [1, 1]),
    )
    tracemalloc.start()
    try:
        for route in routes:
            with pytest.raises(wr.CoordinateBudgetError, match="depth 27 is past"):
                route()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a monomial that leaves out the deep factor stays within the limit
    assert wr.verify_strong_orthogonality(state, [1])


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
