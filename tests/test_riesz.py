"""Product builder: psi gauges, the level rule, factor bookkeeping,
positivity certificates, psi summability, and export."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import walshriesz as wr
from walshriesz.riesz import _band_minima, _block_table, _product_at, make_factor
from walshriesz.walsh import atom_patterns, prefix_extrema, prefix_scan, sign_vector

C = wr.FLATNESS_CONSTANT
EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# oracles: the evaluator, the merge and the scan the array code replaced
# ---------------------------------------------------------------------------

def scan_runs(state, patterns):
    """(lo, hi, values) runs on the given atoms, streamed over the support:
    the value after support index n covers the orders (n, next index]."""
    indices, coeffs = state.spectrum.indices, state.spectrum.coeffs
    ends = indices[1:].tolist() + [1 << state.used_coordinates]
    if indices[0] >= 1:
        yield 1, int(indices[0]), np.zeros(patterns.size)
    for (n, acc), hi in zip(prefix_scan(indices, coeffs, patterns), ends):
        yield n + 1, hi, acc


def sign_vector_values(factor, patterns):
    """X on the given atoms, one sign_vector pass per coefficient."""
    out = np.zeros(patterns.size)
    for idx, c in zip(factor.indices, factor.coeffs):
        out += c * sign_vector(int(idx), patterns)
    return out


def dict_merge(spectrum, factor):
    """Spectrum of Pi * (1 + X) as a dict, plus the new stage terms."""
    new_terms = {}
    for j, cj in spectrum.items():
        for s, xs in zip(factor.indices, factor.coeffs):
            new_terms[j ^ int(s)] = cj * float(xs)
    assert len(new_terms) == len(spectrum) * factor.indices.size
    assert not set(new_terms) & set(spectrum)
    merged = dict(spectrum)
    merged.update(new_terms)
    return merged, new_terms


# ---------------------------------------------------------------------------
# psi gauges
# ---------------------------------------------------------------------------

def test_logpow_values_and_envelope():
    psi = wr.PsiSpec.logpow(1.0)
    assert psi.psi(0.0) == 0.0
    x = 0.25
    assert psi.psi(x) == pytest.approx(x * x / (1 + math.log(1 / x)))
    assert psi.epsilon_bar(x) == pytest.approx(1 / (1 + math.log(1 / x)))
    # envelope is monotone and decays toward zero
    grid = np.logspace(-9, 0, 40)
    vals = [psi.epsilon_bar(g) for g in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 0.05
    psi.validate()


def test_power_preset():
    psi = wr.PsiSpec.power(1.0)
    assert psi.psi(0.5) == pytest.approx(0.125)
    assert psi.epsilon_bar(0.5) == pytest.approx(0.5)
    psi.validate()


def test_quadratic_rejected():
    psi = wr.PsiSpec.quadratic()
    with pytest.raises(wr.PsiHypothesisError, match="envelope"):
        psi.validate()


def test_parse_descriptors():
    assert wr.PsiSpec.parse("preset:logpow,p=2").descriptor == "preset:logpow,p=2"
    assert wr.PsiSpec.parse("preset:power,delta=0.5").psi(0.1) == pytest.approx(
        0.1**2.5
    )
    with pytest.raises(ValueError):
        wr.PsiSpec.parse("preset:unknown")
    with pytest.raises(ValueError):
        wr.PsiSpec.parse("spline:3")
    with pytest.raises(ValueError):
        wr.PsiSpec.parse("preset:logpow,p")


def test_table_psi():
    xs = np.logspace(-6, 0, 50)
    ys = xs**3  # cubic gauge sampled on a grid
    psi = wr.PsiSpec.from_table(xs, ys)
    psi.validate()
    assert psi.epsilon_bar(1e-3) <= 2e-3
    flat = wr.PsiSpec.from_table([0.1, 1.0], [0.01, 1.0])  # x^2 in disguise
    assert not flat.envelope_decays


def test_budget_terms():
    budget = wr.SummabilityBudget()
    assert budget.term_bound(1) == 0.5
    assert budget.term_bound(3) == 0.125
    assert wr.SummabilityBudget(scale=2.25).total(3) == pytest.approx(2.25 * 0.875)
    with pytest.raises(ValueError):
        budget.term_bound(0)


# ---------------------------------------------------------------------------
# level selection
# ---------------------------------------------------------------------------

def test_first_level_set_by_envelope_not_positivity():
    # on the empty state the positivity condition holds for every level,
    # so the envelope condition picks the level
    state = wr.empty_state()
    psi = wr.PsiSpec.power(1.0)  # psi = x^3, envelope x
    level = wr.choose_next_level(state, psi, wr.SummabilityBudget())
    assert level == 0  # (1/2C) <= 1/2 already


def test_level_monotone_in_budget():
    psi = wr.PsiSpec.logpow(1.0)
    state = wr.empty_state()
    state = wr.add_factor(state, 0)
    state = wr.add_factor(state, 0)
    levels = []
    for scale in (4.0, 2.25, 1.0, 0.5):
        levels.append(
            wr.choose_next_level(state, psi, wr.SummabilityBudget(scale), level_cap=256)
        )
    assert levels == sorted(levels)
    assert levels[0] < levels[-1]  # the log-slow envelope reacts strongly


def test_level_selection_fails_without_decay():
    psi = wr.PsiSpec.quadratic()  # envelope stuck at 1
    state = wr.empty_state()
    state = wr.add_factor(state, 0)
    with pytest.raises(wr.LevelSelectionError):
        wr.choose_next_level(state, psi, wr.SummabilityBudget(scale=0.5), level_cap=20)


# ---------------------------------------------------------------------------
# factors and state
# ---------------------------------------------------------------------------

def test_add_factor_single_rademacher():
    state = wr.add_factor(wr.empty_state(), 0)
    a = 0.5 / C
    assert state.spectrum.indices.tolist() == [0, 1]
    assert state.spectrum.coeffs[0] == 1.0
    assert state.spectrum.coeffs[1] == pytest.approx(a)
    assert state.inf_value == pytest.approx(1 - a)
    assert state.inf_value == wr.product_values(state.factors, 1).min()
    assert state.used_coordinates == 1


def test_add_factor_norm_product_matches_direct_sum():
    state = wr.empty_state()
    for level in (0, 2, 3):
        state = wr.add_factor(state, level)
    direct = float(np.sum(np.abs(state.spectrum.coeffs)))
    assert abs(state.norm_a - direct) < 1e-12 * state.norm_a
    norm2_direct = math.sqrt(float(np.sum(state.spectrum.coeffs**2)))
    norm2_product = math.prod(
        math.sqrt(1 + f.norm_2**2) for f in state.factors
    )
    assert abs(norm2_direct - norm2_product) < 1e-12


def test_add_factor_block_overlap_is_hard_error():
    state = wr.add_factor(wr.empty_state(), 1)
    with pytest.raises(wr.BlockOverlapError):
        wr.add_factor(state, 0, wr.BlockSpec((2,)))


def test_add_factor_coordinate_budget():
    state = wr.empty_state(max_coordinates=3)
    with pytest.raises(wr.CoordinateBudgetError):
        wr.add_factor(state, 3)


def test_add_factor_block_size_checked():
    with pytest.raises(ValueError, match="level"):
        wr.add_factor(wr.empty_state(), 1, wr.BlockSpec((1,)))


def test_factor_sup_on_far_block():
    # blocks far to the right must not force a dense transform at the
    # block's absolute coordinate depth
    factor = make_factor(1, wr.BlockSpec((25, 26)))
    a = (0.5 / C) * 2.0 ** (-0.5)
    # phi at level 1 has values +-2 and 0 on its two coordinates
    table = _block_table(factor)
    assert table.size == 4
    assert float(np.max(np.abs(table))) == pytest.approx(2 * a)
    # past the cap, add_factor reads inf X off the same 4-atom table
    state = wr.empty_state(exhaustive_cap=2, max_coordinates=26)
    tracemalloc.start()
    try:
        state = wr.add_factor(state, 1, wr.BlockSpec((25, 26)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 2^26 float64 values would be 512 MiB
    assert state.inf_value == pytest.approx(1 - 2 * a)
    # X takes the same values on the near block (1, 2), where densifying is cheap
    near = make_factor(1, wr.BlockSpec((1, 2)))
    assert state.inf_value == wr.product_values([near], 2).min()


def test_inf_lower_bound_past_cap():
    # the product of the factor minima is the exact, rounded dense minimum
    # at every depth, past the cap too
    state = wr.empty_state(exhaustive_cap=2)
    state = wr.add_factor(state, 0)
    state = wr.add_factor(state, 0)
    exact = state.inf_value
    state = wr.add_factor(state, 0)  # three coordinates > cap of two
    a = 0.5 / C
    assert state.inf_value == pytest.approx(exact * (1 - a))
    assert state.inf_value == wr.product_values(state.factors, 3).min()


def test_build_measure_flagship_shape():
    state = wr.build_measure(
        wr.PsiSpec.logpow(1.0), 3, wr.SummabilityBudget(scale=2.25)
    )
    assert [f.level for f in state.factors] == [0, 0, 10]
    assert state.used_coordinates == 13
    assert len(state.spectrum) == 2 * 2 * 1025
    assert state.block_boundaries() == [2, 4, 8192]


def test_sigma_constant_per_factor():
    state = wr.build_measure(
        wr.PsiSpec.logpow(1.0), 3, wr.SummabilityBudget(scale=2.25)
    )
    for f in state.factors:
        assert abs(f.norm_2 - 0.5 / C) < 1e-12
        # mean zero: no w_0 component
        assert 0 not in set(int(i) for i in f.indices)


# ---------------------------------------------------------------------------
# positivity certificates
# ---------------------------------------------------------------------------

def test_certificate_one_factor():
    state = wr.add_factor(wr.empty_state(), 0)
    cert = wr.verify_all_partial_sums(state)
    a = 0.5 / C
    assert cert.exhaustive
    # orders: S_1 = 1, S_2 = 1 +- a; minimum frozen at 1 - a > 1/2
    assert cert.global_min == pytest.approx(1 - a)
    assert cert.global_min > 0.5
    assert cert.passed


def test_certificate_empty_state():
    cert = wr.verify_all_partial_sums(wr.empty_state())
    assert cert.passed and cert.global_min == 1.0


def hand_built_state(coeffs):
    """prod (1 + c_i r_i) on the blocks (1,), (2,), ...; any c_i, admissible or not."""
    factors = tuple(
        wr.Factor(level=0, block=(i,), amplitude=abs(c),
                  indices=np.array([1 << (i - 1)]), coeffs=np.array([float(c)]))
        for i, c in enumerate(coeffs, start=1)
    )
    spectrum = np.ones(1)
    for c in coeffs:
        spectrum = np.concatenate([spectrum, c * spectrum])
    return wr.RieszProductState(
        factors=factors,
        spectrum=wr.Spectrum(np.arange(spectrum.size), spectrum),
        norm_a=float(np.prod([1 + abs(c) for c in coeffs])),
        inf_value=float(np.min(wr.product_values(factors, len(coeffs)))),
        used_coordinates=len(coeffs),
    )


def test_certificate_flags_negative_prefix():
    # an oversized factor breaks positivity: 1 + a r_1 + 0.9 r_2
    cert = wr.verify_all_partial_sums(hand_built_state([0.5 / C, 0.9]))
    assert not cert.passed
    expected = 1 - 0.5 / C - 0.9  # S_3 at r_1 = -1, r_2 = -1
    assert cert.global_min == pytest.approx(expected)


def test_certificate_with_gap_block():
    # blocks may skip coordinates; bands still track the block sups
    state = wr.add_factor(wr.empty_state(), 0, wr.BlockSpec((3,)))
    cert = wr.verify_all_partial_sums(state)
    assert cert.band_edges == (1, 8)
    assert cert.global_min == pytest.approx(1 - 0.5 / C)
    assert cert.passed


def test_certificate_sampled_past_cap():
    # past the cap the certificate is per-factor: every atom, no sample
    state = wr.empty_state(exhaustive_cap=2)
    for level in (0, 0, 1):
        state = wr.add_factor(state, level)
    cert = wr.verify_all_partial_sums(state, seed=7)
    assert cert.method == "per-factor"
    assert cert.exhaustive and cert.passed
    assert not hasattr(cert, "sampling")
    assert cert == wr.verify_all_partial_sums(state, seed=8)  # the seed is unused


CERTIFIED_STATES = {
    "one-factor": lambda: wr.add_factor(wr.empty_state(), 0),
    "gap-block": lambda: wr.add_factor(wr.empty_state(), 0, wr.BlockSpec((3,))),
    "flagship-d13": lambda: wr.build_measure(
        wr.PsiSpec.logpow(1.0), 3, wr.SummabilityBudget(scale=2.25)
    ),
    "power-3": lambda: wr.build_measure(wr.PsiSpec.power(1.0), 3, wr.SummabilityBudget()),
    "d16": lambda: wr.build_measure(
        wr.PsiSpec.logpow(1.0), 4, wr.SummabilityBudget(scale=6), exhaustive_cap=16
    ),
    "negative-prefix": lambda: hand_built_state([0.5 / C, 0.9]),
    # S_4 = Pi_2 sits at an edge and dips below every order of band 1
    "edge-order": lambda: hand_built_state([0.5, 2.0, 0.1]),
}


@pytest.mark.parametrize("name", list(CERTIFIED_STATES))
def test_kernel_certificate_matches_scan_oracle(name):
    # the streaming scan on every atom is the oracle; both sum the same
    # terms in different orders, so they agree to (K + 1) eps ||Pi||_A
    state = CERTIFIED_STATES[name]()
    cert = wr.verify_all_partial_sums(state)
    assert cert.exhaustive and cert.method == "kernel"
    atoms = atom_patterns(cert.depth)
    refs = [0.25 * _product_at(state.factors[:j], atoms) for j in range(state.stages)]
    gmin, margins = _band_minima(cert.band_edges, refs, scan_runs(state, atoms))
    tol = (cert.depth + 1) * 2.0**-52 * state.norm_a
    assert abs(cert.global_min - gmin) <= tol
    assert len(cert.stage_margins) == len(margins) == state.stages
    for got, want in zip(cert.stage_margins, margins):
        assert abs(got - want) <= tol
    if cert.depth <= 8:
        # every partial sum on every atom, bands taken from their definition
        signs = np.array([wr.walsh_signs(n, cert.depth) for n in range(1 << cert.depth)])
        partial = np.cumsum(wr.state_series(state).coeffs[:, None] * signs, axis=0)
        assert abs(cert.global_min - partial.min()) <= tol
        edges = cert.band_edges
        for j, got in enumerate(cert.stage_margins):
            last = edges[j + 1] if j == state.stages - 1 else edges[j + 1] - 1
            ref = 0.25 * wr.product_values(state.factors[:j], cert.depth)
            assert abs(got - (partial[edges[j] - 1 : last] - ref).min()) <= tol


def power_build_cap_20(stages):
    return wr.build_measure(
        wr.PsiSpec.power(1.0), stages, wr.SummabilityBudget(scale=6), exhaustive_cap=20
    )


SOUNDNESS_STATES = {
    **CERTIFIED_STATES,
    "power-d12-cap-20": lambda: power_build_cap_20(5),
    "power-d14-cap-20": lambda: wr.build_measure(
        wr.PsiSpec.power(1.0), 4, wr.SummabilityBudget(), exhaustive_cap=20
    ),
}


@pytest.mark.parametrize("name", list(SOUNDNESS_STATES))
def test_per_factor_bounds_below_kernel_minima(name):
    # the per-factor certificate only claims lower bounds: never above the
    # kernel's exact minima, and nonnegative on every construction build
    state = SOUNDNESS_STATES[name]()
    kernel = wr.verify_all_partial_sums(state)
    assert kernel.method == "kernel"
    cert = wr.verify_all_partial_sums(dataclasses.replace(state, exhaustive_cap=0))
    assert cert.method == "per-factor" and cert.exhaustive
    assert cert.band_edges == kernel.band_edges
    assert cert.global_min <= kernel.global_min
    assert len(cert.stage_margins) == len(kernel.stage_margins)
    for bound, margin in zip(cert.stage_margins, kernel.stage_margins):
        assert bound <= margin
    # passed: global_min and every margin >= 0; the hand-built two are not admissible
    assert cert.passed == (name not in ("negative-prefix", "edge-order"))


def test_per_factor_bound_at_depth_22():
    # the deep ladder rung: past every cap, so check the bound against the
    # densified spectrum's exhaustive minimum, 0.28909...
    state = power_build_cap_20(6)
    cert = wr.verify_all_partial_sums(state)
    assert cert.method == "per-factor" and cert.exhaustive and cert.passed
    dense = np.zeros(1 << 22)
    dense[state.spectrum.indices] = state.spectrum.coeffs
    exhaustive_min = float(prefix_extrema(dense)[2].min())
    assert exhaustive_min == pytest.approx(0.28909103575544, abs=1e-13)
    assert 0.0 <= cert.global_min <= exhaustive_min
    assert min(cert.stage_margins) >= 0.0


def test_exhaustive_cap_bounded_by_dense_limit():
    assert wr.riesz.DENSE_LIMIT == 20
    wr.empty_state(exhaustive_cap=20)
    for cap in (-1, 21):
        with pytest.raises(ValueError, match="limit 20"):
            wr.empty_state(exhaustive_cap=cap)
    with pytest.raises(ValueError, match="limit 20"):
        wr.build_measure(wr.PsiSpec.power(1.0), 1, exhaustive_cap=21)
    with pytest.raises(ValueError, match="limit 20"):
        wr.state_from_manifest({"exhaustive_cap": 21, "stages": []})


# ---------------------------------------------------------------------------
# psi summability
# ---------------------------------------------------------------------------

def test_psi_report_single_stage_equality():
    # one stage of the cubic gauge: sum over the window has the closed form
    # 2^l a^3 and the bound 2^l a^2 * envelope(a) coincides with it
    psi = wr.PsiSpec.power(1.0)
    state = wr.add_factor(wr.empty_state(), 3)
    report = wr.psi_sum_report(state, psi)
    a = (0.5 / C) * 2.0 ** (-1.5)
    expected = 8 * a**3
    assert report.stage_exact[0] == pytest.approx(expected, rel=1e-12)
    assert report.stage_bounds[0] == pytest.approx(expected, rel=1e-12)
    assert report.ok


def test_psi_report_empty_product():
    report = wr.psi_sum_report(wr.empty_state(), wr.PsiSpec.logpow(1.0))
    assert report.exact_total == 0.0
    assert report.c0_term == pytest.approx(1.0)  # psi(1) for c_0, kept separate


def test_psi_report_flagship():
    psi = wr.PsiSpec.logpow(1.0)
    budget = wr.SummabilityBudget(scale=2.25)
    state = wr.build_measure(psi, 3, budget)
    report = wr.psi_sum_report(state, psi, budget)
    assert report.ok
    assert report.exact_total <= report.bound_total
    for exact, bound in zip(report.stage_exact, report.stage_bounds):
        assert exact <= bound * (1 + 1e-12)
    assert report.budget_terms == (1.125, 0.5625, 0.28125)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def test_export_roundtrip(tmp_path):
    built = wr.build_measure(wr.PsiSpec.power(1.0), 2, wr.SummabilityBudget())
    # rows are written in chunks of 2^16: the second spectrum spans two
    size = (1 << 16) + 3
    wide = wr.Spectrum(3 * np.arange(size), np.random.default_rng(5).normal(size=size))
    path = tmp_path / "measure.csv"
    for state in (built, dataclasses.replace(built, spectrum=wide)):
        wr.export_measure(state, path)
        spectrum = wr.load_spectrum_csv(path)
        assert np.array_equal(spectrum.indices, state.spectrum.indices)
        assert np.array_equal(spectrum.coeffs, state.spectrum.coeffs)
    assert not list(tmp_path.glob("*.tmp.*"))  # the atomic write left no temp file


def test_export_empty_state(tmp_path):
    path = tmp_path / "measure.csv"
    wr.export_measure(wr.empty_state(), path)
    spectrum = wr.load_spectrum_csv(path)
    assert (spectrum.indices.tolist(), spectrum.coeffs.tolist()) == ([0], [1.0])


def test_manifest_roundtrip():
    state = wr.build_measure(
        wr.PsiSpec.logpow(1.0), 3, wr.SummabilityBudget(scale=2.25)
    )
    manifest = wr.state_manifest(state)
    for stage, factor in zip(manifest["stages"], state.factors):
        expected = (0.5 / C) * 2.0 ** (-factor.level / 2)
        assert stage["amplitude"] == expected  # exact float equality
    rebuilt = wr.state_from_manifest(manifest)
    assert np.array_equal(rebuilt.spectrum.indices, state.spectrum.indices)
    assert np.array_equal(rebuilt.spectrum.coeffs, state.spectrum.coeffs)
    assert rebuilt.norm_a == state.norm_a


def test_state_series_matches_pointwise_product():
    state = wr.build_measure(wr.PsiSpec.power(1.0), 3, wr.SummabilityBudget())
    series = wr.state_series(state)
    from_spectrum = wr.inverse_fwht(series).values
    pointwise = wr.product_values(state.factors, state.used_coordinates)
    assert np.max(np.abs(from_spectrum - pointwise)) < 1e-12


# ---------------------------------------------------------------------------
# block tables and the array spectrum against the oracles
# ---------------------------------------------------------------------------

def hand_built_factor():
    # coefficients that are not +-amplitude, on a block with a gap
    shape = make_factor(2, wr.BlockSpec((2, 4, 5)))
    coeffs = np.random.default_rng(3).normal(size=shape.indices.size)
    return wr.Factor(2, shape.block, 1.0, shape.indices, coeffs)


FACTOR_CASES = {
    "level-0": make_factor(0, wr.BlockSpec((1,))),
    "level-3": make_factor(3, wr.BlockSpec((1, 2, 3, 4))),
    "flagship-level-10": make_factor(10, wr.BlockSpec(tuple(range(3, 14)))),
    "gap-block": make_factor(0, wr.BlockSpec((3,))),
    "far-block": make_factor(1, wr.BlockSpec((25, 26))),
    "hand-built": hand_built_factor(),
}


def evaluator_tol(factors):
    """4 (l+1) eps ||X||_A per factor, carried through prod (1 + X_i)."""
    total = sum(4 * len(f.block) * EPS * f.norm_a for f in factors)
    bound = math.prod(1.0 + f.norm_a for f in factors)
    return total * bound + 2 * len(factors) * EPS * bound


def sampled_patterns(depth, count=513, seed=11):
    draws = np.random.default_rng(seed).integers(0, 1 << depth, size=count, dtype=np.uint64)
    return np.unique(np.concatenate([draws, [0, (1 << depth) - 1]]).astype(np.uint64))


def oracle_product(factors, patterns):
    out = np.ones(patterns.size)
    for f in factors:
        out *= 1.0 + sign_vector_values(f, patterns)
    return out


@pytest.mark.parametrize("name", sorted(FACTOR_CASES))
def test_factor_values_match_sign_vector_oracle(name):
    factor = FACTOR_CASES[name]
    depth = factor.block[-1]
    tol = 4 * len(factor.block) * EPS * factor.norm_a
    if depth <= 16:  # all atoms; the far block stays sampled
        new = wr.factor_values(factor, depth)
        assert np.max(np.abs(new - sign_vector_values(factor, atom_patterns(depth)))) <= tol
    patterns = sampled_patterns(depth)
    new = _product_at([factor], patterns)
    assert np.max(np.abs(new - oracle_product([factor], patterns))) <= evaluator_tol([factor])


def test_construction_factor_values_are_exact_multiples():
    # phi's block transform only ever adds powers-of-two multiples of the
    # amplitude, so the table is amplitude * (integer values of phi)
    factor = FACTOR_CASES["flagship-level-10"]
    phi_values = wr.butterfly(wr.build_flat(10).as_series().coeffs)
    assert np.array_equal(_block_table(factor), factor.amplitude * phi_values)


def test_overlapping_pair_product_matches_oracle():
    pair = [make_factor(1, wr.BlockSpec((1, 2))), make_factor(1, wr.BlockSpec((2, 3)))]
    tol = evaluator_tol(pair)
    assert np.max(np.abs(wr.product_values(pair, 3) - oracle_product(pair, atom_patterns(3)))) <= tol
    patterns = sampled_patterns(3, count=5)
    assert np.max(np.abs(_product_at(pair, patterns) - oracle_product(pair, patterns))) <= tol


def staged_states():
    yield "flagship", wr.build_measure(
        wr.PsiSpec.logpow(1.0), 3, wr.SummabilityBudget(scale=2.25)
    )
    state = wr.empty_state()
    for level in (1, 1, 2, 1):  # several wide stages: insertion order != sorted order
        state = wr.add_factor(state, level)
    yield "wide-stages", state
    yield "gap-block", wr.add_factor(wr.empty_state(), 0, wr.BlockSpec((3,)))
    # unequal coefficient magnitudes; at this seed sorted-order psi sums
    # would round differently from the dict's insertion order
    rng = np.random.default_rng(45)
    factors, spectrum = [], {0: 1.0}
    for level, block in zip((1,) * 5, ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10))):
        shape = make_factor(level, wr.BlockSpec(block))
        coeffs = rng.uniform(0.05, 0.2, size=shape.indices.size)
        factors.append(wr.Factor(level, shape.block, 1.0, shape.indices, coeffs))
        spectrum, _ = dict_merge(spectrum, factors[-1])
    keys = sorted(spectrum)
    yield "hand-built", wr.RieszProductState(
        factors=tuple(factors),
        spectrum=wr.Spectrum(keys, [spectrum[n] for n in keys]),
        norm_a=math.prod(1 + f.norm_a for f in factors),
        inf_value=0.0,
        used_coordinates=10,
    )


@pytest.mark.parametrize("state", [pytest.param(s, id=name) for name, s in staged_states()])
def test_array_spectrum_matches_dict_merge(state):
    psi = wr.PsiSpec.power(1.0)
    spectrum, oracle_exact = {0: 1.0}, []
    for factor in state.factors:
        spectrum, new_terms = dict_merge(spectrum, factor)
        oracle_exact.append(float(sum(psi.psi(abs(c)) for c in new_terms.values())))
    assert len(state.spectrum) == len(spectrum)
    assert state.spectrum.indices.tolist() == sorted(spectrum)
    assert state.spectrum.coeffs.tolist() == [spectrum[n] for n in sorted(spectrum)]
    # psi sums read stage slices in the dict's summation order: bit-identical
    assert list(wr.psi_sum_report(state, psi).stage_exact) == oracle_exact


def test_spectrum_rejects_unsorted_indices():
    assert len(wr.Spectrum([0, 2, 5], [1.0, 0.5, 0.25])) == 3
    with pytest.raises(wr.InvariantViolation):
        wr.Spectrum([0, 2, 2], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        wr.Spectrum([0, 1], [1.0])
