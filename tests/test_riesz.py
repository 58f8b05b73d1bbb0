"""Product builder: psi gauges, the level rule, factor bookkeeping,
positivity certificates, psi summability, and export."""

import csv
import dataclasses
import hashlib
import itertools
import math
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walshriesz as wr
from conftest import spectrum_series
from oracles import flat_series, table_psi, verify_strong_orthogonality
from walshriesz import riesz, walsh
from walshriesz.martingale import CONCENTRATION_FRACTIONS
from walshriesz.riesz import _block_bits, make_factor
from walshriesz.walsh import _write_coeff_rows, atom_patterns, butterfly, prefix_extrema, prefix_scan
from walshriesz.walsh import sign_vector

C = wr.FLATNESS_CONSTANT
EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# oracles: the evaluator, the merge and the scan the array code replaced
# ---------------------------------------------------------------------------

def gather_product(factors, patterns):
    """prod (1 + X_i) on the given atom patterns, each block table read
    by the block's bits of the pattern: the evaluator the broadcast one
    replaced, pointwise, so overlapping blocks work too."""
    out = np.ones(patterns.size)
    for f in factors:
        out *= 1.0 + f._block_table[_block_bits(patterns, f.block)]
    return out


def scan_runs(state, patterns):
    """(lo, hi, values) runs on the given atoms, streamed over the support:
    the value after support index n covers the orders (n, next index]."""
    indices, coeffs = state.spectrum.indices, state.spectrum.coeffs
    ends = indices[1:].tolist() + [1 << state.used_coordinates]
    if indices[0] >= 1:
        yield 1, int(indices[0]), np.zeros(patterns.size)
    scan = prefix_scan(indices, coeffs, lambda n: sign_vector(n, patterns), patterns.size)
    for (n, acc), hi in zip(scan, ends):
        yield n + 1, hi, acc


def band_minima(edges, refs, runs):
    """Global minimum and per-band minimum of S_p - refs[j] over runs
    (lo, hi, values), values = S_p for every order p in [lo, hi].  Bands
    are [edge_j, edge_(j+1)), the last one closed; refs[j] is a function
    of the values' atoms or of their first coordinates, broadcast.  Runs
    may span several bands."""
    gmin = math.inf
    margins = [math.inf] * len(refs)
    for lo, hi, values in runs:
        gmin = min(gmin, float(np.min(values)))
        for b, ref in enumerate(refs):
            upper = edges[b + 1] if b == len(refs) - 1 else edges[b + 1] - 1
            if lo <= upper and hi >= edges[b]:
                margins[b] = min(margins[b], float(np.min(values.reshape(-1, ref.size) - ref)))
    return gmin, margins


def scan_oracle(state, edges):
    """band_minima over scan_runs on every atom, against (1/4) Pi_j."""
    atoms = atom_patterns(state.used_coordinates)
    refs = [0.25 * gather_product(state.factors[:j], atoms) for j in range(state.stages)]
    return band_minima(edges, refs, scan_runs(state, atoms))


def reference_head_tables(head):
    """(pi, lo, hi) by the recipe one prefix merge replaced: the butterfly
    of the spectrum's scatter, prefix_extrema on the series with its last
    coefficient zeroed (S_(2^d) = Pi is an order of the next band), and
    both extremes clamped to the empty prefix's 0."""
    coeffs = spectrum_series(head)
    pi = butterfly(coeffs)
    coeffs[-1] = 0.0
    _, mx, mn = prefix_extrema(coeffs)
    return pi, np.minimum(mn, 0.0), np.maximum(mx, 0.0)


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


def test_logpow_past_float64_reads_zero():
    # (1 + ln(1/x))^1000 passes float64 by x = 0.01: the quotients read
    # 0.0 there, and every finite value is the plain formula's
    psi = wr.PsiSpec.logpow(1000)
    assert psi.epsilon_bar(0.01) == 0.0
    assert psi.psi(0.01) == 0.0
    assert psi.epsilon_bar(0.5) == 1.0 / (1.0 + math.log(2.0)) ** 1000 > 0.0
    assert psi.psi(0.5) == 0.25 / (1.0 + math.log(2.0)) ** 1000 > 0.0
    vals = [psi.epsilon_bar(g) for g in np.logspace(-9, 0, 40)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_logpow_past_float64_reads_inf_from_one_up():
    # x^2 (1 + ln x)^1000 passes float64 by x = 10: psi and the envelope
    # read inf there, and every finite value is the plain formula's
    psi = wr.PsiSpec.logpow(1000)
    assert psi.psi(10.0) == psi.epsilon_bar(10.0) == math.inf
    assert psi.psi(1.0) == psi.epsilon_bar(1.0) == 1.0
    assert psi.epsilon_bar(1.5) == (1.0 + math.log(1.5)) ** 1000 < math.inf
    assert psi.psi(1.5) == 2.25 * (1.0 + math.log(1.5)) ** 1000 < math.inf
    vals = [psi.epsilon_bar(g) for g in np.logspace(0, 3, 40)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


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


TABLE_GRIDS = {
    "convex": (np.geomspace(1e-6, 2.0, 64), np.geomspace(1e-6, 2.0, 64) ** 2.5),
    "steps": ([0.01, 0.02, 0.05, 0.1, 0.5, 1.0], [1e-5, 1e-5, 2e-3, 2e-3, 0.2, 0.9]),
    "sparse": ([1e-3, 0.3, 3.0], [0.0, 0.08, 9.0]),
}


@pytest.mark.parametrize("name", list(TABLE_GRIDS))
def test_table_psi_envelope_bounds_the_interpolant(name):
    # the tests' own tabulated gauge, which the table cases below build
    # states with: envelope(x) >= psi(y)/y^2 for every y <= x, below, on
    # and past the grid, sampled 20k times: the running max over the fine
    # grid; the slack is psi_sum_report's relative 1e-12
    xs, ys = map(np.asarray, TABLE_GRIDS[name])
    spec = table_psi(xs, ys)
    fine = np.union1d(np.geomspace(xs[0] / 100, xs[-1] * 4, 20000), xs)
    ratio = [spec.psi(y) / (y * y) for y in fine]
    env = [spec.epsilon_bar(x) for x in fine]
    assert np.all(np.diff(env) >= 0.0)
    assert np.all(np.array(env) * (1 + 1e-12) >= np.maximum.accumulate(ratio))
    # below the grid psi is ys[0] (x/xs[0])^2, so the clamp is exact there
    assert spec.epsilon_bar(xs[0] / 10) == env[0] == ratio[0]


def test_table_psi_build_passes_its_psi_sums():
    # a gauge built by its caller, not a preset: 4 stages at scale 6 with
    # x^2.5 tabulated on 64 points (levels 0, 0, 3, 11), stage 1's one
    # magnitude between samples
    xs = np.geomspace(1e-6, 2.0, 64)
    psi = table_psi(xs, xs**2.5)
    budget = wr.SummabilityBudget(scale=6.0)
    state = wr.build_measure(psi, 4, budget)
    assert state.factors[0].amplitude not in xs
    report = wr.psi_sum_report(state, psi, budget)
    assert report.ok and report.stage_exact[0] <= report.stage_bounds[0]


def test_budget_terms():
    budget = wr.SummabilityBudget()
    assert budget.term_bound(1) == 0.5
    assert budget.term_bound(3) == 0.125
    with pytest.raises(ValueError):
        budget.term_bound(0)


@pytest.mark.parametrize("scale", [math.nan, -1.0, 0.0, math.inf])
def test_budget_scale_must_be_finite_and_positive(scale):
    with pytest.raises(ValueError, match="not finite and positive"):
        wr.SummabilityBudget(scale=scale)


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
        levels.append(wr.choose_next_level(state, psi, wr.SummabilityBudget(scale)))
    assert levels == sorted(levels)
    assert levels[0] < levels[-1]  # the log-slow envelope reacts strongly


def test_level_range_passes_the_pair_limit():
    # construction factors are read off their pair laws, so the rule and
    # the factor go past level 20, the largest pair `build_pair` builds
    psi, budget = wr.PsiSpec.logpow(1.0), wr.SummabilityBudget(scale=1.5)
    state = wr.empty_state()
    for level in (0, 2):
        state = wr.add_factor(state, level)
    assert wr.choose_next_level(state, psi, budget) == 26
    state = wr.add_factor(state, 26)
    assert state.used_coordinates == 31 and wr.verify_all_partial_sums(state).passed
    with pytest.raises(ValueError, match=r"level 21 outside \[0, 20\]"):
        wr.build_pair(21)


def test_level_selection_fails_without_decay():
    psi = wr.PsiSpec.quadratic()  # envelope stuck at 1
    state = wr.empty_state()
    state = wr.add_factor(state, 0)
    # every level whose block ends by coordinate 1023 is scanned
    with pytest.raises(wr.LevelSelectionError, match="stage 2 whose block ends by coordinate 1023"):
        wr.choose_next_level(state, psi, wr.SummabilityBudget(scale=0.5))


def test_library_default_third_stage_needs_level_206():
    # logpow p=1 at the library's scale 1: the log-slow envelope needs a
    # factor on 207 coordinates at stage 3
    state = wr.build_measure(wr.PsiSpec.logpow(1.0), 3)
    assert [f.level for f in state.factors] == [0, 7, 206]


@pytest.mark.parametrize(("delta", "stages"), [(1.0, 11), (2.0, 15)])
def test_level_rule_stops_at_coordinate_1023(delta, stages):
    # the next stage's smallest admissible level would end its block past
    # coordinate 1023, where float64 counts stop
    with pytest.raises(wr.LevelSelectionError, match=f"stage {stages} whose block ends by coordinate 1023"):
        wr.build_measure(wr.PsiSpec.power(delta), stages, wr.SummabilityBudget(6.0))


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
    assert state.inf_value == wr.product_values(state.factors, [1]).min()
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
    # blocks end by coordinate 1023, where the certificates' float64
    # counts 2^n still hold; the bound is checked before any pair law
    for route in (
        lambda: wr.add_factor(wr.empty_state(), 0, wr.BlockSpec((1024,))),
        lambda: wr.add_factor(wr.add_factor(wr.empty_state(), 0, wr.BlockSpec((1020,))), 4),
        lambda: wr.add_factor(wr.empty_state(), 1 << 40),
    ):
        with pytest.raises(wr.CoordinateBudgetError, match="past coordinate 1023"):
            route()
    assert wr.add_factor(wr.empty_state(), 0, wr.BlockSpec((1023,))).used_coordinates == 1023


def test_max_coordinates_fits_int64(tmp_path):
    # Walsh indices are int64: coordinate 63 is index 2^62, which exports
    # and reloads; a block on coordinate 64 builds and certifies, whatever
    # budget an older manifest recorded, but its spectrum and its export
    # are refused, and no file is written
    state = wr.add_factor(wr.empty_state(), 0, wr.BlockSpec((63,)))
    wr.export_measure(state, tmp_path / "measure.csv")
    assert wr.load_spectrum_csv(tmp_path / "measure.csv").indices.tolist() == [0, 1 << 62]
    for manifest in (
        {"stages": [{"level": 0, "block": [64], "amplitude": 0.5 / C}]},
        {"max_coordinates": 64, "stages": [{"level": 0, "block": [64], "amplitude": 0.5 / C}]},
    ):
        state = wr.state_from_manifest(manifest)
        assert state.used_coordinates == 64 and wr.verify_all_partial_sums(state).passed
        for route in (lambda: state.spectrum, lambda: wr.export_measure(state, tmp_path / "far.csv")):
            with pytest.raises(wr.CoordinateBudgetError, match="past coordinate 63: Walsh indices are int64"):
                route()
    assert not (tmp_path / "far.csv").exists()


def test_add_factor_block_size_checked():
    with pytest.raises(ValueError, match="level"):
        wr.add_factor(wr.empty_state(), 1, wr.BlockSpec((1,)))


def test_factor_sup_on_far_block():
    # blocks far to the right must not force a dense transform at the
    # block's absolute coordinate depth
    factor = make_factor(1, wr.BlockSpec((25, 26)))
    a = (0.5 / C) * 2.0 ** (-0.5)
    # phi at level 1 has values +-2 and 0 on its two coordinates
    table = factor._block_table
    assert table.size == 4
    assert float(np.max(np.abs(table))) == pytest.approx(2 * a)
    # the state reads inf X off the same 4-atom table
    state = wr.empty_state()
    tracemalloc.start()
    try:
        state = wr.add_factor(state, 1, wr.BlockSpec((25, 26)))
        inf_value = state.inf_value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 2^26 float64 values would be 512 MiB
    assert inf_value == pytest.approx(1 - 2 * a)
    # X takes the same values on the near block (1, 2), where densifying is cheap
    near = make_factor(1, wr.BlockSpec((1, 2)))
    assert inf_value == wr.product_values([near], near.block).min()


def test_inf_lower_bound_past_cap():
    # the product of the factor minima is the exact, rounded dense minimum
    # at every depth: inf_value never densifies
    state = wr.empty_state()
    state = wr.add_factor(state, 0)
    state = wr.add_factor(state, 0)
    exact = state.inf_value
    state = wr.add_factor(state, 0)
    a = 0.5 / C
    assert state.inf_value == pytest.approx(exact * (1 - a))
    assert state.inf_value == wr.product_values(state.factors, range(1, 4)).min()


def test_build_measure_flagship_shape():
    state = wr.build_measure(
        wr.PsiSpec.logpow(1.0), 3, wr.SummabilityBudget(scale=2.25)
    )
    assert [f.level for f in state.factors] == [0, 0, 10]
    assert state.used_coordinates == 13
    assert len(state.spectrum) == 2 * 2 * 1025
    assert wr.verify_all_partial_sums(state).band_edges == (1, 2, 4, 8192)


def test_build_measure_rejects_negative_stages():
    with pytest.raises(ValueError, match="negative"):
        wr.build_measure(wr.PsiSpec.logpow(1.0), -1)


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
    return wr.RieszProductState(factors=tuple(
        wr.Factor(level=0, block=(i,), amplitude=abs(c),
                  indices=np.array([1 << (i - 1)]), coeffs=np.array([float(c)]))
        for i, c in enumerate(coeffs, start=1)
    ))


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
    # no cap: every head is its exact hull, over every atom, no sample
    state = wr.empty_state()
    for level in (0, 0, 1):
        state = wr.add_factor(state, level)
    cert = wr.verify_all_partial_sums(state, seed=7)
    assert cert.method == "exact"
    assert cert.exhaustive and cert.passed
    assert not hasattr(cert, "sampling")
    assert cert == wr.verify_all_partial_sums(state, seed=8)  # the seed is unused


def test_kernel_fails_within_rounding():
    # minima far inside the old float allowance 5 2^-52 ||Pi_2||_A = 2.2e-15
    # are decided by their exact sign: 1 - (1 - 2^-51) - 2^-60 = 511 2^-60
    # passes, and the control 1 - (1 - 2^-51) - (2^-51 + 2^-60) = -2^-60 fails
    state = hand_built_state([1 - 2**-51, 2**-60])
    cert = wr.verify_all_partial_sums(state)
    assert cert.method == "exact"
    assert cert.global_min == 511 * 2.0**-60  # reported exactly
    assert 0.0 < cert.stage_margins[1] < 5 * 2.0**-52 * state.norm_a
    assert cert.passed
    control = wr.verify_all_partial_sums(hand_built_state([1 - 2**-51, 2**-51 + 2**-60]))
    assert control.global_min == -(2.0**-60)
    assert control.stage_margins[1] < 0.0 and not control.passed


CERTIFIED_STATES = {
    "one-factor": lambda: wr.add_factor(wr.empty_state(), 0),
    "gap-block": lambda: wr.add_factor(wr.empty_state(), 0, wr.BlockSpec((3,))),
    "flagship-d13": lambda: wr.build_measure(
        wr.PsiSpec.logpow(1.0), 3, wr.SummabilityBudget(scale=2.25)
    ),
    "power-3": lambda: wr.build_measure(wr.PsiSpec.power(1.0), 3, wr.SummabilityBudget()),
    "d16": lambda: wr.build_measure(wr.PsiSpec.logpow(1.0), 4, wr.SummabilityBudget(scale=6)),
    "negative-prefix": lambda: hand_built_state([0.5 / C, 0.9]),
    # S_4 = Pi_2 sits at an edge and dips below every order of band 1
    "edge-order": lambda: hand_built_state([0.5, 2.0, 0.1]),
    # two coefficient magnitudes, of both signs, on a gapped block
    "two-magnitudes": lambda: wr.RieszProductState((
        make_factor(0, wr.BlockSpec((1,))),
        wr.Factor(1, (3, 5), 0.3, np.array([16, 20]), np.array([0.3, -0.1])),
    )),
    # the band's minimum is S_6, index 6's own order: the head's empty
    # prefix S_0 = 0 counts, below its smallest nonempty one
    "index-order": lambda: wr.RieszProductState((
        wr.Factor(0, (1,), 0.3, np.array([1]), np.array([0.3])),
        wr.Factor(1, (2, 3), 0.7, np.array([2, 4, 6]), np.array([-0.7, -0.7, 0.05])),
    )),
    # factors with no terms, first and last: their bands read Pi_j alone
    "empty-factors": lambda: wr.RieszProductState((
        wr.Factor(0, (1,), 0.0, np.array([], dtype=np.int64), np.array([])),
        make_factor(0, wr.BlockSpec((2,))),
        wr.Factor(0, (3,), 0.0, np.array([], dtype=np.int64), np.array([])),
    )),
}

# hand-built states whose partial sums do go negative
NEGATIVE_STATES = ("negative-prefix", "edge-order", "index-order")


@pytest.mark.parametrize("name", list(CERTIFIED_STATES))
def test_kernel_certificate_matches_scan_oracle(name):
    # the streaming scan on every atom is the oracle; it sums in float64,
    # so the exact figures agree with it to the allowance (K + 3) eps ||Pi||_A
    state = CERTIFIED_STATES[name]()
    cert = wr.verify_all_partial_sums(state)
    assert cert.exhaustive and cert.method == "exact"
    gmin, margins = scan_oracle(state, cert.band_edges)
    tol = allowance(state)
    assert cert.passed == (name not in NEGATIVE_STATES)
    assert abs(cert.global_min - gmin) <= tol
    assert len(cert.stage_margins) == len(margins) == state.stages
    for got, want in zip(cert.stage_margins, margins):
        assert abs(got - want) <= tol
    if cert.depth <= 8:
        # every partial sum on every atom, bands taken from their definition
        signs = np.array([wr.walsh_signs(n, cert.depth) for n in range(1 << cert.depth)])
        partial = np.cumsum(spectrum_series(state)[:, None] * signs, axis=0)
        assert abs(cert.global_min - partial.min()) <= tol
        edges = cert.band_edges
        for j, got in enumerate(cert.stage_margins):
            last = edges[j + 1] if j == state.stages - 1 else edges[j + 1] - 1
            ref = 0.25 * wr.product_values(state.factors[:j], range(1, cert.depth + 1))
            assert abs(got - (partial[edges[j] - 1 : last] - ref).min()) <= tol


MAGNITUDES = (0.05, 0.2, 0.45, 0.7)


def allowance(state):
    """(K + 3) 2^-52 ||Pi_K||_A: how far a float64 oracle's minima may lie
    from the exact ones."""
    return (state.used_coordinates + 3) * 2.0**-52 * state.norm_a


@st.composite
def hand_built_states(draw, magnitudes=MAGNITUDES):
    """1-3 factors on blocks with gaps, within 9 coordinates: each takes
    some nonzero indices of its block, with coefficients of both signs
    and up to four of the magnitudes."""
    factors, top = [], 0
    for _ in range(draw(st.integers(1, 3))):
        room = list(range(top + 1, min(top + 5, 10)))
        if not room:
            break
        block = sorted(draw(st.lists(st.sampled_from(room), min_size=1, max_size=3, unique=True)))
        patterns = draw(st.lists(st.integers(1, (1 << len(block)) - 1), min_size=1, unique=True))
        indices = np.array(sorted(sum(1 << (c - 1) for i, c in enumerate(block) if p >> i & 1)
                                  for p in patterns))
        coeffs = np.array([draw(st.sampled_from(magnitudes)) * draw(st.sampled_from((1, -1)))
                           for _ in patterns])
        amplitude = float(np.abs(coeffs).max())
        factors.append(wr.Factor(len(block) - 1, tuple(block), amplitude, indices, coeffs))
        top = block[-1]
    return wr.RieszProductState(tuple(factors))


@given(hand_built_states((0.0, *MAGNITUDES)))
@settings(max_examples=60, deadline=None)
def test_certificate_matches_scan_oracle_on_hand_built_states(state):
    # exact against the scan oracle within the allowance; zero magnitudes
    # give +-0.0 coefficients, so signed zeros are covered
    cert = wr.verify_all_partial_sums(state)
    assert cert.method == "exact"
    gmin, margins = scan_oracle(state, cert.band_edges)
    tol = allowance(state)
    assert abs(cert.global_min - gmin) <= tol
    assert all(abs(got - want) <= tol for got, want in zip(cert.stage_margins, margins))


def assert_heads_match_reference(state):
    # every head's hull H_j against the points (Pi_j, S_m) of the
    # reference recipe's dense tables: each vertex is one of them, and
    # both hulls have the same support in 64 directions
    edges = (1, *(1 << f.block[-1] for f in state.factors))
    for j, (hull, shift, _, _) in enumerate(riesz._bands(state, edges)):
        head = wr.RieszProductState(state.factors[:j])
        pi, lo, hi = reference_head_tables(head)
        points = np.concatenate([np.stack([pi, lo], 1), np.stack([pi, hi], 1)])
        vertices = np.array([(x / (1 << shift), y / (1 << shift)) for x, y in hull])
        tol = allowance(head)
        gaps = np.abs(vertices[:, None, :] - points[None, :, :]).max(axis=2).min(axis=1)
        assert gaps.max() <= tol
        angles = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        directions = np.stack([np.cos(angles), np.sin(angles)])
        assert np.abs((vertices @ directions).max(0) - (points @ directions).max(0)).max() <= 2 * tol


@pytest.mark.parametrize("name", list(CERTIFIED_STATES))
def test_head_tables_match_reference_recipe(name):
    assert_heads_match_reference(CERTIFIED_STATES[name]())


@given(hand_built_states((0.0, *MAGNITUDES)))
@settings(max_examples=60, deadline=None)
def test_head_tables_match_reference_recipe_on_hand_built_states(state):
    # zero magnitudes give +-0.0 coefficients, so signed zeros are covered
    assert_heads_match_reference(state)


def test_state_series_refuses_a_block_below_the_head():
    # the band recursion needs each block above the previous top
    # coordinate, as add_factor keeps it; a state built directly is
    # refused when built, before the certificate can read it
    with pytest.raises(wr.BlockOverlapError, match=r"block \(1, 3\) uses coordinates <= 2"):
        wr.RieszProductState((
            wr.Factor(0, (2,), 0.3, np.array([2]), np.array([0.3])),
            wr.Factor(1, (1, 3), 0.2, np.array([5]), np.array([0.2])),
        ))


def test_state_refuses_an_index_outside_its_block():
    # index 3 = r_1 r_2 on the block (2,): its bit 0 is coordinate 1
    with pytest.raises(wr.BlockOverlapError, match=r"index 3 sets bits outside its block \(2,\)"):
        wr.RieszProductState((wr.Factor(0, (2,), 0.3, np.array([3]), np.array([0.3])),))


@pytest.mark.parametrize("name", list(CERTIFIED_STATES))
def test_derived_state_matches_dense(name):
    # the state holds only its factors; the infimum derived from their
    # ranges is the dense minimum bit for bit, negative products included
    state = CERTIFIED_STATES[name]()
    assert state.inf_value == wr.product_values(state.factors, range(1, state.used_coordinates + 1)).min()
    assert wr.verify_all_partial_sums(state).support_size == len(state.spectrum)


def test_state_holds_only_factors():
    # the deep-d22 build reads levels off norm_a and inf_value alone, and
    # its certificate and psi sums read the factors: the 523,260-term
    # spectrum is never built
    psi, budget = wr.PsiSpec.power(1.0), wr.SummabilityBudget(scale=6)
    tracemalloc.start()
    try:
        state = wr.build_measure(psi, 6, budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (state.used_coordinates, state.support_size) == (22, 523_260)
    assert wr.verify_all_partial_sums(state).passed and wr.psi_sum_report(state, psi, budget).ok
    assert "spectrum" not in vars(state)


def test_spectrum_limit_refused_before_allocating():
    # 25 one-coordinate factors: 2^25 terms, past SPECTRUM_LIMIT = 2^24
    state = wr.RieszProductState(tuple(make_factor(0, wr.BlockSpec((i,))) for i in range(1, 26)))
    assert state.support_size == 1 << 25 and wr.riesz.SPECTRUM_LIMIT == 1 << 24
    tracemalloc.start()
    try:
        with pytest.raises(wr.CoordinateBudgetError, match="33,554,432 terms"):
            state.spectrum
        # the psi sums read one magnitude per stage
        report = wr.psi_sum_report(state, wr.PsiSpec.power(1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the spectrum would take 512 MiB
    assert report.ok and len(report.stage_exact) == 25
    # the certificate needs only the factors
    cert = wr.verify_all_partial_sums(state)
    assert cert.method == "exact" and cert.support_size == 1 << 25
    assert "spectrum" not in vars(state)
    # two factors with 2^13 distinct magnitudes each: stage 2 would pair
    # 2^13 + 1 magnitudes of Pi_1 with 2^13, past SPECTRUM_LIMIT products
    many = wr.RieszProductState(tuple(
        wr.Factor(13, block, 0.1, np.arange(1, 8193) << block[0] - 1, 2.0**-20 * np.arange(1, 8193))
        for block in (tuple(range(1, 15)), tuple(range(15, 29)))))
    tracemalloc.start()
    try:
        with pytest.raises(wr.CoordinateBudgetError, match="stage 2 pairs 8,193 magnitudes with 8,192"):
            wr.psi_sum_report(many, wr.PsiSpec.power(1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the products would take 512 MiB


def power_build(stages, scale=6.0):
    return wr.build_measure(wr.PsiSpec.power(1.0), stages, wr.SummabilityBudget(scale))


SOUNDNESS_STATES = {
    **CERTIFIED_STATES,
    "power-d12-cap-20": lambda: power_build(5),
    "power-d14-cap-20": lambda: power_build(4, scale=1.0),
    "power-d18": lambda: power_build(6, scale=12.0),
}


@pytest.mark.parametrize("name", list(SOUNDNESS_STATES))
def test_per_factor_bounds_below_kernel_minima(name):
    # the figures the hull recursion reads off the factors equal the dense
    # spectrum's exhaustive minimum within the float64 allowance, and the
    # verdicts are the construction's: only the negative hand-built states fail
    state = SOUNDNESS_STATES[name]()
    cert = wr.verify_all_partial_sums(state)
    assert cert.method == "exact" and cert.exhaustive
    assert len(cert.stage_margins) == state.stages
    dense_min = min(1.0, float(prefix_extrema(spectrum_series(state))[2].min()))
    assert abs(cert.global_min - dense_min) <= allowance(state)
    assert cert.passed == (name not in NEGATIVE_STATES)
    assert cert.passed == (cert.global_min >= 0.0 and min(cert.stage_margins) >= 0.0)


def test_per_factor_bound_at_depth_22():
    # the deep ladder rung against the densified spectrum's exhaustive
    # minimum, 0.28909...
    state = power_build(6)
    cert = wr.verify_all_partial_sums(state)
    assert cert.method == "exact" and cert.exhaustive and cert.passed
    exhaustive_min = float(prefix_extrema(spectrum_series(state))[2].min())
    assert exhaustive_min == pytest.approx(0.28909103575544, abs=1e-13)
    assert abs(cert.global_min - exhaustive_min) <= allowance(state)
    assert min(cert.stage_margins) > 0.0


def test_exact_minimum_at_depth_42():
    # seven factors, 42 coordinates, 2^42 atoms: every block's data come
    # from its pair law, so no block merge runs and the peak (about 30 kB
    # measured) is the head hulls'.  A dense certificate over a
    # 22-coordinate head read 0.22996329448583824, the interval head 0.22726
    state = power_build(7)
    assert state.used_coordinates == 42
    tracemalloc.start()
    try:
        with mock.patch.object(riesz, "_segment_merge", side_effect=AssertionError("a merge ran")):
            start = time.perf_counter()
            cert = wr.verify_all_partial_sums(state)
            elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.method == "exact" and cert.exhaustive and cert.passed
    assert abs(cert.global_min - 0.22996329448583824) <= allowance(state)
    assert peak < 1 << 20 and elapsed < 1.0
    assert "spectrum" not in vars(state)


@pytest.mark.parametrize(("psi", "scale", "stages", "depth", "minimum"), [
    (wr.PsiSpec.power(1.0), 6.0, 9, 227, 0.15567932559277675),
    (wr.PsiSpec.power(1.0), 6.0, 10, 624, 0.1266185324802301),
    (wr.PsiSpec.power(2.0), 6.0, 14, 836, 0.045319850776156106),
    (wr.PsiSpec.logpow(1.0), 1.0, 3, 216, 0.47855339059327373),
], ids=["power1-d227", "power1-d624", "power2-d836", "logpow1-d216"])
def test_deep_builds_certify_past_level_20(psi, scale, stages, depth, minimum):
    # factors up to level 396, read off their pair laws: the build and its
    # positivity, psi and singularity certificates took 4-48 ms each on 2
    # shared Xeon cores (the test allows 1 s for all four); any float64
    # overflow warning fails the test
    budget = wr.SummabilityBudget(scale)
    start = time.perf_counter()
    state = wr.build_measure(psi, stages, budget)
    cert = wr.verify_all_partial_sums(state)
    report = wr.psi_sum_report(state, psi, budget)
    hellinger = wr.singularity_report(state).hellinger
    elapsed = time.perf_counter() - start
    assert state.used_coordinates == depth and state.factors[-1].level > 20
    assert cert.passed and cert.global_min == minimum
    assert report.ok and math.isfinite(report.bound_total)
    assert all(b < a for a, b in zip(hellinger, hellinger[1:]))
    assert elapsed < 1.0


def test_depth_1023_state_certifies():
    # the deepest state a block may reach: ||Pi||_A <= 2^(1023/2), and
    # every count 2^n is a finite float64
    state = wr.add_factor(power_build(10), 398)
    assert state.used_coordinates == 1023 and math.isfinite(state.norm_a**2)
    assert wr.verify_all_partial_sums(state).passed
    assert wr.psi_sum_report(state, wr.PsiSpec.power(1.0)).ok
    hellinger = wr.singularity_report(state).hellinger
    assert all(b < a for a, b in zip(hellinger, hellinger[1:]))


def test_factor_past_int64_block_tables_is_refused():
    # 1.0 and 2^-61 are 2^61 and 1 in their unit 2^-61: the block tables'
    # sums would reach 2^61, so the factor is refused before its 2^20-atom
    # tables are allocated
    for block in ((1, 2), tuple(range(1, 21))):
        state = wr.RieszProductState(
            (wr.Factor(len(block) - 1, block, 1.0, np.array([1, 2]), np.array([1.0, 2.0**-61])),))
        tracemalloc.start()
        try:
            with pytest.raises(wr.CoordinateBudgetError, match="62-bit integer.*61 bits"):
                wr.verify_all_partial_sums(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    # 2^-60 fits, and the exact minimum 1 - 1 - 2^-60 is negative
    fits = wr.RieszProductState(
        (wr.Factor(1, (1, 2), 1.0, np.array([1, 2]), np.array([1.0, 2.0**-60])),))
    cert = wr.verify_all_partial_sums(fits)
    assert cert.global_min == -(2.0**-60) and not cert.passed


@pytest.mark.parametrize("psi, stages, scale", [(wr.PsiSpec.power(1.0), 6, 12.0),
                                               (wr.PsiSpec.logpow(2.0), 4, 1.0)],
                         ids=["power-d18", "logpow-d21"])
def test_exact_minimum_matches_dense_spectrum(psi, stages, scale):
    # the ladder's depth-18 and depth-21 rungs against their densified
    # spectra's exhaustive minima
    state = wr.build_measure(psi, stages, wr.SummabilityBudget(scale))
    cert = wr.verify_all_partial_sums(state)
    assert cert.method == "exact" and cert.passed
    dense_min = float(prefix_extrema(spectrum_series(state))[2].min())
    assert abs(cert.global_min - dense_min) <= allowance(state)


def test_depth_chooses_the_method():
    # depth chooses nothing: the minima are exact at every depth, and
    # gaps between the blocks change no figure
    cert = wr.verify_all_partial_sums(power_build(6, scale=12.0))
    assert (cert.method, cert.depth, cert.passed) == ("exact", 18, True)
    assert cert.global_min == pytest.approx(0.2724510729806966, abs=1e-12)
    # the last head ends at coordinate 30; the last block is coordinate 63
    far = wr.RieszProductState(tuple(make_factor(0, wr.BlockSpec((i,))) for i in (1, 30, 63)))
    near = wr.RieszProductState(tuple(make_factor(0, wr.BlockSpec((i,))) for i in (1, 2, 3)))
    cert, dense = wr.verify_all_partial_sums(far), wr.verify_all_partial_sums(near)
    assert (cert.method, cert.depth, cert.passed) == ("exact", 63, True)
    assert (cert.global_min, cert.stage_margins) == (dense.global_min, dense.stage_margins)
    assert "spectrum" not in vars(far)


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


def test_psi_stage_bound_reads_a_hand_built_factors_largest_coefficient():
    # a hand-built factor whose one coefficient, 0.3, exceeds its stated
    # amplitude, 0.1: PM of the stage is 0.3, so the bound is
    # 0.3^2 * eps_bar(0.3) = 0.3^3, not 0.3^2 * 0.1
    factor = wr.Factor(0, (1,), 0.1, np.array([1]), np.array([0.3]))
    report = wr.psi_sum_report(wr.RieszProductState((factor,)), wr.PsiSpec.power(1.0))
    assert report.ok
    assert report.stage_bounds[0] == pytest.approx(0.027, rel=1e-15)
    assert report.stage_exact[0] <= report.stage_bounds[0] * (1 + 1e-12)


def test_psi_verdict_checks_the_budget_at_every_stage():
    # levels 0, 0, 1, 2 of the cubic gauge against budget terms 0.01 2^-k:
    # each stage's sum is within its bound, but ||Pi_(k-1)||_A^2
    # eps_bar(a_k), 0.146 to 0.192, is far above its budget term, 0.005
    # down to 0.000625, so condition (6) fails at every stage
    psi, budget = wr.PsiSpec.power(1.0), wr.SummabilityBudget(scale=0.01)
    state = wr.empty_state()
    for level in (0, 0, 1, 2):
        state = wr.add_factor(state, level)
    assert wr.psi_sum_report(state, psi).ok
    report = wr.psi_sum_report(state, psi, budget)
    assert not report.ok
    assert report.budget_terms == (0.005, 0.0025, 0.00125, 0.000625)
    assert report.exact_total <= report.bound_total
    # the state the level rule builds at that budget meets (6) by construction
    built = wr.build_measure(psi, 4, budget)
    assert wr.psi_sum_report(built, psi, budget).ok


def reference_stage_sums(state, psi):
    """The per-term psi sums the magnitude histograms replaced: one psi
    call per term of Pi_k, built in generation order, added exactly and
    rounded once by math.fsum."""
    generated, sums = np.ones(1), []
    for factor in state.factors:
        terms = np.multiply.outer(generated, factor.coeffs).ravel()
        sums.append(math.fsum(psi.psi(abs(c)) for c in terms.tolist()))
        generated = np.concatenate([generated, terms])
    return sums


def several_magnitudes_state():
    """Two hand-built factors, each with coefficients of both signs and
    several magnitudes; stage 2 has more terms than one 2^16 chunk."""
    rng = np.random.default_rng(8)
    factors = []
    for level, block in ((10, tuple(range(1, 12))), (6, tuple(range(12, 19)))):
        shape = make_factor(level, wr.BlockSpec(block))
        coeffs = rng.choice([0.05, -0.05, 0.2, -0.2, 0.45], size=shape.indices.size)
        factors.append(wr.Factor(level, block, 0.45, shape.indices, coeffs))
    return wr.RieszProductState(tuple(factors))


def ladder_build(psi, stages, scale):
    return wr.build_measure(psi, stages, wr.SummabilityBudget(scale)), psi


def table_psi_build():
    """d16 with a tabulated x^2.5, stage 1's one magnitude between samples."""
    state, _ = ladder_build(wr.PsiSpec.logpow(1.0), 4, 6.0)
    xs = np.geomspace(1e-6, 2.0, 64)
    return state, table_psi(xs, xs**2.5)


PSI_SUM_CASES = {
    "d13": lambda: ladder_build(wr.PsiSpec.logpow(1.0), 3, 2.25),
    "d16": lambda: ladder_build(wr.PsiSpec.logpow(1.0), 4, 6.0),
    "d21": lambda: ladder_build(wr.PsiSpec.logpow(2.0), 4, 1.0),
    "d22": lambda: ladder_build(wr.PsiSpec.power(1.0), 6, 6.0),
    "several-magnitudes": lambda: (several_magnitudes_state(), wr.PsiSpec.logpow(1.0)),
    "table-psi-d16": table_psi_build,
    # factors with no terms read 0.0
    "empty-factors": lambda: (CERTIFIED_STATES["empty-factors"](), wr.PsiSpec.power(1.0)),
}


@pytest.mark.parametrize("name", list(PSI_SUM_CASES))
def test_psi_stage_sums_equal_per_term_sums_bit_for_bit(name):
    state, psi = PSI_SUM_CASES[name]()
    report = wr.psi_sum_report(state, psi)
    want = reference_stage_sums(state, psi)
    assert [x.hex() for x in report.stage_exact] == [x.hex() for x in want]


# exact_total read an ulp apart across Python versions while the totals
# were builtin sums: 0x1.2afc1682a189ap-6 and 0x1.69dfa3d14cfa2p-7 before 3.12
PSI_TOTAL_PINS = {"d13": "0x1.2afc1682a189bp-6", "d22": "0x1.69dfa3d14cfa1p-7"}


@pytest.mark.parametrize("name", list(PSI_SUM_CASES))
def test_psi_totals_are_exact_sums_of_the_stage_figures(name):
    state, psi = PSI_SUM_CASES[name]()
    report = wr.psi_sum_report(state, psi)
    assert report.exact_total.hex() == math.fsum(report.stage_exact).hex()
    assert report.bound_total.hex() == math.fsum(report.stage_bounds).hex()
    if name in PSI_TOTAL_PINS:
        assert report.exact_total.hex() == PSI_TOTAL_PINS[name]


@given(hand_built_states())
@settings(max_examples=40, deadline=None)
def test_psi_stage_sums_equal_per_term_sums_on_hand_built_states(state):
    psi = wr.PsiSpec.power(1.0)
    want = reference_stage_sums(state, psi)
    assert [x.hex() for x in wr.psi_sum_report(state, psi).stage_exact] == [x.hex() for x in want]


def test_psi_sums_at_depth_42():
    # 274,339,462,140 terms, summed from at most a few hundred distinct
    # magnitudes per stage; the first six stages are d22's
    psi = wr.PsiSpec.power(1.0)
    state = power_build(7)
    assert (state.used_coordinates, state.support_size) == (42, 274_339_462_140)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = wr.psi_sum_report(state, psi, wr.SummabilityBudget(6.0))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and len(report.stage_exact) == 7
    d22 = wr.psi_sum_report(power_build(6), psi).stage_exact
    assert [x.hex() for x in report.stage_exact[:6]] == [x.hex() for x in d22]
    assert elapsed < 1.0 and peak < 1 << 20
    assert "spectrum" not in vars(state)


def test_factor_norms_are_read_once():
    # d42's last factor has 2^19 coefficients: a read that recomputed the
    # norms would allocate a temporary as large (4 MiB)
    factor = power_build(7).factors[-1]
    assert factor.terms == 1 << 19
    first = (factor.norm_a, factor.norm_2)
    tracemalloc.start()
    try:
        second = (factor.norm_a, factor.norm_2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert second == first and peak < 1 << 16


def test_psi_sums_and_export_leave_numpy_ma_unimported(tmp_path):
    # np.unique on floats imports numpy.ma, about 1.3 MB of RSS: the d13
    # build, certificate, psi sums and export group values without it
    code = (
        "import sys\n"
        "import walshriesz as wr\n"
        "psi, budget = wr.PsiSpec.logpow(1.0), wr.SummabilityBudget(2.25)\n"
        "state = wr.build_measure(psi, 3, budget)\n"
        "assert wr.verify_all_partial_sums(state).passed\n"
        "assert wr.psi_sum_report(state, psi, budget).ok\n"
        f"wr.export_measure(state, {str(tmp_path / 'measure.csv')!r})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(wr.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def test_export_roundtrip(tmp_path):
    built = wr.build_measure(wr.PsiSpec.power(1.0), 2, wr.SummabilityBudget())
    # rows are written in chunks: the second spectrum spans several
    size = (1 << 16) + 3
    wide = wr.Spectrum(3 * np.arange(size), np.random.default_rng(5).normal(size=size))
    wr.export_measure(built, tmp_path / "measure.csv")
    _write_coeff_rows(tmp_path / "wide.csv", "n", wide.indices, wide.coeffs)
    for name, written in (("measure.csv", built.spectrum), ("wide.csv", wide)):
        spectrum = wr.load_spectrum_csv(tmp_path / name)
        assert np.array_equal(spectrum.indices, written.indices)
        assert np.array_equal(spectrum.coeffs, written.coeffs)
    assert not list(tmp_path.glob("*.tmp.*"))  # the atomic write left no temp file


def test_export_to_a_fifo_writes_through_it(tmp_path):
    # a target that is not a regular file is written in place: the FIFO
    # stays one, and its reader gets the bytes of the export to a file
    state = wr.build_measure(wr.PsiSpec.logpow(1.0), 3, wr.SummabilityBudget(2.25))
    wr.export_measure(state, tmp_path / "measure.csv")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    os.link(fifo, tmp_path / "same-fifo")  # a name a rename over `fifo` leaves
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        wr.export_measure(state, fifo)
    finally:
        reader.join(timeout=10)
        if reader.is_alive():  # no writer opened the FIFO: let its reader go
            os.close(os.open(tmp_path / "same-fifo", os.O_WRONLY))
            reader.join(timeout=10)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert received == [(tmp_path / "measure.csv").read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "measure.csv", "same-fifo"]


def reference_write_spectrum(path, index_name, spectrum):
    """The csv.writer export the line writer replaced, one repr per term."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([index_name, "coeff"])
        writer.writerows(zip(spectrum.indices.tolist(), map(repr, spectrum.coeffs.tolist())))


SPECIAL_COEFFS = np.array([0.0, -0.0, 5e-324, -1e-310, 1e16, -1e16, 1e-5, 0.1, -0.1, 1.0])


def repeated_spectrum(size):
    # every chunk of 2^16 rows meets the same few values again
    coeffs = np.random.default_rng(size).choice(SPECIAL_COEFFS, size=size)
    return wr.Spectrum(np.arange(size) * 5 + 1, coeffs)


# indices at the edges of their decimal digit count, 1 to 19 digits
INDEX_EDGES = sorted(
    {0, 9, 10, 1 << 62, (1 << 63) - 1} | {10**k + d for k in range(1, 19) for d in (-1, 0, 1)}
)
EDGE_COEFFS = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e22, float(2**53 + 1), 2.0**53 + 2,
               math.inf, -math.inf, math.nan]


def digit_edges():
    # one chunk whose index digit count changes from 1 to 19 partway through
    coeffs = np.random.default_rng(3).choice(SPECIAL_COEFFS, size=len(INDEX_EDGES))
    return wr.Spectrum(INDEX_EDGES, coeffs)


def hit_then_miss():
    # three chunks: the second's coefficients are all among the first's,
    # and the last brings a value (1.0) neither of them holds
    size = 3 * walsh._ROW_CHUNK
    coeffs = np.random.default_rng(size).choice(SPECIAL_COEFFS[:-1], size=size)
    coeffs[-5] = SPECIAL_COEFFS[-1]
    return wr.Spectrum(np.arange(size) * 3 + 2, coeffs)


def digit_groups():
    # one chunk whose indices cross 10^4, 10^8, 10^12 and 10^16 partway
    indices = np.concatenate([np.arange(p - 300, p + 300) for p in (10**4, 10**8, 10**12, 10**16)])
    return wr.Spectrum(indices, np.random.default_rng(4).normal(size=indices.size))


WRITER_CASES = {
    "special": lambda: wr.Spectrum(np.arange(SPECIAL_COEFFS.size) ** 2, SPECIAL_COEFFS),
    "normal": lambda: wr.Spectrum(np.arange(5000) * 3, np.random.default_rng(2).normal(size=5000)),
    "repeated-2^14-1": lambda: repeated_spectrum((1 << 14) - 1),
    "repeated-2^14": lambda: repeated_spectrum(1 << 14),
    "repeated-2^14+3": lambda: repeated_spectrum((1 << 14) + 3),
    "digit-edges": digit_edges,
    "repeated-2^16-1": lambda: repeated_spectrum((1 << 16) - 1),
    "repeated-2^16": lambda: repeated_spectrum(1 << 16),
    "repeated-2^16+3": lambda: repeated_spectrum((1 << 16) + 3),
    "hit-then-miss": hit_then_miss,
    "digit-groups": digit_groups,
    # every chunk's coefficients are new
    "distinct-3-chunks+5": lambda: wr.Spectrum(
        np.arange(3 * (1 << 14) + 5) * 7, np.random.default_rng(6).normal(size=3 * (1 << 14) + 5)),
    "one-term": lambda: wr.Spectrum([0], [-0.0]),
    "no-terms": lambda: wr.Spectrum(np.zeros(0, dtype=np.int64), np.zeros(0)),
}


@pytest.mark.parametrize("name", list(WRITER_CASES))
def test_spectrum_writer_matches_csv_writer_bytes(tmp_path, name):
    spectrum = WRITER_CASES[name]()
    _write_coeff_rows(tmp_path / "lines.csv", "frequency", spectrum.indices, spectrum.coeffs)
    reference_write_spectrum(tmp_path / "reference.csv", "frequency", spectrum)
    assert (tmp_path / "lines.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@st.composite
def edge_spectra(draw):
    indices = draw(st.lists(st.sampled_from(INDEX_EDGES) | st.integers(0, (1 << 63) - 1),
                            max_size=40, unique=True))
    coeffs = draw(st.lists(st.sampled_from(EDGE_COEFFS) | st.floats(),
                           min_size=len(indices), max_size=len(indices)))
    return wr.Spectrum(sorted(indices), coeffs)


@given(edge_spectra())
@settings(max_examples=200, deadline=None)
def test_spectrum_writer_matches_csv_writer_bytes_at_the_edges(tmp_path_factory, spectrum):
    # non-finite coefficients are written as repr writes them
    folder = tmp_path_factory.mktemp("writer")
    _write_coeff_rows(folder / "lines.csv", "n", spectrum.indices, spectrum.coeffs)
    reference_write_spectrum(folder / "reference.csv", "n", spectrum)
    assert (folder / "lines.csv").read_bytes() == (folder / "reference.csv").read_bytes()


def test_spectrum_writer_failing_part_way_leaves_no_file(tmp_path, monkeypatch):
    original = walsh._coeff_row_bytes
    chunks = []

    def failing(indices, inverse, texts):
        # the first chunk is written, then the second one fails
        chunks.append(indices.size)
        if len(chunks) > 1:
            raise OSError("conversion failed")
        return original(indices, inverse, texts)

    monkeypatch.setattr(walsh, "_coeff_row_bytes", failing)
    spectrum = repeated_spectrum(3 * walsh._ROW_CHUNK)
    with pytest.raises(OSError, match="conversion failed"):
        _write_coeff_rows(tmp_path / "measure.csv", "n", spectrum.indices, spectrum.coeffs)
    assert chunks == [walsh._ROW_CHUNK, walsh._ROW_CHUNK]
    assert list(tmp_path.iterdir()) == []


def hand_factor(block, indices, coeffs):
    return riesz.Factor(len(block) - 1, tuple(block), 1.0, np.array(indices, np.int64),
                        np.array(coeffs, np.float64))


def coordinate_indices(coords, masks):
    # the Walsh index whose bits are the chosen coordinates of each mask
    return sorted(sum(1 << (c - 1) for b, c in enumerate(coords) if m >> b & 1) for m in masks)


FACTOR_COEFFS = [0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1 / 3, -1e-300, 5e-324, 1e16, 2.0**53 + 2]


@st.composite
def product_states(draw):
    # two to four factors on increasing blocks ending by coordinate 63 (19
    # digits), coefficients from a few values so that terms share them;
    # the last factor has no more terms than the head, which is then
    # written once per distinct coefficient and digit counts, and copied
    tops = sorted(draw(st.lists(st.integers(2, 63), min_size=2, max_size=4, unique=True)))
    factors, lo, head = [], 1, 1
    for k, top in enumerate(tops):
        coords = sorted(draw(st.lists(st.integers(lo, top), min_size=1, max_size=4, unique=True)))
        terms = min((1 << len(coords)) - 1, 6 if k < len(tops) - 1 else head)
        masks = draw(st.lists(st.integers(1, (1 << len(coords)) - 1), min_size=1, max_size=terms,
                              unique=True))
        coeffs = draw(st.lists(st.sampled_from(FACTOR_COEFFS) | st.floats(-1e30, 1e30),
                               min_size=len(masks), max_size=len(masks)))
        factors.append(hand_factor(coords, coordinate_indices(coords, masks), coeffs))
        lo, head = top + 1, head * (1 + len(masks))
    return wr.RieszProductState(tuple(factors))


@given(product_states())
# the last copy's indices cross 100 partway: 64 + 35 = 99, 64 + 36 = 100
@example(wr.RieszProductState((hand_factor(range(1, 7), [1, 35, 36, 63], [1.0, -0.0, 0.1, 0.1]),
                               hand_factor([7], [64], [-0.5]))))
# a one-row head, Pi_0, and one factor of one term
@example(wr.RieszProductState((hand_factor([63], [1 << 62], [-0.0]),)))
# the head's 12 rows copied for 3 terms with 3 distinct coefficients: the
# first copy crosses 10^18 = f + R partway (2^47 < R < 2^48), the others
# are 19 digits long
@example(wr.RieszProductState((
    hand_factor([1, 2, 48, 49], [1, 2, 1 << 47, 1 << 48, (1 << 48) + 3], [0.5, -0.5, 0.5, 1.0, 0.25]),
    hand_factor([50], [1 << 49], [1e16]),
    hand_factor([54, 55, 56, 57, 59, 60, 63], [10**18 - 10**18 % (1 << 51), 1 << 62,
                                               (1 << 62) + 10**18 - 10**18 % (1 << 51)],
                [2.0, -2.0, 1 / 3]))))
@example(wr.empty_state())
@settings(max_examples=150, deadline=None)
def test_factorised_export_matches_csv_writer_bytes(tmp_path_factory, state):
    folder = tmp_path_factory.mktemp("export")
    wr.export_measure(state, folder / "measure.csv")
    reference_write_spectrum(folder / "reference.csv", "n", state.spectrum)
    assert (folder / "measure.csv").read_bytes() == (folder / "reference.csv").read_bytes()


@st.composite
def outer_inner_parts(draw):
    # indices f_i + p_j with p_j < 2^b <= the gaps of the f_i, as the
    # product's stages have them; few distinct c_i, so templates are copied
    bits = draw(st.integers(1, 40))
    inner = sorted(draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=30, unique=True)))
    steps = draw(st.lists(st.integers(1, 1 << 10), min_size=1, max_size=30))
    base = draw(st.integers(0, (1 << (62 - bits)) - 1 - sum(steps)))
    outer = np.cumsum([base, *steps[1:]]) << bits
    values = [draw(st.sampled_from(FACTOR_COEFFS) | st.floats()) for _ in range(3)]
    coeffs = draw(st.lists(st.sampled_from(values), min_size=outer.size, max_size=outer.size))
    inner_coeffs = draw(st.lists(st.sampled_from(EDGE_COEFFS) | st.floats(), min_size=len(inner),
                                 max_size=len(inner)))
    return (outer, np.array(coeffs)), wr.Spectrum(inner, inner_coeffs)


def repeated_outer(first, count, coeffs=(0.5,)):
    # `count` outer terms 8 apart from `first`, their coefficients cycling
    # through `coeffs`, times an 8-row inner part: a term whose c_i and
    # digit counts an earlier term had is copied
    return (first + 8 * np.arange(count), np.resize(coeffs, count)), wr.Spectrum(
        np.arange(8), np.linspace(-1, 1, 8))


@given(outer_inner_parts(), st.sampled_from([1, 3, 1 << 14]), st.sampled_from([7, 64, 1 << 18]))
# copies whose first row has 6, 7, 8 or 9 digits: with writes of 7 bytes
# each copy is a batch of its own, whose first index is stored into the
# headroom before it (a 6- or 7-digit store also takes the line end)
@example(repeated_outer(10**5, 6), 1 << 14, 7)
@example(repeated_outer(10**6, 6), 1 << 14, 7)
@example(repeated_outer(10**7, 6), 1 << 14, 7)
@example(repeated_outer(10**8, 6), 1 << 14, 7)
# the first outer term's rows cross 10^6 or 10^8 partway, and the terms
# after it are copied
@example(repeated_outer(10**6 - 4, 6), 1 << 14, 1 << 18)
@example(repeated_outer(10**8 - 4, 6), 1 << 14, 1 << 18)
# batches that mix templates: rows of 7 and 17 digits (three stores)
# with texts of different lengths
@example(repeated_outer(10**6, 12, (1.0, -0.5, 1 / 3)), 1 << 14, 1 << 18)
@example(repeated_outer(10**16, 12, (1.0, -0.5)), 1 << 14, 1 << 18)
@settings(max_examples=150, deadline=None)
def test_outer_times_inner_rows_match_csv_writer_bytes(tmp_path_factory, parts, rows, size):
    # also with inner chunks of 1 or 3 rows and writes of 7 or 64 bytes
    # non-finite and overflowing products are written as repr writes them
    (f, c), inner = parts
    folder = tmp_path_factory.mktemp("parts")
    with np.errstate(over="ignore", invalid="ignore"):
        product = wr.Spectrum(np.add.outer(f, inner.indices).ravel(),
                              np.multiply.outer(c, inner.coeffs).ravel())
        with mock.patch.object(walsh, "_ROW_CHUNK", rows), mock.patch.object(walsh, "_WRITE_BYTES", size):
            _write_coeff_rows(folder / "lines.csv", "n", inner.indices, inner.coeffs, (f, c))
    reference_write_spectrum(folder / "reference.csv", "n", product)
    assert (folder / "lines.csv").read_bytes() == (folder / "reference.csv").read_bytes()


def test_copied_rows_of_seven_bytes_keep_their_digits(tmp_path):
    # every row is `k,1.0` CR LF, 7 bytes: the copies of the first outer
    # term's rows take their one digit without touching their neighbours'
    _write_coeff_rows(tmp_path / "lines.csv", "n", np.arange(3), np.ones(3),
                      (np.arange(0, 12, 3), np.ones(4)))
    assert (tmp_path / "lines.csv").read_bytes() == b"n,coeff\r\n" + b"".join(
        b"%d,1.0\r\n" % k for k in range(12))


LADDER_PINS = {
    # the benchmark workloads' builds and their measure CSVs' sha256
    "desk-d13": ((wr.PsiSpec.logpow(1.0), 3, 2.25),
                 "29494ef4b1dd1c200155d80a87a806bb3e3bac09e1c452cb21fce1652616ed54"),
    "exhaustive-d16": ((wr.PsiSpec.logpow(1.0), 4, 6.0),
                       "8ad7cfb729fbd1a082904718ec389370c9a430a206e4bcc07f91ff6244623129"),
    "deep-d22": ((wr.PsiSpec.power(1.0), 6, 6.0),
                 "b874df9bced9caca124e9d6562c8c4ba8a51e996fbbf3a1d1c48a6c110b930de"),
}


@pytest.mark.parametrize("name", list(LADDER_PINS))
def test_measure_export_matches_pin(tmp_path, name):
    (psi, stages, scale), digest = LADDER_PINS[name]
    state = wr.build_measure(psi, stages, wr.SummabilityBudget(scale))
    path = tmp_path / "measure.csv"
    wr.export_measure(state, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_export_of_the_d22_measure_stays_under_2_mib(tmp_path):
    # each chunk's arrays stay below 1 MB (see walsh._ROW_CHUNK), so the
    # export's peak is a few of them, not the 8.4 MB spectrum's size
    state = power_build(6)
    assert state.spectrum.indices.size == 523_260  # built before tracing
    tracemalloc.start()
    try:
        wr.export_measure(state, tmp_path / "measure.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_export_of_the_d22_measure_leaves_its_spectrum_unbuilt(tmp_path):
    # Pi_5 has 1,020 terms and X_6 512: the export copies the head's rows
    state = power_build(6)
    wr.export_measure(state, tmp_path / "measure.csv")
    assert "spectrum" not in vars(state)
    assert hashlib.sha256((tmp_path / "measure.csv").read_bytes()).hexdigest() == LADDER_PINS["deep-d22"][1]


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
    assert list(manifest) == ["flatness_constant", "stages"]
    # manifests of the older format also recorded two caps; they rebuild
    older = {"flatness_constant": C, "exhaustive_cap": 21, "max_coordinates": 64,
             "stages": manifest["stages"]}
    for rebuilt in (wr.state_from_manifest(manifest), wr.state_from_manifest(older)):
        assert np.array_equal(rebuilt.spectrum.indices, state.spectrum.indices)
        assert np.array_equal(rebuilt.spectrum.coeffs, state.spectrum.coeffs)
        assert rebuilt.norm_a == state.norm_a


def test_manifest_refuses_a_hand_built_factor():
    # a stage is rebuilt from its level and block: the hand-built -a_0 r_1
    # would come back as the construction factor +a_0 r_1
    a0 = riesz._amplitude(0)
    built = wr.add_factor(wr.empty_state(), 0)
    state = wr.RieszProductState(built.factors + (wr.Factor(0, (2,), a0, np.array([2]), np.array([-a0])),))
    with pytest.raises(ValueError, match="stage 2: a hand-built factor has no manifest entry"):
        wr.state_manifest(state)


def test_hand_built_factor_takes_lists():
    # indices and coefficients as lists become int64 and float64 arrays,
    # as the layout check and every certificate read them
    factor = wr.Factor(0, (1,), 0.1, [1], [0.3])
    assert (factor.indices.dtype, factor.coeffs.dtype) == (np.int64, np.float64)
    state = wr.RieszProductState((factor,))
    assert state.spectrum.indices.tolist() == [0, 1] and state.spectrum.coeffs.tolist() == [1.0, 0.3]
    assert wr.verify_all_partial_sums(state).global_min == 0.7
    with pytest.raises(wr.BlockOverlapError, match="index 2 sets bits outside its block"):
        wr.RieszProductState((wr.Factor(0, (1,), 0.1, [2], [0.3]),))


def test_state_series_matches_pointwise_product():
    state = wr.build_measure(wr.PsiSpec.power(1.0), 3, wr.SummabilityBudget())
    series = wr.WalshSeries(state.used_coordinates, spectrum_series(state))
    from_spectrum = wr.inverse_fwht(series).values
    pointwise = wr.product_values(state.factors, range(1, state.used_coordinates + 1))
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


def coord_patterns(coords):
    """The atom patterns of the atoms of the increasing `coords`, in the
    evaluator's order: atom t sets coordinate coords[i] when bit i of t
    is set."""
    atoms, out = atom_patterns(len(coords)), np.zeros(1 << len(coords), np.uint64)
    for i, c in enumerate(coords):
        out |= ((atoms >> np.uint64(i)) & np.uint64(1)) << np.uint64(c - 1)
    return out


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
    # every atom of coordinates 1..depth, or of the far block's own
    coords = range(1, depth + 1) if depth <= 16 else factor.block
    new = wr.factor_values(factor, coords)
    assert np.max(np.abs(new - sign_vector_values(factor, coord_patterns(coords)))) <= tol
    patterns = sampled_patterns(depth)
    new = gather_product([factor], patterns)
    assert np.max(np.abs(new - oracle_product([factor], patterns))) <= evaluator_tol([factor])


def test_construction_factor_values_are_exact_multiples():
    # phi's block transform only ever adds powers-of-two multiples of the
    # amplitude, so the table is amplitude * (integer values of phi)
    factor = FACTOR_CASES["flagship-level-10"]
    phi_values = wr.butterfly(flat_series(wr.build_flat(10)).coeffs)
    assert np.array_equal(factor._block_table, factor.amplitude * phi_values)


# ---------------------------------------------------------------------------
# construction factors from their pair law, against the array routes
# ---------------------------------------------------------------------------

def law_and_arrays(level):
    """A construction factor (on a gapped block at odd levels) and its
    hand-built copy, which reads every figure off its arrays."""
    step = 1 + level % 2
    factor = make_factor(level, wr.BlockSpec(tuple(range(step, step * (level + 2), step))))
    return factor, wr.Factor(level, factor.block, factor.amplitude, factor.indices, factor.coeffs)


@pytest.mark.parametrize("level", range(21))
def test_law_block_data_equals_the_merge(level):
    factor, arrays = law_and_arrays(level)
    assert factor.construction and not arrays.construction
    assert riesz._block_data(factor) == riesz._block_data(arrays)
    assert factor.top_index == arrays.top_index == int(factor.indices.max())


@pytest.mark.parametrize("level", range(17))
def test_law_figures_equal_the_array_routes_bit_for_bit(level):
    factor, arrays = law_and_arrays(level)
    assert [v.hex() for v in factor.value_range] == [v.hex() for v in arrays.value_range]
    for law, table in ((factor.value_histogram, arrays.value_histogram),
                       (factor.magnitudes, arrays.magnitudes)):
        assert law[0].tobytes() == table[0].tobytes() and law[1].tolist() == table[1].tolist()
        assert law[1].dtype == object  # Python-int counts, past 2^63 too
    assert (factor.norm_a, factor.norm_2) == (arrays.norm_a, arrays.norm_2)
    state, copy = wr.RieszProductState((factor,)), wr.RieszProductState((arrays,))
    assert state.support_size == copy.support_size == 1 + factor.indices.size == 1 + (1 << level)


def test_norm_a_is_exact():
    # np.sum of 2^l copies of a rounds below a 2^l from level 7 on
    for level in range(21):
        factor = make_factor(level, wr.BlockSpec(tuple(range(1, level + 2))))
        assert factor.norm_a == math.ldexp(factor.amplitude, level)
    level_10 = make_factor(10, wr.BlockSpec(tuple(range(1, 12))))
    assert level_10.norm_a == 4.68629150101524
    assert float(np.sum(np.abs(level_10.coeffs))) == 4.686291501015239
    # a hand-built factor sums |c| exactly and rounds once
    tenths = wr.Factor(1, (1, 2), 0.3, np.arange(1, 4), np.array([0.1, 0.2, -0.3]))
    assert tenths.norm_a == 0.6 and float(np.sum(np.abs(tenths.coeffs))) == 0.6000000000000001
    coeffs = np.random.default_rng(5).normal(size=1 << 10)
    drawn = wr.Factor(10, tuple(range(1, 12)), 1.0, np.arange(1 << 10, 2 << 10), coeffs)
    assert drawn.norm_a == float(sum(Fraction(abs(c)) for c in coeffs.tolist()))


FACTOR_ARRAYS = {"indices", "coeffs", "_block_table"}


@pytest.mark.parametrize("build", [
    lambda: wr.build_measure(wr.PsiSpec.logpow(1.0), 3, wr.SummabilityBudget(2.25)),
    lambda: wr.build_measure(wr.PsiSpec.power(1.0), 7, wr.SummabilityBudget(6.0)),
], ids=["d13", "d42"])
def test_certificates_build_no_factor_arrays(build):
    # the build, the rebuild from a manifest, singularity, psi sums and
    # positivity read construction factors off their level alone
    built = build()
    state = wr.state_from_manifest(wr.state_manifest(built))
    psi = wr.PsiSpec.power(1.0)
    wr.singularity_report(state)
    wr.psi_sum_report(state, psi)
    wr.verify_all_partial_sums(state)
    for factor in built.factors + state.factors:
        assert factor.construction and not FACTOR_ARRAYS & set(vars(factor))
    assert "spectrum" not in vars(state)


def test_overlapping_pair_product_matches_oracle():
    pair = [make_factor(1, wr.BlockSpec((1, 2))), make_factor(1, wr.BlockSpec((2, 3)))]
    tol = evaluator_tol(pair)
    assert np.max(np.abs(wr.product_values(pair, range(1, 4)) - oracle_product(pair, atom_patterns(3)))) <= tol
    patterns = sampled_patterns(3, count=5)
    assert np.max(np.abs(gather_product(pair, patterns) - oracle_product(pair, patterns))) <= tol


def gather_factor(factor, patterns):
    """X on the given atom patterns, its block table read by the block's
    bits of the pattern."""
    return factor._block_table[_block_bits(patterns, factor.block)]


def d16_state():
    return wr.build_measure(wr.PsiSpec.logpow(1.0), 4, wr.SummabilityBudget(scale=6))


EVALUATOR_CASES = {
    "d13": lambda: (flagship_state().factors, range(1, 14)),
    "d16": lambda: (d16_state().factors, range(1, 17)),
    "gap-block": lambda: ([hand_built_factor(), make_factor(0, wr.BlockSpec((7,)))], range(1, 8)),
    # explicit coordinates far apart, coordinate 9 in no block
    "far-block": lambda: ([make_factor(1, wr.BlockSpec((25, 26))), make_factor(0, wr.BlockSpec((1,)))],
                          (1, 9, 25, 26)),
    "shared-shared": lambda: ([flagship_state().factors[2]] * 2, range(1, 14)),
}


def flagship_state():
    return wr.build_measure(wr.PsiSpec.logpow(1.0), 3, wr.SummabilityBudget(scale=2.25))


@pytest.mark.parametrize("case", sorted(EVALUATOR_CASES))
def test_broadcast_evaluator_is_the_gather_bit_for_bit(case):
    # each 1 + X_i broadcast along the atoms' runs meets the same
    # multiplies in the same factor order as the gather
    factors, coords = EVALUATOR_CASES[case]()
    patterns = coord_patterns(coords)
    assert wr.product_values(factors, coords).tobytes() == gather_product(factors, patterns).tobytes()
    for f in factors:
        assert wr.factor_values(f, coords).tobytes() == gather_factor(f, patterns).tobytes()


def hand_built_factors(blocks, seed):
    """Hand-built factors on the given increasing blocks, normal
    coefficients on each construction factor's indices."""
    rng = np.random.default_rng(seed)
    factors = []
    for block in blocks:
        shape = make_factor(len(block) - 1, wr.BlockSpec(tuple(block)))
        factors.append(wr.Factor(len(block) - 1, tuple(block), 1.0, shape.indices,
                                 rng.normal(size=shape.indices.size)))
    return factors


@given(st.lists(st.sets(st.integers(1, 12), min_size=1, max_size=5).map(sorted), min_size=1, max_size=3),
       st.sets(st.integers(1, 12), max_size=4), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_broadcast_evaluator_on_any_blocks(blocks, extra, seed):
    # hand-built factors on any increasing blocks, overlapping or not, on
    # the atoms of their coordinates and of up to four others
    factors = hand_built_factors(blocks, seed)
    coords = sorted(extra.union(*blocks))
    patterns = coord_patterns(coords)
    assert wr.product_values(factors, coords).tobytes() == gather_product(factors, patterns).tobytes()
    for f in factors:
        assert wr.factor_values(f, coords).tobytes() == gather_factor(f, patterns).tobytes()


def test_block_tables_are_built_once_and_read_only():
    factor = make_factor(3, wr.BlockSpec((1, 2, 3, 4)))
    assert factor._block_table is factor._block_table
    with pytest.raises(ValueError):
        factor._block_table[0] = 0.0
    values = wr.factor_values(factor, factor.block)  # a fresh array, though the view is the table
    values[0] = 1.0
    assert factor._block_table[0] != 1.0
    # a block that is not increasing, coordinates that are not, and a
    # block outside the coordinates
    for block, coords in (((3, 2), (2, 3)), ((1, 2, 3, 4), (4, 3, 2, 1)), ((1, 2, 3, 4), (1, 2, 3))):
        with pytest.raises(ValueError, match=rf"block \({block[0]}, .* is not an increasing part of the increasing"):
            wr.product_values([wr.Factor(1, block, 1.0, factor.indices[:0], factor.coeffs[:0])], coords)


@pytest.mark.parametrize(("level", "block"), [
    (0, (5,)), (3, (2, 4, 5, 9)), (10, tuple(range(3, 14))), (1, (64, 100)),
], ids=["level0", "gapped", "level10", "past-63"])
def test_construction_block_table_from_its_window(level, block):
    # the butterfly of the coefficients at the window [2^l, 2^(l+1)) of
    # the block's own indices, built with no int64 index, so past
    # coordinate 63 too: bit for bit the table remapped through the
    # indices, on the block itself or, past 63, on coordinates 1..l+1
    factor = make_factor(level, wr.BlockSpec(block))
    table = factor._block_table
    assert "indices" not in vars(factor) and not table.flags.writeable
    oracle = make_factor(level, wr.BlockSpec(block if block[-1] <= 63 else range(1, level + 2)))
    remapped = butterfly(riesz._block_coeffs(oracle, oracle.coeffs))
    assert np.array_equal(table.view(np.int64), remapped.view(np.int64))


def report_hex(report):
    """Every float of a report, as hex, its other fields as they are."""
    def walk(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {k: walk(v) for k, v in value.items()}
        if isinstance(value, (tuple, list)):
            return [walk(v) for v in value]
        return value
    return walk(dataclasses.asdict(report))


@pytest.mark.parametrize("build", ["d13", "d16", "shared-shared"])
def test_dense_diagnostics_equal_those_of_the_gather(build, monkeypatch):
    # orthogonality, field for field by hex, from the broadcast evaluator
    # and from the gather it replaced, on each group's atoms (singularity
    # reads histograms, and is held to the dense route by
    # test_singularity_from_histograms_is_the_dense_route)
    factors = {"d13": lambda: flagship_state().factors, "d16": lambda: d16_state().factors,
               "shared-shared": lambda: [flagship_state().factors[0]] * 2}[build]()
    reports = []
    for gather in (False, True):
        if gather:
            monkeypatch.setattr(wr.martingale, "product_values",
                                lambda fs, coords: gather_product(fs, coord_patterns(coords)))
            monkeypatch.setattr(wr.martingale, "factor_values",
                                lambda f, coords: gather_factor(f, coord_patterns(coords)))
        reports.append(report_hex(wr.verify_product_orthogonality(factors)))
    assert reports[0] == reports[1]


def dense_orthogonality(factors, tol=1e-10):
    """(report, scale): the orthogonality report by the all-atoms route
    the groups replaced, every factor and the whole product on the
    2^depth atoms of coordinates 1..depth, and the scale
    max_i sum |W| (1 + Y_i^2), which bounds every field's sum of terms."""
    coords = range(1, max(f.block[-1] for f in factors) + 1)
    weights = wr.product_values(factors, coords) / (1 << len(coords))
    ys = [wr.factor_values(f, coords) / f.norm_2 - f.norm_2 for f in factors]
    means = [float(np.einsum("i,i", weights, y)) for y in ys]
    seconds = [float(np.einsum("i,i", weights, y * y)) for y in ys]
    crosses = [float(np.einsum("i,i", weights, y * z)) for y, z in itertools.combinations(ys, 2)]
    max_mean, max_cross = max(map(abs, means)), max(map(abs, crosses))
    ok = max_mean <= tol and max_cross <= tol and max(seconds) <= 4.0 + tol
    scale = max(float(np.sum(np.abs(weights) * (1.0 + y * y))) for y in ys)
    return wr.OrthogonalityReport(ok, max_mean, max_cross, max(seconds)), scale


def dense_strong_orthogonality(factors, alpha, tol=1e-10):
    """The strong-orthogonality verdict by the all-atoms route: the mean
    of prod X_k^alpha_k on the atoms of coordinates 1..depth."""
    active = [(f, a) for f, a in zip(factors, alpha) if a > 0]
    coords = range(1, max(f.block[-1] for f, _ in active) + 1)
    prod = np.ones(1 << len(coords))
    for f, a in active:
        prod *= wr.factor_values(f, coords) ** a
    return bool(abs(float(prod.mean())) <= tol)


def admissible_monomials(count):
    """Every admissible multi-index on `count` factors: entries 0, 1 or 2,
    at least one 1, at most two 2s."""
    return [alpha for alpha in itertools.product((0, 1, 2), repeat=count)
            if 1 in alpha and alpha.count(2) <= 2]


def assert_groups_match_the_dense_route(factors):
    """Both orthogonality checks by groups against the all-atoms route:
    the same verdicts, and every report field within 1e-12 of the terms'
    scale (at least 1) of the dense figure.  The dense sums round each of
    2^depth terms; their residuals, which the groups' sums of at most
    2^|block| terms replace, reach 2.5e-14 at d22, forty times below."""
    report = wr.verify_product_orthogonality(factors)
    oracle, scale = dense_orthogonality(factors)
    assert report.ok == oracle.ok
    for field in ("max_mean_residual", "max_cross_residual", "max_second_moment"):
        assert abs(getattr(report, field) - getattr(oracle, field)) <= 1e-12 * scale, field
    alphas = admissible_monomials(len(factors)) if len(factors) <= 4 else [
        [1] * len(factors), [2, 1] + [0] * (len(factors) - 2), [0] * (len(factors) - 1) + [1]]
    for alpha in alphas:
        assert verify_strong_orthogonality(factors, alpha) == dense_strong_orthogonality(factors, alpha)
    return report


ORTHOGONALITY_CASES = {
    "d13": lambda: flagship_state().factors,
    "d16": lambda: d16_state().factors,
    "d22": lambda: wr.build_measure(wr.PsiSpec.power(1.0), 6, wr.SummabilityBudget(6.0)).factors,
    "shared-shared": lambda: [flagship_state().factors[0]] * 2,
    "gap-block": lambda: [hand_built_factor(), make_factor(0, wr.BlockSpec((7,)))],
}


@pytest.mark.parametrize("case", sorted(ORTHOGONALITY_CASES))
def test_orthogonality_by_groups_is_the_dense_route(case):
    factors = list(ORTHOGONALITY_CASES[case]())
    report = assert_groups_match_the_dense_route(factors)
    # disjoint blocks pass, and the shared pair is caught
    assert report.ok == (case != "shared-shared")
    if not report.ok:
        assert report.max_cross_residual > 1e-3


@given(st.lists(st.sets(st.integers(1, 10), min_size=1, max_size=4).map(sorted), min_size=2, max_size=4),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_orthogonality_by_groups_on_any_blocks(blocks, seed):
    # hand-built factors on any increasing blocks, overlapping or not, so
    # groups of one factor and groups joined through shared coordinates
    assert_groups_match_the_dense_route(hand_built_factors(blocks, seed))


def dense_singularity(factors):
    """The singularity figures from the atom space, as `singularity_report`
    computed them before it read value histograms: each stage's Pi_k on
    its 2^depth atoms, float64 means, and one sort and cumsum of the
    masses for the concentration curve.  Also each curve's exact figure,
    from Pi_k's distinct values (np.unique of the dense table) in
    rationals."""
    hellinger, direct = [1.0], [1.0]
    concentration, exact = [{d: d for d in CONCENTRATION_FRACTIONS}], [{d: d for d in CONCENTRATION_FRACTIONS}]
    for k, factor in enumerate(factors, start=1):
        depth = factor.block[-1]
        hellinger.append(hellinger[-1] * float(np.sqrt(1.0 + wr.factor_values(factor, range(1, depth + 1))).mean()))
        vals = wr.product_values(factors[:k], range(1, depth + 1))
        direct.append(float(np.sqrt(vals).mean()))
        order = np.sort(vals / vals.size)[::-1]
        cum = np.cumsum(order)
        distinct, counts = np.unique(vals, return_counts=True)
        groups = [(Fraction(v), c) for v, c in zip(distinct[::-1].tolist(), counts[::-1].tolist())]
        total = sum(v * c for v, c in groups)
        curve, rational = {}, {}
        for delta in CONCENTRATION_FRACTIONS:
            target = delta * cum[-1]
            i = int(np.searchsorted(cum, target))
            prev = cum[i - 1] if i > 0 else 0.0
            curve[delta] = float((float(i) if target <= prev else i + (target - prev) / order[i]) / vals.size)
            target, mass, atoms = Fraction(delta) * total, Fraction(0), 0
            for v, c in groups:
                if target <= mass + v * c:
                    rational[delta] = float((atoms + (target - mass) / v if target > mass else atoms) / vals.size)
                    break
                mass, atoms = mass + v * c, atoms + c
        concentration.append(curve)
        exact.append(rational)
    return hellinger, direct, concentration, exact


SINGULARITY_STATES = {
    **CERTIFIED_STATES,
    **{f"ladder-{name}": (lambda psi, stages, scale: lambda: wr.build_measure(
        psi, stages, wr.SummabilityBudget(scale)))(*build) for name, (build, _) in LADDER_PINS.items()},
}


@pytest.mark.parametrize("name", list(SINGULARITY_STATES))
def test_singularity_from_histograms_is_the_dense_route(name):
    # every figure of the histogram route against the dense route:
    # Hellinger figures within 4 ulps, concentration within 1e-11
    # relative; edge-order and index-order, signed products, are refused.
    # The dense route's float64 cumsum of 2^22 masses (deep-d22) is itself
    # 1.4e-11 off the exact figure, so each curve is also held to its
    # exact figure, within 1e-13 relative: the histogram route rounds a
    # cumsum of a few dozen groups and one product, amplified by at most
    # the total mass over the crossing group's (6 ulps at negative-prefix's
    # 0.99)
    state = SINGULARITY_STATES[name]()
    if any(low < 0.0 for low, _ in riesz._product_ranges(state.factors)):
        with pytest.raises(ValueError, match="takes the negative value"):
            wr.singularity_report(state)
        return
    report = wr.singularity_report(state)
    hellinger, direct, concentration, exact = dense_singularity(state.factors)
    for got, want in ((report.hellinger, hellinger), (report.hellinger_direct, direct)):
        assert len(got) == len(want) == state.stages + 1
        assert all(abs(a - b) <= 4 * math.ulp(b) for a, b in zip(got, want)), (got, want)
    assert len(report.concentration) == state.stages + 1
    for got, want, rational in zip(report.concentration, concentration, exact):
        assert list(got) == list(CONCENTRATION_FRACTIONS)
        for delta, value in got.items():
            assert abs(value - rational[delta]) <= 1e-13 * rational[delta]
            if state.used_coordinates <= 16:
                assert abs(value - want[delta]) <= 1e-11 * want[delta]


def staged_states():
    yield "flagship", wr.build_measure(
        wr.PsiSpec.logpow(1.0), 3, wr.SummabilityBudget(scale=2.25)
    )
    state = wr.empty_state()
    for level in (1, 1, 2, 1):  # several wide stages: insertion order != sorted order
        state = wr.add_factor(state, level)
    yield "wide-stages", state
    yield "gap-block", wr.add_factor(wr.empty_state(), 0, wr.BlockSpec((3,)))
    # unequal coefficient magnitudes: a sequential float sum of the psi
    # values would round differently in sorted and in insertion order
    rng = np.random.default_rng(45)
    factors = []
    for level, block in zip((1,) * 5, ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10))):
        shape = make_factor(level, wr.BlockSpec(block))
        coeffs = rng.uniform(0.05, 0.2, size=shape.indices.size)
        factors.append(wr.Factor(level, shape.block, 1.0, shape.indices, coeffs))
    yield "hand-built", wr.RieszProductState(factors=tuple(factors))


@pytest.mark.parametrize("state", [pytest.param(s, id=name) for name, s in staged_states()])
def test_array_spectrum_matches_dict_merge(state):
    psi = wr.PsiSpec.power(1.0)
    spectrum, oracle_exact = {0: 1.0}, []
    for factor in state.factors:
        spectrum, new_terms = dict_merge(spectrum, factor)
        oracle_exact.append(math.fsum(psi.psi(abs(c)) for c in new_terms.values()))
    assert len(state.spectrum) == len(spectrum)
    assert state.spectrum.indices.tolist() == sorted(spectrum)
    assert state.spectrum.coeffs.tolist() == [spectrum[n] for n in sorted(spectrum)]
    # psi sums are exact sums rounded once: bit-identical to fsum
    assert [x.hex() for x in wr.psi_sum_report(state, psi).stage_exact] == [x.hex() for x in oracle_exact]


def test_spectrum_rejects_unsorted_indices():
    assert len(wr.Spectrum([0, 2, 5], [1.0, 0.5, 0.25])) == 3
    with pytest.raises(wr.InvariantViolation):
        wr.Spectrum([0, 2, 2], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        wr.Spectrum([0, 1], [1.0])


def test_spectrum_rejects_negative_indices():
    # Walsh indices and cosine frequencies are never negative, and the CSV
    # writer formats indices as unsigned decimal digits
    assert len(wr.Spectrum(np.zeros(0, dtype=np.int64), np.zeros(0))) == 0
    for indices in ([-1], [-3, 0, 2], [-(1 << 63), 5]):
        with pytest.raises(wr.InvariantViolation, match="negative"):
            wr.Spectrum(indices, np.ones(len(indices)))


@given(
    block=st.one_of(st.sets(st.integers(1, 63), max_size=16).map(sorted),
                    st.lists(st.integers(1, 63), max_size=8)),
    values=st.lists(st.integers(0, (1 << 63) - 1), min_size=1, max_size=20),
)
@example(block=list(range(40, 64)), values=[1 << 62, (1 << 62) - 1, (1 << 63) - 1, 0])
@example(block=[63], values=[1 << 62, (1 << 62) - 1])
@example(block=[], values=[5])
@settings(max_examples=200, deadline=None)
def test_block_bits_is_the_per_coordinate_definition(block, values):
    # one shift and one mask per run of consecutive coordinates: runs
    # broken by gaps, single coordinates, coordinate 63 (the sign-free top
    # bit of an int64 index), a construction block's one long run and,
    # for the overlap control's sake, blocks out of order or repeating a
    # coordinate
    want = [sum(((v >> (c - 1)) & 1) << i for i, c in enumerate(block)) for v in values]
    for dtype in (np.int64, np.uint64):  # factor indices, atom patterns
        got = _block_bits(np.array(values, dtype), tuple(block))
        assert got.dtype == dtype and got.tolist() == want
