"""Cosine products: flat polynomials, the dilated factors, frequency
bookkeeping, and grid certificates."""

import hashlib
import math

import numpy as np
import pytest

import walshriesz as wr
from walshriesz import trig

C = wr.CTRIG


def cos_values(freqs, coeffs, t):
    """sum coeffs[i] cos(freqs[i] t), one term at a time."""
    out = np.zeros_like(t)
    for fr, cf in zip(freqs, coeffs):
        out += cf * np.cos(fr * t)
    return out


def test_flat_length_one():
    poly = wr.build_trig_flat(1)
    assert poly.indices.tolist() == [1] and poly.coeffs.tolist() == [1.0]
    t = np.linspace(0, 2 * math.pi, 101)
    assert np.max(np.abs(cos_values(poly.indices, poly.coeffs, t) - np.cos(t))) < 1e-12


def test_flat_length_four_signs():
    poly = wr.build_trig_flat(4)
    assert poly.indices.tolist() == [1, 2, 3, 4]
    assert poly.coeffs.tolist() == [1.0, 1.0, 1.0, -1.0]


@pytest.mark.parametrize("length", [1, 2, 4, 8, 16, 64, 256])
def test_flat_prefix_sup_ratio(length):
    # construction already asserts the bound; recheck the measured ratio
    poly = wr.build_trig_flat(length)
    t = np.arange(16 * length) * (2 * math.pi / (16 * length))
    acc = np.zeros_like(t)
    peak = 0.0
    for n in range(1, length + 1):
        acc += poly.coeffs[n - 1] * np.cos(n * t)
        peak = max(peak, float(np.max(np.abs(acc))))
    assert peak <= C * math.sqrt(length)


def test_flat_rejects_bad_lengths():
    with pytest.raises(ValueError):
        wr.build_trig_flat(3)
    with pytest.raises(ValueError):
        wr.build_trig_flat(0)
    with pytest.raises(ValueError):
        wr.build_trig_flat(1 << 13)


# ---------------------------------------------------------------------------
# one and two stage builds
# ---------------------------------------------------------------------------

def test_one_stage_minimum():
    psi = wr.PsiSpec.logpow(1.0)
    state, certs = wr.build_trig_measure(psi, 1, wr.SummabilityBudget(scale=2.25))
    (factor,) = state.factors
    # sup bound arithmetic: min >= 1 - a C sqrt(l) = 3/4
    assert certs.grid_min_partial >= 0.75 - 1e-12
    assert factor.amplitude == pytest.approx(1 / (4 * C * math.sqrt(factor.level)))
    assert certs.passed


def test_two_stage_build_certificates():
    psi = wr.PsiSpec.logpow(1.0)
    state, certs = wr.build_trig_measure(psi, 2, wr.SummabilityBudget(scale=2.25))
    assert [f.level for f in state.factors] == [1, 8]
    assert certs.stage_supports_disjoint
    assert certs.grid_min_partial > 0.0
    assert certs.parseval_gap <= 1e-8
    for exact, bound in zip(certs.stage_psi_exact, certs.stage_psi_bounds):
        assert exact <= bound * (1 + 1e-12)
    assert certs.passed
    # lacunarity: the new block sits past 4x the previous top frequency
    assert state.factors[1].level > 4 * 1
    assert state.max_freq == 65


def test_repeated_stage_frequency_is_refused(monkeypatch):
    # level 2 at stage 2 is not lacunary (2 <= 4 * 1): its frequencies 2 - 1
    # and 4 - 1 repeat 1 and 2 + 1, and the stage's term count refuses it
    choose = trig._choose_trig_level

    def unlacunary(spectrum, norm_a, stage, *rest):
        return 2 if stage == 2 else choose(spectrum, norm_a, stage, *rest)

    monkeypatch.setattr(trig, "_choose_trig_level", unlacunary)
    psi, budget = wr.PsiSpec.logpow(1.0), wr.SummabilityBudget(scale=2.25)
    assert wr.build_trig_measure(psi, 1, budget)[1].stage_supports_disjoint
    with pytest.raises(wr.InvariantViolation, match="stage 2 repeats a frequency"):
        wr.build_trig_measure(psi, 2, budget)


def test_level_rule_subtracts_the_bernstein_slack(monkeypatch):
    # stage 2 reads inf Pi_1 as its grid minimum less the slack the
    # one-stage certificate reports on the same 16-point grid
    seen = []
    admissible = trig._admissible

    def spy(amp, norm_a, inf_value, psi, bound):
        seen.append((bound, inf_value))
        return admissible(amp, norm_a, inf_value, psi, bound)

    monkeypatch.setattr(trig, "_admissible", spy)
    psi, budget = wr.PsiSpec.logpow(1.0), wr.SummabilityBudget(scale=2.25)
    _, one = wr.build_trig_measure(psi, 1, budget)
    state, _ = wr.build_trig_measure(psi, 2, budget)
    stage2 = {inf for bound, inf in seen if bound == budget.term_bound(2)}
    assert one.grid_points == 16 and stage2 == {one.grid_min_partial - one.bernstein_slack}
    a = state.factors[0].amplitude
    assert stage2.pop() == pytest.approx(1 - a - (1 + a) * math.pi / 16, rel=1e-14)
    assert [f.level for f in state.factors] == [1, 8]


def test_mean_is_one_and_spectrum_structure():
    psi = wr.PsiSpec.logpow(1.0)
    state, _ = wr.build_trig_measure(psi, 2, wr.SummabilityBudget(scale=2.25))
    # the constant term sits at frequency 0
    assert state.spectrum.indices[0] == 0 and state.spectrum.coeffs[0] == 1.0
    # frequencies combine as h +- f only: stage 2 block 8..64 step 8,
    # sidebands at +-1 around each multiple
    freqs = set(state.spectrum.indices[1:].tolist())
    assert {1} | {8 * n for n in range(1, 9)} <= freqs
    for n in range(1, 9):
        assert 8 * n - 1 in freqs and 8 * n + 1 in freqs
    assert len(freqs) == 1 + 8 * 3
    assert len(state.spectrum) == 1 + len(freqs)


def test_sigma_constant_across_stages():
    psi = wr.PsiSpec.logpow(1.0)
    state, _ = wr.build_trig_measure(psi, 2, wr.SummabilityBudget(scale=2.25))
    sigmas = [f.sigma2 for f in state.factors]
    expected = (1 / (4 * C)) ** 2 / 2
    for s in sigmas:
        assert s == pytest.approx(expected, rel=1e-12)


def test_partial_sums_on_grid_all_nonnegative():
    psi = wr.PsiSpec.logpow(1.0)
    state, certs = wr.build_trig_measure(psi, 2, wr.SummabilityBudget(scale=2.25))
    t = np.arange(certs.grid_points) * (2 * math.pi / certs.grid_points)
    acc = np.ones_like(t)
    worst = float(acc.min())
    for f, coeff in zip(state.spectrum.indices[1:], state.spectrum.coeffs[1:]):
        acc += coeff * np.cos(f * t)
        worst = min(worst, float(acc.min()))
    assert worst == pytest.approx(certs.grid_min_partial)
    assert worst >= 0.0


def test_bernstein_slack_gates_passed():
    # the grid minimum alone would pass both builds; only the default
    # oversampling leaves it above the slack that bounds dips between points
    psi = wr.PsiSpec.logpow(1.0)
    budget = wr.SummabilityBudget(scale=2.25)
    _, fine = wr.build_trig_measure(psi, 2, budget, oversample=16)
    assert fine.grid_min_partial - fine.bernstein_slack >= 0.0
    assert fine.passed
    _, coarse = wr.build_trig_measure(psi, 2, budget, oversample=4)
    assert coarse.grid_min_partial > 0.0
    assert coarse.grid_min_partial - coarse.bernstein_slack < 0.0
    assert not coarse.passed


@pytest.mark.parametrize("psi", [wr.PsiSpec.logpow(1.0), wr.PsiSpec.power(1.0)], ids=["logpow1", "power1"])
@pytest.mark.parametrize("oversample", [16, 4])
def test_certificate_sums_equal_fsum_over_the_exported_spectrum(tmp_path, psi, oversample):
    # every reported sum is exact and rounded once, whatever the term order
    state, certs = wr.build_trig_measure(psi, 2, wr.SummabilityBudget(scale=2.25), oversample)
    wr.trig_export(state, tmp_path / "trig.csv")
    rows = [line.split(",") for line in (tmp_path / "trig.csv").read_text().splitlines()[1:]]
    freqs = np.array([int(f) for f, _ in rows])
    coeffs = np.array([float(c) for _, c in rows])
    assert freqs[0] == 0 and coeffs[0] == 1.0

    def norm2sq(upto):
        return 1.0 + 0.5 * math.fsum(c * c for c in coeffs[1:][freqs[1:] <= upto].tolist())

    slack = freqs[-1] * (1.0 + math.fsum(abs(c) for c in coeffs[1:].tolist())) * math.pi / certs.grid_points
    assert certs.bernstein_slack.hex() == slack.hex()
    # stage k's terms lie past level_k / 4, Pi_(k-1)'s at or below it
    for k, factor in enumerate(state.factors):
        bound = 2.0 * factor.sigma2 * norm2sq(factor.level // 4) * psi.epsilon_bar(factor.amplitude)
        assert certs.stage_psi_bounds[k].hex() == bound.hex()
        upto = state.factors[k + 1].level // 4 if k + 1 < len(state.factors) else freqs[-1]
        new = coeffs[(freqs > factor.level // 4) & (freqs <= upto)]
        assert certs.stage_psi_exact[k].hex() == math.fsum(psi.psi(abs(c)) for c in new.tolist()).hex()
    for _, grid in trig._grid_scan(state.spectrum, certs.grid_points):
        pass
    assert certs.parseval_gap == abs(float((grid * grid).mean()) - norm2sq(freqs[-1]))


@pytest.mark.parametrize(
    "stages, oversample", [(3, 16), (-1, 16), (2, 0)], ids=["stages3", "stages-1", "oversample0"]
)
def test_build_rejects_stages_and_oversample(stages, oversample):
    with pytest.raises(ValueError):
        wr.build_trig_measure(wr.PsiSpec.logpow(1.0), stages, oversample=oversample)


# ---------------------------------------------------------------------------
# strong orthogonality by exact frequency bookkeeping
# ---------------------------------------------------------------------------

def test_strong_orthogonality_integrals_vanish():
    psi = wr.PsiSpec.logpow(1.0)
    state, _ = wr.build_trig_measure(psi, 2, wr.SummabilityBudget(scale=2.25))
    assert wr.strong_orthogonality_integral(state.factors, [1]) == 0.0
    assert wr.strong_orthogonality_integral(state.factors, [1, 2]) == 0.0
    assert wr.strong_orthogonality_integral(state.factors, [2, 1]) == 0.0
    assert wr.strong_orthogonality_integral(state.factors, [1, 1]) == 0.0


def test_strong_orthogonality_quadrature_cross_check():
    psi = wr.PsiSpec.logpow(1.0)
    state, _ = wr.build_trig_measure(psi, 2, wr.SummabilityBudget(scale=2.25))
    x1, x2 = state.factors
    n = 16 * (state.max_freq + x2.level * x2.level)
    t = np.arange(n) * (2 * math.pi / n)

    def vals(f):
        return cos_values(f.freqs, f.coeffs, t)

    quad = float((vals(x1) * vals(x2) ** 2).mean())
    assert abs(quad) < 1e-14


def test_strong_orthogonality_rejects_inadmissible():
    psi = wr.PsiSpec.logpow(1.0)
    state, _ = wr.build_trig_measure(psi, 2, wr.SummabilityBudget(scale=2.25))
    with pytest.raises(ValueError, match="at least one"):
        wr.strong_orthogonality_integral(state.factors, [2, 2])
    with pytest.raises(ValueError, match="0, 1 or 2"):
        wr.strong_orthogonality_integral(state.factors, [1, 5])


def test_cos_product_constant_term_positive_control():
    # X * X has a genuine constant term (sum of squares / 2): the
    # bookkeeping must see cancellation inside a single factor
    psi = wr.PsiSpec.logpow(1.0)
    state, _ = wr.build_trig_measure(psi, 1, wr.SummabilityBudget(scale=2.25))
    from walshriesz.trig import _cos_multiply

    (x,) = state.factors
    spec = wr.Spectrum(x.freqs, x.coeffs)
    square = _cos_multiply(spec, spec)
    expected = 0.5 * float(np.sum(x.coeffs * x.coeffs))
    assert square.indices[0] == 0
    assert square.coeffs[0] == pytest.approx(expected)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_trig_export(tmp_path):
    psi = wr.PsiSpec.logpow(1.0)
    state, _ = wr.build_trig_measure(psi, 2, wr.SummabilityBudget(scale=2.25))
    path = tmp_path / "trig.csv"
    wr.trig_export(state, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "frequency,coeff"
    assert lines[1] == "0,1.0"
    assert len(lines) == 1 + len(state.spectrum)
    freqs = [int(line.split(",")[0]) for line in lines[1:]]
    assert freqs == sorted(freqs)


def test_trig_export_matches_pin(tmp_path):
    # the 2-stage build the benchmark's desk workload exports, byte for byte
    psi = wr.PsiSpec.logpow(1.0)
    state, _ = wr.build_trig_measure(psi, 2, wr.SummabilityBudget(scale=2.25), oversample=16)
    path = tmp_path / "trig.csv"
    wr.trig_export(state, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "c7c88220d947e49a8f74ef8c43145ffb21b028c80e2e76696f00a98a96e79e35"
