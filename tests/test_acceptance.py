"""Acceptance suite: one test per criterion, each prints a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import math
import time

import numpy as np

import walshriesz as wr
from walshriesz import cli
from walshriesz.walsh import butterfly

C = wr.FLATNESS_CONSTANT


def _announce(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


# ---------------------------------------------------------------------------
# 1. Rudin-Shapiro identities, exact integers, level <= 12
# ---------------------------------------------------------------------------

def test_criterion_01_rs_identities():
    start = time.perf_counter()
    for level in range(13):
        pair = wr.build_pair(level)
        pv = butterfly(pair.p)
        qv = butterfly(pair.q)
        assert np.all(pv * pv + qv * qv == np.int64(2) ** (level + 1))
        u = wr.u_norm(pair.p)
        assert u <= 2 ** (level / 2) * (2 + math.sqrt(2))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(1, f"pair identities and prefix sups, levels 0..12, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. reindexing identity, exhaustively at depth 6
# ---------------------------------------------------------------------------

def test_criterion_02_lemma_exhaustive():
    start = time.perf_counter()
    rng = np.random.default_rng(20_251_031)
    worst = 0.0
    for _ in range(100):
        series = wr.WalshSeries.from_coeffs(rng.uniform(-1, 1, 64))
        for m in range(64):
            for k in range(7):
                witness = wr.verify_lemma(series, m, k, tol=1e-12)
                worst = max(worst, witness.max_error)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(2, f"100 series x 64 multipliers x 7 levels, max error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. positivity <=> maximal-function inequality
# ---------------------------------------------------------------------------

def test_criterion_03_positivity_equivalence(flagship_build, power_build):
    rng = np.random.default_rng(7_040_123)
    checked = 0
    positives = 0
    # check_positivity_equivalence raises on any disagreement
    for _ in range(1000):
        series = wr.WalshSeries.from_coeffs(rng.uniform(-1, 1, 32))
        report = wr.check_positivity_equivalence(series)
        positives += report.all_prefixes_nonneg
        checked += 1
    # positive measures with nontrivial prefixes: random nonnegative atom
    # masses synthesized into series (dyadic sums are nonnegative, full
    # prefix positivity may still fail, and both predicates must agree)
    for _ in range(100):
        series = wr.fwht(wr.AtomTable(5, rng.uniform(0.0, 2.0, 32)))
        report = wr.check_positivity_equivalence(series)
        positives += report.all_prefixes_nonneg
        checked += 1
    for series in flagship_build.stage_series() + power_build.stage_series():
        report = wr.check_positivity_equivalence(series)
        assert report.all_prefixes_nonneg and report.inequality_holds
        checked += 1
    assert positives > 0
    _announce(3, f"{checked} instances, zero disagreements ({positives} nonrandom-sign positives)")


# ---------------------------------------------------------------------------
# 4. shifted prefix bound <= 2 M_kj
# ---------------------------------------------------------------------------

def test_criterion_04_shifted_bound(flagship_build, power_build):
    """Every multiplier is swept exhaustively while 2^kj <= 64; above that
    a fixed sample of 64 multipliers is used.  For k >= kj the checked
    prefix is the whole reindexed block, whose pointwise modulus does not
    depend on the multiplier at all, so the sample only thins repeats of
    an identical inequality while still exercising the reindexing path.
    """
    rng = np.random.default_rng(404)
    checked = 0
    for record in (power_build, flagship_build):
        for series in record.stage_series():
            for kj in range(series.depth):
                space = 1 << kj
                if space <= 64:
                    ms = range(space)
                else:
                    extras = rng.integers(0, space, size=62)
                    ms = sorted({0, space - 1, *map(int, extras)})
                for m in ms:
                    for k in range(kj, series.depth + 1):
                        assert wr.check_shifted_bound(series, kj, m, k, tol=1e-12)
                        checked += 1
    _announce(4, f"{checked} (kj, m, k) checks, all below twice the martingale")


# ---------------------------------------------------------------------------
# 5. end-to-end build with the log-slow gauge
# ---------------------------------------------------------------------------

def test_criterion_05_end_to_end(flagship_build):
    start = time.perf_counter()
    state = flagship_build.final
    psi = flagship_build.psi
    budget = flagship_build.budget
    assert state.stages == 3
    assert state.used_coordinates <= 14

    cert = wr.verify_all_partial_sums(state)
    assert cert.exhaustive
    assert cert.global_min >= 0.0
    assert all(margin >= 0.0 for margin in cert.stage_margins)

    report = wr.psi_sum_report(state, psi, budget)
    assert report.exact_total <= report.bound_total * (1 + 1e-12)
    assert report.bound_total <= 2.0
    # both admission conditions re-verified with the exact cached values
    previous = [wr.empty_state()] + flagship_build.states[:-1]
    for k, (before, factor) in enumerate(zip(previous, state.factors), start=1):
        assert factor.amplitude * before.norm_a <= 0.25 * before.inf_value
        assert before.inf_value == wr.product_values(before.factors, range(1, before.used_coordinates + 1)).min()
        term = before.norm_a**2 * psi.epsilon_bar(factor.amplitude)
        assert term <= budget.term_bound(k)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _announce(
        5,
        f"3 stages, {state.used_coordinates} coordinates, min {cert.global_min:.4f},"
        f" psi sum {report.exact_total:.3e} <= {report.bound_total:.3e} <= 2,"
        f" {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 6. factor norm table
# ---------------------------------------------------------------------------

def test_criterion_06_norm_table(flagship_build, power_build):
    count = 0
    for record in (flagship_build, power_build):
        for factor in record.final.factors:
            depth = factor.block[-1]
            coeffs = np.zeros(1 << depth)
            coeffs[factor.indices] = factor.coeffs
            bundle = wr.norm_bundle(wr.WalshSeries(depth, coeffs))
            half_c = 0.5 / C
            scale = 2.0 ** (factor.level / 2)
            assert abs(bundle.l2 - half_c) <= 1e-12
            assert abs(bundle.a - half_c * scale) <= 1e-12
            assert abs(bundle.pm - half_c / scale) <= 1e-12
            assert bundle.u < 0.5
            count += 1
    _announce(6, f"{count} factors at the closed-form l2/A/PM values, prefix sups < 1/2")


# ---------------------------------------------------------------------------
# 7. singularity certificate
# ---------------------------------------------------------------------------

def test_criterion_07_singularity(flagship_build):
    report = wr.singularity_report(flagship_build.final, cross_check_tol=1e-9)
    hs = report.hellinger
    assert all(b < a for a, b in zip(hs, hs[1:]))
    gap = max(abs(a - b) for a, b in zip(hs, report.hellinger_direct))
    assert gap <= 1e-9
    conc90 = [row[0.9] for row in report.concentration]
    assert all(b < a for a, b in zip(conc90, conc90[1:]))
    _announce(
        7,
        f"H strictly decreasing to {hs[-1]:.6f} (cross-check gap {gap:.1e}),"
        f" conc90 {conc90[0]:.3f}->{conc90[-1]:.3f}",
    )


# ---------------------------------------------------------------------------
# 8. orthogonality in L^2(mu), with negative control
# ---------------------------------------------------------------------------

def test_criterion_08_orthogonality(flagship_build):
    report = wr.verify_product_orthogonality(flagship_build.final, tol=1e-10)
    assert report.ok
    assert report.max_mean_residual <= 1e-10
    assert report.max_cross_residual <= 1e-10
    assert report.max_second_moment <= 4.0 + 1e-10

    shared = flagship_build.final.factors[0]
    control = wr.verify_product_orthogonality([shared, shared], tol=1e-10)
    assert not control.ok
    assert control.max_cross_residual > 1e-3
    _announce(
        8,
        f"residuals <= {max(report.max_mean_residual, report.max_cross_residual):.1e},"
        f" second moments <= {report.max_second_moment:.3f};"
        f" overlap control detected at {control.max_cross_residual:.3f}",
    )


# ---------------------------------------------------------------------------
# 9. cosine product build
# ---------------------------------------------------------------------------

def test_criterion_09_trig_build():
    start = time.perf_counter()
    assert wr.CTRIG == 2 + math.sqrt(2)
    state, certs = wr.build_trig_measure(
        wr.PsiSpec.logpow(1.0), 2, wr.SummabilityBudget(scale=2.25), oversample=16
    )
    assert len(state.factors) == 2
    assert certs.stage_supports_disjoint
    assert certs.grid_min_partial >= 0.0
    for exact, bound in zip(certs.stage_psi_exact, certs.stage_psi_bounds):
        assert exact <= bound * (1 + 1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _announce(
        9,
        f"2 stages, top frequency {state.max_freq}, grid min"
        f" {certs.grid_min_partial:.4f}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    payloads = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.csv"
        code = cli.main(
            [
                "build-walsh-measure",
                "--psi", "preset:logpow,p=1",
                "--stages", "3",
                "--cap", "14",
                "--seed", "1729",
                "--out", str(out),
                "--manifest", str(tmp_path / f"{tag}.json"),
            ]
        )
        assert code == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    _announce(10, f"two same-seed runs byte-identical ({len(payloads[0])} bytes)")
