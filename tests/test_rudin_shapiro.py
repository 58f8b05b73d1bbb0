"""Rudin-Shapiro pairs, flat polynomials, and block substitution."""

import dataclasses
import math

import numpy as np
import pytest

import walshriesz as wr
from oracles import flat_series, substitute
from walshriesz import rudin_shapiro
from walshriesz.rudin_shapiro import pair_law
from walshriesz.walsh import atom_patterns, butterfly, sign_vector

C = wr.FLATNESS_CONSTANT


def test_level_zero_pair():
    pair = wr.build_pair(0)
    assert np.array_equal(pair.p, [1])
    assert np.array_equal(pair.q, [1])


def test_level_one_pair_pointwise_identity():
    pair = wr.build_pair(1)
    assert np.array_equal(pair.p, [1, 1])
    assert np.array_equal(pair.q, [1, -1])
    pv = butterfly(pair.p)
    qv = butterfly(pair.q)
    assert np.all(pv * pv + qv * qv == 4)


def test_level_two_pair_and_prefix_sup():
    pair = wr.build_pair(2)
    assert np.array_equal(pair.p, [1, 1, 1, -1])
    # prefix-sup oracle over 4 atoms froze this at 3
    assert wr.u_norm(pair.p) == 3
    assert 3 <= 2 * C


def test_concatenation_identity_up_to_12():
    for level in range(12):
        a = wr.build_pair(level)
        b = wr.build_pair(level + 1)
        assert np.array_equal(b.p, np.concatenate([a.p, a.q]))
        assert np.array_equal(b.q, np.concatenate([a.p, -a.q]))


def test_square_sum_identity_exact():
    for level in range(0, 13):
        pair = wr.build_pair(level)
        assert set(np.unique(pair.p)) <= {1, -1}
        assert set(np.unique(pair.q)) <= {1, -1}
        pv = butterfly(pair.p)
        qv = butterfly(pair.q)
        assert np.all(pv * pv + qv * qv == np.int64(2) ** (level + 1))


def test_prefix_sup_bound():
    for level in range(0, 11):
        pair = wr.build_pair(level)
        assert wr.u_norm(pair.p) <= C * 2 ** (level / 2)


def test_pair_level_range():
    with pytest.raises(ValueError):
        wr.build_pair(-1)
    with pytest.raises(ValueError):
        wr.build_pair(21)


def test_construction_checks_run_at_every_level(monkeypatch):
    # no level is exempt: a level-16 pair with one corrupted sign fails
    # P^2 + Q^2 = 2^17, and the flat's prefix-sup bound is checked at 16
    pair = wr.build_pair(16)
    p = pair.p.copy()
    p[40_000] *= -1
    with pytest.raises(AssertionError, match=r"P\^2 \+ Q\^2 != 2\^17 at level 16"):
        wr.RudinShapiroPair(16, p, pair.q)
    # the pair's prefix sup is an integer, checked exactly against C 2^8:
    # the first integer past it fails
    peak = flatness_floor(16) + 1
    assert peak - 1 < C * 2.0**8 < peak
    monkeypatch.setattr(rudin_shapiro, "u_norm", lambda coeffs: peak)
    with pytest.raises(AssertionError, match=f"prefix sup {peak} not below .* at level 16"):
        wr.build_flat(16)


# ---------------------------------------------------------------------------
# the pair law: the recursion over the pair's values
# ---------------------------------------------------------------------------

def brute_law(level):
    """(states, family A, family B) of `pair_law(level)` from every term
    on every atom: term m of a polynomial is c_m w_m(t), and its prefix
    before m is the sum of the terms before it."""
    pair = wr.build_pair(level)
    patterns = atom_patterns(level)
    walsh_rows = np.array([sign_vector(m, patterns) for m in range(1 << level)])
    keys = list(zip(butterfly(pair.p).tolist(), butterfly(pair.q).tolist()))
    states = {key: keys.count(key) for key in set(keys)}
    families = []
    for coeffs in (pair.p, pair.q):
        terms = coeffs[:, None] * walsh_rows
        prefixes = np.cumsum(terms, axis=0) - terms
        family = {}
        for (p, q), column, signs in zip(keys, prefixes.T.tolist(), terms.T.tolist()):
            for s, value in zip(signs, column):
                rudin_shapiro._widen(family, (p, q, s), value, value)
        families.append(family)
    return states, *families


@pytest.mark.parametrize("level", range(9))
def test_pair_law_equals_the_brute_force(level):
    law = pair_law(level)
    assert (law.states, law.prefixes_p, law.prefixes_q) == brute_law(level)


@pytest.mark.parametrize("level", range(21))
def test_pair_law_peak_is_the_pairs_prefix_sup(level):
    # the flatness maximum, the full sum included, is the exhaustive one
    law = pair_law(level)
    assert law.peak == wr.u_norm(wr.build_pair(level).p)
    assert sum(law.states.values()) == 1 << level
    assert len(law.states) <= 4 and len(law.prefixes_p) <= 8 and len(law.prefixes_q) <= 8


def flatness_floor(level):
    """floor((2 + sqrt2) 2^(level/2)), exactly: the bound is irrational,
    so the smallest integer that breaks it is one more."""
    if level % 2 == 0:
        h = 1 << (level // 2)
        return 2 * h + math.isqrt(2 * h * h)
    h = 1 << (level // 2)  # 2^((level - 1)/2); the bound is (2 + 2 sqrt2) h
    return 2 * h + math.isqrt(8 * h * h)


@pytest.mark.parametrize("level", [16, 64])
def test_pair_law_checks_fire(level, monkeypatch):
    # a corrupted value fails P^2 + Q^2, a prefix at the flatness bound's
    # ceiling and a lowered bound fail flatness, at level 16 and past the
    # 20 levels `build_pair` reaches
    law = pair_law(level)
    (p, q), count = next(iter(law.states.items()))
    corrupted = {**law.states, (p, q + 1): count}
    with pytest.raises(AssertionError, match=rf"P\^2 \+ Q\^2 != 2\^{level + 1} at level {level}"):
        dataclasses.replace(law, states=corrupted)
    floor = flatness_floor(level)
    assert rudin_shapiro._flat_enough(floor, level) and not rudin_shapiro._flat_enough(floor + 1, level)
    assert floor < C * 2.0 ** (level / 2) < floor + 1
    key, (low, _) = next(iter(law.prefixes_p.items()))
    assert dataclasses.replace(law, prefixes_p={**law.prefixes_p, key: (low, floor)}).peak == floor
    with pytest.raises(AssertionError, match=f"prefix sup {floor + 1} not below .* at level {level}"):
        dataclasses.replace(law, prefixes_p={**law.prefixes_p, key: (low, floor + 1)})
    monkeypatch.setattr(rudin_shapiro, "_flat_enough", lambda peak, lvl: peak < law.peak)
    with pytest.raises(AssertionError, match=f"prefix sup {law.peak} not below .* at level {level}"):
        dataclasses.replace(law)


def test_pair_law_reaches_level_200_in_python_ints():
    law = pair_law(200)
    assert law.flat_values == [(-(1 << 100), 1 << 200), (1 << 100, 1 << 200)]
    assert law.peak < C * 2.0**100


def test_sign_sequence_matches_pairs():
    assert np.array_equal(wr.rs_sign_sequence(4), [1, 1, 1, -1])
    pair = wr.build_pair(10)
    assert np.array_equal(wr.rs_sign_sequence(1024), pair.p)


# ---------------------------------------------------------------------------
# flat polynomials
# ---------------------------------------------------------------------------

def test_flat_level_zero_is_single_rademacher():
    flat = wr.build_flat(0)
    series = flat_series(flat)
    assert np.array_equal(series.coeffs, [0.0, 1.0])


def test_flat_level_one_window():
    flat = wr.build_flat(1)
    series = flat_series(flat)
    # (+1, +1) on indices (2, 3): r_2 + r_1 r_2
    assert np.array_equal(series.coeffs, [0.0, 0.0, 1.0, 1.0])


def test_flat_mean_zero_and_norms():
    for level in range(0, 9):
        flat = wr.build_flat(level)
        series = flat_series(flat)
        assert series.coeffs[0] == 0.0
        bundle = wr.norm_bundle(series)
        assert abs(bundle.l2 - 2 ** (level / 2)) < 1e-12
        assert bundle.u < C * 2 ** (level / 2)


def test_flat_prefix_sup_equals_pair():
    # XOR with the top bit preserves prefix order, so nothing changes
    for level in (0, 1, 2, 5, 8):
        pair = wr.build_pair(level)
        flat = wr.build_flat(level)
        assert wr.u_norm(flat_series(flat).coeffs) == wr.u_norm(pair.p)


def test_flat_level_two_u_norm():
    assert wr.u_norm(flat_series(wr.build_flat(2)).coeffs) == 3


def test_scaled_factor_norm_table():
    # X = a phi with a = (1/2C) 2^(-level/2) hits the closed-form norms
    for level in (0, 1, 3, 6):
        a = (0.5 / C) * 2.0 ** (-level / 2)
        series = flat_series(wr.build_flat(level))
        bundle = wr.norm_bundle(wr.WalshSeries(series.depth, a * series.coeffs))
        assert abs(bundle.l2 - 0.5 / C) < 1e-12
        assert abs(bundle.a - (0.5 / C) * 2 ** (level / 2)) < 1e-12
        assert abs(bundle.pm - (0.5 / C) * 2 ** (-level / 2)) < 1e-12
        assert bundle.u < 0.5


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_block_spec_validation():
    with pytest.raises(ValueError, match="increasing"):
        wr.BlockSpec((3, 2))
    with pytest.raises(ValueError, match="1-based"):
        wr.BlockSpec((0, 1))
    with pytest.raises(ValueError, match="nonempty"):
        wr.BlockSpec(())


def test_substitute_identity_block():
    flat = wr.build_flat(2)
    block = wr.BlockSpec((1, 2, 3))
    series = substitute(flat, block)
    assert np.array_equal(series.coeffs, flat_series(flat).coeffs)


def test_substitute_single_coordinate():
    flat = wr.build_flat(0)
    series = substitute(flat, wr.BlockSpec((5,)))
    assert series.depth == 5
    expected = np.zeros(32)
    expected[16] = 1.0  # r_5 lives at index 2^4
    assert np.array_equal(series.coeffs, expected)


def test_substitute_cardinality_mismatch():
    with pytest.raises(ValueError, match="coordinates"):
        substitute(wr.build_flat(2), wr.BlockSpec((1, 2)))


@pytest.mark.parametrize("level,block", [
    (0, (4,)),
    (1, (2, 7)),
    (2, (3, 5, 9)),
    (3, (1, 2, 6, 10)),
])
def test_substitute_preserves_norms(level, block):
    flat = wr.build_flat(level)
    base = wr.norm_bundle(flat_series(flat))
    moved = wr.norm_bundle(substitute(flat, wr.BlockSpec(block)))
    for name in ("l2", "u", "a", "pm", "sup"):
        assert abs(getattr(base, name) - getattr(moved, name)) < 1e-12


def test_flat_serializes_as_series(tmp_path):
    flat = wr.build_flat(3)
    path = tmp_path / "flat.csv"
    wr.series_to_csv(flat_series(flat), path)
    back = wr.series_from_csv(path)
    assert np.array_equal(back.coeffs, flat_series(flat).coeffs)


def test_substitute_depends_only_on_block():
    series = substitute(wr.build_flat(1), wr.BlockSpec((2, 4)))
    values = wr.inverse_fwht(series).values
    # flipping coordinates 1 and 3 leaves the values unchanged
    for t in range(series.order):
        assert values[t] == values[t ^ 0b0101]
