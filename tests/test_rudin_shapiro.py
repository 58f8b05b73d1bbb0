"""Rudin-Shapiro pairs, flat polynomials, and block substitution."""

import numpy as np
import pytest

import walshriesz as wr
from walshriesz import rudin_shapiro
from walshriesz.walsh import butterfly

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
    bound = C * 2.0**8
    monkeypatch.setattr(rudin_shapiro, "u_norm", lambda coeffs: bound)
    with pytest.raises(AssertionError, match="not below .* at level 16"):
        wr.build_flat(16)


def test_sign_sequence_matches_pairs():
    assert np.array_equal(wr.rs_sign_sequence(4), [1, 1, 1, -1])
    pair = wr.build_pair(10)
    assert np.array_equal(wr.rs_sign_sequence(1024), pair.p)


# ---------------------------------------------------------------------------
# flat polynomials
# ---------------------------------------------------------------------------

def test_flat_level_zero_is_single_rademacher():
    flat = wr.build_flat(0)
    series = flat.as_series()
    assert np.array_equal(series.coeffs, [0.0, 1.0])


def test_flat_level_one_window():
    flat = wr.build_flat(1)
    series = flat.as_series()
    # (+1, +1) on indices (2, 3): r_2 + r_1 r_2
    assert np.array_equal(series.coeffs, [0.0, 0.0, 1.0, 1.0])


def test_flat_mean_zero_and_norms():
    for level in range(0, 9):
        flat = wr.build_flat(level)
        series = flat.as_series()
        assert series.coeffs[0] == 0.0
        bundle = wr.norm_bundle(series)
        assert abs(bundle.l2 - 2 ** (level / 2)) < 1e-12
        assert bundle.u < C * 2 ** (level / 2)


def test_flat_prefix_sup_equals_pair():
    # XOR with the top bit preserves prefix order, so nothing changes
    for level in (0, 1, 2, 5, 8):
        pair = wr.build_pair(level)
        flat = wr.build_flat(level)
        assert wr.u_norm(flat.as_series().coeffs) == wr.u_norm(pair.p)


def test_flat_level_two_u_norm():
    assert wr.u_norm(wr.build_flat(2).as_series().coeffs) == 3


def test_scaled_factor_norm_table():
    # X = a phi with a = (1/2C) 2^(-level/2) hits the closed-form norms
    for level in (0, 1, 3, 6):
        a = (0.5 / C) * 2.0 ** (-level / 2)
        series = wr.build_flat(level).as_series()
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
    series = wr.substitute(flat, block)
    assert np.array_equal(series.coeffs, flat.as_series().coeffs)


def test_substitute_single_coordinate():
    flat = wr.build_flat(0)
    series = wr.substitute(flat, wr.BlockSpec((5,)))
    assert series.depth == 5
    expected = np.zeros(32)
    expected[16] = 1.0  # r_5 lives at index 2^4
    assert np.array_equal(series.coeffs, expected)


def test_substitute_cardinality_mismatch():
    with pytest.raises(ValueError, match="coordinates"):
        wr.substitute(wr.build_flat(2), wr.BlockSpec((1, 2)))


@pytest.mark.parametrize("level,block", [
    (0, (4,)),
    (1, (2, 7)),
    (2, (3, 5, 9)),
    (3, (1, 2, 6, 10)),
])
def test_substitute_preserves_norms(level, block):
    flat = wr.build_flat(level)
    base = wr.norm_bundle(flat.as_series())
    moved = wr.norm_bundle(wr.substitute(flat, wr.BlockSpec(block)))
    for name in ("l2", "u", "a", "pm", "sup"):
        assert abs(getattr(base, name) - getattr(moved, name)) < 1e-12


def test_flat_serializes_as_series(tmp_path):
    flat = wr.build_flat(3)
    path = tmp_path / "flat.csv"
    wr.series_to_csv(flat.as_series(), path)
    back = wr.series_from_csv(path)
    assert np.array_equal(back.coeffs, flat.as_series().coeffs)


def test_substitute_depends_only_on_block():
    series = wr.substitute(wr.build_flat(1), wr.BlockSpec((2, 4)))
    values = wr.inverse_fwht(series).values
    # flipping coordinates 1 and 3 leaves the values unchanged
    for t in range(series.order):
        assert values[t] == values[t ^ 0b0101]
