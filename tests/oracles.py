"""Routines the tests check the package against, which no command and no
acceptance criterion calls: a scalar Walsh function on one atom, a
remapped flat polynomial as a dense series, the strong-orthogonality
checks of both builds, and a tabulated gauge.  Besides the public API
they read `martingale._groups` (the orthogonality check's grouping) and
`trig._cos_multiply` (the cosine build's stage product).
"""

from dataclasses import dataclass

import numpy as np

import walshriesz as wr
from walshriesz.martingale import _groups
from walshriesz.riesz import factor_values
from walshriesz.trig import _cos_multiply


@dataclass(frozen=True)
class Atom:
    """One sign assignment of r_1..r_m, encoded as an m-bit pattern."""

    m: int
    pattern: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("coordinate count must be nonnegative")
        if not 0 <= self.pattern < (1 << self.m):
            raise ValueError(f"pattern {self.pattern} not an {self.m}-bit integer")


def walsh_eval(n, t: Atom) -> int:
    """w_n(t).  Every set bit of n must name one of t's m coordinates."""
    n = int(n)
    if n < 0:
        raise ValueError("Walsh index must be nonnegative")
    if n >> t.m:
        raise ValueError(f"index {n} uses coordinates beyond the atom's {t.m}")
    return 1 - 2 * ((n & t.pattern).bit_count() & 1)


def flat_series(flat: wr.FlatPolynomial) -> wr.WalshSeries:
    """phi = r_(l+1) P_l as a dense series on its l + 1 coordinates."""
    coeffs = np.zeros(1 << (flat.level + 1))
    coeffs[1 << flat.level :] = flat.signs
    return wr.WalshSeries(flat.level + 1, coeffs)


def substitute(flat: wr.FlatPolynomial, block: wr.BlockSpec) -> wr.WalshSeries:
    """Dense series of phi((r_j), j in block), depth = sup of the block.

    A bit remap through increasing coordinates is a measure-preserving
    permutation, so every norm in the bundle is preserved.
    """
    idx, signs = wr.substitute_sparse(flat, block)
    coeffs = np.zeros(1 << block.sup)
    coeffs[idx] = signs
    return wr.WalshSeries(block.sup, coeffs)


def monomial(alpha, factor_count: int) -> list[int]:
    """The multi-index of a strong-orthogonality monomial prod X_k^alpha_k
    as ints, checked admissible: entries in {0, 1, 2}, at least one 1, at
    most two 2s, and no more entries than factors."""
    alpha = [int(a) for a in alpha]
    if len(alpha) > factor_count:
        raise ValueError(f"multi-index has {len(alpha)} entries, only {factor_count} factors")
    if any(a not in (0, 1, 2) for a in alpha):
        raise ValueError(f"entries must be 0, 1 or 2: {alpha}")
    if alpha.count(1) < 1:
        raise ValueError(f"multi-index needs at least one entry equal to 1: {alpha}")
    if alpha.count(2) > 2:
        raise ValueError(f"multi-index allows at most two entries equal to 2: {alpha}")
    return alpha


def verify_strong_orthogonality(state_or_factors, alpha, tol: float = 1e-10) -> bool:
    """|E_lambda prod X_k^alpha_k| <= tol for an admissible multi-index of
    Walsh factors.  The mean is the product, over the groups of the
    active factors (`martingale._groups`, which refuses a group past 24
    coordinates), of each group's mean on its own atoms."""
    factors = list(getattr(state_or_factors, "factors", state_or_factors))
    alpha = monomial(alpha, len(factors))
    active = [(f, a) for f, a in zip(factors, alpha) if a > 0]
    mean = 1.0
    for members, coords in _groups([f for f, _ in active]):
        prod = np.ones(1 << len(coords))
        for f, a in (active[i] for i in members):
            prod *= factor_values(f, coords) ** a  # ** 2 squares, as vals * vals
        mean *= float(prod.mean())
    return bool(abs(mean) <= tol)


def strong_orthogonality_integral(factors, alpha) -> float:
    """Exact (2pi)^-1 integral of prod X_k^alpha_k over cosine factors, by
    frequency bookkeeping: the product is expanded with cos a cos b =
    (cos(a+b) + cos(a-b))/2 (`trig._cos_multiply`, the routine each
    build stage uses), and its constant term, exactly 0.0 when no
    frequencies cancel, is returned."""
    factors = list(factors)
    alpha = monomial(alpha, len(factors))
    prod = wr.Spectrum(np.zeros(1, dtype=np.int64), np.ones(1))  # 0 is the constant term
    for f, a in zip(factors, alpha):
        spec = wr.Spectrum(f.freqs, f.coeffs)
        for _ in range(a):
            prod = _cos_multiply(prod, spec)
    return float(prod.coeffs[prod.indices == 0].sum())


def table_psi(xs, ys) -> wr.PsiSpec:
    """A gauge tabulated on an increasing positive grid: linear between
    samples, ys[-1] past the grid and ys[0] (x/xs[0])^2 below it.

    On the segment [xs[i], xs[i+1]], psi(y)/y^2 <= ys[i+1]/xs[i]^2, and
    below the grid it is ys[0]/xs[0]^2, so the running maximum of these
    caps bounds psi(y)/y^2 over every y <= x.  A table says nothing about
    psi below its grid: the envelope stays at ys[0]/xs[0]^2 there, and
    the gauge is only declared to decay, as any caller may declare it.
    """
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    caps = np.maximum.accumulate(np.append(ys[0] / (xs[0] * xs[0]), ys[1:] / (xs[:-1] * xs[:-1])))

    def psi(x):
        x = float(x)
        if x <= 0.0:
            return 0.0
        if x < xs[0]:
            return float(ys[0] * (x / xs[0]) ** 2)
        return float(np.interp(x, xs, ys))

    def envelope(x):
        x = float(x)
        if x <= 0.0:
            return 0.0
        return float(caps[min(int(np.searchsorted(xs, x, side="right")), xs.size - 1)])

    return wr.PsiSpec("table", psi, envelope, True)
