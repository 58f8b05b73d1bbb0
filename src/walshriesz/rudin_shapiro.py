"""Rudin-Shapiro pairs and flat mean-zero Walsh polynomials.

The pair recurrence

    P_0 = Q_0 = 1
    P_(l+1) = P_l + r_(l+1) Q_l,   Q_(l+1) = P_l - r_(l+1) Q_l

acts on Paley coefficient vectors as concatenation: P_(l+1) = P_l || Q_l
and Q_(l+1) = P_l || (-Q_l).  Pointwise P_l^2 + Q_l^2 = 2^(l+1), which
pins every prefix sup-norm at O(2^(l/2)):

    ||P_l||_U <= 2^(l/2) + 2^((l-1)/2) + ... <= 2^(l/2) * sqrt2/(sqrt2 - 1)

with sqrt2/(sqrt2 - 1) = 2 + sqrt2 (FLATNESS_CONSTANT).

The flat polynomial used by the product construction is phi = r_(l+1) P_l:
the 2^l signs of P_l rehoused on the index window [2^l, 2^(l+1)).  It has
no constant term (mean zero), l2-norm 2^(l/2), and the same prefix sups
as P_l, because XOR with the top bit maps prefixes of [0, 2^l) to
prefixes of the window in order.

The literal product r_1 P_l would put a w_0 term back (w_1 w_1 = w_0)
and break mean-zero-ness, so the top coordinate is used instead; nothing
else changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walsh import WalshSeries, butterfly, u_norm

__all__ = [
    "FLATNESS_CONSTANT",
    "RudinShapiroPair",
    "FlatPolynomial",
    "BlockSpec",
    "build_pair",
    "build_flat",
    "rs_sign_sequence",
    "substitute",
    "substitute_sparse",
]

# sqrt2 / (sqrt2 - 1) = 2 + sqrt2
FLATNESS_CONSTANT = 2.0 + math.sqrt(2.0)

_MAX_PAIR_LEVEL = 20


@dataclass(frozen=True, eq=False)
class RudinShapiroPair:
    """Sign vectors of P_level and Q_level in Paley order, checked to
    satisfy P^2 + Q^2 = 2^(level+1) on every atom in exact integers."""

    level: int
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        pv, qv = butterfly(self.p), butterfly(self.q)
        if not np.all(pv * pv + qv * qv == np.int64(2) ** (self.level + 1)):
            raise AssertionError(f"P^2 + Q^2 != 2^{self.level + 1} at level {self.level}")


def build_pair(level: int) -> RudinShapiroPair:
    """Build (P_level, Q_level) by the concatenation recurrence, exact ints;
    the pair checks its identity at every level."""
    if not 0 <= level <= _MAX_PAIR_LEVEL:
        raise ValueError(f"level {level} outside [0, {_MAX_PAIR_LEVEL}]")
    p = np.array([1], dtype=np.int64)
    q = np.array([1], dtype=np.int64)
    for _ in range(level):
        p, q = np.concatenate([p, q]), np.concatenate([p, -q])
    return RudinShapiroPair(level, p, q)


def rs_sign_sequence(count: int) -> np.ndarray:
    """First `count` Rudin-Shapiro signs via the adjacent-bit-pair parity.

    eps_n = (-1)^(number of '11' pairs in the binary digits of n); this
    equals the Paley coefficient vector of P_l for count = 2^l.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = np.arange(count, dtype=np.uint64)
    pairs = np.bitwise_count(n & (n >> np.uint64(1))).astype(np.int64)
    return 1 - 2 * (pairs & 1)


@dataclass(frozen=True, eq=False)
class FlatPolynomial:
    """phi = r_(level+1) P_level: signs on the window [2^level, 2^(level+1))."""

    level: int
    signs: np.ndarray

    @property
    def vars(self) -> int:
        """Number of coordinates phi depends on."""
        return self.level + 1

    @property
    def window(self) -> tuple[int, int]:
        return (1 << self.level, 1 << (self.level + 1))

    def indices(self) -> np.ndarray:
        lo, hi = self.window
        return np.arange(lo, hi, dtype=np.int64)

    def as_series(self) -> WalshSeries:
        coeffs = np.zeros(1 << (self.level + 1))
        coeffs[1 << self.level :] = self.signs
        return WalshSeries(self.level + 1, coeffs)


def build_flat(level: int) -> FlatPolynomial:
    """Flat polynomial at the given level, with construction-time checks.

    Mean zero by construction.  At every level, the pair's P^2 + Q^2
    identity and the prefix-sup bound ||phi||_U = ||P_level||_U <
    FLATNESS_CONSTANT * 2^(level/2) are verified exhaustively over all
    atoms, in exact integers and O(level 2^level): about 1 s at level 20.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    pair = build_pair(level)
    u = u_norm(pair.p)
    bound = FLATNESS_CONSTANT * 2.0 ** (level / 2)
    if not u < bound:
        raise AssertionError(f"prefix sup {u} not below {bound} at level {level}")
    return FlatPolynomial(level, pair.p)


@dataclass(frozen=True)
class BlockSpec:
    """A strictly increasing set of Rademacher coordinates."""

    coordinates: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = tuple(int(j) for j in self.coordinates)
        if not coords:
            raise ValueError("block must be nonempty")
        if coords[0] < 1:
            raise ValueError("coordinates are 1-based")
        if any(b <= a for a, b in zip(coords, coords[1:])):
            raise ValueError(f"coordinates not strictly increasing: {coords}")
        object.__setattr__(self, "coordinates", coords)

    def __len__(self) -> int:
        return len(self.coordinates)

    @property
    def sup(self) -> int:
        return self.coordinates[-1]


def substitute_sparse(flat: FlatPolynomial, block: BlockSpec):
    """Remap phi's variables r_1..r_(l+1) to the block's coordinates.

    Returns (indices, signs): the spectrum of phi((r_j), j in block) with
    bit position i of each window index sent to coordinate block[i].
    """
    if len(block) != flat.vars:
        raise ValueError(
            f"block has {len(block)} coordinates, polynomial uses {flat.vars}"
        )
    src = flat.indices()
    dst = np.zeros_like(src)
    for i, coord in enumerate(block.coordinates):
        dst |= ((src >> i) & 1) << (coord - 1)
    return dst, flat.signs.copy()


def substitute(flat: FlatPolynomial, block: BlockSpec) -> WalshSeries:
    """Dense series of phi((r_j), j in block), depth = sup of the block.

    A bit remap through increasing coordinates is a measure-preserving
    permutation, so every norm in the bundle is preserved.
    """
    idx, signs = substitute_sparse(flat, block)
    depth = block.sup
    coeffs = np.zeros(1 << depth)
    coeffs[idx] = signs
    return WalshSeries(depth, coeffs)
