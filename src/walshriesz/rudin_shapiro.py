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

Since P_l^2 + Q_l^2 = 2^(l+1), the pair (P_l, Q_l) takes 4 values on
the atoms, whatever the level, and everything the product construction
reads about phi follows from a recursion over those values
(`pair_law`), in Python ints and O(1) work per level.  On an atom
(t, v) of level l+1, with v = r_(l+1),

    P_(l+1) = P + v Q,   Q_(l+1) = P - v Q,
    S_m(P_(l+1)) = S_m(P),  S_(2^l + j)(P_(l+1)) = P + v S_j(Q),
    S_m(Q_(l+1)) = S_m(P),  S_(2^l + j)(Q_(l+1)) = P - v S_j(Q)

for m, j < 2^l, with S_m the prefix of the first m terms; term 2^l + j
of P_(l+1) has the sign v s_j(Q) on the atom, and of Q_(l+1) the sign
-v s_j(Q), s_j(Q) that of term j of Q.  So the smallest and largest
prefix over the atoms of a value (P, Q) and the orders whose next term
has sign s, family A for P and family B for Q, close under the step.
`build_flat` checks the pair exhaustively on its 2^l atoms; `pair_law`
checks the same two facts exactly at every level, on the 4 values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walsh import CoordinateBudgetError, butterfly, u_norm

__all__ = [
    "FLATNESS_CONSTANT",
    "RudinShapiroPair",
    "FlatPolynomial",
    "BlockSpec",
    "build_pair",
    "build_flat",
    "rs_sign_sequence",
    "substitute_sparse",
]

# sqrt2 / (sqrt2 - 1) = 2 + sqrt2
FLATNESS_CONSTANT = 2.0 + math.sqrt(2.0)

# The largest pair `build_pair` builds, as 2^l-entry arrays (`rs-pair`,
# `build_flat` and the test oracles); `pair_law` has no such limit.
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


def _flat_enough(peak: int, level: int) -> bool:
    """peak < FLATNESS_CONSTANT 2^(level/2), exactly: squared, the bound
    is (6 + 4 sqrt2) 2^level, so with d = peak^2 - 6 2^level this is
    d < 0 or d^2 < 32 4^level."""
    d = peak * peak - 6 * (1 << level)
    return d < 0 or d * d < 1 << (2 * level + 5)


@dataclass(frozen=True, eq=False)
class PairLaw:
    """The law of (P_level, Q_level) over the 2^level atoms, and the
    extremes of their prefix sums, in Python ints.

    `states` maps each value (P, Q) of the pair to its number of atoms.
    `prefixes_p` (family A) maps (P, Q, s) to the smallest and largest
    S_m(P_level) over the atoms where the pair takes the value (P, Q)
    and the orders m < 2^level whose term eps_m w_m has the sign s there;
    `prefixes_q` (family B) holds the same for Q_level.  A law checks on
    construction, exactly, that P^2 + Q^2 = 2^(level+1) on every value
    and that the prefix sup `peak` is below FLATNESS_CONSTANT 2^(level/2).
    """

    level: int
    states: dict
    prefixes_p: dict
    prefixes_q: dict

    def __post_init__(self) -> None:
        for p, q in self.states:
            if p * p + q * q != 1 << (self.level + 1):
                raise AssertionError(f"P^2 + Q^2 != 2^{self.level + 1} at level {self.level}")
        if not _flat_enough(self.peak, self.level):
            raise AssertionError(
                f"prefix sup {self.peak} not below (2 + sqrt2) 2^({self.level}/2)"
                f" at level {self.level}"
            )

    @property
    def peak(self) -> int:
        """||P_level||_U: the largest |S_m(P_level)| over every order, the
        full sum P included."""
        return max(*(max(-low, high) for low, high in self.prefixes_p.values()),
                   *(abs(p) for p, _ in self.states))

    @property
    def flat_values(self) -> list[tuple[int, int]]:
        """The values x of phi = r_(level+1) P_level over its 2^(level+1)
        atoms, ascending, each with its number of atoms: x = rP."""
        counts = {}
        for (p, _), count in self.states.items():
            for x in (p, -p):
                counts[x] = counts.get(x, 0) + count
        return sorted(counts.items())


def _widen(family: dict, key, low: int, high: int) -> None:
    """Widen family[key], the extremes (low, high), to take in low..high."""
    old = family.get(key)
    family[key] = (low, high) if old is None else (min(old[0], low), max(old[1], high))


def _next_law(law: PairLaw) -> PairLaw:
    """The law one level up: each value (P, Q) and v = +-1 give the value
    (P + vQ, P - vQ); the first half of either new polynomial's orders
    is P's, the second half P -+ v S_j(Q) (see the module docstring)."""
    states, fam_p, fam_q = {}, {}, {}
    for (p, q), count in law.states.items():
        for v in (1, -1):
            key = (p + v * q, p - v * q)
            states[key] = states.get(key, 0) + count
            for s in (1, -1):
                if (p, q, s) in law.prefixes_p:
                    _widen(fam_p, (*key, s), *law.prefixes_p[p, q, s])
                    _widen(fam_q, (*key, s), *law.prefixes_p[p, q, s])
                if (p, q, s) in law.prefixes_q:
                    low, high = law.prefixes_q[p, q, s]
                    _widen(fam_p, (*key, v * s), *sorted((p + v * low, p + v * high)))
                    _widen(fam_q, (*key, -v * s), *sorted((p - v * low, p - v * high)))
    return PairLaw(law.level + 1, states, fam_p, fam_q)


# P_0 = Q_0 = 1 on the one atom; the empty prefix, before a term of sign +1.
# A memo of a pure function: laws are never changed once built.
_LAWS = [PairLaw(0, {(1, 1): 1}, {(1, 1, 1): (0, 0)}, {(1, 1, 1): (0, 0)})]


def pair_law(level: int) -> PairLaw:
    """The checked `PairLaw` of the given level, by the recursion from
    level 0 (each law is built, and checked, once per process)."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    while len(_LAWS) <= level:
        _LAWS.append(_next_law(_LAWS[-1]))
    return _LAWS[level]


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


def build_flat(level: int) -> FlatPolynomial:
    """Flat polynomial at the given level, with construction-time checks.

    Mean zero by construction.  At every level, the pair's P^2 + Q^2
    identity and the prefix-sup bound ||phi||_U = ||P_level||_U <
    FLATNESS_CONSTANT * 2^(level/2) are verified exhaustively over all
    atoms, in exact integers and O(level 2^level): about 1 s at level 20.
    The product construction checks the same two facts by `pair_law`
    instead; this exhaustive route serves the public API and the tests,
    where it is the law's oracle, as `build_pair` serves `rs-pair`.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    pair = build_pair(level)
    u = u_norm(pair.p)
    if not _flat_enough(u, level):
        raise AssertionError(f"prefix sup {u} not below (2 + sqrt2) 2^({level}/2) at level {level}")
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
    bit position i of each window index sent to coordinate block[i].  A
    block past coordinate 63 raises CoordinateBudgetError: Walsh indices
    are int64, and coordinate 63 is index 2^62, the last whose XOR
    products int64 holds.
    """
    if len(block) != flat.vars:
        raise ValueError(
            f"block has {len(block)} coordinates, polynomial uses {flat.vars}"
        )
    if block.sup > 63:
        raise CoordinateBudgetError(f"block {block.coordinates[0]}..{block.sup} reaches past"
                                    " coordinate 63: Walsh indices are int64")
    src = flat.indices()
    dst = np.zeros_like(src)
    for i, coord in enumerate(block.coordinates):
        dst |= ((src >> i) & 1) << (coord - 1)
    return dst, flat.signs.copy()
