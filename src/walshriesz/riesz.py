"""Riesz products of flat Walsh polynomials with positive partial sums.

The measure is the finite product

    Pi_k = (1 + X_1)(1 + X_2) ... (1 + X_k),
    X_i  = a_i * phi_(l_i)((r_j), j in J_i),   a_i = (1/2C) 2^(-l_i/2)

over pairwise disjoint, increasing coordinate blocks J_i, with C the
flatness constant 2 + sqrt2.  Each factor then has

    ||X_i||_2 = 1/2C,  ||X_i||_U < 1/2,
    ||X_i||_A = (1/2C) 2^(l_i/2),  ||X_i||_PM = (1/2C) 2^(-l_i/2).

A level l_(k+1) is admitted when

  (5)  (1/2C) 2^(-l_(k+1)/2) ||Pi_k||_A  <=  (1/4) inf Pi_k
  (6)  ||Pi_k||_A^2 * eps_bar((1/2C) 2^(-l_(k+1)/2))  <=  budget term k+1

where eps_bar is the monotone envelope of psi(x)/x^2.  Condition (5)
forces every partial sum whose order falls in stage k+1's range to stay
above (1/4) Pi_k pointwise, hence positivity; condition (6) caps the
stage contributions to sum_n psi(|c_n|).

The product state is its factors alone.  Everything else is derived
from them on first use: ||Pi_k||_A, inf Pi_k, the support size
N_k = prod_(i<=k) (1 + |supp X_i|) and the spectrum.  Each block lies
right of all used coordinates, so stage k+1's XOR products are distinct
and exceed every index of Pi_k: the spectrum is one sorted pair of
int64/float64 arrays, stage k at positions [N_(k-1), N_k), filled in
place, and refused past SPECTRUM_LIMIT terms before anything is
allocated; the export builds it only if X_K outnumbers Pi_(K-1).
The stage sums of psi(|c_n|) need only the magnitudes: stage k+1's are
the products of one distinct |c| of Pi_k and one of X_(k+1), so each
sum is read off the two magnitude histograms, exactly at any depth.
Each X_i is evaluated on its own block's 2^|J_i| atoms (one butterfly),
and broadcast from there to the atoms of any coordinates holding it.

Every prefix order is certified on every atom, one stage band at a
time, as the paper's proof goes.  Band j holds the orders
[2^d_j, 2^d_(j+1)) (d_j the top coordinate of Pi_j, the last band
closed).  The blocks are disjoint and increasing, so stage j+1's terms
are c_f w_f times Pi_j's, at the orders f + [0, 2^d_j) for each index f
of X = X_(j+1), and pointwise

    S_(f+m) = Pi_j (1 + P_<f(X)) + c_f w_f S_m(Pi_j),   0 <= m < 2^d_j,

with P_<f the prefix of X before f and S_m a proper prefix of the head
Pi_j.  The orders before an index f and after the previous index's
terms read its m = 0 value; those from max(X's indices) + 2^d_j on read
Pi_j (1 + X) = Pi_(j+1), which band j reaches when it is the last band,
or when a gap leaves some of them below 2^d_(j+1).  The head's
coordinates t and the block's t' are independent, and S_(f+m) is linear
in the pair (x, y) = (Pi_j(t), S_m(Pi_j)(t)) and in P_<f, so only two
pieces of data matter:

  - the head: H_j, the convex hull of the pairs (x, y) over every atom
    and every proper order m < 2^d_j, the empty one included.
    H_0 = {(1, 0)}, and H_(j+1) is the hull of the images of the
    vertices of H_j and of the block data under three maps: the head's
    orders give (x (1 + X), y), the band's orders of sign class b give
    (x (1 + X), x (1 + P_<f) + b y), and the orders reading Pi_(j+1)
    give (x (1 + X), x (1 + X));
  - the block: the smallest and largest P_<f(t') over each sign class
    of c_f w_f(t') = b = +-mu, mu a coefficient magnitude, and with them
    C_b, the hull of the points (X(t'), P_<f(t')).  A construction
    factor X = a r P_l reads them off family A of its pair law
    (`rudin_shapiro.pair_law`) in O(1) work per level: in the unit a,
    X = rP, P_<f = rS and b = rs.  A hand-built factor takes one signed
    prefix-extrema merge on its 2^|J| block atoms, a pair of rows per
    magnitude, in int64.

Band j's smallest S_p and S_p - Pi_j/4 are x (s + P) + b y at the
vertices of H_j, with P at its class extremes and s = 1 or 3/4.  Each
factor's coefficients are integers over one dyadic unit, the pair laws
hold Python ints, the hand-built factors' merges run in int64 and the
hull vertices are Python-int pairs over a common power of two, so every
figure is exact for the product of the stored float64 factors and is
rounded once, at every depth.  A construction factor's norms, value
range and value and magnitude histograms come from its level the same
way (see `Factor`), so no certificate builds its 2^l coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .rudin_shapiro import FLATNESS_CONSTANT, BlockSpec, FlatPolynomial
from .rudin_shapiro import _widen, pair_law, rs_sign_sequence, substitute_sparse
from .walsh import (
    CoordinateBudgetError,
    InvariantViolation,
    SeriesFormatError,
    _segment_merge,
    _write_coeff_rows,
    butterfly,
    read_coeff_rows,
)

__all__ = [
    "PsiHypothesisError",
    "LevelSelectionError",
    "BlockOverlapError",
    "PsiSpec",
    "SummabilityBudget",
    "Factor",
    "Spectrum",
    "RieszProductState",
    "PositivityCertificate",
    "PsiSumReport",
    "empty_state",
    "choose_next_level",
    "add_factor",
    "build_measure",
    "factor_values",
    "product_values",
    "verify_all_partial_sums",
    "psi_sum_report",
    "export_measure",
    "load_spectrum_csv",
    "state_manifest",
    "state_from_manifest",
]

# Largest spectrum built or exported, in terms (16 bytes each), the most
# magnitude products one psi stage pairs, and the most atoms an
# orthogonality group is read on (`martingale._groups`: 24 coordinates,
# 128 MiB a float64 table); the ladder's largest build, depth 21, has
# 589,860 terms.
SPECTRUM_LIMIT = 1 << 24

# The last coordinate a block may use.  The certificates count atoms and
# terms as float64 2^n (n coordinates), which stays finite by n = 1023;
# so does ||Pi||_A^2 in the level rule, as 1 + a_l 2^l <= 2^((l+1)/2)
# gives ||Pi||_A <= 2^(n/2).  Only int64 Walsh indices stop earlier, at
# coordinate 63, and `rudin_shapiro.substitute_sparse` refuses those.
_LAST_COORDINATE = 1023


class PsiHypothesisError(ValueError):
    """psi fails the gauge hypothesis: psi(x)/x^2 must tend to 0 at 0."""


class LevelSelectionError(RuntimeError):
    """No admissible level whose block ends by coordinate 1023."""


class BlockOverlapError(ValueError):
    """A factor block touches coordinates already in use, or a factor's
    index sets bits outside its block."""


# ---------------------------------------------------------------------------
# the gauge psi and its monotone envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiSpec:
    """An increasing gauge psi with the monotone envelope of psi(x)/x^2.

    `envelope_decays` records whether eps_bar(x) -> 0 as x -> 0: known
    analytically for the presets, and vouched for by any caller that
    builds a PsiSpec itself, as no finite table of samples can show it.
    The product construction is only possible when it does.
    """

    descriptor: str
    psi: callable
    epsilon_bar: callable
    envelope_decays: bool

    def validate(self) -> "PsiSpec":
        if not self.envelope_decays:
            raise PsiHypothesisError(
                f"psi {self.descriptor!r} violates the hypothesis"
                " lim_(x->0) psi(x)/x^2 = 0: the envelope does not decay"
            )
        return self

    # -- presets ------------------------------------------------------------

    @classmethod
    def logpow(cls, p: float = 1.0) -> "PsiSpec":
        """psi(x) = x^2 / (1 + ln(1/x))^p on (0, 1], extended by x^2 (1 + ln x)^p.

        Where (1 + |ln x|)^p passes float64 (by x = 0.01 and x = 10 at
        p = 1000), psi and the envelope read 0.0 below 1, the quotient
        being below 1/DBL_MAX there, and inf from 1 up.
        """
        if p < 1:
            raise ValueError("logpow preset needs p >= 1")

        def log_power(y):  # (1 + ln y)^p for y >= 1, inf past float64
            try:
                return (1.0 + math.log(y)) ** p
            except OverflowError:
                return math.inf

        def psi(x):
            x = float(x)
            if x <= 0.0:
                return 0.0
            if x >= 1.0:
                return x * x * log_power(x)
            return x * x / log_power(1.0 / x)

        def envelope(x):
            x = float(x)
            if x <= 0.0:
                return 0.0
            if x >= 1.0:
                return log_power(x)
            return 1.0 / log_power(1.0 / x)

        return cls(f"preset:logpow,p={p:g}", psi, envelope, True)

    @classmethod
    def power(cls, delta: float = 1.0) -> "PsiSpec":
        """psi(x) = x^(2 + delta); the envelope is x^delta."""
        if delta < 0:
            raise ValueError("power preset needs delta >= 0")

        def psi(x):
            x = float(x)
            return 0.0 if x <= 0.0 else x ** (2.0 + delta)

        def envelope(x):
            x = float(x)
            return 0.0 if x <= 0.0 else x ** delta

        return cls(f"preset:power,delta={delta:g}", psi, envelope, delta > 0)

    @classmethod
    def quadratic(cls) -> "PsiSpec":
        """psi(x) = x^2: envelope identically 1, hypothesis violated."""
        spec = cls.power(0.0)
        return cls("preset:quadratic", spec.psi, spec.epsilon_bar, False)

    @classmethod
    def parse(cls, text: str) -> "PsiSpec":
        """Parse 'preset:name[,key=value...]' descriptors; an unknown key or
        a non-finite value raises ValueError naming it."""
        if not isinstance(text, str) or not text.startswith("preset:"):
            raise ValueError(f"unknown psi descriptor {text!r}")
        name, *args = text[len("preset:") :].split(",")
        presets = {"logpow": (cls.logpow, ("p",)), "power": (cls.power, ("delta",)),
                   "quadratic": (cls.quadratic, ())}
        if name not in presets:
            raise ValueError(f"unknown psi preset {name!r}")
        build, keys = presets[name]
        kwargs = {}
        for item in args:
            key, sep, value = (part.strip() for part in item.partition("="))
            if not sep:
                raise ValueError(f"bad psi parameter {item!r}")
            if key not in keys:
                raise ValueError(f"psi preset {name!r} takes no parameter {key!r}")
            kwargs[key] = float(value)
            if not math.isfinite(kwargs[key]):
                raise ValueError(f"psi parameter {key}={value} is not finite")
        return build(**kwargs)


@dataclass(frozen=True)
class SummabilityBudget:
    """Per-stage caps scale * 2^-k for the envelope terms of condition (6)."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"budget scale {self.scale} is not finite and positive")

    def term_bound(self, k: int) -> float:
        if k < 1:
            raise ValueError("stage index is 1-based")
        return self.scale * 2.0 ** (-k)


# ---------------------------------------------------------------------------
# product state
# ---------------------------------------------------------------------------

class Factor:
    """One factor X = amplitude * phi_level on the given block.

    `Factor(level, block, amplitude)`, as `make_factor` builds it, is a
    construction factor, X = a r_(l+1) P_l remapped to its block, and holds
    no array: its norms, value range, histograms and positivity block
    data follow from `rudin_shapiro.pair_law(level)`.  Its `coeffs`, from
    `rs_sign_sequence`, and its `_block_table` (orthogonality) are built
    on first use only, at any coordinate, and its int64 `indices` (the
    export) by the block remap, up to coordinate 63.
    `Factor(level, block, amplitude, indices, coeffs)` is a hand-built
    factor: every figure is read off its arrays, taken as int64 and
    float64.  It has no manifest entry (`state_manifest`).
    """

    def __init__(self, level: int, block, amplitude: float, indices=None, coeffs=None) -> None:
        self.level, self.block, self.amplitude = level, tuple(block), amplitude
        self.construction = indices is None
        if not self.construction:
            self.indices, self.coeffs = np.asarray(indices, np.int64), np.asarray(coeffs, np.float64)
        elif len(self.block) != level + 1:
            raise ValueError(f"block size {len(self.block)} != level + 1 = {level + 1}")

    @cached_property
    def indices(self) -> np.ndarray:
        """A construction factor's Walsh indices: the window [2^l, 2^(l+1))
        remapped to the block, refused past coordinate 63 (CoordinateBudgetError)."""
        flat = FlatPolynomial(self.level, rs_sign_sequence(1 << self.level))
        return substitute_sparse(flat, BlockSpec(self.block))[0]

    @cached_property
    def coeffs(self) -> np.ndarray:
        return self.amplitude * rs_sign_sequence(1 << self.level).astype(np.float64)

    @cached_property
    def terms(self) -> int:
        """|supp X|, as a Python int: 2^l for a construction factor."""
        return 1 << self.level if self.construction else self.indices.size

    @cached_property
    def top_index(self) -> int:
        """The largest Walsh index of X (0 if none): every bit of a
        construction factor's block."""
        if self.construction:
            return sum(1 << (c - 1) for c in self.block)
        return int(self.indices.max(initial=0))

    @cached_property
    def magnitudes(self):
        """The histogram of |c| (`_magnitudes`): a on 2^l terms for a
        construction factor, its count a Python int."""
        if self.construction:
            return np.array([self.amplitude]), np.array([1 << self.level], dtype=object)
        return _magnitudes(self.coeffs)

    @cached_property
    def norm_a(self) -> float:
        """sum |c|, exact and rounded once: a 2^l for a construction factor."""
        return _exact_sum(*self.magnitudes)

    @cached_property
    def norm_2(self) -> float:
        """The square root of sum c^2, that sum of the float64 squares exact
        and rounded once."""
        mags, counts = self.magnitudes
        return math.sqrt(_exact_sum(mags * mags, counts))

    @cached_property
    def _block_table(self) -> np.ndarray:
        """X on the 2^|block| atoms of its own block, by one butterfly,
        read-only: a construction factor's coefficients sit at the window
        [2^l, 2^(l+1)) of its block's indices, a hand-built factor's are
        remapped from its `indices`."""
        if self.construction:
            table = butterfly(np.concatenate([np.zeros(1 << self.level), self.coeffs]))
        else:
            table = butterfly(_block_coeffs(self, self.coeffs))
        table.flags.writeable = False
        return table

    @cached_property
    def value_range(self) -> tuple[float, float]:
        """min X and max X: a times the extreme values of phi for a
        construction factor, which the block table holds exactly."""
        if self.construction:
            values = pair_law(self.level).flat_values
            return self.amplitude * values[0][0], self.amplitude * values[-1][0]
        return float(self._block_table.min()), float(self._block_table.max())

    @cached_property
    def value_histogram(self):
        """The histogram of 1 + X over its block atoms (`_histogram`): for a
        construction factor 1.0 + a x over the values x of phi, each on
        its count of atoms, a Python int."""
        if self.construction:
            values = pair_law(self.level).flat_values
            return (np.array([1.0 + self.amplitude * x for x, _ in values]),
                    np.array([count for _, count in values], dtype=object))
        return _histogram(1.0 + self._block_table)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sparse spectrum: strictly increasing nonnegative indices and their
    coefficients.

    The indices are Walsh indices for the Walsh products and cosine
    frequencies for the cosine products; index 0 is the constant term.
    """

    indices: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if indices.ndim != 1 or indices.shape != coeffs.shape:
            raise ValueError(f"shapes {indices.shape} and {coeffs.shape} do not match")
        if np.any(indices[1:] <= indices[:-1]):
            raise InvariantViolation("spectrum indices are not strictly increasing")
        if indices.size and indices[0] < 0:
            raise InvariantViolation(f"spectrum index {indices[0]} is negative")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return self.indices.size


@dataclass(frozen=True)
class RieszProductState:
    """Pi_k as its factors alone.

    Everything else is derived from the factors on first use and cached:
    `norm_a` = ||Pi_k||_A, `inf_value` = inf Pi_k, `used_coordinates`,
    `support_size` and the `spectrum`.  Every pass reads the factors'
    layout, so a state is refused (BlockOverlapError) unless each block
    starts above the previous factor's top coordinate and each index
    sets bits of its own block only.
    """

    factors: tuple[Factor, ...] = ()

    def __post_init__(self) -> None:
        tops = [0] + [f.block[-1] for f in self.factors]
        for f, top in zip(self.factors, tops):
            if f.block[0] <= top:
                raise BlockOverlapError(f"block {f.block} uses coordinates <= {top}")
            if f.construction:
                continue  # its indices lie in its block by construction
            outside = f.indices[f.indices & ~sum(1 << (c - 1) for c in f.block) != 0]
            if outside.size:
                raise BlockOverlapError(f"index {outside[0]} sets bits outside its block {f.block}")

    @property
    def stages(self) -> int:
        return len(self.factors)

    @cached_property
    def used_coordinates(self) -> int:
        """sup J_k, the last block's top coordinate, or 0."""
        return self.factors[-1].block[-1] if self.factors else 0

    @cached_property
    def norm_a(self) -> float:
        """||Pi_k||_A: the blocks are disjoint, so the A-norm is multiplicative."""
        return math.prod((1.0 + f.norm_a for f in self.factors), start=1.0)

    @cached_property
    def inf_value(self) -> float:
        """inf Pi_k, the rounded dense minimum (see `_product_ranges`)."""
        return _product_ranges(self.factors)[-1][0]

    @cached_property
    def support_size(self) -> int:
        """N_k = prod (1 + |supp X_i|), the number of spectrum terms."""
        return math.prod(1 + f.terms for f in self.factors)

    @cached_property
    def spectrum(self) -> Spectrum:
        """The sorted spectrum of Pi_k; refused past SPECTRUM_LIMIT terms."""
        _check_spectrum_limit(self)
        indices, coeffs = np.zeros(self.support_size, np.int64), np.ones(self.support_size)
        size = 1  # index 0, coefficient 1: Pi_0
        for f in self.factors:
            # factor index outer, old index inner: already ascending
            stage = slice(size, size * (1 + f.terms))
            np.bitwise_xor.outer(f.indices, indices[:size], out=indices[stage].reshape(-1, size))
            np.multiply.outer(f.coeffs, coeffs[:size], out=coeffs[stage].reshape(-1, size))
            size = stage.stop
        return Spectrum(indices, coeffs)


def _check_spectrum_limit(state: RieszProductState) -> None:
    if state.support_size > SPECTRUM_LIMIT:
        raise CoordinateBudgetError(
            f"the spectrum has {state.support_size:,} terms, past the limit"
            f" of {SPECTRUM_LIMIT:,} terms"
        )


def empty_state() -> RieszProductState:
    return RieszProductState()


def _block_bits(values: np.ndarray, block) -> np.ndarray:
    """Bits of indices or atom patterns at coordinate block[i], as bit i:
    one shift and one mask per run of consecutive coordinates, so a
    construction block takes one of each."""
    kind = values.dtype.type
    out, start = None, 0
    for i in range(1, len(block) + 1):
        if i == len(block) or block[i] != block[i - 1] + 1:
            # coordinates block[start]..block[i - 1] to bits start..i - 1
            bits = (values >> kind(block[start] - 1)) & kind((1 << (i - start)) - 1)
            out = bits if out is None else out | (bits << kind(start))
            start = i
    return np.zeros_like(values) if out is None else out


def _block_coeffs(factor: Factor, coeffs: np.ndarray) -> np.ndarray:
    """`coeffs`, X's coefficients in some dtype, remapped to the indices of
    its own block; the remap is increasing, so prefixes stay prefixes."""
    dense = np.zeros(1 << len(factor.block), coeffs.dtype)
    dense[_block_bits(factor.indices, factor.block)] = coeffs
    return dense


def _atoms_view(block, coords, table: np.ndarray) -> np.ndarray:
    """`table`, the block table of the increasing `block`, as a view on
    the atoms of the increasing coordinates `coords`, which hold the
    block: shape (2,) * len(coords), the top coordinate first, a stride
    per coordinate of the block and 0 per other, so on its own block
    it is the table itself."""
    block, coords = tuple(block), tuple(coords)
    if block != tuple(sorted(set(block) & set(coords))) or coords != tuple(sorted(set(coords))):
        raise ValueError(f"block {block} is not an increasing part of the increasing coordinates {coords}")
    step = {c: table.itemsize << i for i, c in enumerate(block)}
    return np.ndarray([2] * len(coords), table.dtype, table, strides=[step.get(c, 0) for c in coords[::-1]])


def factor_values(factor: Factor, coords) -> np.ndarray:
    """X on the atoms of the increasing coordinates `coords`, which hold
    its block: atom t sets coordinate coords[i] when bit i of t is set."""
    return _atoms_view(factor.block, coords, factor._block_table).copy().reshape(-1)


def product_values(factors, coords) -> np.ndarray:
    """prod (1 + X_i) pointwise on the atoms of `coords`, as in
    `factor_values`, so overlapping blocks work too."""
    out = np.ones(1 << len(coords))
    for f in factors:
        view = _atoms_view(f.block, coords, 1.0 + f._block_table)
        np.multiply(out.reshape(view.shape), view, out=out.reshape(view.shape))
    return out


def _product_ranges(factors) -> list[tuple[float, float]]:
    """[min, max] of Pi_k for k = 0..K.  Disjoint blocks make the factors
    independent, so Pi_k (1 + X) takes every product of a value of Pi_k
    and one of 1 + X, and its extremes sit at the four corners.  Rounding
    is monotone, so these are the rounded dense extremes bit for bit."""
    ranges = [(1.0, 1.0)]
    for factor in factors:
        products = [p * (1.0 + v) for p in ranges[-1] for v in factor.value_range]
        ranges.append((min(products), max(products)))
    return ranges


def _runs(values: np.ndarray):
    """(order, starts): `values[order]` ascending, its runs of equal values
    beginning at `starts`.  One argsort and a run mask, as np.unique on
    floats would import numpy.ma (about 1.3 MB of RSS)."""
    order = np.argsort(values)
    return order, np.flatnonzero(np.append(True, np.diff(values[order]) != 0)[: values.size])


def _histogram(values: np.ndarray, counts=1):
    """The distinct values of nonnegative float64 `values`, ascending, and
    the sum of `counts` (per value, or one each) over each.  They are
    grouped by their bits, whose int64 order is their order: the
    certificate's int64 sort is loaded already, and a float64 sort would
    add 64 kB of RSS."""
    order, starts = _runs(values.view(np.int64))
    return values[order[starts]], np.add.reduceat(np.broadcast_to(counts, values.shape)[order], starts)


def _magnitudes(coeffs: np.ndarray):
    """The histogram of |coeffs|: of a hand-built factor's or a cosine
    product's, as construction factors read theirs off their level."""
    return _histogram(np.abs(coeffs))


def _amplitude(level: int) -> float:
    """a_l = (1/2C) 2^(-l/2), C the flatness constant."""
    return (0.5 / FLATNESS_CONSTANT) * 2.0 ** (-level / 2)


def make_factor(level: int, block: BlockSpec) -> Factor:
    """The construction factor a_l phi_l on `block`, whose size must be
    level + 1 (ValueError) before `pair_law` checks the pair identity and
    the flatness bound at every level up to `level`."""
    factor = Factor(level, block.coordinates, _amplitude(level))
    pair_law(level)
    return factor


def _within_budget(amp: float, norm_a: float, psi: PsiSpec, bound: float) -> bool:
    """Condition (6) for a factor of amplitude (largest |c|) `amp` on a
    product with A-norm `norm_a`, `bound` the stage's budget term."""
    return norm_a**2 * psi.epsilon_bar(amp) <= bound


def _admissible(amp: float, norm_a: float, inf_value: float, psi: PsiSpec, bound: float) -> bool:
    """Conditions (5) and (6) for a factor of amplitude `amp` on a product
    with A-norm `norm_a` and infimum `inf_value`, `bound` the stage's
    budget term: the level rule of both the Walsh and the cosine builds."""
    return amp * norm_a <= 0.25 * inf_value and _within_budget(amp, norm_a, psi, bound)


def choose_next_level(state: RieszProductState, psi: PsiSpec, budget: SummabilityBudget) -> int:
    """Smallest level passing (5) and the budgeted envelope condition (6)
    among those whose block, on the next free coordinates, ends by
    coordinate 1023 (see `_LAST_COORDINATE`); LevelSelectionError if none.

    Both left-hand sides decrease in the level, so the linear scan stops
    at the first admissible value.  inf Pi_k is exact at every depth: it
    comes from the factors' own ranges (see `_product_ranges`).
    """
    k_next = state.stages + 1
    bound = budget.term_bound(k_next)
    for level in range(_LAST_COORDINATE - state.used_coordinates):
        if _admissible(_amplitude(level), state.norm_a, state.inf_value, psi, bound):
            return level
    raise LevelSelectionError(
        f"no admissible level for stage {k_next} whose block ends by coordinate {_LAST_COORDINATE}"
        f" (psi {psi.descriptor!r}; slowly decaying envelopes force very large levels)")


def add_factor(
    state: RieszProductState,
    level: int,
    block: BlockSpec | None = None,
) -> RieszProductState:
    """Append a factor on the next free coordinates (or an explicit block).

    The caller is responsible for level admissibility.  A block past
    coordinate 1023 raises CoordinateBudgetError (see `_LAST_COORDINATE`)
    before its pair law is built, so no level past 1022 starts one; the
    factor checks its block size (ValueError) and the state its layout
    (BlockOverlapError).
    """
    used = state.used_coordinates
    coords = range(used + 1, used + level + 2) if block is None else block.coordinates
    if coords and coords[-1] > _LAST_COORDINATE:  # before a default block is built
        raise CoordinateBudgetError(f"block {coords[0]}..{coords[-1]} reaches past coordinate"
                                    f" {_LAST_COORDINATE}: the certificates count its atoms in float64")
    return RieszProductState(state.factors + (make_factor(level, BlockSpec(tuple(coords))),))


def build_measure(
    psi: PsiSpec,
    stages: int,
    budget: SummabilityBudget = SummabilityBudget(),
) -> RieszProductState:
    """Run the level rule for the requested number of stages.  Raises
    ValueError for a negative stage count."""
    psi.validate()
    if stages < 0:
        raise ValueError(f"stage count {stages} is negative")
    state = empty_state()
    for _ in range(stages):
        level = choose_next_level(state, psi, budget)
        state = add_factor(state, level)
    return state


# ---------------------------------------------------------------------------
# positivity certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositivityCertificate:
    """Exact minima of the partial sums of the product's series.

    `global_min` is over orders p >= 1 (the empty sum is 0).
    `stage_margins[j]` is the minimum of S_p - (1/4) Pi_j over stage j's
    orders [edge_j, edge_(j+1)) (the last band closed), which the
    construction keeps nonnegative.  Both are exact for the product of
    the stored float64 factors, rounded once, so `method` is always
    "exact"; the certificate passes when all are nonnegative.  Every
    order on every atom is covered, so `exhaustive` is always true.
    """

    exhaustive: bool
    method: str
    depth: int
    support_size: int
    band_edges: tuple[int, ...]
    global_min: float
    stage_margins: tuple[float, ...]
    passed: bool


# An empty class's sentinel: a block table's integers sum below 2^61 in
# modulus, so the sentinel plus any of their sums stays inside int64 and
# beyond +-2^61, apart from every real prefix.
_EMPTY = 1 << 62


def _block_data(factor: Factor):
    """X = `factor` on its block atoms t', in integers over one unit
    u = g 2^-e: (g, e, X's integer range, classes).  A construction
    factor's come from its pair law (`_law_block_data`); a hand-built
    factor's from one merge:

    The unit is the gcd of the distinct magnitudes over their common
    power of two, so a construction factor's coefficients are +-u.  A
    factor whose integers' moduli sum to 2^61 or more is refused
    (CoordinateBudgetError, naming the bits) before any table is
    allocated.  One signed `_segment_merge` on int64 block tables, with
    a row per sign class b = +-k u of c_f w_f(t') (the rows of -b and b
    mirror each other, as the merge's sign flip needs), gives the
    extremes of P_<f(t') over each class; a class is (b, the vertices of
    C_b = conv{(X(t'), P_<f(t'))}, empty where b never occurs)."""
    if factor.construction:
        return _law_block_data(factor)
    mags, counts = factor.magnitudes
    pos = np.searchsorted(mags, np.abs(factor.coeffs))
    ratios = [m.as_integer_ratio() for m in mags.tolist()]  # (n, 2^q)
    den = max((q for _, q in ratios), default=1)
    ints = [n * (den // q) for n, q in ratios]
    g = math.gcd(*ints) or 1
    kvals = [n // g for n in ints]
    total = sum(k * count for k, count in zip(kvals, counts.tolist()))
    if total >> 61:
        raise CoordinateBudgetError(
            f"the factor on block {factor.block} sums to a {total.bit_length()}-bit integer"
            f" in its unit {g}/{den}; int64 block tables hold 61 bits"
        )
    ks = np.array(kvals, np.int64)[pos]
    xs = _block_coeffs(factor, np.where(np.signbit(factor.coeffs), -ks, ks))
    signs = [*kvals, *(-k for k in reversed(kvals))]
    rows = xs == np.array(signs)[:, None]
    mx, mn = np.where(rows, 0, -_EMPTY), np.where(rows, 0, _EMPTY)
    _segment_merge(xs, mx, mn)
    # only the lowest and highest P over each distinct X can be vertices
    order, starts = _runs(xs)
    values = xs[order[starts]].tolist()
    lows = np.minimum.reduceat(mn[:, order], starts, axis=1).tolist()
    highs = np.maximum.reduceat(mx[:, order], starts, axis=1).tolist()
    classes = [(b, _hull([(x, p) for x, low, high in zip(values, lo, hi) if high > -_EMPTY // 2
                          for p in (low, high)])) for b, lo, hi in zip(signs, lows, highs)]
    return g, den.bit_length() - 1, (values[0], values[-1]), classes


def _law_block_data(factor: Factor):
    """`_block_data` of a construction factor X = a r P_l, in the unit
    u = a, from family A of `pair_law(l)`: on the half r of the block,
    over the atoms where (P_l, Q_l) = (P, Q) and the orders before a term
    of sign s, X = rP, P_<f = rS and c_f w_f = rs, S between the family's
    extremes.  So class b gathers, for each r and (P, Q, rb), the points
    (rP, r low) and (rP, r high); per value of X only its lowest and
    highest P_<f are kept, as in the merge."""
    law = pair_law(factor.level)
    extremes = {1: {}, -1: {}}  # class b: {X: (lowest, highest P_<f)}
    for (p, _, s), (low, high) in law.prefixes_p.items():
        for r in (1, -1):
            _widen(extremes[r * s], r * p, *sorted((r * low, r * high)))
    values = law.flat_values
    n, den = factor.amplitude.as_integer_ratio()
    classes = [(b, _hull([(x, p) for x, ends in extremes[b].items() for p in ends]))
               for b in (1, -1)]
    return n, den.bit_length() - 1, (values[0][0], values[-1][0]), classes


def _hull(points) -> list[tuple[int, int]]:
    """The vertices of the convex hull of integer points, exactly: Andrew's
    monotone chain over Python ints, dropping repeated and collinear
    points.  A linear form's minimum over the points is its minimum
    over these."""
    points = sorted(set(points))
    vertices = []
    for run in (points, points[::-1]):
        chain = []
        for p in run:
            while len(chain) > 1 and ((chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                                      <= (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])):
                chain.pop()
            chain.append(p)
        vertices += chain[:-1]
    return vertices or points


def _bands(state: RieszProductState, edges):
    """Each band j in turn: (H_j, shift, (low, margin), scale).  H_j's
    vertices are integer pairs over 2^shift.  low and margin, integers
    over 2^scale, are the exact minima of S_p and of S_p - Pi_j/4 over
    band j's orders: x (s + P) + b y over H_j's vertices and the P of
    each class's vertices, s = 1 or 3/4.  Where the band reaches
    Pi_(j+1), those orders form one more class, b = 0 and P = X."""
    hull, shift = [(1, 0)], 0  # H_0 = {(Pi_0, S_0)}
    for j, factor in enumerate(state.factors):
        g, e, ends, classes = _block_data(factor)
        if j == state.stages - 1 or factor.top_index + edges[j] < edges[j + 1]:
            classes.append((0, [(p, p) for p in ends]))

        def form(x, y, p, b, s=4):
            # 2^(shift + e + 2) (x (s/4 + p u) + b u y) at a vertex (x, y), u = g 2^-e
            return x * ((s << e) + (g * p << 2)) + (g * b * y << 2)

        yield hull, shift, [min(form(x, y, p, b, s) for x, y in hull for b, vertices in classes
                                for _, p in vertices) for s in (4, 3)], shift + e + 2
        heads = [(form(x, y, p, 0), y << e + 2) for x, y in hull for p in ends]
        bands = [(form(x, y, p, 0), form(x, y, q, b))
                 for x, y in hull for b, vertices in classes for p, q in vertices]
        hull, shift = _hull(heads + bands), shift + e + 2


def verify_all_partial_sums(state: RieszProductState, seed: int = 1729) -> PositivityCertificate:
    """Certify S_p >= 0 and the stagewise S_p >= (1/4) Pi_j bound on
    every order and every atom, band by band, exactly (see the module
    docstring): O(1) Python-int work per level of a construction factor,
    O(|J| 2^|J|) int64 work per hand-built factor and sign class, and
    Python-int work on a few hull vertices per band.
    `seed` is accepted and unused; no certificate draws random numbers.
    """
    edges = (1, *(1 << f.block[-1] for f in state.factors))  # the stage bands' first orders
    gmin, margins, passed = 1.0, [], True  # S_1 = 1, the constant term
    for _, _, (low, margin), scale in _bands(state, edges):
        gmin = min(gmin, low / (1 << scale))  # int true division rounds once
        margins.append(margin / (1 << scale))
        passed = passed and low >= 0 and margin >= 0
    return PositivityCertificate(
        exhaustive=True,
        method="exact",
        depth=state.used_coordinates,
        support_size=state.support_size,
        band_edges=edges,
        global_min=gmin,
        stage_margins=tuple(margins),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# psi summability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiSumReport:
    """Exact sum_n>=1 psi(|c_n|) against the stagewise envelope bounds.

    stage_exact[k] is the exact sum over stage k's terms of the float64
    psi(|c|), rounded once to float64 (it equals math.fsum of the per-term
    values); exact_total and bound_total are the exact sums of the stage
    figures, rounded once, so every figure is the same on every Python
    version.
    stage_bounds[k] = ||X_k||_2^2 ||Pi_(k-1)||_A^2 eps_bar(PM of stage k),
    that PM the largest |c| of Pi_(k-1) times X_k's; ||X_k||_2 = 1/2C
    and X_k's largest |c| is a_k for construction factors, so this is the
    familiar (1/4C^2) ||Pi_(k-1)||_A^2 eps_bar(a_k).
    `ok` holds when exact_total is within its bound and, when a budget is
    given, condition (6) holds at every stage, with X_k's largest |c| in
    float64 as the level rule evaluates it (`_within_budget`): a
    rule-built state meets it by construction.
    """

    stage_exact: tuple[float, ...]
    stage_bounds: tuple[float, ...]
    budget_terms: tuple[float, ...] | None
    exact_total: float
    bound_total: float
    c0_term: float
    ok: bool


def _exact_sum(values, counts=None) -> float:
    """sum of the float64 `values`, each times its count when `counts` is
    given, exact and rounded once, so it is the same on every Python
    version (3.12's builtin sum compensates, older ones do not).  `values`
    is read lazily.  A finite float64 n/2^e has e <= 1074, so it is the
    integer n 2^(1074 - e) over 2^1074, and int true division rounds once
    (`fractions` would cost 0.25 MB of RSS)."""
    ratios = (float(v).as_integer_ratio() for v in values)
    weights = repeat(1) if counts is None else counts.tolist()
    return sum(n * c << 1075 - den.bit_length() for (n, den), c in zip(ratios, weights)) / (1 << 1074)


def _psi_stage(k: int, psi: PsiSpec, mags: np.ndarray, counts: np.ndarray, bound: float) -> float:
    """Stage k's psi sum, of either build: the exact sum of psi(|c|) over
    the stage's magnitude histogram (`_exact_sum`).  A stage with terms
    whose sum or `bound` lies below 2^-1022, float64's normal range, is
    refused (CoordinateBudgetError).  psi(x) <= x^2 eps_bar(x) <= x^2 eps_bar(m)
    for each |c| = x of the stage, m the largest, so sum psi(|c|) <=
    sum c^2 eps_bar(m), which each build's bound is at least: a sum past
    its bound raises InvariantViolation."""
    exact = _exact_sum(map(psi.psi, mags.tolist()), counts)
    if mags.size and not min(exact, bound) >= 2.0**-1022:
        raise CoordinateBudgetError(
            f"stage {k} psi sum {exact!r} or its bound {float(bound)!r} is below"
            " float64's normal range (2^-1022): their comparison would say nothing"
        )
    # equality is attainable (single-coefficient stages), where the bound's
    # products and psi's own evaluation round apart by an ulp or so
    if exact > bound * (1.0 + 1e-12):
        raise InvariantViolation(f"stage {k} psi sum {exact} exceeds its bound {bound}")
    return exact


def psi_sum_report(
    state: RieszProductState,
    psi: PsiSpec,
    budget: SummabilityBudget | None = None,
) -> PsiSumReport:
    """Stage psi sums from the factors' magnitude histograms, at any depth.

    psi(|c|) depends on |c| alone, and the blocks are disjoint, so stage
    k's magnitudes are the products of one distinct |c| of Pi_(k-1) and
    one of X_k, each as often as the product of their counts; the outer
    product of the magnitudes is bitwise the per-term products.  Each
    stage sum is `_exact_sum` over their histogram (see `PsiSumReport`).
    A stage with more than SPECTRUM_LIMIT magnitude products is refused
    (CoordinateBudgetError) before they are allocated, and so is one
    whose sum or bound underflows."""
    budget_terms = None if budget is None else tuple(map(budget.term_bound, range(1, state.stages + 1)))
    mags, counts = np.ones(1), np.ones(1, np.int64)  # Pi_0's distinct |c| and their counts
    norm_a, stage_exact, stage_bounds, within = 1.0, [], [], True
    for k, factor in enumerate(state.factors, 1):
        fmags, fcounts = factor.magnitudes
        top = fmags.max(initial=0.0)  # X_k's largest |c|: a construction factor's amplitude
        # ||X_k||_2^2 from the histogram; PM of stage k is the largest |c|
        # of Pi_(k-1) times X_k's
        bound = np.sum(fcounts * fmags**2) * norm_a**2 * psi.epsilon_bar(mags[-1] * top)
        if budget_terms is not None:
            within = within and _within_budget(top, norm_a, psi, budget_terms[k - 1])
        if mags.size * fmags.size > SPECTRUM_LIMIT:
            raise CoordinateBudgetError(
                f"stage {k} pairs {mags.size:,} magnitudes with {fmags.size:,}: past the"
                f" limit of {SPECTRUM_LIMIT:,} products"
            )
        stage = _histogram(np.multiply.outer(mags, fmags).ravel(),
                           np.multiply.outer(counts, fcounts).ravel())
        stage_exact.append(_psi_stage(k, psi, *stage, bound))
        stage_bounds.append(float(bound))
        norm_a *= 1.0 + factor.norm_a
        mags, counts = _histogram(*map(np.concatenate, zip((mags, counts), stage)))  # Pi_k's
    exact_total = _exact_sum(stage_exact)
    bound_total = _exact_sum(stage_bounds)
    return PsiSumReport(
        stage_exact=tuple(stage_exact),
        stage_bounds=tuple(stage_bounds),
        budget_terms=budget_terms,
        exact_total=exact_total,
        bound_total=bound_total,
        c0_term=float(psi.psi(1.0)),
        ok=exact_total <= bound_total * (1.0 + 1e-12) and within,
    )


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def export_measure(state: RieszProductState, path) -> None:
    """The spectrum as CSV `n,coeff` by `walsh._write_coeff_rows`, refused
    past SPECTRUM_LIMIT terms; Pi_(K-1), unless X_K has more terms, is
    the writer's inner part and 1 + X_K its outer part."""
    _check_spectrum_limit(state)
    last, outer = state.factors[-1:], ((0,), (1.0,))
    if last and state.support_size >= (1 + last[0].terms) * last[0].terms:
        outer = np.append(0, last[0].indices), np.append(1.0, last[0].coeffs)
        state = RieszProductState(state.factors[:-1])
    _write_coeff_rows(path, "n", state.spectrum.indices, state.spectrum.coeffs, outer)


def load_spectrum_csv(path) -> Spectrum:
    indices, coeffs = read_coeff_rows(path)
    if int(indices[-1]) >> 63:
        raise SeriesFormatError(f"index {indices[-1]} does not fit in 63 bits")
    return Spectrum(indices, coeffs)


def state_manifest(state: RieszProductState) -> dict:
    """The reproducible description of the product: constant plus stages,
    each rebuilt from its level and block (`state_from_manifest`), so a
    hand-built factor, which they do not describe, raises ValueError
    naming its stage."""
    for k, f in enumerate(state.factors, start=1):
        if not f.construction:
            raise ValueError(f"stage {k}: a hand-built factor has no manifest entry")
    return {
        "flatness_constant": FLATNESS_CONSTANT,
        "stages": [
            {
                "level": f.level,
                "block": list(f.block),
                "amplitude": f.amplitude,
            }
            for f in state.factors
        ],
    }


def state_from_manifest(data: dict) -> RieszProductState:
    """Rebuild the state from its stages; other keys are ignored, among
    them the two coordinate caps older manifests recorded.  A level or
    block coordinate that is not a JSON integer (a float such as 1.5 or
    Infinity, a bool, a string), or an amplitude that is not a JSON
    number (a bool, a string), raises ValueError naming its stage."""
    state = empty_state()
    for k, stage in enumerate(data["stages"], start=1):
        level, block = stage["level"], list(stage["block"])
        if any(type(v) is not int for v in [level, *block]):  # a bool is no int here
            raise ValueError(f"stage {k}: level {level!r} and block {block!r} must be integers")
        if type(stage["amplitude"]) not in (int, float):
            raise ValueError(f"stage {k}: amplitude {stage['amplitude']!r} must be a number")
        state = add_factor(state, level, BlockSpec(tuple(block)))
        rebuilt = state.factors[-1].amplitude
        if not math.isclose(rebuilt, stage["amplitude"], rel_tol=1e-15):
            raise ValueError(
                f"amplitude mismatch rebuilding stage {k}: {rebuilt} vs {stage['amplitude']}"
            )
    return state
