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
Each X_i is evaluated on its own block's 2^|J_i| atoms (one butterfly)
and read off by the block's bits of the atom.

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
  - the block: one signed prefix-extrema merge on X's 2^|J| block
    atoms, a pair of rows per coefficient magnitude mu, giving the
    smallest and largest P_<f(t') over each sign class of
    c_f w_f(t') = b = +-mu, and with them C_b, the hull of the points
    (X(t'), P_<f(t')).

Band j's smallest S_p and S_p - Pi_j/4 are x (s + P) + b y at the
vertices of H_j, with P at its class extremes and s = 1 or 3/4.  Each
factor's coefficients are integers over one dyadic unit, the block
merges run in int64 and the hull vertices are Python-int pairs over a
common power of two, so every figure is exact for the product of the
stored float64 factors and is rounded once, at every depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat

import numpy as np

from .rudin_shapiro import _MAX_PAIR_LEVEL, FLATNESS_CONSTANT, BlockSpec
from .rudin_shapiro import build_flat, substitute_sparse
from .walsh import (
    InvariantViolation,
    SeriesFormatError,
    _segment_merge,
    _write_coeff_rows,
    atom_patterns,
    butterfly,
    read_coeff_rows,
)

__all__ = [
    "PsiHypothesisError",
    "LevelSelectionError",
    "BlockOverlapError",
    "CoordinateBudgetError",
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

# Largest spectrum built or exported, in terms (16 bytes each), and the
# most magnitude products one psi stage pairs; the ladder's largest build,
# depth 21, has 589,860 terms.
SPECTRUM_LIMIT = 1 << 24


class PsiHypothesisError(ValueError):
    """psi fails the gauge hypothesis: psi(x)/x^2 must tend to 0 at 0."""


class LevelSelectionError(RuntimeError):
    """No admissible level within the cap."""


class BlockOverlapError(ValueError):
    """A factor block touches coordinates already in use, or a factor's
    index sets bits outside its block."""


class CoordinateBudgetError(ValueError):
    """A state past a size limit: a block past coordinate 63 (Walsh
    indices are int64), a spectrum past SPECTRUM_LIMIT terms, a psi stage
    with more than SPECTRUM_LIMIT magnitude products or with a sum or
    bound below float64's normal range, a factor whose
    integer coefficients sum past the 61 bits of the certificate's int64
    block tables, or dense diagnostics past
    `martingale.DIAGNOSTIC_DEPTH_LIMIT`."""


# ---------------------------------------------------------------------------
# the gauge psi and its monotone envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiSpec:
    """An increasing gauge psi with the monotone envelope of psi(x)/x^2.

    `envelope_decays` records whether eps_bar(x) -> 0 as x -> 0 (known
    analytically for the presets, probed on the grid for tables); the
    product construction is only possible when it does.
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
    def from_table(cls, xs, ys, descriptor: str = "table") -> "PsiSpec":
        """Tabulated psi on an increasing sample grid: linear between
        samples, ys[-1] past the grid and ys[0] (x/xs[0])^2 below it.

        The envelope at x is the sup of psi(y)/y^2 over y <= x, exactly:
        the running sup over the samples and the segments below x, then
        this segment up to x.  On a segment psi = a + b x, and psi/x^2
        is monotone there unless a < 0 and x* = -2a/b lies inside, where
        it peaks at -b^2/(4a); below the grid it is ys[0]/xs[0]^2.  Decay
        is probed by comparing ys/xs^2 at the first sample with its
        largest.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("need matching 1-d sample arrays with >= 2 points")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("psi samples must be finite")
        if np.any(xs <= 0) or np.any(np.diff(xs) <= 0):
            raise ValueError("sample grid must be positive and increasing")
        if np.any(ys < 0) or np.any(np.diff(ys) < 0):
            raise ValueError("psi samples must be nonnegative and nondecreasing")
        slope = np.diff(ys) / np.diff(xs)
        intercept = ys[:-1] - slope * xs[:-1]
        # a < 0 makes b > 0, as ys >= 0 at the segment's left end
        dips = intercept < 0
        star = np.where(dips, -2.0 * intercept / np.where(dips, slope, 1.0), 0.0)
        inside = dips & (xs[:-1] < star) & (star < xs[1:])
        peak = np.where(inside, -slope * slope / (4.0 * np.where(dips, intercept, -1.0)), 0.0)
        # env[i]: the sup over [xs[0], xs[i]], samples and whole segments
        ratio = ys / (xs * xs)
        env = np.maximum.accumulate(np.maximum(ratio, np.append(0.0, peak)))

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
            i = int(np.searchsorted(xs, x, side="right")) - 1
            if i < 0:
                return float(env[0])
            if i == xs.size - 1 or not inside[i] or x < star[i]:
                return max(float(env[i]), psi(x) / (x * x))
            return max(float(env[i]), float(peak[i]))

        decays = ratio[0] <= 0.5 * ratio.max()
        return cls(descriptor, psi, envelope, bool(decays))

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

@dataclass(frozen=True, eq=False)
class Factor:
    """One factor X = amplitude * phi_level on the given block."""

    level: int
    block: tuple[int, ...]
    amplitude: float
    indices: np.ndarray
    coeffs: np.ndarray

    @cached_property
    def norm_a(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    @cached_property
    def norm_2(self) -> float:
        return float(np.sqrt(np.sum(self.coeffs * self.coeffs)))

    @cached_property
    def value_range(self) -> tuple[float, float]:
        """min X and max X, read off its block table once per factor."""
        table = _block_table(self)
        return float(table.min()), float(table.max())


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
        return math.prod(1 + f.indices.size for f in self.factors)

    @cached_property
    def spectrum(self) -> Spectrum:
        """The sorted spectrum of Pi_k; refused past SPECTRUM_LIMIT terms."""
        _check_spectrum_limit(self)
        indices, coeffs = np.zeros(self.support_size, np.int64), np.ones(self.support_size)
        size = 1  # index 0, coefficient 1: Pi_0
        for f in self.factors:
            # factor index outer, old index inner: already ascending
            stage = slice(size, size * (1 + f.indices.size))
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


def _block_table(factor: Factor) -> np.ndarray:
    """X on the 2^|block| atoms of its own block, by one butterfly."""
    return butterfly(_block_coeffs(factor, factor.coeffs))


def _product_at(factors, patterns: np.ndarray) -> np.ndarray:
    """prod (1 + X_i) on the given atom patterns, read from block tables;
    pointwise, so overlapping blocks work too."""
    out = np.ones(patterns.size)
    for f in factors:
        out *= 1.0 + _block_table(f)[_block_bits(patterns, f.block)]
    return out


def factor_values(factor: Factor, m: int) -> np.ndarray:
    """X evaluated on all 2^m atoms (coordinates past m read as +1)."""
    return _block_table(factor)[_block_bits(atom_patterns(m), factor.block)]


def product_values(factors, m: int) -> np.ndarray:
    """prod (1 + X_i) evaluated pointwise on all 2^m atoms."""
    return _product_at(factors, atom_patterns(m))


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
    """The histogram of |coeffs|, taken 2^14 coefficients at a time and then
    over the chunks' distinct values, so that a factor with few magnitudes
    needs no temporary as large as its coefficients."""
    chunks = (np.abs(coeffs[lo : lo + (1 << 14)]) for lo in range(0, max(coeffs.size, 1), 1 << 14))
    return _histogram(*map(np.concatenate, zip(*map(_histogram, chunks))))


def _amplitude(level: int) -> float:
    """a_l = (1/2C) 2^(-l/2), C the flatness constant."""
    return (0.5 / FLATNESS_CONSTANT) * 2.0 ** (-level / 2)


def make_factor(level: int, block: BlockSpec) -> Factor:
    amplitude = _amplitude(level)
    flat = build_flat(level)
    idx, signs = substitute_sparse(flat, block)
    return Factor(
        level=level,
        block=block.coordinates,
        amplitude=amplitude,
        indices=idx,
        coeffs=amplitude * signs.astype(np.float64),
    )


def _admissible(amp: float, norm_a: float, inf_value: float, psi: PsiSpec, bound: float) -> bool:
    """Conditions (5) and (6) for a factor of amplitude `amp` on a product
    with A-norm `norm_a` and infimum `inf_value`, `bound` the stage's
    budget term: the level rule of both the Walsh and the cosine builds."""
    return amp * norm_a <= 0.25 * inf_value and norm_a**2 * psi.epsilon_bar(amp) <= bound


def _monomial(alpha, factor_count: int) -> list[int]:
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


def choose_next_level(
    state: RieszProductState,
    psi: PsiSpec,
    budget: SummabilityBudget,
    level_cap: int = _MAX_PAIR_LEVEL,
) -> int:
    """Smallest level passing (5) and the budgeted envelope condition (6),
    by default up to the largest flat polynomial `build_pair` builds.

    Both left-hand sides decrease in the level, so the linear scan stops
    at the first admissible value.  inf Pi_k is exact at every depth: it
    comes from the factors' own ranges (see `_product_ranges`).
    """
    k_next = state.stages + 1
    bound = budget.term_bound(k_next)
    for level in range(level_cap + 1):
        if _admissible(_amplitude(level), state.norm_a, state.inf_value, psi, bound):
            return level
    raise LevelSelectionError(
        f"no admissible level <= {level_cap} for stage {k_next}"
        f" (psi {psi.descriptor!r}; slowly decaying envelopes force"
        " very large levels)"
    )


def add_factor(
    state: RieszProductState,
    level: int,
    block: BlockSpec | None = None,
) -> RieszProductState:
    """Append a factor on the next free coordinates (or an explicit block).

    The caller is responsible for level admissibility; structural rules
    are enforced here: the block must sit strictly to the right of all
    used coordinates and end by coordinate 63, whose Walsh index 2^62 is
    the last that int64 holds with its XOR products.
    """
    if block is None:
        lo = state.used_coordinates + 1
        block = BlockSpec(tuple(range(lo, lo + level + 1)))
    if len(block) != level + 1:
        raise ValueError(f"block size {len(block)} != level + 1 = {level + 1}")
    if block.coordinates[0] <= state.used_coordinates:
        raise BlockOverlapError(
            f"block {block.coordinates} overlaps coordinates <= {state.used_coordinates}"
        )
    if block.sup > 63:
        raise CoordinateBudgetError(
            f"block {block.coordinates} reaches past coordinate 63: Walsh indices are int64"
        )
    return replace(state, factors=state.factors + (make_factor(level, block),))


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
    u = g 2^-e: (g, e, X's integer range, classes).

    The unit is the gcd of the distinct magnitudes over their common
    power of two, so a construction factor's coefficients are +-u.  A
    factor whose integers' moduli sum to 2^61 or more is refused
    (CoordinateBudgetError, naming the bits) before any table is
    allocated.  One signed `_segment_merge` on int64 block tables, with
    a row per sign class b = +-k u of c_f w_f(t') (the rows of -b and b
    mirror each other, as the merge's sign flip needs), gives the
    extremes of P_<f(t') over each class; a class is (b, the vertices of
    C_b = conv{(X(t'), P_<f(t'))}, empty where b never occurs)."""
    mags, counts = _magnitudes(factor.coeffs)
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
    for _ in _segment_merge(xs, mx, mn):
        pass
    # only the lowest and highest P over each distinct X can be vertices
    order, starts = _runs(xs)
    values = xs[order[starts]].tolist()
    lows = np.minimum.reduceat(mn[:, order], starts, axis=1).tolist()
    highs = np.maximum.reduceat(mx[:, order], starts, axis=1).tolist()
    classes = [(b, _hull([(x, p) for x, low, high in zip(values, lo, hi) if high > -_EMPTY // 2
                          for p in (low, high)])) for b, lo, hi in zip(signs, lows, highs)]
    return g, den.bit_length() - 1, (values[0], values[-1]), classes


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
        if j == state.stages - 1 or factor.indices.max(initial=0) + edges[j] < edges[j + 1]:
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
    docstring): O(|J| 2^|J|) int64 work per factor and sign class, and
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
    stage_bounds[k] = ||X_k||_2^2 ||Pi_(k-1)||_A^2 eps_bar(PM of stage k);
    ||X_k||_2 = 1/2C for construction factors, so this is the familiar
    (1/4C^2) ||Pi_(k-1)||_A^2 eps_bar(a_k).
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


def _require_normal(k: int, exact: float, bound: float) -> None:
    """Refuse stage k's psi sum or bound below 2^-1022, the normal range."""
    if not min(exact, bound) >= 2.0**-1022:
        raise CoordinateBudgetError(
            f"stage {k} psi sum {exact!r} or its bound {float(bound)!r} is below"
            " float64's normal range (2^-1022): their comparison would say nothing"
        )


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
    mags, counts = np.ones(1), np.ones(1, np.int64)  # Pi_0's distinct |c| and their counts
    norm_a, stage_exact, stage_bounds = 1.0, [], []
    for k, factor in enumerate(state.factors, 1):
        fmags, fcounts = _magnitudes(factor.coeffs)
        # ||X_k||_2^2 from the histogram; PM of stage k is the largest |c|
        # of Pi_(k-1) times the amplitude
        bound = np.sum(fcounts * fmags**2) * norm_a**2 * psi.epsilon_bar(mags[-1] * factor.amplitude)
        if mags.size * fmags.size > SPECTRUM_LIMIT:
            raise CoordinateBudgetError(
                f"stage {k} pairs {mags.size:,} magnitudes with {fmags.size:,}: past the"
                f" limit of {SPECTRUM_LIMIT:,} products"
            )
        stage = _histogram(np.multiply.outer(mags, fmags).ravel(),
                           np.multiply.outer(counts, fcounts).ravel())
        exact = _exact_sum(map(psi.psi, stage[0].tolist()), stage[1])
        if fmags.size:
            _require_normal(k, exact, bound)
        if exact > bound * (1.0 + 1e-12):
            raise InvariantViolation(f"stage {k} psi sum {exact} exceeds its bound {bound}")
        stage_exact.append(exact)
        stage_bounds.append(float(bound))
        norm_a *= 1.0 + float(np.sum(fcounts * fmags))  # ||X_k||_A
        mags, counts = _histogram(*map(np.concatenate, zip((mags, counts), stage)))  # Pi_k's
    budget_terms = None
    if budget is not None:
        budget_terms = tuple(
            budget.term_bound(k) for k in range(1, state.stages + 1)
        )
    exact_total = _exact_sum(stage_exact)
    bound_total = _exact_sum(stage_bounds)
    # equality is attainable (single-coefficient stages), where the bound's
    # products and psi's own evaluation round apart by an ulp or so
    return PsiSumReport(
        stage_exact=tuple(stage_exact),
        stage_bounds=tuple(stage_bounds),
        budget_terms=budget_terms,
        exact_total=exact_total,
        bound_total=bound_total,
        c0_term=float(psi.psi(1.0)),
        ok=exact_total <= bound_total * (1.0 + 1e-12),
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
    if last and state.support_size >= (1 + last[0].indices.size) * last[0].indices.size:
        outer = np.append(0, last[0].indices), np.append(1.0, last[0].coeffs)
        state = RieszProductState(state.factors[:-1])
    _write_coeff_rows(path, "n", state.spectrum.indices, state.spectrum.coeffs, outer)


def load_spectrum_csv(path) -> Spectrum:
    indices, coeffs = read_coeff_rows(path)
    if int(indices[-1]) >> 63:
        raise SeriesFormatError(f"index {indices[-1]} does not fit in 63 bits")
    return Spectrum(indices, coeffs)


def state_manifest(state: RieszProductState) -> dict:
    """The reproducible description of the product: constant plus stages."""
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
    them the two coordinate caps older manifests recorded."""
    state = empty_state()
    for stage in data["stages"]:
        block = BlockSpec(tuple(int(j) for j in stage["block"]))
        state = add_factor(state, int(stage["level"]), block)
        rebuilt = state.factors[-1].amplitude
        if not math.isclose(rebuilt, float(stage["amplitude"]), rel_tol=1e-15):
            raise ValueError(
                f"amplitude mismatch rebuilding stage: {rebuilt} vs {stage['amplitude']}"
            )
    return state
