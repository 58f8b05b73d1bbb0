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
int64/float64 arrays, stage k at positions [N_(k-1), N_k), built only
for the export, and refused past SPECTRUM_LIMIT terms before anything
is allocated; the dense series is grown from the factors instead.
Each X_i is evaluated on its own block's 2^|J_i| atoms (one butterfly)
and read off elsewhere by the block's bits of the atom.

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
in S_m and in P_<f, so each band's minimum is read off two pieces of
data:

  - the head: Pi_j on its atoms with the range [lo, hi] of its proper
    prefix sums S_0..S_(2^d_j - 1), the empty one included.  While
    d_j <= DENSE_LIMIT these are dense tables, exact, from one prefix
    merge of Pi_j's coefficients; past it a two-point interval head,
    the range of Pi_j from the factors' ranges and +-||Pi_j||_A for the
    prefixes, which gives lower bounds;
  - the block: one signed prefix-extrema butterfly on X's 2^|J| block
    atoms per coefficient magnitude mu, giving the smallest and largest
    P_<f(t') over each sign class of c_f w_f(t') = +-mu.

Class +mu then takes the head's smallest prefix sum and class -mu its
largest, and a band costs a few vector minima over the head's atoms.
The certificate reports the computed figures, and passes only when each
is at least the rounding allowance (see `verify_all_partial_sums`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .rudin_shapiro import _MAX_PAIR_LEVEL, FLATNESS_CONSTANT, BlockSpec
from .rudin_shapiro import build_flat, substitute_sparse
from .walsh import (
    InvariantViolation,
    SeriesFormatError,
    WalshSeries,
    _python_items,
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
    "state_series",
    "factor_values",
    "product_values",
    "verify_all_partial_sums",
    "psi_sum_report",
    "export_measure",
    "load_spectrum_csv",
    "state_manifest",
    "state_from_manifest",
]

# Largest depth densified: by `state_series`, and by the positivity
# certificate for a band whose head Pi_j ends at coordinate
# d_j <= DENSE_LIMIT, whose tables hold 2^d_j float64 values each (past
# it the head is an interval).  A 20-coordinate head with all 2^20
# terms took 0.4-0.5 s and a 32 MiB tracemalloc peak on a shared
# 2-core Xeon: its coefficients are grown from the factors, and one
# in-place merge holds four tables of 2^20 float64 values (S, MX, MN
# and a scratch).
DENSE_LIMIT = 20

# Largest spectrum materialized, in terms (16 bytes each); the ladder's
# largest build, depth 21, has 589,860.
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
    indices are int64), a spectrum past SPECTRUM_LIMIT terms, a dense
    series past DENSE_LIMIT coordinates, or dense diagnostics past
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
        """psi(x) = x^2 / (1 + ln(1/x))^p on (0, 1], extended by x^2 (1 + ln x)^p."""
        if p < 1:
            raise ValueError("logpow preset needs p >= 1")

        def psi(x):
            x = float(x)
            if x <= 0.0:
                return 0.0
            if x >= 1.0:
                return x * x * (1.0 + math.log(x)) ** p
            return x * x / (1.0 + math.log(1.0 / x)) ** p

        def envelope(x):
            x = float(x)
            if x <= 0.0:
                return 0.0
            if x >= 1.0:
                return (1.0 + math.log(x)) ** p
            return 1.0 / (1.0 + math.log(1.0 / x)) ** p

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
        """Tabulated psi on an increasing sample grid.

        The envelope at x is the running sup of ys/xs^2 over samples <= x
        (clamped to the first sample below the grid); decay is probed by
        comparing the envelope at the grid ends.  Refine the grid for a
        sharper envelope.
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
        ratio = ys / (xs * xs)
        env = np.maximum.accumulate(ratio)

        def psi(x):
            x = float(x)
            if x <= 0.0:
                return 0.0
            return float(np.interp(x, xs, ys))

        def envelope(x):
            x = float(x)
            if x <= 0.0:
                return 0.0
            i = int(np.searchsorted(xs, x, side="right")) - 1
            return float(env[max(i, 0)])

        decays = env[0] <= 0.5 * env[-1]
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

    def total(self, stages: int) -> float:
        return sum(self.term_bound(k) for k in range(1, stages + 1))


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

    @property
    def norm_a(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    @property
    def norm_2(self) -> float:
        return float(np.sqrt(np.sum(self.coeffs * self.coeffs)))

    @cached_property
    def value_range(self) -> tuple[float, float]:
        """min X and max X, read off its block table once per factor."""
        table = _block_table(self)
        return float(table.min()), float(table.max())


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sparse spectrum: strictly increasing indices and their coefficients.

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
        indices, coeffs = np.zeros(1, dtype=np.int64), np.ones(1)
        for f in self.factors:
            # factor index outer, old index inner: already ascending
            indices = np.concatenate([indices, np.bitwise_xor.outer(f.indices, indices).ravel()])
            coeffs = np.concatenate([coeffs, np.multiply.outer(f.coeffs, coeffs).ravel()])
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
    """Bits of indices or atom patterns at coordinate block[i], as bit i."""
    out = np.zeros_like(values)
    for i, coord in enumerate(block):
        out |= ((values >> (coord - 1)) & 1) << i
    return out


def _block_coeffs(factor: Factor) -> np.ndarray:
    """X's coefficients remapped to the indices of its own block; the
    remap is increasing, so prefixes stay prefixes."""
    dense = np.zeros(1 << len(factor.block))
    dense[_block_bits(factor.indices, factor.block)] = factor.coeffs
    return dense


def _block_table(factor: Factor) -> np.ndarray:
    """X on the 2^|block| atoms of its own block, by one butterfly."""
    return butterfly(_block_coeffs(factor))


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
    the last that int64 holds with its XOR products.  Then the new XOR
    products extend the sorted spectrum (the Spectrum's strictly-
    increasing check asserts it when the spectrum is built).
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


def state_series(state: RieszProductState) -> WalshSeries:
    """Dense Walsh series of the current product, refused past
    DENSE_LIMIT coordinates before anything is allocated.

    Grown from the factors, not from the spectrum: X_k's block lies
    above Pi_(k-1)'s top coordinate d (the state refuses any other
    layout), so with the coefficients as rows of 2^d, Pi_(k-1) fills
    row 0 and c_f Pi_(k-1) row f >> d.  Only the terms of Pi_(k-1)'s
    support are written there, tracked in a mask: the other slots keep
    +0.0, where c_f times a zero slot could read -0.0, so the bytes
    equal the spectrum's scatter."""
    depth = state.used_coordinates
    if depth > DENSE_LIMIT:
        raise CoordinateBudgetError(f"refusing to densify a depth-{depth} spectrum")
    coeffs, support = np.ones(1), np.ones(1, dtype=bool)
    for f in state.factors:
        rows = f.indices // coeffs.size
        grown = np.zeros(1 << f.block[-1]).reshape(-1, coeffs.size)
        held = np.zeros(grown.shape, dtype=bool)
        grown[0], grown[rows] = coeffs, np.where(support, np.multiply.outer(f.coeffs, coeffs), 0.0)
        held[0], held[rows] = support, support
        coeffs, support = grown.ravel(), held.ravel()
    return WalshSeries(depth, coeffs)


# ---------------------------------------------------------------------------
# positivity certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositivityCertificate:
    """Minima of the partial sums of the product's series, or lower bounds.

    `global_min` is over orders p >= 1 (the empty sum is 0 by
    definition).  `stage_margins[j]` is the pointwise minimum of
    S_p - (1/4) Pi_j over stage j's orders [edge_j, edge_(j+1)) (the
    last band closed), which the construction keeps nonnegative.
    `method` is "exact" when every band's head Pi_j lies within
    DENSE_LIMIT coordinates, so both are exact minima, and "bounds" when
    some head is an interval, so those bands give lower bounds.
    `rounding_slack` is the float rounding allowance (K+3) 2^-52
    ||Pi_K||_A; the figures are reported as computed, and the
    certificate passes only when each is at least the slack.  Either way
    every order on every atom is covered, so `exhaustive` is always true.
    """

    exhaustive: bool
    method: str
    depth: int
    support_size: int
    band_edges: tuple[int, ...]
    global_min: float
    stage_margins: tuple[float, ...]
    rounding_slack: float
    passed: bool


def _head_tables(head: RieszProductState):
    """Pi_j and the range [lo, hi] of its proper prefix sums S_m, m < 2^d_j
    (S_0 = 0 included), on the head's atoms: dense tables while
    d_j <= DENSE_LIMIT, else a two-point interval head, the range of
    Pi_j with |S_m| <= ||Pi_j||_A.

    The dense tables are one `_segment_merge` of the head's coefficients
    (`state_series`) with one class of prefixes: the sums before each
    slot, starting from 0.  So S is Pi_j, bit for bit the `butterfly`,
    and MX, MN range over S_0..S_(2^d_j - 1), the proper prefixes, in
    place on four tables of 2^d_j values (S, MX, MN and the scratch)."""
    if head.used_coordinates > DENSE_LIMIT:
        norm = np.full(2, head.norm_a)
        return np.array(_product_ranges(head.factors)[-1]), -norm, norm
    pi = state_series(head).coeffs
    hi, lo = np.zeros((1, pi.size)), np.zeros((1, pi.size))
    for _ in _segment_merge(pi, hi, lo):
        pass
    return pi, lo[0], hi[0]


def _band_minima(pi, lo, hi, factor: Factor, reaches_end: bool) -> tuple[float, float]:
    """The smallest S_p and S_p - Pi_j/4 over band j's orders, from the
    head tables (pi, lo, hi) and X = `factor`: S_p = Pi_j (1 + P) + b S_m
    is smallest at an end of P's class range and, b = +-mu, at S_m = lo
    or hi.  `reaches_end` adds the orders reading Pi_j (1 + X)."""
    coeffs = _block_coeffs(factor)
    cases = []  # (smallest P, largest P, b S_m at its worst)
    for mu in set(np.abs(factor.coeffs).tolist()):  # np.unique would import numpy.ma
        # the signed prefix-extrema butterfly on X's block atoms t': the
        # extremes of P_<f(t') over the f with |c_f| = mu, in row 0 where
        # c_f w_f(t') = +mu and in row 1 where it is -mu; the merge
        # overwrites its tables, so it gets a copy of the coefficients
        classes = np.array([coeffs == mu, coeffs == -mu])
        mx, mn = np.where(classes, 0.0, -np.inf), np.where(classes, 0.0, np.inf)
        for _ in _segment_merge(coeffs.copy(), mx, mn):
            pass
        cases += [(mn[0].min(), mx[0].max(), mu * lo), (mn[1].min(), mx[1].max(), -mu * hi)]
    if reaches_end:
        cases.append((*factor.value_range, 0.0))

    def smallest(shift):
        return min(float((np.minimum(pi * (shift + low), pi * (shift + high)) + term).min())
                   for low, high, term in cases if low <= high)

    return smallest(1.0), smallest(0.75)


def verify_all_partial_sums(state: RieszProductState, seed: int = 1729) -> PositivityCertificate:
    """Certify S_p >= 0 and the stagewise S_p >= (1/4) Pi_j bound on
    every order and every atom, band by band (see the module docstring),
    in O(d_j 2^d_j + |J| 2^|J|) per band and coefficient magnitude.

    Rounding allowance: a band's figures carry the head pass's d_j-deep
    sums of terms of total modulus ||Pi_j||_A, the block pass's |J|-deep
    ones, one product and one sum, so to first order they lie within
    (d_j + |J| + 3) 2^-52 ||Pi_(j+1)||_A of the exact minima.  The blocks
    are disjoint, so d_j + |J| <= K, and (K+3) 2^-52 ||Pi_K||_A covers
    every band: the figures are reported as computed, and the
    certificate passes only when each is at least this allowance.
    `seed` is accepted and unused; no certificate draws random numbers.
    """
    depth = state.used_coordinates
    edges = (1, *(1 << f.block[-1] for f in state.factors))  # the stage bands' first orders
    slack = (depth + 3) * 2.0**-52 * state.norm_a
    gmin, margins = 1.0, []  # S_1 = 1, the constant term
    for j, factor in enumerate(state.factors):
        reaches_end = j == state.stages - 1 or factor.indices.max() + edges[j] < edges[j + 1]
        low, margin = _band_minima(*_head_tables(RieszProductState(state.factors[:j])),
                                   factor, reaches_end)
        gmin = min(gmin, low)
        margins.append(margin)
    dense = all(edge.bit_length() - 1 <= DENSE_LIMIT for edge in edges[:-1])
    return PositivityCertificate(
        exhaustive=True,
        method="exact" if dense else "bounds",
        depth=depth,
        support_size=state.support_size,
        band_edges=edges,
        global_min=gmin,
        stage_margins=tuple(margins),
        rounding_slack=slack,
        passed=gmin >= slack and all(m >= slack for m in margins),
    )


# ---------------------------------------------------------------------------
# psi summability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiSumReport:
    """Exact sum_n>=1 psi(|c_n|) against the stagewise envelope bounds.

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


def psi_sum_report(
    state: RieszProductState,
    psi: PsiSpec,
    budget: SummabilityBudget | None = None,
) -> PsiSumReport:
    """Stage psi sums from the factors, without building the spectrum;
    refused, like the spectrum, past SPECTRUM_LIMIT terms.

    `psi` is called once per distinct coefficient of each 2^16-term chunk
    (`walsh._python_items`), and the builtin `sum` adds one value per
    term, so each stage sum is the per-term sum bit for bit."""
    _check_spectrum_limit(state)
    # Pi_k's coefficients in generation order (previous term outer, factor
    # term inner): summing in it keeps the psi sums reproducible bit for bit
    generated = np.ones(1)
    norm_a = 1.0
    pm = 1.0
    stage_exact = []
    stage_bounds = []
    for factor in state.factors:
        bound = (
            factor.norm_2**2
            * norm_a**2
            * psi.epsilon_bar(pm * factor.amplitude)
        )
        terms = np.multiply.outer(generated, factor.coeffs).ravel()
        exact = float(sum(_python_items(terms, lambda c: psi.psi(abs(c)))))
        if exact > bound * (1.0 + 1e-12) + 1e-300:
            raise InvariantViolation(
                f"stage psi sum {exact} exceeds its bound {bound}"
            )
        stage_exact.append(exact)
        stage_bounds.append(float(bound))
        norm_a *= 1.0 + factor.norm_a
        generated = np.concatenate([generated, terms])
        pm = max(pm, float(np.max(np.abs(terms))))
    budget_terms = None
    if budget is not None:
        budget_terms = tuple(
            budget.term_bound(k) for k in range(1, state.stages + 1)
        )
    exact_total = float(sum(stage_exact))
    bound_total = float(sum(stage_bounds))
    # equality is attainable (single-coefficient stages), so allow the
    # one-ulp slack float summation order can introduce
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

def _write_spectrum(path, index_name: str, spectrum: Spectrum) -> None:
    """CSV `<index_name>,coeff` in ascending index, through the series
    writer `walsh._write_coeff_rows`: repr-formatted floats, each distinct
    coefficient formatted once per chunk, written atomically."""
    _write_coeff_rows(path, index_name, spectrum.indices, spectrum.coeffs)


def export_measure(state: RieszProductState, path) -> None:
    """Sparse spectrum as CSV `n,coeff` (see `_write_spectrum`)."""
    _write_spectrum(path, "n", state.spectrum)


def load_spectrum_csv(path) -> Spectrum:
    rows = read_coeff_rows(path)
    if rows[-1][0] >> 63:
        raise SeriesFormatError(f"index {rows[-1][0]} does not fit in 63 bits")
    return Spectrum([n for n, _ in rows], [c for _, c in rows])


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
