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

Each block lies right of all used coordinates, so stage k+1's XOR
products are distinct and exceed every index of Pi_k: the spectrum is
one sorted pair of int64/float64 arrays, stage k at positions
[N_(k-1), N_k), N_k = prod_(i<=k) (1 + |supp X_i|), exported atomically
as CSV.  Each X_i is evaluated on its own block's 2^|J_i| atoms (one
butterfly) and read off elsewhere by the block's bits of the atom.

Every prefix order is certified on every atom, by one of two methods.
Within `exhaustive_cap` used coordinates (at most DENSE_LIMIT) the
"kernel" reads exact minima in O(K 2^K): orders in (2^k, 2^(k+1)] read
M_k plus or minus a prefix of N_k, whose extremes come from one
`prefix_extrema` pass per level.  Past the cap the "per-factor" method
bounds them from each factor's own data.  A partial sum of order in
stage k+1's band is Pi_k (1 + P(X_(k+1))) + c w P_r(Pi_k), with P a
prefix of X_(k+1), c one of its coefficients and P_r a prefix of Pi_k,
so pointwise

    S_p >= Pi_k (1 + P(X_(k+1))) - PM(X_(k+1)) ||Pi_k||_A.

The blocks are disjoint, so the factors are independent: the range of
Pi_k is the product of the factors' ranges, and the prefix extremes of
X_(k+1) come from one `prefix_extrema` pass on its 2^|J| block atoms.
The bounds subtract a float-rounding allowance (K+1) 2^-52 ||Pi_K||_A.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rudin_shapiro import _MAX_PAIR_LEVEL, FLATNESS_CONSTANT, BlockSpec
from .rudin_shapiro import build_flat, substitute_sparse
from .walsh import (
    InvariantViolation,
    SeriesFormatError,
    WalshSeries,
    _write_csv,
    atom_patterns,
    butterfly,
    prefix_extrema,
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

# Largest depth densified: the dense series and the exhaustive
# certificate's tables hold 2^DENSE_LIMIT float64 values each.
DENSE_LIMIT = 20


class PsiHypothesisError(ValueError):
    """psi fails the gauge hypothesis: psi(x)/x^2 must tend to 0 at 0."""


class LevelSelectionError(RuntimeError):
    """No admissible level within the cap."""


class BlockOverlapError(ValueError):
    """A factor block touches coordinates already in use."""


class CoordinateBudgetError(ValueError):
    """Adding the factor would exceed the hard coordinate budget."""


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
        """Parse 'preset:name[,key=value...]' descriptors."""
        if not text.startswith("preset:"):
            raise ValueError(f"unknown psi descriptor {text!r}")
        body = text[len("preset:") :]
        parts = body.split(",")
        name, args = parts[0], parts[1:]
        kwargs = {}
        for item in args:
            key, _, value = item.partition("=")
            if not _:
                raise ValueError(f"bad psi parameter {item!r}")
            kwargs[key.strip()] = float(value)
        if name == "logpow":
            return cls.logpow(**kwargs)
        if name == "power":
            return cls.power(**kwargs)
        if name == "quadratic":
            if kwargs:
                raise ValueError("quadratic preset takes no parameters")
            return cls.quadratic()
        raise ValueError(f"unknown psi preset {name!r}")


@dataclass(frozen=True)
class SummabilityBudget:
    """Per-stage caps scale * 2^-k for the envelope terms of condition (6)."""

    scale: float = 1.0

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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sparse Walsh spectrum: strictly increasing indices and their coefficients."""

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
    """Sparse spectrum of Pi_k plus the caches the level rule needs."""

    factors: tuple[Factor, ...]
    spectrum: Spectrum
    norm_a: float
    inf_value: float
    used_coordinates: int
    exhaustive_cap: int = 14
    max_coordinates: int = 30

    @property
    def stages(self) -> int:
        return len(self.factors)

    def block_boundaries(self) -> list[int]:
        """Orders 2^(sup J_k) splitting the spectrum into stage ranges."""
        return [1 << f.block[-1] for f in self.factors]


def empty_state(exhaustive_cap: int = 14, max_coordinates: int = 30) -> RieszProductState:
    if not 0 <= exhaustive_cap <= DENSE_LIMIT:
        raise ValueError(f"exhaustive cap {exhaustive_cap} outside [0, {DENSE_LIMIT}]:"
                         f" the exhaustive certificate is dense, limit {DENSE_LIMIT} coordinates")
    return RieszProductState(
        factors=(),
        spectrum=Spectrum(np.zeros(1, dtype=np.int64), np.ones(1)),
        norm_a=1.0,
        inf_value=1.0,
        used_coordinates=0,
        exhaustive_cap=exhaustive_cap,
        max_coordinates=max_coordinates,
    )


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


def make_factor(level: int, block: BlockSpec, c: float = FLATNESS_CONSTANT) -> Factor:
    amplitude = (0.5 / c) * 2.0 ** (-level / 2)
    flat = build_flat(level)
    idx, signs = substitute_sparse(flat, block)
    return Factor(
        level=level,
        block=block.coordinates,
        amplitude=amplitude,
        indices=idx,
        coeffs=amplitude * signs.astype(np.float64),
    )


def choose_next_level(
    state: RieszProductState,
    psi: PsiSpec,
    budget: SummabilityBudget,
    level_cap: int = 64,
    c: float = FLATNESS_CONSTANT,
) -> int:
    """Smallest level passing (5) and the budgeted envelope condition (6).

    Both left-hand sides decrease in the level, so the linear scan stops
    at the first admissible value.  inf Pi_k is exact at every depth: the
    product of the factors' own minima (see `add_factor`).
    """
    k_next = state.stages + 1
    bound = budget.term_bound(k_next)
    for level in range(level_cap + 1):
        amp = (0.5 / c) * 2.0 ** (-level / 2)
        cond5 = amp * state.norm_a <= 0.25 * state.inf_value
        cond6 = state.norm_a**2 * psi.epsilon_bar(amp) <= bound
        if cond5 and cond6:
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
    c: float = FLATNESS_CONSTANT,
) -> RieszProductState:
    """Append a factor on the next free coordinates (or an explicit block).

    The caller is responsible for level admissibility; structural rules
    are enforced here: the block must sit strictly to the right of all
    used coordinates, and the new XOR products must extend the sorted
    spectrum (they do, since the block lies past every used coordinate;
    the Spectrum's strictly-increasing check asserts it anyway).
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
    if block.sup > state.max_coordinates:
        raise CoordinateBudgetError(
            f"block {block.coordinates} exceeds the coordinate budget"
            f" {state.max_coordinates}"
        )

    factor = make_factor(level, block, c)
    old = state.spectrum
    # factor index outer, old index inner: already ascending
    spectrum = Spectrum(
        np.concatenate([old.indices, np.bitwise_xor.outer(factor.indices, old.indices).ravel()]),
        np.concatenate([old.coeffs, np.multiply.outer(factor.coeffs, old.coeffs).ravel()]),
    )
    # independent factors, each with 1 + X >= 1/2: the infimum of the
    # product is the product of the infima, and since rounded products of
    # positive values are monotone it is also the rounded dense minimum
    inf_value = state.inf_value * (1.0 + float(_block_table(factor).min()))

    return RieszProductState(
        factors=state.factors + (factor,),
        spectrum=spectrum,
        norm_a=state.norm_a * (1.0 + factor.norm_a),
        inf_value=inf_value,
        used_coordinates=block.sup,
        exhaustive_cap=state.exhaustive_cap,
        max_coordinates=state.max_coordinates,
    )


def build_measure(
    psi: PsiSpec,
    stages: int,
    budget: SummabilityBudget = SummabilityBudget(),
    exhaustive_cap: int = 14,
    max_coordinates: int = 30,
    level_cap: int = 64,
) -> RieszProductState:
    """Run the level rule for the requested number of stages, with levels
    capped at the largest flat polynomial `build_pair` builds."""
    psi.validate()
    state = empty_state(exhaustive_cap, max_coordinates)
    for _ in range(stages):
        level = choose_next_level(state, psi, budget, min(level_cap, _MAX_PAIR_LEVEL))
        state = add_factor(state, level)
    return state


def state_series(state: RieszProductState) -> WalshSeries:
    """Dense Walsh series of the current product (desk scale only)."""
    depth = max(state.used_coordinates, 0)
    if depth > DENSE_LIMIT:
        raise ValueError(f"refusing to densify a depth-{depth} spectrum")
    coeffs = np.zeros(1 << depth)
    coeffs[state.spectrum.indices] = state.spectrum.coeffs
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
    `method` is "kernel" when both are exact minima and "per-factor"
    when they are certified lower bounds, rounding allowance included.
    Either way every order on every atom is covered, so `exhaustive` is
    always true.
    """

    exhaustive: bool
    method: str
    depth: int
    support_size: int
    band_edges: tuple[int, ...]
    global_min: float
    stage_margins: tuple[float, ...]
    passed: bool


def _kernel_runs(state: RieszProductState):
    """(lo, hi, values) runs on the first k + 1 coordinates' atoms: order
    2^k reads M_k, and the orders inside (2^k, 2^(k+1)) read M_k + r_(k+1)
    P_q(N_k), q < 2^k, at least M_k + MN where r_(k+1) = +1 and M_k - MX
    elsewhere, (MX, MN) the prefix extrema of N_k without its last term."""
    c = state_series(state).coeffs
    m = c[:1].copy()
    yield 1, 1, m
    for k in range(state.used_coordinates):
        block = c[1 << k : 1 << (k + 1)]
        if k:  # (1, 2) holds no order
            _, mx, mn = prefix_extrema(np.append(block[:-1], 0.0))
            yield (1 << k) + 1, (1 << (k + 1)) - 1, np.concatenate([m + mn, m - mx])
        n = butterfly(block)
        m = np.concatenate([m + n, m - n])
        yield 1 << (k + 1), 1 << (k + 1), m


def _band_minima(edges, refs, runs) -> tuple[float, list[float]]:
    """Global minimum and per-band minimum of S_p - refs[j] over runs
    (lo, hi, values), values = S_p for every order p in [lo, hi].  Bands
    are [edge_j, edge_(j+1)), the last one closed; refs[j] is a function
    of the values' atoms or of their first coordinates, broadcast."""
    gmin = math.inf
    margins = [math.inf] * len(refs)
    for lo, hi, values in runs:
        gmin = min(gmin, float(np.min(values)))
        for b, ref in enumerate(refs):
            upper = edges[b + 1] if b == len(refs) - 1 else edges[b + 1] - 1
            if lo <= upper and hi >= edges[b]:
                margins[b] = min(margins[b], float(np.min(values.reshape(-1, ref.size) - ref)))
    return gmin, margins


def _per_factor_bounds(state: RieszProductState) -> tuple[float, list[float]]:
    """Lower bounds on the global minimum and the stage margins from
    per-factor data.  In stage band k, S_p - s Pi_k >= Pi_k (1 - s + P)
    - PM(X_(k+1)) ||Pi_k||_A with Pi_k in [lo, hi] and P in [low, high],
    the extremes of the prefixes of X_(k+1), the empty one included; a
    product over two ranges is smallest at a corner."""
    lo = hi = norm_a = 1.0
    gmin, margins = math.inf, []
    for factor in state.factors:
        values, mx, mn = prefix_extrema(_block_coeffs(factor))
        prefixes = (min(0.0, float(mn.min())), max(0.0, float(mx.max())))
        tail = float(np.max(np.abs(factor.coeffs))) * norm_a
        gmin = min(gmin, min(p * (1.0 + q) for p in (lo, hi) for q in prefixes) - tail)
        margins.append(min(p * (0.75 + q) for p in (lo, hi) for q in prefixes) - tail)
        products = [p * (1.0 + float(v)) for p in (lo, hi) for v in (values.min(), values.max())]
        lo, hi = min(products), max(products)
        norm_a *= 1.0 + factor.norm_a
    slack = (state.used_coordinates + 1) * 2.0**-52 * norm_a
    return gmin - slack, [m - slack for m in margins]


def verify_all_partial_sums(state: RieszProductState, seed: int = 1729) -> PositivityCertificate:
    """Certify S_p >= 0 and the stagewise S_p >= (1/4) Pi_j bound on
    every order and every atom.

    Within the cap: exact minima in O(depth 2^depth), with Pi_j
    evaluated on the first log2(edge_j) coordinates it depends on.  Past
    the cap: per-factor lower bounds in O(sum_k |J_k| 2^|J_k|).  `seed`
    is accepted and unused; no certificate draws random numbers.
    """
    depth = state.used_coordinates
    edges = tuple([1] + state.block_boundaries())
    if depth <= state.exhaustive_cap:
        method = "kernel"
        refs = [0.25 * product_values(state.factors[:j], edge.bit_length() - 1)
                for j, edge in enumerate(edges[:-1])]
        gmin, margins = _band_minima(edges, refs, _kernel_runs(state))
    else:
        method = "per-factor"
        gmin, margins = _per_factor_bounds(state)

    passed = gmin >= 0.0 and all(m >= 0.0 for m in margins)
    return PositivityCertificate(
        exhaustive=True,
        method=method,
        depth=depth,
        support_size=len(state.spectrum),
        band_edges=edges,
        global_min=float(gmin),
        stage_margins=tuple(float(m) for m in margins),
        passed=passed,
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
    coeffs = state.spectrum.coeffs
    lo = 1  # stage k's terms sit at positions [N_(k-1), N_k)
    # positions [0, N_(k-1)) in generation order (previous term outer, factor
    # term inner): summing in it keeps the psi sums reproducible bit for bit
    order = np.zeros(1, dtype=np.int64)
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
        width = factor.indices.size
        terms = coeffs[lo : lo * (1 + width)].reshape(width, lo).T[order]
        exact = float(sum(psi.psi(abs(c)) for c in terms.ravel().tolist()))
        if exact > bound * (1.0 + 1e-12) + 1e-300:
            raise InvariantViolation(
                f"stage psi sum {exact} exceeds its bound {bound}"
            )
        stage_exact.append(exact)
        stage_bounds.append(float(bound))
        norm_a *= 1.0 + factor.norm_a
        order = np.concatenate([order, lo + (order[:, None] + lo * np.arange(width)).ravel()])
        lo *= 1 + width
        pm = float(np.max(np.abs(coeffs[:lo])))
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
        c0_term=float(psi.psi(abs(coeffs[0]) if state.spectrum.indices[0] == 0 else 0.0)),
        ok=exact_total <= bound_total * (1.0 + 1e-12),
    )


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def export_measure(state: RieszProductState, path) -> None:
    """Sparse spectrum as CSV `n,coeff`, ascending n, repr-formatted floats,
    written atomically.  Rows are converted to Python objects 2^16 at a
    time, so the export adds little to the peak memory of a deep build."""
    indices, coeffs, chunk = state.spectrum.indices, state.spectrum.coeffs, 1 << 16
    rows = itertools.chain.from_iterable(
        zip(indices[lo : lo + chunk].tolist(), map(repr, coeffs[lo : lo + chunk].tolist()))
        for lo in range(0, indices.size, chunk)
    )
    _write_csv(path, ["n", "coeff"], rows)


def load_spectrum_csv(path) -> Spectrum:
    rows = read_coeff_rows(path)
    if rows[-1][0] >> 63:
        raise SeriesFormatError(f"index {rows[-1][0]} does not fit in 63 bits")
    return Spectrum([n for n, _ in rows], [c for _, c in rows])


def state_manifest(state: RieszProductState) -> dict:
    """The reproducible description of the product: constant plus stages."""
    return {
        "flatness_constant": FLATNESS_CONSTANT,
        "exhaustive_cap": state.exhaustive_cap,
        "max_coordinates": state.max_coordinates,
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
    state = empty_state(
        exhaustive_cap=int(data.get("exhaustive_cap", 14)),
        max_coordinates=int(data.get("max_coordinates", 30)),
    )
    for stage in data["stages"]:
        block = BlockSpec(tuple(int(j) for j in stage["block"]))
        state = add_factor(state, int(stage["level"]), block)
        rebuilt = state.factors[-1].amplitude
        if not math.isclose(rebuilt, float(stage["amplitude"]), rel_tol=1e-15):
            raise ValueError(
                f"amplitude mismatch rebuilding stage: {rebuilt} vs {stage['amplitude']}"
            )
    return state
