"""Exact LePage-series simulation of max-stable random sup-measures.

The target law is X = sup_i Gamma_i^{-1} Y_i where Gamma_1 < Gamma_2 < ..
are the arrivals of a unit Poisson process and the Y_i are iid spectral
draws.  One engine, `_lepage`, runs every sampler:

* simulate_crsm: Y = theta(E) * indicator(Xi), Xi ~ nu / theta(E) for the
  Mobius measure nu of a completely alternating capacity; X is its Choquet
  random sup-measure, P(X(K_i) <= a_i for all i) =
  exp(-sum_F nu(F) max{1/a_i : F meets K_i}).
* simulate_spectral: arbitrary nonnegative spectral draws with a declared
  essential bound B; `couple` adds the lower and upper coupling columns.

Capacities and Choquet and Lebesgue TDFs are CRSMs: simulate_crsm samples
them through their capacity, atoms kept as masks.  A CRSM atom is an
indicator, so its coupling is degenerate: lower = X = upper.

Exactness of the stopping rule: every term is bounded by bound/Gamma_n,
so once every point that can be positive is positive and bound/Gamma_n
has dropped strictly below the smallest running maximum, no later term
can change any coordinate (for the CRSM: N = T + 1, T the term at which
every relevant point has been hit).  "Exact" mode records that stop term
per sample and may apply later terms of the same round, which changes no
bit; "truncated" mode keeps exactly n_terms terms of the same stream, so
a truncated sample is pathwise dominated by its exact twin.

Randomness contract, stream version 2: block b of BLOCK consecutive
samples draws from substream(seed, 2b).  Each of its BULK_ROUNDS rounds
draws a (ROUND, BLOCK) array of inverse-CDF exponential spacings, then a
(ROUND, BLOCK) array of pick uniforms, so every (round, lane) has a fixed
stream place.  A sample j still running after the bulk rounds continues
on substream(seed, 2j + 1), in chunks of TAIL, 2 TAIL, .. TAIL_MAX terms,
spacings first, then picks; odd keys never collide with even block keys.
A pick maps one uniform by searchsorted on the normalized cumulative
weights (CRSM atoms in ascending mask order).  So sample j depends only
on (seed, j), not on the sample count, the other samples or the mode.  A
black-box draw callable runs on the continuation streams from the first
term, one call per term in place of the pick uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .carrier import Carrier, iter_bits
from .setfun import DEFAULT_TOL, Capacity, certified_mobius, mobius_inverse
from .tdf import SpectralTDF, extremal_coefficients

STREAM_VERSION = 2
BLOCK = 1024            # samples per block stream
ROUND = 8               # terms per bulk round
BULK_ROUNDS = 8         # bulk rounds per block before continuation streams
TAIL = 64               # first continuation chunk; chunks double ...
TAIL_MAX = 8192         # ... up to this many terms
_CELLS = 1 << 15        # cap on terms x lanes x width of one engine step


class MaxTermsExceeded(RuntimeError):
    """Exact stopping did not trigger within config.max_terms terms."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation request: substream seed, sample count, stopping mode."""

    seed: int
    samples: int
    mode: str = "exact"
    n_terms: Optional[int] = None
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a nonnegative int")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.mode not in ("exact", "truncated"):
            raise ValueError(f"mode must be 'exact' or 'truncated', got {self.mode!r}")
        if self.mode == "truncated" and (self.n_terms is None or self.n_terms < 1):
            raise ValueError("truncated mode needs n_terms >= 1")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator keyed by (run seed, stream index)."""
    return np.random.Generator(np.random.Philox(key=[seed, index]))


@dataclass(frozen=True)
class SampleBatch:
    """Realizations of a random sup-measure, one row per sample.

    values[j, i] = X_j({x_i}); the sup-measure of any set is the row max
    over the mask.  first_atoms carries the first LePage atom Xi_1 of each
    sample (CRSM runs only), which is exactly the argmax set of X_j.
    terms[j] is the LePage term count of sample j: its exact stop term, or
    n_terms in truncated mode.  It is deterministic given (seed, j).
    """

    carrier: Carrier
    values: np.ndarray
    seed: int
    mode: str
    n_terms: Optional[int] = None
    first_atoms: Optional[np.ndarray] = None
    terms: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def sup(self, mask: int) -> np.ndarray:
        """X_j(K) for every sample j (0 for the empty set)."""
        self.carrier.validate_mask(mask)
        if mask == 0:
            return np.zeros(self.n)
        idx = list(iter_bits(mask))
        return self.values[:, idx].max(axis=1)

    def extremal(self, f) -> np.ndarray:
        """Extremal integral of f against each sample: max_x f(x) X_j(x)."""
        from .integrals import _vals
        v = _vals(f, self.carrier)
        return (self.values * v[None, :]).max(axis=1)


def _batch(carrier: Carrier, values: np.ndarray, config: SimConfig,
           terms: np.ndarray, first: Optional[np.ndarray] = None) -> SampleBatch:
    values = np.ascontiguousarray(values)
    for arr in (values, terms, first):
        if arr is not None:
            arr.setflags(write=False)
    return SampleBatch(carrier, values, config.seed, config.mode, config.n_terms,
                       first, terms)


def _mask_of(flags: np.ndarray) -> int:
    """Bit mask of the True entries of a boolean vector."""
    return int(np.bitwise_or.reduce(np.left_shift(1, np.flatnonzero(flags))))


def _bits(mask: int, d: int) -> np.ndarray:
    """Boolean vector of the bits of mask over d points."""
    return (mask >> np.arange(d)) & 1 == 1


class _AtomTable:
    """rows[k] with probability weights[k]: a uniform u picks the first row
    whose normalized cumulative weight exceeds u."""

    def __init__(self, rows: np.ndarray, weights: np.ndarray):
        cum = np.cumsum(weights, dtype=float)
        self.rows = rows
        self.cum = cum / cum[-1]

    def pick(self, u):
        return np.searchsorted(self.cum, u, side="right")

    def __call__(self, gen: np.random.Generator) -> np.ndarray:
        return self.rows[self.pick(gen.random())]


class _FirstHit:
    """CRSM kernel: X({x}) = theta(E)/Gamma_{tau_x}, tracked by coverage."""

    width = 1

    def __init__(self, theta: Capacity, n: int, exact: bool):
        masks, weights, relevant = _crsm_atoms(theta)
        d = theta.carrier.size
        self.table = _AtomTable(masks, weights)
        self.total, self.relevant, self.exact = theta.total, relevant, exact
        self.shifts = np.arange(d)
        self.x = np.zeros((n, d))
        self.first = np.zeros(n, dtype=np.int64)
        ratios = self.total / theta.singletons()[_bits(relevant, d)]
        self.cost = (f"; expected terms E[N] in [{1 + ratios.max():.6g}, "
                     f"{1 + ratios.sum():.6g}] (1 + max_x theta(E)/theta({{x}}) <= "
                     f"E[N] <= 1 + sum_x theta(E)/theta({{x}}))")

    def step(self, lanes, g, u):
        m = self.table.rows[self.table.pick(u)]
        fresh = self.first[lanes] == 0
        self.first[lanes[fresh]] = m[0, fresh]
        before = (self.x[lanes] > 0.0) @ (1 << self.shifts)   # points already hit
        cov = np.bitwise_or.accumulate(m, axis=0, out=m)
        cov |= before
        new = cov.copy()
        new[1:] &= ~cov[:-1]
        new[0] &= ~before
        tn, ln = np.nonzero(new)
        r, i = np.nonzero((new[tn, ln][:, None] >> self.shifts) & 1)
        self.x[lanes[ln[r]], i] = self.total / g[tn[r], ln[r]]
        if not self.exact:
            return None
        # all hit at term T: the check at term T + 1 is the first to pass
        full = cov == self.relevant
        return np.where(full[-1], full.argmax(axis=0) + 2, 0)


def _coupled_rows(y: np.ndarray) -> np.ndarray:
    """[Y, Y(E) on the argmax of Y, Y(E) on the support of Y] per row."""
    peak = y.max(axis=-1, keepdims=True)
    return np.concatenate([y, np.where(y == peak, peak, 0.0),
                           np.where(y > 0.0, peak, 0.0)], axis=-1)


class _RunningMax:
    """Spectral kernel: X = max_n Y_n / Gamma_n, optionally widened to the
    coupling columns (X, lower, upper)."""

    cost = ""

    def __init__(self, sampler: "SpectralSampler", n: int, exact: bool,
                 coupled: bool):
        d = sampler.carrier.size
        self.table = sampler.draw if isinstance(sampler.draw, _AtomTable) else None
        self.checked_draw = sampler.checked_draw
        self.coupled, self.exact, self.bound = coupled, exact, sampler.bound
        self.width = 3 * d if coupled else d
        self.x = np.zeros((n, self.width))
        live = np.flatnonzero(~_bits(sampler.structural_zeros, d))
        self.stop = live if not coupled else np.concatenate(
            [live, d + np.flatnonzero(_bits(sampler.argmax_reachable, d))])

    def draw(self, gen, t):
        return np.array([self.checked_draw(gen) for _ in range(t)])

    def step(self, lanes, g, p):
        y = p if self.table is None else self.table.rows[self.table.pick(p)]
        if self.coupled:
            y = _coupled_rows(y)
        np.divide(y, g[:, :, None], out=y)
        run = np.maximum.accumulate(y, axis=0, out=y)
        np.maximum(run, self.x[lanes], out=run)
        self.x[lanes] = run[-1]
        if not self.exact:
            return None
        ok = self.bound / g < run[:, :, self.stop].min(axis=2)
        return np.where(ok.any(axis=0), ok.argmax(axis=0) + 1, 0)


def _lepage(kernel, config: SimConfig) -> np.ndarray:
    """Run every sample through kernel in the stream-2 layout; returns the
    term counts.

    A kernel holds its samples' state, `table` (the _AtomTable its picks
    index, or None for a black-box draw(gen, t)), the per-lane `width` of
    one term's temporaries and a `cost` note for MaxTermsExceeded.
    step(lanes, g, p) applies terms with arrivals g (terms, lanes) and
    picks p; in exact mode it returns each lane's stop term counted from
    the step's first term, 0 while the lane runs on.
    """
    n = config.samples
    exact = config.mode == "exact"
    limit = config.max_terms if exact else config.n_terms
    terms = np.full(n, limit, dtype=np.int64)
    gamma = np.zeros(BLOCK)     # arrival time so far, by lane of the block
    spacings, uniforms = np.empty((ROUND, BLOCK)), np.empty((ROUND, BLOCK))

    def advance(lanes, done, e, p):
        """Apply terms done+1 .. done+len(e); True where a lane runs on."""
        e[0] += gamma[lanes % BLOCK]
        g = np.cumsum(e, axis=0, out=e)
        gamma[lanes % BLOCK] = g[-1]
        stop = kernel.step(lanes, g, p)
        if not exact:
            return np.full(lanes.size, done + len(g) < limit)
        stopped = stop > 0
        end = done + stop
        terms[lanes[stopped]] = end[stopped]
        late = np.where(stopped, end > limit, done + len(g) >= limit)
        if late.any():
            raise MaxTermsExceeded(f"sample {lanes[late][0]} did not stop within "
                                   f"{limit} terms{kernel.cost}")
        return ~stopped

    def sweep(lanes, done, t, draws):
        """advance() over groups of lanes that keep temporaries near _CELLS."""
        step = max(1, _CELLS // (t * kernel.width))
        keep = np.empty(lanes.size, dtype=bool)
        for s in range(0, lanes.size, step):
            part = slice(s, s + step)
            keep[part] = advance(lanes[part], done, *draws(part))
        return lanes[keep], keep

    for b0 in range(0, n, BLOCK):
        lanes = np.arange(b0, min(b0 + BLOCK, n))
        gamma[:] = 0.0
        done = 0
        if kernel.table is not None:
            gen = substream(config.seed, 2 * (b0 // BLOCK))
            for _ in range(BULK_ROUNDS):
                gen.standard_exponential(out=spacings, method="inv")
                gen.random(out=uniforms)
                t = ROUND if exact else min(ROUND, limit - done)
                cols = lanes - b0
                lanes, _ = sweep(lanes, done, t, lambda part: (
                    spacings[:t, cols[part]], uniforms[:t, cols[part]]))
                done += ROUND
                if not lanes.size:
                    break
        gens = [substream(config.seed, 2 * j + 1) for j in lanes.tolist()]
        size = TAIL
        while lanes.size:
            t = size if exact else min(size, limit - done)
            lanes, keep = sweep(lanes, done, t, lambda part: (
                np.stack([g.standard_exponential(size, method="inv")[:t]
                          for g in gens[part]], axis=1),
                np.stack([g.random(t) if kernel.table is not None
                          else kernel.draw(g, t) for g in gens[part]], axis=1)))
            gens = [g for g, k in zip(gens, keep) if k]
            done += size
            size = min(2 * size, TAIL_MAX)
    return terms


def _crsm_atoms(theta: Capacity) -> tuple[np.ndarray, np.ndarray, int]:
    """Positive Mobius atoms (masks ascending, weights), relevant-point mask.

    Refuses capacities that are not completely alternating within the
    relative tolerance DEFAULT_TOL (slack DEFAULT_TOL * max(1, theta(E)));
    negative weights inside that band are clamped to zero.
    """
    nu = certified_mobius(theta, DEFAULT_TOL)
    if theta.total <= 0:
        raise ValueError("capacity is identically zero; nothing to simulate")
    w = np.clip(nu.weights, 0.0, None)
    masks = np.flatnonzero(w > 0).astype(np.int64)
    return masks, w[masks], int(np.bitwise_or.reduce(masks))


def simulate_crsm(theta: Capacity, config: SimConfig) -> SampleBatch:
    """Sample the Choquet random sup-measure of a CA capacity.

    Atom sets arrive as Xi ~ nu/theta(E) with common magnitude
    theta(E)/Gamma_n, so X({x}) = theta(E)/Gamma_{tau_x} at the first term
    tau_x whose atom contains x.  Exact mode stops at N = T + 1, T the
    term at which every point with theta({x}) > 0 has been hit; E[N] lies
    between 1 + max_x theta(E)/theta({x}) and 1 + sum_x theta(E)/theta({x}).
    """
    kernel = _FirstHit(theta, config.samples, config.mode == "exact")
    terms = _lepage(kernel, config)
    return _batch(theta.carrier, kernel.x, config, terms, kernel.first)


@dataclass(frozen=True)
class SpectralSampler:
    """Spectral draw Y for the LePage series, with its declared envelope.

    draw(gen) returns one nonnegative vector.  bound is an essential sup
    of max_x Y_x (required for exact stopping); structural_zeros masks the
    points with Y_x = 0 almost surely; argmax_reachable masks the points
    that can ever realize the maximum of Y (needed by `couple`).  A finite
    atom table (from_tdf) is validated against these declarations once, at
    construction; a black-box draw callable is validated on every draw.
    """

    carrier: Carrier
    draw: Callable[[np.random.Generator], np.ndarray]
    bound: Optional[float] = None
    structural_zeros: int = 0
    argmax_reachable: Optional[int] = None

    def __post_init__(self) -> None:
        self.carrier.validate_mask(self.structural_zeros)
        if self.argmax_reachable is not None:
            self.carrier.validate_mask(self.argmax_reachable)
        if self.bound is not None and not (self.bound > 0 and math.isfinite(self.bound)):
            raise ValueError(f"bound must be positive finite, got {self.bound}")
        if isinstance(self.draw, _AtomTable):
            self._check_rows(self.draw.rows)

    def _check_rows(self, y: np.ndarray) -> None:
        """Validate draws (..., d) against the declarations."""
        if np.any(y < 0) or not np.all(np.isfinite(y)):
            raise ValueError("spectral draw must be nonnegative finite")
        if self.bound is not None and np.any(y > self.bound * (1 + 1e-12)):
            raise ValueError(
                f"spectral draw exceeds declared bound {self.bound}")
        if np.any(y[..., _bits(self.structural_zeros, self.carrier.size)] != 0.0):
            raise ValueError("spectral draw is positive at a declared structural zero")

    def checked_draw(self, gen: np.random.Generator) -> np.ndarray:
        y = np.asarray(self.draw(gen), dtype=float)
        if y.shape != (self.carrier.size,):
            raise ValueError(f"spectral draw has shape {y.shape}")
        self._check_rows(y)
        return y

    @classmethod
    def from_tdf(cls, law: SpectralTDF) -> "SpectralSampler":
        """Finite spectral law; bound, zeros and argmax reach are derived."""
        atoms = law.atoms
        peaks = atoms.max(axis=1, keepdims=True)
        zeros = _mask_of(atoms.max(axis=0) == 0.0)
        reach = _mask_of(((atoms == peaks) & (peaks > 0)).any(axis=0))
        return cls(law.carrier, _AtomTable(atoms, law.probs), float(peaks.max()),
                   zeros, reach)


def simulate_spectral(sampler: SpectralSampler, config: SimConfig) -> SampleBatch:
    """LePage series with arbitrary spectral draws.

    Exact mode needs the declared bound; it stops at the first n with
    bound/Gamma_n strictly below the running maximum at every point that
    is not a structural zero.
    """
    if config.mode == "exact" and sampler.bound is None:
        raise ValueError("exact mode needs a declared spectral bound")
    if sampler.carrier.full_mask & ~sampler.structural_zeros == 0:
        raise ValueError("every point is a structural zero; nothing to simulate")
    kernel = _RunningMax(sampler, config.samples, config.mode == "exact", False)
    terms = _lepage(kernel, config)
    return _batch(sampler.carrier, kernel.x, config, terms)


def simulate_model(model, config: SimConfig) -> SampleBatch:
    """Dispatch: spectral TDFs through their own atoms; every other model
    is a CRSM, sampled through its capacity."""
    if isinstance(model, SpectralTDF):
        return simulate_spectral(SpectralSampler.from_tdf(model), config)
    theta = model if isinstance(model, Capacity) else extremal_coefficients(model)
    return simulate_crsm(theta, config)


@dataclass(frozen=True)
class FrechetEstimate:
    scale: float
    half_width: float
    n: int


def frechet_scale_estimate(z: np.ndarray, min_n: int = 30) -> FrechetEstimate:
    """MLE of the scale a of a unit-shape Frechet sample.

    1/z_j are iid Exp(a), so a_hat = n / sum(1/z_j); the reported
    half-width is the 3-sigma band 3 a_hat / sqrt(n).  Requires at least
    min_n strictly positive observations.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < min_n:
        raise ValueError(f"need at least {min_n} observations, got {z.size}")
    if np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise ValueError("Frechet scale needs strictly positive finite observations")
    n = z.size
    scale = n / float((1.0 / z).sum())
    return FrechetEstimate(scale, 3.0 * scale / math.sqrt(n), n)


def argmax_set(x: np.ndarray, rel_tol: float = 0.0) -> int:
    """Mask of the points within rel_tol of the maximum of x.

    rel_tol = 0 keeps the exact argmax ties; the zero vector has no argmax
    and raises.
    """
    x = np.asarray(x, dtype=float)
    m = float(x.max())
    if m <= 0.0:
        raise ValueError("argmax of the zero vector is undefined")
    if not 0.0 <= rel_tol < 1.0:
        raise ValueError("rel_tol must lie in [0, 1)")
    return _mask_of(x >= (1.0 - rel_tol) * m)


@dataclass(frozen=True)
class ArgmaxIndependenceReport:
    z: float
    passed: bool
    n: int
    hit_rate: float
    negative_control: bool


def argmax_independence_test(theta: Capacity, region: int, config: SimConfig,
                             negative_control: bool = False,
                             batch: Optional[SampleBatch] = None
                             ) -> ArgmaxIndependenceReport:
    """Correlation test of {argmax set meets region} against 1/X(E).

    For an exact CRSM sample the argmax set equals the first LePage atom
    and is independent of X(E); the statistic z = corr * sqrt(n) is
    asymptotically standard normal, so |z| <= 4 passes.  The negative
    control replaces the indicator with {X(region) > median}, which is
    strongly coupled to X(E) and must blow the same threshold up.
    """
    theta.carrier.validate_mask(region)
    if region == 0:
        raise ValueError("region must be nonempty")
    if batch is None:
        batch = simulate_crsm(theta, config)
    xe = batch.values.max(axis=1)
    t = 1.0 / xe
    if negative_control:
        stat = batch.sup(region)
        ind = (stat > np.median(stat)).astype(float)
    else:
        ind = (batch.values[:, list(iter_bits(region))] == xe[:, None]).any(axis=1)
        ind = ind.astype(float)
    n = batch.n
    if ind.std() == 0.0 or t.std() == 0.0:
        z = 0.0
        corr = 0.0
    else:
        corr = float(np.corrcoef(t, ind)[0, 1])
        z = corr * math.sqrt(n)
    return ArgmaxIndependenceReport(z, abs(z) <= 4.0, n, float(ind.mean()),
                                    negative_control)


@dataclass(frozen=True)
class Coupling:
    """Pathwise sandwich from one LePage stream.

    lower values use Y(E) on the argmax of Y, upper values use Y(E) on the
    whole support of Y; lower <= exact <= upper holds coordinatewise for
    every sample and upper matches exact on the full carrier.

    The lower term is the indicator sup-measure of the argmax set,
    Y(E) * 1{K meets M_Y}.  Restricting Y(E) to subsets of the argmax set
    instead would not be monotone in K; the indicator form is the largest
    monotone, indicator-valued sup-measure dominated by Y.
    """

    lower: SampleBatch
    exact: SampleBatch
    upper: SampleBatch


def couple(law, config: SimConfig) -> Coupling:
    """Simulate (lower, X, upper) in one pass of the LePage engine.

    A SpectralSampler (or SpectralTDF) draw is widened to (Y, lower, upper)
    columns and the pass runs until the exact stop of X and of lower, so X
    is bit-equal to simulate_spectral; a sampler must declare bound and
    argmax_reachable, as from_tdf does.  Any other model is a CRSM: lower =
    X = upper = simulate_model(law, config).
    """
    if isinstance(law, SpectralTDF):
        law = SpectralSampler.from_tdf(law)
    if not isinstance(law, SpectralSampler):
        # every CRSM atom is an indicator, so its argmax set is its support
        x = simulate_model(law, config)
        return Coupling(x, x, x)
    if law.bound is None or law.argmax_reachable is None:
        raise ValueError(
            "coupling needs declared bound and argmax_reachable; build the "
            "sampler from a spectral TDF")
    if law.argmax_reachable == 0:
        raise ValueError("no point can realize the spectral argmax")
    kernel = _RunningMax(law, config.samples, config.mode == "exact", True)
    terms = _lepage(kernel, config)
    mid, lo, hi = np.split(kernel.x, 3, axis=1)
    mk = lambda a: _batch(law.carrier, a, config, terms)
    return Coupling(mk(lo), mk(mid), mk(hi))


@dataclass(frozen=True)
class ContinuityReport:
    p_hat: float
    bound: float
    slack: float
    passed: bool
    n: int


def continuity_bound_check(theta: Capacity, k1: int, k2: int, eps: float,
                           config: SimConfig,
                           batch: Optional[SampleBatch] = None) -> ContinuityReport:
    """Empirical check of P(|X(K1) - X(K2)| > eps) <= modulus / eps.

    The modulus is 2 theta(K1 | K2) - theta(K1) - theta(K2); the empirical
    side gets a 4-sigma binomial allowance on top of the bound.
    """
    theta.carrier.validate_mask(k1)
    theta.carrier.validate_mask(k2)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive finite, got {eps}")
    if batch is None:
        batch = simulate_crsm(theta, config)
    diff = np.abs(batch.sup(k1) - batch.sup(k2))
    p_hat = float((diff > eps).mean())
    n = batch.n
    bound = (2.0 * float(theta.table[k1 | k2]) - float(theta.table[k1])
             - float(theta.table[k2])) / eps
    slack = 4.0 * math.sqrt(p_hat * (1.0 - p_hat) / n)
    return ContinuityReport(p_hat, bound, slack, p_hat <= bound + slack, n)


@dataclass(frozen=True)
class DisjointnessCheck:
    part_a: int
    part_b: int
    level_a: float
    level_b: float
    p_product: float
    p_hat: float
    sigma: float


@dataclass(frozen=True)
class DisjointnessReport:
    cross_mass: float
    expect_independent: bool
    max_z: float
    consistent: bool
    checks: tuple[DisjointnessCheck, ...]


def independence_on_disjoint(theta: Capacity, parts: Sequence[int],
                             config: SimConfig,
                             quantiles: Sequence[float] = (0.3, 0.5, 0.8),
                             batch: Optional[SampleBatch] = None
                             ) -> DisjointnessReport:
    """Factorization test of the CRSM over disjoint parts.

    X is independent over the parts iff no Mobius mass touches two of
    them; that exact criterion (cross_mass) decides what the empirical
    side must show.  For each pair and quantile q the joint empirical CDF
    at the exact marginal q-quantiles is compared against the product
    q**2 with a 4-sigma binomial allowance: independence must stay inside
    the band, genuine dependence must break it somewhere.
    """
    if len(parts) < 2:
        raise ValueError("need at least two parts")
    seen = 0
    for p in parts:
        theta.carrier.validate_mask(p)
        if p == 0:
            raise ValueError("parts must be nonempty")
        if p & seen:
            raise ValueError("parts overlap")
        if theta.table[p] <= 0:
            raise ValueError("parts must carry positive capacity")
        seen |= p
    nu = mobius_inverse(theta)
    size = 1 << theta.carrier.size
    all_masks = np.arange(size)
    touches = np.zeros(size, dtype=np.int64)
    for p in parts:
        touches += ((all_masks & p) != 0).astype(np.int64)
    cross_mass = float(np.abs(nu.weights[touches >= 2]).sum())
    expect_independent = cross_mass <= theta.atol(DEFAULT_TOL)

    if batch is None:
        batch = simulate_crsm(theta, config)
    n = batch.n
    sups = {p: batch.sup(p) for p in parts}
    checks = []
    max_z = 0.0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            a, b = parts[i], parts[j]
            for q in quantiles:
                s = float(theta.table[a]) / (-math.log(q))
                t = float(theta.table[b]) / (-math.log(q))
                p_prod = q * q
                p_hat = float(((sups[a] <= s) & (sups[b] <= t)).mean())
                sigma = math.sqrt(p_prod * (1.0 - p_prod) / n)
                checks.append(DisjointnessCheck(a, b, s, t, p_prod, p_hat, sigma))
                max_z = max(max_z, abs(p_hat - p_prod) / sigma)
    consistent = (max_z <= 4.0) if expect_independent else (max_z > 4.0)
    return DisjointnessReport(cross_mass, expect_independent, max_z, consistent,
                              tuple(checks))
