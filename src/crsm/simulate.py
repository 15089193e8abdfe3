"""Exact simulation of max-stable random sup-measures over finite atom tables.

The target law is X = sup_i Gamma_i^{-1} Y_i where Gamma_1 < Gamma_2 < ..
are the arrivals of a unit Poisson process and the Y_i are iid spectral
draws from a finite table of atoms (w_j, y_j):

* simulate_crsm: the positive Mobius atoms F of a completely alternating
  capacity theta, as setfun.positive_atoms lists them (or by size, when
  theta is: then no run spreads nu into a 2**d table), with y_j = theta(E)
  1_F picked with probability nu(F) / theta(E), so Y = theta(E) 1_Xi with
  Xi ~ nu / theta(E) (max-linear reads y_j = 1_F, w_j = nu(F)); X is its
  Choquet random sup-measure,
  P(X(K_i) <= a_i for all i) = exp(-sum_F nu(F) max{1/a_i : F meets K_i}).
* simulate_spectral: the rows y_j of a spectral table, picked with
  probability p_j; `couple` runs the same LePage loop on the table of widened
  rows [y_j, y_j(E) 1_{argmax y_j}, y_j(E) 1_{supp y_j}], built once.

A completely alternating capacity is a CRSM: simulate_crsm samples it
through its Mobius atoms, kept as masks.  A CRSM atom is an
indicator, so its coupling is degenerate: lower = X = upper, and the argmax
set of a sample (first_atoms, read off the values) is the atom that
realizes its maximum.  This module only samples: the statistics a batch
must pass live in verify.

Two exact methods sample the same law, held in one SpectralSampler record,
all that `_sample` reads.  `_lepage` runs the series itself.
`_max_linear` uses that the series splits by atom into independent Poisson
streams, so X({x}) = max_j (w_j / E_j) y_j(x) with E_j iid Exp(1) (Wang and
Stoev 2011): m = number of atoms exponentials per sample, whatever the
skew.  LePage needs two numbers per term and, by Wald's identity, E[N] >=
LB = bound / min over live x of ell(1_x) terms per sample (bound is
theta(E) or max y; ell(1_x) is theta({x}) or sum_j p_j y_j(x)), because
its stop needs Gamma_N > bound / X(x) and 1/X(x) ~ Exp(ell(1_x)).  So an
exact run draws max-linearly iff m <= LB; truncated runs and `couple`
keep LePage for its pathwise stream.

Exactness of the LePage stopping rule: every term is bounded by
bound/Gamma_n, so once every point that can be positive is positive and
bound/Gamma_n has dropped strictly below the smallest running maximum, no
later term can change any coordinate.  By the same bound a step's final
maximum clears bound/Gamma_n only if the running one at term n does, so
_lepage tests the final maxima.  If bound/Gamma_n at a step's last
term n equals the smallest maximum, no later term can raise X either, and
the lane stops at N = n + 1 without drawing term n + 1.  For the CRSM the
smallest maximum is theta(E)/Gamma_T, T the term at which every relevant
point has been hit, so N = T + 1.  "Exact" mode records that stop term
per sample and may apply later terms of the same round, which changes no
bit; "truncated" mode keeps exactly n_terms terms of the same stream, so
a truncated sample is pathwise dominated by its exact LePage twin.

Randomness contract, stream version 2: block b of BLOCK consecutive
samples draws from substream(seed, 2b).
* LePage: each of its BULK_ROUNDS rounds draws a (ROUND, BLOCK) array of
  inverse-CDF exponential spacings, then a (ROUND, BLOCK) array of pick
  uniforms, so every (round, lane) has a fixed stream place.  A sample j
  still running after the bulk rounds continues on substream(seed,
  2j + 1), in chunks of TAIL, 2 TAIL, .. TAIL_MAX terms, spacings first,
  then picks; odd keys never collide with even block keys.  A pick maps
  one uniform u to the first atom whose normalized cumulative weight
  exceeds u, CRSM atoms in ascending mask order: by searchsorted on an
  atom table, or, for a capacity held by size, by a walk over the d bits
  that reaches the same mask from d + 1 masses (_SizePicks).  The two
  round differently, so they could differ only for a u at a bucket edge.
* Max-linear: the block draws a (lanes, m) array of inverse-CDF
  exponentials in row order, row k for sample b * BLOCK + k, column j for
  atom j (CRSM atoms in ascending mask order).
So sample j depends only on (seed, j) and the method, not on the sample
count or the other samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import STREAM_VERSION  # noqa: F401  (the stream this module draws)
from .carrier import Carrier, _indicator, _weighted_max
from .setfun import (DEFAULT_TOL, Capacity, MobiusMeasure, _Owned, certified_mobius,
                     positive_atoms)
from .tdf import SpectralTDF

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
        if not isinstance(self.seed, int) or not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be an int in [0, 2**64), got {self.seed!r}")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.mode not in ("exact", "truncated"):
            raise ValueError(f"mode must be 'exact' or 'truncated', got {self.mode!r}")
        if self.mode == "truncated" and (self.n_terms is None or self.n_terms < 1):
            raise ValueError("truncated mode needs n_terms >= 1")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator keyed by (run seed, stream index), one 128-bit
    int: numpy rounds a key list with an entry >= 2**63 through float64."""
    return np.random.Generator(np.random.Philox(key=int(seed) | int(index) << 64))


@dataclass(frozen=True)
class SampleBatch:
    """Realizations of a random sup-measure, one row per sample.

    values[j, i] = X_j({x_i}); the sup-measure of any set is the row max
    over the mask, and first_atoms, derived on first read, masks each
    row's argmax set.  method is "lepage" or "max-linear".  terms[j] is
    the number of terms sample j used: its exact LePage stop term, n_terms
    in truncated mode, or the atom count for max-linear.  It is
    deterministic given (seed, j).  atoms, lepage_floor (LB) and
    expected_terms (the exact E[N], known for a capacity held by size) come
    from the run's SpectralSampler; the method was max-linear iff the run
    was exact and atoms <= lepage_floor, and only an exact LePage run
    keeps expected_terms.
    """

    carrier: Carrier
    values: np.ndarray
    seed: int
    mode: str
    n_terms: Optional[int] = None
    terms: Optional[np.ndarray] = None
    method: str = "lepage"
    atoms: Optional[int] = None
    lepage_floor: Optional[float] = None
    expected_terms: Optional[float] = None

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def sup(self, mask: int) -> np.ndarray:
        """X_j(K) for every sample j (0 for the empty set): the extremal
        integral of 1_K, bit for bit, since X >= 0."""
        self.carrier.validate_mask(mask)
        return _weighted_max(self.values, _indicator(mask, self.carrier.size))

    def extremal(self, f) -> np.ndarray:
        """Extremal integral of f against each sample: max_x f(x) X_j(x)."""
        from .integrals import _vals
        return _weighted_max(self.values, _vals(f, self.carrier))

    @functools.cached_property
    def first_atoms(self) -> np.ndarray:
        """Mask of the argmax set of each X_j, read off the values on first
        access, one column at a time; for a CRSM it is exactly the atom
        that realizes the maximum."""
        top = self.sup(self.carrier.full_mask)
        atoms = np.zeros(self.n, dtype=np.int64)
        for i in range(self.carrier.size):
            atoms |= (self.values[:, i] == top) << i
        atoms.setflags(write=False)
        return atoms


def _batch(law: "SpectralSampler", values: np.ndarray, config: SimConfig, method: str,
           terms: np.ndarray) -> SampleBatch:
    """A run of law by method; only an exact LePage run has an E[N]."""
    values = np.ascontiguousarray(values)
    values.setflags(write=False)
    terms.setflags(write=False)
    known = method == "lepage" and config.mode == "exact"
    return SampleBatch(law.carrier, values, config.seed, config.mode, config.n_terms,
                       terms, method, law.table.atoms, law.floor,
                       law.expected_terms if known else None)


def _cumulative(weights: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Normalized cumulative weights, written to out (which may be weights)."""
    cum = np.cumsum(weights, dtype=float, out=out)
    cum /= cum[-1]  # bit-equal to cum / cum[-1], with no second array
    return cum


class _AtomTable:
    """Atoms rows[k] with weights[k] > 0, picked with probability
    weights[k] / sum: a uniform u picks the first row whose normalized
    cumulative weight exceeds u.

    rows are spectral rows, an (atoms, width) float array, or the int32
    masks of CRSM atoms F over width points, whose row is scale * 1_F
    (scale = theta(E)), expanded by carrier._indicator.  The cumulative
    table is built on the first pick: a CRSM's overwrites its atom weights,
    which are the run's own (simulate_crsm), and drops them, so no later
    run reads the sums as weights; spectral rows get an array of its own,
    so a SpectralTDF's probs are never written.  A max-linear run never
    builds it.
    """

    def __init__(self, rows: np.ndarray, weights: np.ndarray,
                 width: Optional[int] = None, scale: float = 1.0):
        self.rows, self.weights, self.scale = rows, weights, scale
        self.crsm = rows.ndim == 1
        self.width = width if self.crsm else rows.shape[1]
        self.atoms = rows.shape[0]

    @functools.cached_property
    def cum(self) -> np.ndarray:
        if not self.crsm:
            return _cumulative(self.weights)
        cum, self.weights = _cumulative(self.weights, out=self.weights), None
        return cum

    def pick(self, u: np.ndarray) -> np.ndarray:
        """The rows that uniforms u pick, as a new float array."""
        y = self.rows[np.searchsorted(self.cum, u, side="right")]
        if self.crsm:
            y = _indicator(y, self.width)
            y *= self.scale
        return y

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 as an (atoms, width) array; a mask becomes 1_F."""
        rows = self.rows[lo:hi]
        return _indicator(rows, self.width) if self.crsm else rows


class _SizePicks:
    """The CRSM atoms of a Mobius measure nu held by size, picked as an
    _AtomTable of its positive atoms in ascending mask order would pick
    them (up to rounding at a bucket edge), with no table.  Max-linear
    reads the atoms themselves (weights, dense): they are listed on first
    read, which the cost rule allows only for m <= LB <= d atoms, as
    theta(E) <= d theta({x}).

    masses is nu.interval_masses() S.  A lane walks the bits from the
    highest down, holding r, the part of u * S[d, 0] (the total mass) not
    yet passed: at bit b, with c bits set above it, the masks of the lane's
    interval with bit b clear weigh S[b, c], so the lane sets b, and takes
    S[b, c] off r, iff r >= S[b, c] and the masks with b set weigh
    something, S[b, c + 1] > 0.  That keeps every lane inside an interval
    of positive mass, down to one atom.
    """

    def __init__(self, nu: MobiusMeasure, masses: np.ndarray, scale: float):
        d = masses.shape[0] - 1
        self.nu, self.width, self.scale = nu, d, scale
        self.atoms = sum(math.comb(d, k) for k in np.flatnonzero(masses[0] > 0).tolist())
        self.total = masses[d, 0]
        # r <= S[d, 0], so no lane passes the largest float into a set
        # half of no mass
        self.clear = np.where(masses[:d, 1:] > 0, masses[:d, :-1], np.finfo(float).max)

    def pick(self, u: np.ndarray) -> np.ndarray:
        """scale * 1_F for the atom F each uniform of u picks, as a new
        float array of shape u.shape + (width,)."""
        r = u.ravel() * self.total
        c = np.zeros(r.size, dtype=np.intp)
        bits = np.empty((self.width, r.size), dtype=bool)
        for b in reversed(range(self.width)):
            s = self.clear[b].take(c)
            up = np.greater_equal(r, s, out=bits[b])
            s *= up  # s, or +0.0, which leaves r as it is
            r -= s
            c += up
        y = np.empty((r.size, self.width))
        np.multiply(bits.T, self.scale, out=y)
        return y.reshape(u.shape + (self.width,))

    @functools.cached_property
    def listed(self) -> _AtomTable:
        masks, weights, _ = positive_atoms(_Owned(self.nu))
        return _AtomTable(masks, weights, self.width, self.scale)

    weights = property(lambda self: self.listed.weights)

    def dense(self, lo: int, hi: int) -> np.ndarray:
        return self.listed.dense(lo, hi)


def _coupled_rows(y: np.ndarray) -> np.ndarray:
    """[Y, Y(E) on the argmax of Y, Y(E) on the support of Y] per row."""
    peak = y.max(axis=-1, keepdims=True)
    return np.concatenate([y, np.where(y == peak, peak, 0.0),
                           np.where(y > 0.0, peak, 0.0)], axis=-1)


def _lepage(table: _AtomTable, bound: float, stop: np.ndarray, config: SimConfig,
            cost: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Run every sample through the LePage series over table in the
    stream-2 layout, X = max_n y_n / Gamma_n over its rows, stopping once
    no later term can raise X at a stop column (entries of the rows are at
    most bound); returns the values and the term counts.  cost is a note
    for MaxTermsExceeded.
    """
    n = config.samples
    exact = config.mode == "exact"
    x = np.zeros((n, table.width))
    limit = config.max_terms if exact else config.n_terms
    terms = np.full(n, limit, dtype=np.int64)
    gamma = np.zeros(BLOCK)     # arrival time so far, by lane of the block
    spacings, uniforms = np.empty((ROUND, BLOCK)), np.empty((ROUND, BLOCK))

    def advance(lanes, done, e, u):
        """Apply terms done+1 .. done+len(e), with pick uniforms u, to the
        running max; True where a lane runs on."""
        e[0] += gamma[lanes % BLOCK]
        g = np.cumsum(e, axis=0, out=e)
        gamma[lanes % BLOCK] = g[-1]
        y = table.pick(u)
        np.divide(y, g[:, :, None], out=y)
        top = np.maximum(x[lanes], y.max(axis=0))
        x[lanes] = top
        if not exact:
            return np.full(lanes.size, done + len(g) < limit)
        # Entries are <= bound and g is nondecreasing, so no term at or after n
        # exceeds fl(bound / g_n) (IEEE division is monotone): the final max
        # clears it at the stop columns exactly when the running max at n does.
        # If it equals the final max at the step's last term, no later term can
        # raise X either, so the lane stops at the next term without drawing it.
        room = bound / g
        low = top[:, stop].min(axis=1)
        ok = room < low
        at = np.where(ok.any(axis=0), ok.argmax(axis=0) + 1,
                      np.where(room[-1] == low, len(g) + 1, 0))
        stopped = at > 0
        end = done + at
        terms[lanes[stopped]] = end[stopped]
        late = np.where(stopped, end > limit, done + len(g) >= limit)
        if late.any():
            raise MaxTermsExceeded(f"sample {lanes[late][0]} did not stop within "
                                   f"{limit} terms{cost}")
        return ~stopped

    def sweep(lanes, done, t, draws):
        """advance() over groups of lanes that keep temporaries near _CELLS."""
        step = max(1, _CELLS // (t * table.width))
        keep = np.empty(lanes.size, dtype=bool)
        for s in range(0, lanes.size, step):
            part = slice(s, s + step)
            keep[part] = advance(lanes[part], done, *draws(part))
        return lanes[keep], keep

    for b0 in range(0, n, BLOCK):
        lanes = np.arange(b0, min(b0 + BLOCK, n))
        gamma[:] = 0.0
        done = 0
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
                np.stack([g.random(t) for g in gens[part]], axis=1)))
            gens = [g for g, k in zip(gens, keep) if k]
            done += size
            size = min(2 * size, TAIL_MAX)
    return x, terms


def _max_linear(table: _AtomTable, w: np.ndarray, config: SimConfig) -> np.ndarray:
    """X({x}) = max_j (w_j / E_j) y_j(x) in the max-linear stream layout.

    Lanes and atoms go in groups that keep the (lanes, atoms, d) product
    near _CELLS; the exponentials of a block are drawn group by group in
    row order, which gives the same numbers as one (lanes, m) draw.
    """
    n, m, d = config.samples, w.size, table.width
    x = np.zeros((n, d))
    lanes = min(BLOCK, max(1, _CELLS // (m * d)))
    span = max(1, _CELLS // (lanes * d))
    for b0 in range(0, n, BLOCK):
        gen = substream(config.seed, 2 * (b0 // BLOCK))
        end = min(b0 + BLOCK, n)
        for s in range(b0, end, lanes):
            part = slice(s, min(s + lanes, end))
            z = w / gen.standard_exponential((part.stop - s, m), method="inv")
            for a in range(0, m, span):
                y = table.dense(a, a + span)
                np.maximum(x[part], (z[:, a:a + span, None] * y).max(axis=1),
                           out=x[part])
    return x


def _method(atoms: int, floor: float, config: SimConfig) -> str:
    """Max-linear iff the run is exact and its one exponential per atom is
    at most LB = floor draws per sample, Wald's lower bound on LePage's
    E[N]: LePage, at two numbers per term, then draws at least twice as
    many."""
    return "max-linear" if config.mode == "exact" and atoms <= floor else "lepage"


def _sample(law: "SpectralSampler", config: SimConfig) -> SampleBatch:
    """The one sampling path of a law record: the cost rule on its atom
    count, then max-linear or LePage over its atom source."""
    table = law.table
    method = _method(table.atoms, law.floor, config)
    if method == "max-linear":
        w = table.weights if law.weights is None else law.weights
        if w is None:
            raise ValueError("this law record's atom weights became its LePage pick "
                             "table in an earlier run; build a new record to run it "
                             "max-linearly")
        x, terms = _max_linear(table, w, config), np.full(config.samples, table.atoms)
    else:
        x, terms = _lepage(table, law.bound, law.live, config, law.cost)
    return _batch(law, x, config, method, terms)


def simulate_crsm(theta: Capacity, config: SimConfig,
                  mobius: Optional[_Owned] = None) -> SampleBatch:
    """Sample the Choquet random sup-measure of a CA capacity (_crsm_law).

    LePage runs _lepage over the run's own atom table: atom
    sets arrive as Xi ~ nu/theta(E) with magnitude theta(E)/Gamma_n, so
    X({x}) = theta(E)/Gamma_{tau_x} at the first term tau_x whose atom
    contains x, and E[N] lies between 1 + max_x theta(E)/theta({x}) and
    1 + sum_x theta(E)/theta({x}).  mobius, _Owned(nu), hands over theta's
    Mobius measure, consumed as the run's own Mobius table.  Besides theta,
    a run on a table holds the atoms' weights, in that table (on LePage
    their cumulative pick table overwrites them), and their int32 masks, at
    most half a 2**d table more; held by size, it spreads nothing.
    """
    return _sample(_crsm_law(theta, mobius), config)


def _crsm_law(theta: Capacity, mobius: Optional[_Owned]) -> "SpectralSampler":
    """theta's law record: nu (mobius, _Owned(nu), hands it over) certified
    completely alternating within slack DEFAULT_TOL * theta(E), so the
    negative weights left out lie in that band, then its positive atoms as
    int32 masks or, held by size, picks by size."""
    nu = certified_mobius(theta, DEFAULT_TOL, None if mobius is None else mobius.arr)
    if theta.total <= 0:
        raise ValueError("capacity is identically zero; nothing to simulate")
    d = theta.carrier.size
    masses = nu.interval_masses()
    if masses is None:
        masks, weights, relevant = positive_atoms(_Owned(nu))
        table, live, exact = (_AtomTable(masks, weights, d, theta.total),
                              np.flatnonzero(_indicator(relevant, d)), None)
    else:  # every point lies in sets of every size
        table, live = _SizePicks(nu, masses, theta.total), np.arange(d)
        exact = _expected_terms(theta)
    ratios = theta.total / theta.singletons()[live]
    floor = float(ratios.max())
    cost = (f"; expected terms E[N] in [{1 + floor:.6g}, "
            f"{1 + ratios.sum():.6g}] (1 + max_x theta(E)/theta({{x}}) <= "
            f"E[N] <= 1 + sum_x theta(E)/theta({{x}}))")
    # an atom 1_F peaks on all of F, so every live point is reached
    return SpectralSampler(theta.carrier, table, None, theta.total, live, live, floor,
                           exact, cost)


def _expected_terms(theta: Capacity) -> float:
    """Exact E[N] of an exact LePage run of a capacity held by size with
    theta({x}) > 0: 1 + theta(E) sum over nonempty S of (-1)**(|S| + 1) /
    theta(S), that is 1 + phi(d) sum_k (-1)**(k + 1) C(d, k) / phi(k)."""
    d = theta.carrier.size
    phi = theta.at(np.left_shift(1, np.arange(d + 1)) - 1).tolist()
    return 1.0 + phi[d] * math.fsum((-1) ** (k + 1) * math.comb(d, k) / phi[k]
                                    for k in range(1, d + 1))


@dataclass(frozen=True)
class SpectralSampler:
    """The atom law of a sampling run, the one record every sampler reads.

    table is the atom source: an _AtomTable of spectral rows or CRSM atom
    masks, or a _SizePicks.  weights are the max-linear weights p_j of
    spectral rows, None for CRSM atoms, whose weights nu(F) the source
    holds.  bound is max_j max_x y_j(x); live (the stop columns) indexes
    the points some atom makes positive, reach those where a positive atom
    peaks (for `couple`).  floor is LB; expected_terms is E[N] when known
    in closed form; cost is the MaxTermsExceeded note.  from_tdf builds a
    SpectralTDF's record (its rows checked nonnegative and finite).
    """

    carrier: Carrier
    table: Union[_AtomTable, _SizePicks]
    weights: Optional[np.ndarray]
    bound: float
    live: np.ndarray
    reach: np.ndarray
    floor: float
    expected_terms: Optional[float] = None
    cost: str = ""

    @classmethod
    def from_tdf(cls, law: SpectralTDF) -> "SpectralSampler":
        """p, bound, live points, reach and LB (infinite if a live point
        has no mass) derived from a finite spectral law."""
        atoms = law.atoms
        peaks = atoms.max(axis=1, keepdims=True)
        live = np.flatnonzero(atoms.max(axis=0) > 0.0)
        if not live.size:
            raise ValueError("every point is a structural zero; nothing to simulate")
        reach = np.flatnonzero(((atoms == peaks) & (peaks > 0)).any(axis=0))
        bound = float(peaks.max())
        p = law.probs / law.probs.sum()
        low = float((p @ atoms)[live].min())
        return cls(law.carrier, _AtomTable(atoms, law.probs), p, bound, live, reach,
                   bound / low if low > 0 else math.inf)


def simulate_spectral(sampler: SpectralSampler, config: SimConfig) -> SampleBatch:
    """Exact or truncated sample of the sampler's law: LePage, whose exact
    mode stops at the first n with bound/Gamma_n strictly below the running
    maximum at every live point, or max-linear, X({x}) = max_j (p_j / E_j)
    y_j(x), for exact runs with m <= LB = bound / min_x sum_j p_j y_j(x)."""
    return _sample(sampler, config)


def simulate_model(model, config: SimConfig,
                   mobius: Optional[_Owned] = None) -> SampleBatch:
    """Dispatch: spectral TDFs through their own atoms; a capacity is a
    CRSM, sampled by simulate_crsm (mobius: its Mobius measure, when the
    caller has it already, as simulate_crsm takes it)."""
    if isinstance(model, SpectralTDF):
        return simulate_spectral(SpectralSampler.from_tdf(model), config)
    return simulate_crsm(model, config, mobius)


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

    A SpectralSampler (or SpectralTDF) is widened once into the table of
    rows [Y, Y(E) on the argmax of Y, Y(E) on the support of Y], and the
    LePage loop runs on it until the exact stop of X and of lower,
    so X is bit-equal to simulate_spectral whenever that runs LePage.  Any
    other model is a CRSM: lower = X = upper = simulate_model(law, config),
    by whichever method it chooses.
    """
    if isinstance(law, SpectralTDF):
        law = SpectralSampler.from_tdf(law)
    if not isinstance(law, SpectralSampler):
        # every CRSM atom is an indicator, so its argmax set is its support
        x = simulate_model(law, config)
        return Coupling(x, x, x)
    wide = _AtomTable(_coupled_rows(law.table.rows), law.table.weights)
    stop = np.concatenate([law.live, law.carrier.size + law.reach])
    x, terms = _lepage(wide, law.bound, stop, config, law.cost)
    mid, lo, hi = np.split(x, 3, axis=1)
    mk = lambda a: _batch(law, a, config, "lepage", terms)
    return Coupling(mk(lo), mk(mid), mk(hi))
