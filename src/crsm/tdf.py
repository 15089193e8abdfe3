"""Tail dependence functionals and the Choquet random sup-measure envelope.

A tail dependence functional (TDF) ell assigns to every nonnegative vector
f on the carrier the exponent of the joint law of a max-stable random
sup-measure X with unit Frechet margins scaling:

    P(extremal integral of f against X <= 1) = exp(-ell(f)).

On sets this is the joint law P(X(K_i) <= a_i for all i) =
exp(-ell(max_i 1_{K_i} / a_i)); `joint_cdf` evaluates it as it stands,
whatever the representation.

Two interchangeable finite representations are supported, and each is
its own functional (`eval`, `eval_batch`):

* a Capacity theta: ell(f) = choquet integral of f against theta, since
  theta fixes the law of its Choquet random sup-measure,
* a SpectralTDF: ell(f) = sum_j p_j * max_x f(x) * y_j(x) over finitely
  many spectral atoms (p_j, y_j).

The completely random case, ell(f) = sum_x f(x) * mu(x), is the additive
capacity theta = mu, held by its singleton atoms.

Every TDF is dominated by the Choquet TDF of its extremal coefficient
capacity theta(K) = ell(indicator of K); that envelope is the largest
exponent (most dependence) compatible with the given coefficients, with
equality exactly on indicator-valued spectral atoms.  `crsm_envelope`
returns that capacity (a capacity is its own), `dominates` tests the
ordering pointwise on random vectors.

The defining property of a Choquet TDF among all TDFs is max-complete
alternation of ell itself: the inclusion-exclusion sums

    sum over S subset of {1..n} of (-1)**|S| ell(u or max of u_i, i in S)

are nonpositive for all vectors.  `check_max_complete_alternation` probes
this directly.  Example of a functional that fails it at order 2:
ell(u) = (sum_x sqrt(u_x))**2, which is homogeneous and normalized on
indicators yet strictly superadditive.

The dual side: for completely alternating theta the Choquet integral is
the support function of the core-like polytope
{mu >= 0 : mu(K) <= theta(K) for all K}; `dual_greedy` builds the
maximizing discrete measure directly from the descending rearrangement of
f, `dual_oracle` re-derives the optimum by vertex enumeration (exact,
d <= 3) or feasible sampling (lower bound, any d).

Two things this module deliberately does not do.  Spectral tables are not
canonical: many (probs, atoms) tables induce the same functional and no
normalization is imposed, so equality of laws must be decided by
evaluation, never by comparing tables.  And the translation-equivariant
sub-family (ell(f + a) = ell(f) + a * ell(1) for constants a) is a strict
sub-class of max-stable laws that nothing here detects or requires.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .carrier import Carrier, _indicator, as_values, iter_bits
from .integrals import _as_functional, _chain, _vals
from .setfun import (DEFAULT_TOL, MAX_ALTERNATION_ORDER, Capacity, _inclusion_exclusion,
                     _max_excess, _Owned, _worst, certified_mobius, subset_max)

PROBE_TOL = 1e-7  # max-alternation probe: a relative sum above it is a violation


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative weights on carrier points; sets get the sum."""

    carrier: Carrier
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights",
                           as_values(self.carrier, self.weights, "measure weights"))

    def measure_of(self, mask: int) -> float:
        self.carrier.validate_mask(mask)
        return float(sum(self.weights[i] for i in iter_bits(mask)))

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def to_json(self) -> dict[str, float]:
        return {lb: float(w) for lb, w in zip(self.carrier.labels, self.weights)}


def ChoquetTDF(theta: Capacity) -> Capacity:
    """The Choquet TDF of theta, which is theta itself: the name is kept for
    callers that wrap a capacity before evaluating it."""
    return theta


@dataclass(frozen=True)
class SpectralTDF:
    """Finitely supported spectral representation: atoms y_j with
    probabilities p_j.  ell(f) = sum_j p_j * max_x f(x) y_j(x)."""

    carrier: Carrier
    probs: np.ndarray
    atoms: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        a = np.asarray(self.atoms, dtype=float)
        if p.ndim != 1 or a.shape != (p.size, self.carrier.size):
            raise ValueError(
                f"need probs (m,) and atoms (m, {self.carrier.size}), "
                f"got {p.shape} and {a.shape}")
        if np.any(p <= 0) or not np.all(np.isfinite(p)):
            raise ValueError("atom probabilities must be positive and finite")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"atom probabilities sum to {p.sum()}, not 1")
        if np.any(a < 0) or not np.all(np.isfinite(a)):
            raise ValueError("spectral atoms must be nonnegative and finite")
        p = p.copy()
        a = a.copy()
        p.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "atoms", a)

    def eval(self, f) -> float:
        v = _vals(f, self.carrier)
        return float(self.probs @ np.max(self.atoms * v[None, :], axis=1))

    def eval_batch(self, fs: np.ndarray) -> np.ndarray:
        fs = np.asarray(fs, dtype=float)
        # (n, m, d) peak memory; fine for the small-d regime this targets
        return np.max(fs[:, None, :] * self.atoms[None, :, :], axis=2) @ self.probs

    def indicator_valued(self) -> bool:
        """True when every atom is c * indicator (the envelope-tight case)."""
        peaks = self.atoms.max(axis=1, keepdims=True)
        return bool(np.all((self.atoms == 0.0) | (self.atoms == peaks)))


def extremal_coefficients(ell: Union[Capacity, SpectralTDF]) -> Capacity:
    """Capacity theta(K) = ell(indicator of K) over the whole lattice; a
    capacity is its own."""
    if isinstance(ell, Capacity):
        return ell
    if isinstance(ell, SpectralTDF):
        per_atom = subset_max(ell.atoms)  # (m, 2**d) subset maxima
        return Capacity(ell.carrier, _Owned(ell.probs @ per_atom))
    raise TypeError(f"unsupported functional {type(ell).__name__}")


def crsm_envelope(ell: Union[Capacity, SpectralTDF]) -> Capacity:
    """The dominating Choquet TDF with the same extremal coefficients."""
    return extremal_coefficients(ell)


def random_test_vectors(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Nonnegative test vectors with mixed scales and occasional zeros."""
    scales = np.exp(rng.normal(0.0, 1.5, size=(n, 1)))
    vals = rng.exponential(1.0, size=(n, d)) * scales
    vals[rng.random((n, d)) < 0.25] = 0.0
    return vals


@dataclass(frozen=True)
class MaxAlternationReport:
    alternating: bool
    worst_value: float
    witness_u: Optional[np.ndarray]
    witness_increments: Optional[tuple[np.ndarray, ...]]
    trials: int


def check_max_complete_alternation(ell, order: int = 3, trials: int = 1000,
                                   seed: int = 0,
                                   carrier: Optional[Union[Carrier, int]] = None
                                   ) -> MaxAlternationReport:
    """Search for a positive inclusion-exclusion sum of the max-lattice
    successive differences of ell, orders 2..order.

    Each trial draws a base vector u and n increment vectors and evaluates
    sum over S of (-1)**|S| ell(u or max of the picked increments); 2**n
    evaluations per trial caps the order at 5.  A trial's value is that sum
    divided by the sum of the absolute values of its terms, so no verdict
    depends on the scale of ell; worst_value is the largest.  Any value
    above PROBE_TOL is a certified violation (max-complete alternation fails); a
    clean sweep is evidence, not proof.
    """
    if not 2 <= order <= MAX_ALTERNATION_ORDER:
        raise ValueError(f"order must be in 2..{MAX_ALTERNATION_ORDER}")
    func, carr = _as_functional(ell, carrier)
    d = carr.size
    rng = np.random.default_rng(seed)

    def draw(t):  # the base, then 2 + t % (order - 1) increments
        u = random_test_vectors(rng, 1, d)[0]
        return u, tuple(random_test_vectors(rng, 2 + t % (order - 1), d))

    def relative_sum(family) -> float:
        total = mass = 0.0
        for term in _inclusion_exclusion(func, np.maximum, *family):
            total += term
            mass += abs(term)
        return total / mass if mass > 0 else 0.0

    worst, witness, _ = _worst(map(draw, range(trials)), relative_sum)
    wit_u, wit_inc = witness or (None, None)
    return MaxAlternationReport(worst <= PROBE_TOL, worst, wit_u, wit_inc, trials)


@dataclass(frozen=True)
class DominationReport:
    dominates: bool
    min_margin: float
    witness_f: Optional[np.ndarray]
    trials: int


def dominates(upper, lower, trials: int = 1000,
              seed: int = 0,
              carrier: Optional[Union[Carrier, int]] = None) -> DominationReport:
    """Check upper(f) >= lower(f) - 1e-9 (|upper(f)| + |lower(f)|) on random
    nonnegative vectors.

    The margin of f is (upper(f) - lower(f)) / (|upper(f)| + |lower(f)|),
    so no verdict depends on the common scale.  Reports the worst margin
    and the witness vector when domination fails.
    """
    up, carr = _as_functional(upper, carrier)
    lo, carr_lo = _as_functional(lower, carr)
    if carr_lo != carr:
        raise ValueError("functionals live on different carriers")
    rng = np.random.default_rng(seed)

    def deficit(f) -> float:  # minus the margin, so the worst is the largest
        a, b = up(f), lo(f)
        scale = abs(a) + abs(b)
        return -((a - b) / scale if scale > 0 else 0.0)

    worst, wit, _ = _worst(random_test_vectors(rng, trials, carr.size), deficit)
    return DominationReport(-worst >= -1e-9, -worst, wit, trials)


def dual_greedy(theta: Capacity, f,
                tol: float = DEFAULT_TOL) -> tuple[DiscreteMeasure, float]:
    """Maximizing measure of max { f . mu : mu >= 0, mu(K) <= theta(K) }.

    Requires completely alternating theta.  mu is the increments of theta
    along the comonotone chain of f (integrals._chain: the points in
    descending f order, ties by carrier index):

        mu(x_(i)) = theta({x_(1)..x_(i)}) - theta({x_(1)..x_(i-1)}).

    The value f . mu then equals the Choquet integral, which is the exact
    optimum.  Feasibility of mu is re-verified exhaustively over the whole
    lattice; a violation means the alternation certificate lied and raises,
    naming the first mask of largest excess (_max_excess; by size or atoms,
    d sets are checked).  tol is relative: both allow tol * theta(E).
    """
    v = _vals(f, theta.carrier)
    certified_mobius(theta, tol)
    atol = theta.atol(tol)
    order, _, chain = _chain(theta, v)
    weights = np.empty(theta.carrier.size)
    weights[order] = np.diff(chain, prepend=0.0)
    # CA makes the chain increments nonnegative; anything below rounding
    # dust means the certificate and the table disagree
    if weights.min() < -theta.atol(1e-7):
        raise RuntimeError(
            f"capacity decreases along the greedy chain "
            f"(increment {weights.min():.3g})")
    weights = np.clip(weights, 0.0, None)
    mu = DiscreteMeasure(theta.carrier, weights)
    excess, worst = _max_excess(theta, weights, order)
    if excess > atol:
        raise RuntimeError(
            f"greedy measure violates feasibility at mask {worst:#x}; "
            f"capacity is not completely alternating within {atol:.3g}")
    return mu, float(v @ weights)


def dual_oracle(theta: Capacity, f, method: str = "exact",
                trials: int = 10000, seed: Optional[int] = None,
                tol: float = DEFAULT_TOL) -> tuple[float, Optional[DiscreteMeasure]]:
    """Independent solve of the greedy LP.

    method="exact": enumerate candidate vertices of the feasible polytope
    (every d-subset of the active constraint rows), keep the feasible ones,
    return the best objective.  Exponential in d; refused above d = 3.
    Feasibility allows the slack theta.atol(tol), as in dual_greedy.

    method="sampled": rejection-sample the bounding box [0, theta({x})] and
    keep feasible points; a plain lower bound that must never beat greedy.
    Feasibility screens all 2**d constraints per draw, so this mode is
    capped at d = 12.
    """
    v = _vals(f, theta.carrier)
    d = theta.carrier.size
    size = 1 << d
    atol = theta.atol(tol)
    if method == "exact":
        if d > 3:
            raise ValueError("exact dual oracle is restricted to d <= 3")
        # mu(K) <= theta(K) over the nonempty K, then -mu(x) <= 0
        masks = np.arange(1, size)
        A = np.concatenate([_indicator(masks, d), -np.eye(d) + 0.0])  # + 0.0 clears the -0.0 entries
        b = np.concatenate([theta.at(masks), np.zeros(d)])
        best, best_mu = -math.inf, None
        for pick in itertools.combinations(range(len(A)), d):
            sub = A[list(pick)]
            if abs(np.linalg.det(sub)) < 1e-12:
                continue
            mu = np.linalg.solve(sub, b[list(pick)])
            if np.any(A @ mu > b + atol):
                continue
            val = float(v @ mu)
            if val > best:
                best, best_mu = val, np.clip(mu, 0.0, None)
        if best_mu is None:  # mu = 0 is always feasible, so this cannot happen
            raise RuntimeError("vertex enumeration found no feasible vertex")
        return best, DiscreteMeasure(theta.carrier, best_mu)
    if method == "sampled":
        if seed is None:
            raise ValueError("sampled dual oracle needs a seed")
        if d > 12:
            raise ValueError("sampled dual oracle is capped at d <= 12")
        rng = np.random.default_rng(seed)
        box = theta.singletons()
        draws = rng.random((trials, d)) * box[None, :]
        members = _indicator(np.arange(size), d)
        best_val = 0.0  # mu = 0 is always feasible
        best_mu = np.zeros(d)
        for lo in range(0, trials, 1024):
            block = draws[lo:lo + 1024]
            sums = block @ members.T  # (block, 2**d) subset sums
            feasible = np.all(sums <= theta.table[None, :] + atol, axis=1)
            if not np.any(feasible):
                continue
            vals = np.where(feasible, block @ v, -np.inf)
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val = float(vals[k])
                best_mu = block[k]
        return best_val, DiscreteMeasure(theta.carrier, best_mu)
    raise ValueError(f"unknown dual oracle method {method!r}")


def joint_cdf(ell: Union[Capacity, SpectralTDF],
              pairs: Sequence[tuple[int, float]]) -> float:
    """P(X(K_i) <= a_i for all i) for the max-stable RSM attached to ell.

    pairs is a list of (subset mask, level a_i) with a_i > 0.  The law is
    the defining identity of the TDF,

        P(X(K_i) <= a_i for all i) = exp(-ell(max_i 1_{K_i} / a_i)),

    one evaluation of ell for every representation; no pairs give 1.
    """
    h = np.zeros(ell.carrier.size)
    for mask, a in pairs:
        ell.carrier.validate_mask(mask)
        if not (a > 0.0) or not math.isfinite(a):
            raise ValueError(f"cdf levels must be positive and finite, got {a}")
        for i in iter_bits(mask):
            h[i] = max(h[i], 1.0 / a)
    return math.exp(-ell.eval(h))
