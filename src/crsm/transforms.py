"""Capacity constructors: Bernstein transforms and structured families.

Composing a completely alternating capacity with a Bernstein function

    g(t) = b t + sum_k w_k (1 - exp(-s_k t)),   or   g(t) = t**alpha,

yields another completely alternating capacity; this is the workhorse for
building dependent models out of additive ones.  Distortions g(mu(K)) of a
measure with a non-Bernstein g need not stay alternating: the AVaR
distortion g(t) = min(t, alpha)/alpha is the stock counterexample and is
provided deliberately unrepaired.

Structured families:

* exchangeable:   theta(K) = c * (1 - E[(1 - zeta)**|K|]) for a mixing
  variable zeta in [0, 1] with finitely many atoms.  theta depends on K
  only through |K| and is completely alternating for every mixing law.
* subset_size:    theta(K) = c * (1 - p_0 - sum_{k=1}^{d-|K|}
  (C(d-|K|, k) / C(d, k)) p_k) for a size distribution (p_0..p_d): the
  capacity functional of a uniformly placed random set of random size.
  Feeding it the binomial size law recovers the exchangeable family.
* torus_storm:    theta(K) = c * E|K + reflected shape| on the discrete
  torus (Z_n or Z_n x Z_n): the capacity functional of a randomly shifted
  random shape, shift uniform.  Exactly shift-stationary by construction.

Rearrangement-invariant capacities beyond these admit mixture
representations over size profiles, but no general criterion for which
mixtures stay completely alternating is offered here; classify() the
result.  Point masses can fail (the AVaR distortion is exactly such a
failure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .carrier import Carrier, TorusTag, as_carrier, popcounts
from .setfun import Capacity, _additive_table, _singleton_table, _sweep
from .tdf import DiscreteMeasure


@dataclass(frozen=True)
class BernsteinFunction:
    """Drift plus finitely many jump atoms, or a pure power.

    g(t) = drift * t + sum_k weight_k * (1 - exp(-rate_k * t)) when power
    is None, else g(t) = t**power with 0 < power < 1.  Always g(0) = 0,
    nondecreasing and concave.
    """

    drift: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()
    power: Optional[float] = None

    def __post_init__(self) -> None:
        if self.power is not None:
            if not 0.0 < self.power < 1.0:
                raise ValueError(f"power must lie in (0, 1), got {self.power}")
            if self.drift != 0.0 or self.atoms:
                raise ValueError("power form does not take drift or atoms")
            return
        if not (self.drift >= 0.0 and math.isfinite(self.drift)):
            raise ValueError(f"drift must be a finite nonnegative real, got {self.drift}")
        atoms = tuple((float(s), float(w)) for s, w in self.atoms)
        for s, w in atoms:
            if not (s > 0.0 and math.isfinite(s) and w > 0.0 and math.isfinite(w)):
                raise ValueError(f"jump atom (rate={s}, weight={w}) must be positive finite")
        object.__setattr__(self, "atoms", atoms)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("Bernstein functions are evaluated on t >= 0")
        if self.power is not None:
            out = t ** self.power
        else:
            out = self.drift * t
            for s, w in self.atoms:
                out = out + w * -np.expm1(-s * t)
        return float(out) if out.ndim == 0 else out


def compose_capacity(g: BernsteinFunction, theta: Capacity) -> Capacity:
    """g o theta, tablewise.  Preserves complete alternation."""
    table = g(theta.table)
    table = np.asarray(table, dtype=float).copy()
    table[0] = 0.0  # g(0) = 0 identically; keep the slot exact
    return Capacity(theta.carrier, table)


def exchangeable_capacity(carrier: Union[Carrier, int],
                          zeta: Sequence[tuple[float, float]],
                          scale: float = 1.0) -> Capacity:
    """theta(K) = scale * (1 - E[(1 - zeta)**|K|]).

    zeta is a finite mixing law [(value, prob), ..] with values in [0, 1]
    and probs summing to 1.
    """
    carr = as_carrier(carrier)
    if not zeta:
        raise ValueError("mixing law needs at least one atom")
    vals = np.array([v for v, _ in zeta], dtype=float)
    probs = np.array([q for _, q in zeta], dtype=float)
    if np.any(vals < 0) or np.any(vals > 1):
        raise ValueError("mixing values must lie in [0, 1]")
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("mixing probabilities must be nonnegative and sum to 1")
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive finite, got {scale}")
    # theta depends on K only through |K|: d + 1 values, gathered by size
    sizes = np.arange(carr.size + 1)
    survival = (1.0 - vals)[None, :] ** sizes[:, None]  # (d + 1, m)
    table = (scale * (1.0 - survival @ probs))[popcounts(1 << carr.size)]
    table[0] = 0.0
    return Capacity(carr, table)


def subset_size_capacity(carrier: Union[Carrier, int],
                         p: Sequence[float],
                         scale: float = 1.0) -> Capacity:
    """Capacity functional of a uniform random set with size law (p_0..p_d).

    theta(K) = scale * P(the random set meets K)
             = scale * (1 - p_0 - sum_{k=1}^{d-|K|} C(d-|K|, k)/C(d, k) p_k).
    """
    carr = as_carrier(carrier)
    d = carr.size
    p = np.asarray(p, dtype=float)
    if p.shape != (d + 1,):
        raise ValueError(f"size law needs d+1 = {d + 1} entries, got {p.shape}")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("size probabilities must be nonnegative and sum to 1")
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive finite, got {scale}")
    # miss[m] = P(random set avoids a fixed set of size m)
    miss = np.zeros(d + 1)
    for m in range(d + 1):
        acc = [p[0]]
        for k in range(1, d - m + 1):
            acc.append(p[k] * math.comb(d - m, k) / math.comb(d, k))
        miss[m] = math.fsum(acc)
    table = scale * (1.0 - miss[popcounts(1 << d)])
    table[0] = 0.0
    return Capacity(carr, table)


def distortion_capacity(mu: Union[DiscreteMeasure, Sequence[float]],
                        kind: str, alpha: float,
                        carrier: Optional[Carrier] = None) -> Capacity:
    """theta(K) = g(mu(K)) for g a distortion of the given kind.

    kind="power": g(t) = t**alpha, 0 < alpha < 1.  A Bernstein transform,
    so the result is completely alternating.

    kind="avar":  g(t) = min(t, alpha)/alpha, 0 < alpha <= 1.  Concave but
    not Bernstein; with the kink strictly inside the range of subset sums
    it can fail complete alternation (uniform 1/4 weights on four points
    with alpha = 0.8 produce Mobius weight -1/4 on every 3-set), which is
    the point of having it.
    """
    if isinstance(mu, DiscreteMeasure):
        meas = mu
    else:
        if carrier is None:
            raise ValueError("plain weight vectors need an explicit carrier")
        meas = DiscreteMeasure(carrier, np.asarray(mu, dtype=float))
    sums = _additive_table(meas.weights)
    if kind == "power":
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"power distortion needs alpha in (0, 1), got {alpha}")
        table = sums ** alpha
    elif kind == "avar":
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"avar distortion needs alpha in (0, 1], got {alpha}")
        table = np.minimum(sums, alpha) / alpha
    else:
        raise ValueError(f"unknown distortion kind {kind!r}")
    table[0] = 0.0
    return Capacity(meas.carrier, table)


def _torus_carrier(n: int, dim: int) -> Carrier:
    tag = TorusTag(n, dim)
    if dim == 1:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(f"{i}.{j}" for i in range(n) for j in range(n))
    return Carrier(labels, torus=tag)


def _point_index(pt, n: int, dim: int) -> int:
    if dim == 1:
        if isinstance(pt, (tuple, list)):
            (i,) = pt
        else:
            i = pt
        return int(i) % n
    i, j = pt
    return (int(i) % n) * n + (int(j) % n)


def torus_storm_capacity(n: int,
                         shapes: Sequence[tuple[Sequence, float]],
                         dim: int = 1,
                         scale: float = 1.0) -> Capacity:
    """theta(K) = scale * E #{shifts v : (shape + v) meets K} on (Z_n)**dim.

    shapes is a finite law [(points, prob), ..]; each points entry lists
    torus points (ints for dim 1, (i, j) pairs for dim 2).  The count for
    a fixed shape S is |K + reflected S| (Minkowski sum on the torus), so
    the table is exactly invariant under shifts of K: the same multiset of
    summands appears in the same order and stationarity holds bit for bit.
    """
    tag = TorusTag(n, dim)
    carr = _torus_carrier(n, dim)
    d = carr.size
    if not shapes:
        raise ValueError("storm law needs at least one shape")
    probs = np.array([q for _, q in shapes], dtype=float)
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("shape probabilities must be nonnegative and sum to 1")
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive finite, got {scale}")
    table = np.zeros(1 << d)
    for (points, q) in shapes:
        idxs = {_point_index(pt, n, dim) for pt in points}
        if not idxs:
            raise ValueError("shapes must be nonempty")
        # hit[x] = mask of shifts v with x in shape + v, i.e. v = x - s;
        # reach[K] = OR of hit over K, the shifts whose shape meets K
        hit = np.zeros(d, dtype=np.int64)
        for x in range(d):
            m = 0
            for s in idxs:
                m |= 1 << _shift_diff(x, s, n, dim)
            hit[x] = m
        reach = _sweep(_singleton_table(hit, 0), d, np.bitwise_or)
        table += q * np.bitwise_count(reach)
    table *= scale
    table[0] = 0.0
    return Capacity(carr, table)


def _shift_diff(x: int, s: int, n: int, dim: int) -> int:
    """Index of the shift v with x = s + v on the torus."""
    if dim == 1:
        return (x - s) % n
    xi, xj = divmod(x, n)
    si, sj = divmod(s, n)
    return ((xi - si) % n) * n + (xj - sj) % n


def check_stationary(theta: Capacity) -> bool:
    """Exact shift-invariance of a capacity on a torus-tagged carrier.

    Compares theta(K + v) == theta(K) bitwise for every subset and each
    generating shift v (one step along each torus axis); equality is
    transitive, so this holds for every group shift exactly when it holds
    for the generators.  No tolerance, since the constructors above
    produce exactly equal floats for shifted arguments.
    """
    tag = theta.carrier.torus
    if tag is None:
        raise ValueError("carrier lacks torus tag")
    d = theta.carrier.size
    for shift in ((1,),) if tag.dim == 1 else ((1, 0), (0, 1)):
        # shifted[K] = mask of K + shift, the OR of the moved point bits
        bits = np.left_shift(1, tag.shift_permutation(shift))
        shifted = _sweep(_singleton_table(bits, 0), d, np.bitwise_or)
        if not np.array_equal(theta.table[shifted], theta.table):
            return False
    return True
