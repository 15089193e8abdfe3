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
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .carrier import Carrier, TorusTag, as_carrier
from .setfun import _BLOCK_BITS, Capacity, _additive_table, _Owned, _release, atom_capacity

if TYPE_CHECKING:
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
            # drift*t + sum w*(-expm1(-s*t)) in two arrays; x - y is x + (-y)
            out = np.multiply(self.drift, t, out=np.empty_like(t))
            buf = np.empty_like(t) if self.atoms else None
            for s, w in self.atoms:
                np.expm1(np.multiply(-s, t, out=buf), out=buf)
                np.subtract(out, np.multiply(w, buf, out=buf), out=out)
        return float(out) if out.ndim == 0 else out


def compose_capacity(g: BernsteinFunction, theta: Union[Capacity, _Owned]) -> Capacity:
    """g o theta, held in the form theta is held in.  Preserves complete
    alternation.

    g runs over the held values, 2**_BLOCK_BITS at a time, into a new
    array, or for compose_capacity(g, _Owned(theta)) into the array
    _release hands back: theta's own table, which the caller must then
    drop, or a copy of the d + 1 values of a theta held by size.  A plain
    Capacity is never written.  g o theta has no atoms, so a theta held by
    its atoms is composed as its table.  g works entry by entry, so every
    route gives the bits of g(theta.table).
    """
    owned = isinstance(theta, _Owned)
    theta = (theta.arr if owned else theta)._entrywise()
    src = _release(theta) if owned else theta._held()
    out = src if owned else np.empty_like(src)
    step = 1 << _BLOCK_BITS
    for start in range(0, src.size, step):
        out[start:start + step] = g(src[start:start + step])
    out[0] = 0.0  # g(0) = 0 identically; keep the slot exact
    return theta._new(Capacity, out)


def _check_law(probs: np.ndarray, what: str) -> None:
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"{what} probabilities must be nonnegative and sum to 1")


def _check_scale(scale: float) -> None:
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive finite, got {scale}")


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
    _check_law(probs, "mixing")
    _check_scale(scale)
    # theta depends on K only through |K|: d + 1 values
    sizes = np.arange(carr.size + 1)
    survival = (1.0 - vals)[None, :] ** sizes[:, None]  # (d + 1, m)
    return _symmetric(carr, scale * (1.0 - survival @ probs))


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
    _check_law(p, "size")
    _check_scale(scale)
    # miss[m] = P(random set avoids a fixed set of size m)
    miss = np.zeros(d + 1)
    for m in range(d + 1):
        acc = [p[0]]
        for k in range(1, d - m + 1):
            acc.append(p[k] * math.comb(d - m, k) / math.comb(d, k))
        miss[m] = math.fsum(acc)
    return _symmetric(carr, scale * (1.0 - miss))


def _symmetric(carrier: Carrier, phi: np.ndarray) -> Capacity:
    """The capacity held by size with phi(k) on every k-set, phi(0) = 0."""
    phi[0] = 0.0
    return Capacity(carrier, by_size=phi)


def distortion_capacity(mu: DiscreteMeasure, kind: str, alpha: float) -> Capacity:
    """theta(K) = g(mu(K)) for g a distortion of the given kind.

    kind="power": g(t) = t**alpha, 0 < alpha < 1.  A Bernstein transform,
    so the result is completely alternating.

    kind="avar":  g(t) = min(t, alpha)/alpha, 0 < alpha <= 1.  Concave but
    not Bernstein; with the kink strictly inside the range of subset sums
    it can fail complete alternation (uniform 1/4 weights on four points
    with alpha = 0.8 produce Mobius weight -1/4 on every 3-set), which is
    the point of having it.
    """
    sums = _additive_table(mu.weights)
    # g runs in the table of sums, so no second table is built
    if kind == "power":
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"power distortion needs alpha in (0, 1), got {alpha}")
        sums **= alpha
    elif kind == "avar":
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"avar distortion needs alpha in (0, 1], got {alpha}")
        np.minimum(sums, alpha, out=sums)
        sums /= alpha
    else:
        raise ValueError(f"unknown distortion kind {kind!r}")
    sums[0] = 0.0
    return Capacity(mu.carrier, _Owned(sums))


def torus_storm_capacity(n: int,
                         shapes: Sequence[tuple[Sequence, float]],
                         dim: int = 1,
                         scale: float = 1.0) -> Capacity:
    """theta(K) = scale * E #{shifts v : (shape + v) meets K} on (Z_n)**dim.

    shapes is a finite law [(points, prob), ..]; a point is dim ints in a
    list or tuple (or an int if dim is 1), else ValueError (CLI exit 2).
    The capacity is held by its atoms (atom_capacity), with one part per
    shape: the masks of shape + v over every shift v, weighted by prob.
    So nu(F) = scale * sum of prob * #{v : shape + v = F}, exactly, and
    theta(K) sums prob * |K + reflected shape| (Minkowski sum on the
    torus) shape by shape, then times scale.  Each part is invariant
    under shifts, so the values at K and K + v are the same float
    operations on the same operands and stationarity holds bit for bit.
    """
    tag = TorusTag(n, dim)
    carr = tag.carrier()
    if not shapes:
        raise ValueError("storm law needs at least one shape")
    probs = np.array([q for _, q in shapes], dtype=float)
    _check_law(probs, "shape")
    _check_scale(scale)
    parts = []
    for (points, q) in shapes:
        if len(points) == 0:
            raise ValueError("shapes must be nonempty")
        # row s holds the bit of s + v at column v, so the OR over the
        # shape's points is the mask of shape + v
        moved = np.left_shift(1, np.array([tag.shift_permutation(s) for s in points]))
        parts.append((q, np.bitwise_or.reduce(moved, axis=0)))
    return atom_capacity(carr, parts, scale)


def check_stationary(theta: Capacity) -> bool:
    """Exact shift-invariance of a capacity on a torus-tagged carrier.

    Compares theta(K + v) == theta(K) bitwise for every subset and each
    generating shift v (one step along each torus axis); equality is
    transitive, so this holds for every group shift exactly when it holds
    for the generators.  No tolerance, since the constructors above
    produce exactly equal floats for shifted arguments.  A capacity held
    by its atoms checks that its weighted atom set is invariant, with no
    table built (_Lattice._invariant).
    """
    tag = theta.carrier.torus
    if tag is None:
        raise ValueError("carrier lacks torus tag")
    shifts = ((1,),) if tag.dim == 1 else ((1, 0), (0, 1))
    return all(theta._invariant(np.left_shift(1, tag.shift_permutation(shift)))
               for shift in shifts)
