"""Capacities on finite carriers and their Mobius calculus.

A capacity here is any set function theta on the 2**d subsets with
theta(empty) = 0 and finite nonnegative values; monotonicity and complete
alternation are *properties to be checked*, not construction invariants,
so pathological examples (AVaR distortions and friends) are first-class
citizens.

Every capacity owns a signed Mobius measure nu on the nonempty subsets,
the unique solution of

    theta(K) = sum of nu(F) over F with F & K != 0,

recovered by Mobius inversion of g(A) = theta(E) - theta(E \\ A) (g is the
cumulative mass of the nonempty subsets of A).  Complete alternation of
theta is equivalent to nu >= 0, and then nu / theta(E) is the sampling
distribution of the atoms of the associated random sup-measure.  On a
finite carrier the usual topological side conditions (upper
semicontinuity of the functional) hold for free, so complete alternation
together with theta(empty) = 0 is the *whole* characterization of which
set functions arise as capacity functionals.

Successive differences use the sign convention

    D_{K1..Kn} theta (K) = sum over S subset of {1..n} of
                           (-1)**|S| * theta(K united with the K_i, i in S)

so order 1 nonpositive on all pairs is monotonicity and all orders
nonpositive is complete alternation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .carrier import Carrier

# Default comparison slack for the exact lattice calculus.  Checks that
# involve Monte Carlo use their own, looser tolerances.
DEFAULT_TOL = 1e-9

MAX_ALTERNATION_ORDER = 5  # order n costs 2**n evaluations per family


def _check_table(carrier: Carrier, table: np.ndarray, name: str,
                 nonnegative: bool) -> np.ndarray:
    arr = np.asarray(table, dtype=float)
    want = 1 << carrier.size
    if arr.shape != (want,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({want},)")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if arr[0] != 0.0:
        raise ValueError(f"{name} must vanish on the empty set, got {arr[0]}")
    if nonnegative and np.any(arr < 0):
        raise ValueError(f"{name} must be nonnegative")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Capacity:
    """Set function on 2**d subsets, indexed by subset mask.

    table[mask] = theta(subset).  table[0] must be 0 and all entries
    finite and nonnegative.  Nothing else is assumed.
    """

    carrier: Carrier
    table: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "table",
                           _check_table(self.carrier, self.table, "capacity table", True))

    def __call__(self, mask: int) -> float:
        self.carrier.validate_mask(mask)
        return float(self.table[mask])

    @property
    def total(self) -> float:
        """theta(E)."""
        return float(self.table[-1])

    def atol(self, tol: float) -> float:
        """Absolute slack of the relative tolerance tol: tol * max(1, theta(E)).

        Rounding in the lattice sweeps grows with the values swept, so every
        exact check on this capacity compares against this slack.
        """
        return tol * max(1.0, self.total)

    def singletons(self) -> np.ndarray:
        """theta({x}) in carrier order."""
        d = self.carrier.size
        return self.table[np.left_shift(1, np.arange(d))].copy()


@dataclass(frozen=True)
class MobiusMeasure:
    """Signed measure on the nonempty subsets, indexed by subset mask.

    weights[0] is identically 0; nonempty weights may be negative (exactly
    when the originating capacity fails complete alternation).
    """

    carrier: Carrier
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights",
                           _check_table(self.carrier, self.weights, "mobius weights", False))

    def __call__(self, mask: int) -> float:
        self.carrier.validate_mask(mask)
        return float(self.weights[mask])

    @property
    def total_mass(self) -> float:
        """Sum of all weights; equals theta(E) of the matching capacity."""
        return float(self.weights.sum())

    def min_weight(self) -> tuple[float, int]:
        """Smallest weight over nonempty sets and its witness mask."""
        idx = 1 + int(np.argmin(self.weights[1:]))
        return float(self.weights[idx]), idx


# Pairs per chunk in _halves: a chunk of each half and any temporary made
# from it stay in cache, so a check over the halves reads the table once
# per bit instead of also writing and rereading a half-size temporary.
_CHUNK = 1 << 15


def _halves(arr: np.ndarray, d: int):
    """Yield (lo, hi) views of arr pairing each mask without bit b (lo)
    with the mask plus b (hi), for b from the highest bit down.

    The last axis of arr holds the 2**d masks and must be C-contiguous with
    any leading (batch) axes.  Each bit comes in chunks of at most _CHUNK
    pairs.  The views are never 0-d, even at d = 1, so out= can always
    write to them.
    """
    for b in reversed(range(d)):
        pairs = arr.reshape(-1, 2, 1 << b)
        rows = max(1, _CHUNK >> b)
        cols = min(1 << b, _CHUNK)
        # runs of one or two masks go as one strided 1-D view per offset:
        # a 2-D view with so short an inner loop is several times slower
        runs = range(1 << b) if b < 2 else [slice(c, c + cols)
                                            for c in range(0, 1 << b, cols)]
        for r in range(0, pairs.shape[0], rows):
            for c in runs:
                yield pairs[r:r + rows, 0, c], pairs[r:r + rows, 1, c]


def _sweep(arr: np.ndarray, d: int, ufunc: np.ufunc) -> np.ndarray:
    """In place: hi = ufunc(hi, lo) for every pair of _halves; returns arr.

    This is the d * 2**(d-1) subset sweep of Bjorklund, Husfeldt, Kaski
    and Koivisto (STOC 2007): with add it is the zeta transform, with
    subtract the Mobius inverse, and with maximum, minimum or bitwise_or
    it spreads values from the singletons to every set.  The bits always
    go from the highest down, so add and subtract keep one fixed rounding
    order.
    """
    for lo, hi in _halves(arr, d):
        ufunc(hi, lo, out=hi)
    return arr


def _singleton_table(values: np.ndarray, fill) -> np.ndarray:
    """(..., 2**d) table with values[..., i] at mask 1 << i and fill at
    every other mask, the empty set included."""
    values = np.asarray(values)
    d = values.shape[-1]
    out = np.full(values.shape[:-1] + (1 << d,), fill, dtype=values.dtype)
    out[..., np.left_shift(1, np.arange(d))] = values
    return out


def _additive_table(weights: np.ndarray) -> np.ndarray:
    """table[K] = sum of weights over the points of K, by one zeta sweep."""
    weights = np.asarray(weights, dtype=float)
    return _sweep(_singleton_table(weights, 0.0), weights.shape[-1], np.add)


def subset_zeta(arr: np.ndarray, d: int) -> np.ndarray:
    """h[A] = sum of arr[F] over F subset of A."""
    return _sweep(np.array(arr, dtype=float), d, np.add)


def subset_mobius(arr: np.ndarray, d: int) -> np.ndarray:
    """Inverse of subset_zeta: out[F] = sum over A subset of F of (-1)**|F\\A| arr[A]."""
    return _sweep(np.array(arr, dtype=float), d, np.subtract)


def subset_max(singles: np.ndarray) -> np.ndarray:
    """out[K] = max over x in K of singles[x], 0 on the empty set.

    singles may be a (d,) vector or an (m, d) stack; the sweep runs over
    the last d axes so a whole batch of vectors is transformed at once.
    Requires singles >= 0.
    """
    singles = np.asarray(singles, dtype=float)
    out = _singleton_table(singles, -np.inf)
    out[..., 0] = 0.0
    return _sweep(out, singles.shape[-1], np.maximum)


def mobius_inverse(theta: Capacity) -> MobiusMeasure:
    """Mobius measure of a capacity.

    g(A) = theta(E) - theta(E \\ A) accumulates the weight of all nonempty
    subsets of A, so one Mobius sweep recovers nu.  Exact inverse of
    capacity_from_measure up to float rounding.
    """
    d = theta.carrier.size
    # complement(mask) = full - mask, so the complement table is a reversal
    g = theta.table[-1] - theta.table[::-1]
    nu = _sweep(g, d, np.subtract)
    nu[0] = 0.0  # g(0) = 0 exactly, but keep the slot clean
    return MobiusMeasure(theta.carrier, nu)


def certified_mobius(theta: Capacity, tol: float = DEFAULT_TOL) -> MobiusMeasure:
    """Mobius measure of a capacity certified completely alternating.

    The certificate that theta is the capacity functional of a random
    sup-measure: every weight is at least -theta.atol(tol).  Raises
    ValueError naming the smallest weight and its mask otherwise.
    """
    nu = mobius_inverse(theta)
    min_w, witness = nu.min_weight()
    if min_w < -theta.atol(tol):
        raise ValueError(
            f"capacity is not completely alternating (mobius weight {min_w:.3g} "
            f"at mask {witness:#x}); no random sup-measure has it")
    return nu


def capacity_from_measure(nu: MobiusMeasure) -> Capacity:
    """Capacity theta(K) = sum of nu(F) over F meeting K.

    Computed as h(E) - h(E \\ K) with h the subset-sum transform of the
    weights.  Raises if some resulting value is negative (the weights then
    do not come from a capacity).
    """
    d = nu.carrier.size
    h = subset_zeta(nu.weights, d)
    table = h[-1] - h[::-1]
    table[0] = 0.0
    return Capacity(nu.carrier, table)


def successive_difference(theta: Capacity, base: int,
                          increments: Sequence[int]) -> float:
    """n-th successive difference of theta at base along the increment sets.

    Inclusion-exclusion over the 2**n subfamilies, accumulated with fsum,
    so it is exact up to one rounding of the final sum.  Order 0 returns
    theta(base).
    """
    theta.carrier.validate_mask(base)
    for inc in increments:
        theta.carrier.validate_mask(inc)
    terms = []
    for picks in itertools.product((0, 1), repeat=len(increments)):
        m = base
        for take, inc in zip(picks, increments):
            if take:
                m |= inc
        terms.append((-1.0) ** sum(picks) * theta.table[m])
    return math.fsum(terms)


@dataclass(frozen=True)
class Classification:
    """Structural flags of a capacity plus the worst Mobius weight."""

    monotone: bool
    completely_alternating: bool
    maxitive: bool
    additive: bool
    min_mobius_weight: float
    min_mobius_witness: int

    def summary(self, carrier: Carrier) -> dict:
        return {
            "monotone": self.monotone,
            "completely_alternating": self.completely_alternating,
            "maxitive": self.maxitive,
            "additive": self.additive,
            "witness": {
                "F": sorted(carrier.labels_of(self.min_mobius_witness)),
                "nu": self.min_mobius_weight,
            },
        }


def classify(theta: Capacity, tol: float = DEFAULT_TOL) -> Classification:
    """Check monotone / completely alternating / maxitive / additive, all
    exhaustively over the subset lattice, each within the relative
    tolerance tol (slack tol * max(1, theta(E)), see Capacity.atol).

    Monotonicity compares theta(K) with theta(K + x) for every x not in K,
    on views of the table (_halves).  Complete alternation is certified
    through the Mobius measure (nu >= -slack entrywise), which is
    equivalent to every successive difference of order >= 2 being
    nonpositive.  Maxitivity uses the singleton criterion theta(K) = max
    over x in K of theta({x}), which is equivalent to the pairwise max
    property on a finite lattice.  Additivity means nu carried by
    singletons.
    """
    d = theta.carrier.size
    table = theta.table
    atol = theta.atol(tol)

    monotone = not any(np.any(lo - hi > atol) for lo, hi in _halves(table, d))

    nu = mobius_inverse(theta)
    min_w, witness = nu.min_weight()
    completely_alternating = min_w >= -atol

    # E is the cheapest witness against each of the two criteria below
    # (a nonsingleton once d >= 2), so most capacities skip the full pass
    singles = theta.singletons()
    maxitive = bool(abs(theta.total - max(0.0, singles.max())) <= atol)
    if maxitive:
        maxitive = bool(np.all(np.abs(table - subset_max(singles)) <= atol))

    additive = d == 1 or bool(abs(nu.weights[-1]) <= atol)
    if additive:
        off = np.abs(nu.weights)
        off[np.left_shift(1, np.arange(d))] = 0.0
        additive = bool(off.max() <= atol)

    return Classification(monotone, completely_alternating, maxitive, additive,
                          min_w, witness)


@dataclass(frozen=True)
class AlternationReport:
    """Outcome of the direct successive-difference search."""

    alternating: bool
    worst_value: float
    witness_base: Optional[int]
    witness_increments: Optional[tuple[int, ...]]
    families_checked: int


def check_complete_alternation_direct(theta: Capacity, max_order: int = 3,
                                      trials: int = 10000,
                                      seed: Optional[int] = None,
                                      tol: float = DEFAULT_TOL) -> AlternationReport:
    """Search for a positive successive difference of order 2..max_order.

    Exhaustive over all (base; K_1..K_n) families with nonempty increments
    when d <= 3; otherwise evaluates `trials` uniformly sampled families,
    which requires a seed.  Order-1 differences are deliberately excluded:
    they test monotonicity, not alternation.

    This is the slow cross-check of the Mobius criterion in `classify`; the
    two must agree on every capacity (exhaustive regime) or never contradict
    each other (sampled regime: a found violation is always real).
    """
    d = theta.carrier.size
    if not 2 <= max_order <= MAX_ALTERNATION_ORDER:
        raise ValueError(f"order must be in 2..{MAX_ALTERNATION_ORDER}")
    size = 1 << d
    worst = -math.inf
    witness: Optional[tuple[int, tuple[int, ...]]] = None
    checked = 0

    def consider(base: int, incs: tuple[int, ...]) -> None:
        nonlocal worst, witness, checked
        val = successive_difference(theta, base, incs)
        checked += 1
        if val > worst:
            worst = val
            witness = (base, incs)

    if d <= 3:
        nonempty = list(range(1, size))
        for n in range(2, max_order + 1):
            for base in range(size):
                for incs in itertools.product(nonempty, repeat=n):
                    consider(base, incs)
    else:
        if seed is None:
            raise ValueError("sampled alternation search needs a seed for d > 3")
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            n = int(rng.integers(2, max_order + 1))
            base = int(rng.integers(0, size))
            incs = tuple(int(rng.integers(1, size)) for _ in range(n))
            consider(base, incs)

    alternating = worst <= tol
    if witness is None:
        return AlternationReport(True, -math.inf, None, None, 0)
    return AlternationReport(alternating, worst, witness[0], witness[1], checked)
