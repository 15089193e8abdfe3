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

A capacity is held as a table, by size (the d + 1 values phi when
theta(K) = phi(|K|)) or by its atoms (a few positive Mobius weights the
constructor knows exactly), and its Mobius measure in the same form (see
_Lattice).  Results with a by-size or an atom form are computed from it,
bit-equal to the table route or with its verdicts (see classify).

Successive differences use the sign convention

    D_{K1..Kn} theta (K) = sum over S subset of {1..n} of
                           (-1)**|S| * theta(K united with the K_i, i in S)

so order 1 nonpositive on all pairs is monotonicity and all orders
nonpositive is complete alternation.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .carrier import Carrier, _indicator, popcounts

# Default comparison slack for the exact lattice calculus.  Checks that
# involve Monte Carlo use their own, looser tolerances.
DEFAULT_TOL = 1e-9

MAX_ALTERNATION_ORDER = 5  # order n costs 2**n evaluations per family


class _Owned:
    """An array or capacity the library has just built and keeps no other
    reference to.

    Capacity(carrier, _Owned(arr)) and MobiusMeasure(carrier, _Owned(arr))
    take arr over, read-only, instead of copying it; a plain array from a
    caller is always copied.  mobius_inverse(_Owned(theta)),
    certified_mobius(_Owned(theta)) and compose_capacity(g, _Owned(theta))
    consume theta's table in place (see _release).
    """

    __slots__ = ("arr",)

    def __init__(self, arr):
        self.arr = arr


def _release(values: "_Lattice") -> np.ndarray:
    """The held array of a Capacity or MobiusMeasure the library has just
    built, handed back writable: the converse of _Owned.  A table is the
    lattice's own, so the caller must hold the only reference to values
    and drop it; no one else may see the array change.  The d + 1 numbers
    of a lattice held by size, and the weights of one held by its atoms,
    are copied, and values stays whole."""
    arr = values._held()
    if arr is not values._table:
        return arr.copy()
    arr.setflags(write=True)
    return arr


def _check_table(carrier: Carrier, table, name: str, nonnegative: bool,
                 by_size: bool = False) -> np.ndarray:
    """table as a read-only float array of 2**d entries (d + 1 by_size),
    finite, 0 at the empty set and, if nonnegative, >= 0."""
    if isinstance(table, _Owned):
        arr = np.asarray(table.arr, dtype=float)
    else:
        arr = np.array(table, dtype=float)
    want = carrier.size + 1 if by_size else 1 << carrier.size
    if arr.shape != (want,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({want},)")
    # two reductions instead of 2**d boolean temporaries; min and max are
    # nan whenever some entry is
    lo, hi = arr.min(), arr.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite")
    if arr[0] != 0.0:
        raise ValueError(f"{name} must vanish on the empty set, got {arr[0]}")
    if nonnegative and lo < 0:
        raise ValueError(f"{name} must be nonnegative")
    arr.setflags(write=False)
    return arr


def _by_size_table(by_size: np.ndarray) -> np.ndarray:
    """table[K] = by_size[|K|] over the 2**d masks, d = len(by_size) - 1,
    and table[0] = 0, gathered one block of 2**_BLOCK_BITS masks at a time
    (their sizes, a byte a mask, and gathered values stay under 1 MB)."""
    d = by_size.size - 1
    low = popcounts(1 << min(d, _BLOCK_BITS))
    table = np.empty(1 << d)
    for start in range(0, table.size, low.size):
        # the masks of a block share their high bits, start's, so their sizes
        # are the low-bit sizes shifted by the count of those bits
        table[start:start + low.size] = by_size[start.bit_count():][low]
    table[0] = 0.0
    return table


def _check_atoms(carrier: Carrier, masks, weights, name: str):
    """Read-only copies: masks ascending nonempty subsets, int64, and one
    finite positive weight each, with a finite sum."""
    masks = np.array(masks, dtype=np.int64)
    weights = np.array(weights, dtype=float)
    if masks.ndim != 1 or weights.shape != masks.shape:
        raise ValueError(f"{name}: need one atom weight per atom mask")
    if masks.size and (masks[0] < 1 or masks[-1] > carrier.full_mask
                       or np.any(masks[1:] <= masks[:-1])):
        raise ValueError(f"{name}: atom masks must be ascending nonempty subsets")
    if not np.all((weights > 0) & (weights < math.inf)):
        raise ValueError(f"{name}: atom weights must be positive and finite")
    with np.errstate(over="ignore"):  # theta(E) is their sum
        if weights.sum() == math.inf:
            raise ValueError(f"{name}: atom weights sum to inf, beyond the float range")
    masks.setflags(write=False)
    weights.setflags(write=False)
    return masks, weights


class _Lattice:
    """Values on the 2**d masks, held as a table, as the d + 1 values
    by_size[k] when they depend on a mask only through its size, or by
    atoms: ascending masks atom_masks with positive atom_weights.  A
    MobiusMeasure so held is 0 off its atoms; a Capacity is the capacity
    its atoms meet, theta(K) = sum of w_F over F & K != 0 (_at_atoms).

    by_size and atom_masks are None for a table.  Otherwise the table is
    spread on its first read, once, read-only.

    Only this module tells the forms apart.  Each lattice identity is
    written once over the operations below and gives the table's bits in
    either of the first two forms (see Capacity); the atom form takes its
    own route where an operation reads the atoms.
    """

    __slots__ = ("carrier", "by_size", "atom_masks", "atom_weights", "_parts", "_table")
    _name = ""
    _nonnegative = False

    def __init__(self, carrier: Carrier, table=None, by_size=None, atoms=None):
        if sum(x is not None for x in (table, by_size, atoms)) != 1:
            raise TypeError("give exactly one of a table, by_size and atoms")
        self.carrier = carrier
        self.by_size = self.atom_masks = self.atom_weights = self._parts = self._table = None
        if table is not None:
            self._table = _check_table(carrier, table, self._name, self._nonnegative)
        elif by_size is not None:
            self.by_size = _check_table(carrier, by_size, self._name, self._nonnegative,
                                        by_size=True)
        else:
            self.atom_masks, self.atom_weights = _check_atoms(carrier, *atoms, self._name)

    def _full(self) -> np.ndarray:
        if self._table is None:
            if self.by_size is not None:
                table = _by_size_table(self.by_size)
            else:
                table = np.empty(1 << self.carrier.size)
                step = 1 << _BLOCK_BITS
                for start in range(0, table.size, step):
                    table[start:start + step] = self._at_atoms(
                        np.arange(start, min(start + step, table.size)))
            table.setflags(write=False)
            self._table = table
        return self._table

    def _held(self) -> np.ndarray:
        """by_size, the atom weights, or else the table; read-only."""
        if self.by_size is not None:
            return self.by_size
        return self._table if self.atom_masks is None else self.atom_weights

    def _entrywise(self) -> "_Lattice":
        """This lattice, or, held by atoms, its spread table as a lattice:
        a form whose held entries are values, for a map entry by entry."""
        if self.atom_masks is None:
            return self
        return type(self)(self.carrier, _Owned(self._full()))

    def _sweep(self, arr: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
        """The subset sweep of arr, in place, for arr of the held form."""
        if self.by_size is None:
            return _sweep(arr, self.carrier.size, ufunc)
        return _size_sweep(arr, ufunc)

    def _index(self, masks):
        """The index in the held array of a mask, or of each mask of an array."""
        return masks if self.by_size is None else np.bitwise_count(masks)

    def _pairs(self):
        """(lo, hi) views of the held array, pairing each K with K + x."""
        if self.by_size is None:
            return _pairs(self._table, self.carrier.size, write=False)
        return [(self.by_size[:-1], self.by_size[1:])]

    def _first_mask(self, i: int) -> int:
        """The first mask at index i of the held array."""
        return i if self.by_size is None else (1 << i) - 1

    def _new(self, cls: type, arr: np.ndarray) -> "_Lattice":
        """A cls of this form on this carrier, taking arr over (held by
        atoms, as the weights of the same masks)."""
        if self.atom_masks is not None:
            return cls(self.carrier, atoms=(self.atom_masks, arr))
        if self.by_size is None:
            return cls(self.carrier, _Owned(arr))
        return cls(self.carrier, by_size=_Owned(arr))

    def _invariant(self, bits: np.ndarray) -> bool:
        """Whether the value at every K equals, bit for bit, that at K's
        image under the point permutation x -> bits[x] (one bit each);
        held by atoms, whether the weighted atom set is invariant."""
        d = self.carrier.size
        if self.atom_masks is None:
            # image[K] = mask of K's image, the OR of the moved point bits
            image = _sweep(_singleton_table(bits, 0), d, np.bitwise_or)
            return bool(np.array_equal(self._full()[image], self._full()))
        masks, weights = self.atom_masks, self.atom_weights
        image = np.bitwise_or.reduce(np.where(_indicator(masks, d), bits, 0), axis=1)
        order = np.argsort(image)
        return bool(np.array_equal(image[order], masks)
                    and np.array_equal(weights[order], weights))

    def at(self, masks):
        """The value at a mask, or at each mask of an int array; by size or
        by atoms with no table built."""
        if self.atom_masks is not None:
            return self._at_atoms(masks)
        phi = self.by_size
        if phi is None:
            return self._table[masks]
        if type(masks) is int:  # the common point read, without a ufunc call
            return phi[masks.bit_count()]
        return phi[np.bitwise_count(masks)]

    def __call__(self, mask: int) -> float:
        self.carrier.validate_mask(mask)
        return float(self.at(mask))


class Capacity(_Lattice):
    """Set function on 2**d subsets, indexed by subset mask.

    table[mask] = theta(subset).  table[0] must be 0 and all entries
    finite and nonnegative.  Nothing else is assumed.

    A rearrangement-invariant capacity, theta(K) = phi(|K|), may be held
    as Capacity(carrier, by_size=phi) instead: d + 1 numbers, phi[0] = 0.
    Point reads (at, calling theta, total, singletons) then read phi, and
    mobius_inverse, certified_mobius, capacity_from_measure, classify,
    dual_greedy and compose_capacity work on phi alone, mostly through the
    same code as a table (see _Lattice).  Callers that read the whole
    lattice read table, spread from phi once.

    The two forms give the same bits.  A sweep over a table that is
    constant on each size class steps every mask of size n, with k of its
    bits done, from the same two operands (the values at sizes n and n - 1
    after k - 1 bits), so each class stays constant, and the by-size route
    performs exactly those float operations once per class.

    Capacity(carrier, atoms=(masks, weights)), or atom_capacity, holds
    the capacity of known Mobius atoms: CA by construction.  Point reads,
    mobius_inverse, classify and _invariant read the atoms.
    """

    __slots__ = ()
    _name = "capacity table"
    _nonnegative = True

    table = property(_Lattice._full, doc="theta over the 2**d masks, read-only")

    @property
    def total(self) -> float:
        """theta(E)."""
        return float(self.at(self.carrier.full_mask))

    def atol(self, tol: float) -> float:
        """Absolute slack of the relative tolerance tol: tol * theta(E).

        Rounding in the lattice sweeps grows with the values swept, so every
        exact check on this capacity compares against this slack, and no
        verdict changes when theta is scaled by any c > 0.
        """
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
        return tol * self.total

    def singletons(self) -> np.ndarray:
        """theta({x}) in carrier order."""
        return self.at(np.left_shift(1, np.arange(self.carrier.size)))

    # A capacity is its own tail dependence functional, ell(f) = choquet
    # integral of f against theta; integrals loads only where it is evaluated.
    def eval(self, f) -> float:
        from .integrals import choquet_integral
        return choquet_integral(f, self)

    def eval_batch(self, fs: np.ndarray) -> np.ndarray:
        """choquet_integral of every row, bit for bit, in one pass."""
        from .integrals import _choquet
        return _choquet(self, np.asarray(fs, float))

    def _at_atoms(self, masks):
        """theta by the recipe of parts (atom_capacity); atoms given as
        (masks, weights) are one part each, in descending mask order, so a
        measure's singletons give the additive sweep's bits."""
        if self._parts is None:
            m = self.atom_masks.size
            self._parts = (self.atom_masks[::-1], np.arange(m), self.atom_weights[::-1], 1.0)
        copies, starts, q, scale = self._parts
        k = np.asarray(masks, dtype=np.int64)
        flat = k.reshape(-1)
        out = np.zeros(flat.size)
        cols = max(1, _HITS // max(1, copies.size))
        for s in range(0, flat.size, cols):
            part = out[s:s + cols]
            # hits[j, i]: copy j meets mask i; counts[l, i] sums part l's rows
            hits = copies[:, None] & flat[None, s:s + cols] != 0
            counts = np.add.reduceat(hits, starts, axis=0, dtype=np.intp) if q.size else hits
            for j in range(q.size):
                part += q[j] * counts[j]
            part *= scale
        return out.reshape(k.shape) if k.ndim else out[0]


class MobiusMeasure(_Lattice):
    """Signed measure on the nonempty subsets, indexed by subset mask.

    weights[0] is identically 0; nonempty weights may be negative (exactly
    when the originating capacity fails complete alternation).

    The Mobius measure of a capacity held by size is symmetric and held
    by size too, MobiusMeasure(carrier, by_size=nu): nu[k] is the weight
    of every k-set, the k-th forward difference of g(j) = phi(d) -
    phi(d - j), bit-equal to the table sweep (see Capacity).  That of a
    capacity held by atoms is held by them.  weights is spread on first
    read; min_weight and support_size read the held form, support atoms.
    """

    __slots__ = ()
    _name = "mobius weights"

    weights = property(_Lattice._full, doc="nu over the 2**d masks, read-only")

    def _at_atoms(self, masks):
        """nu at masks: an atom's weight, else 0."""
        k = np.asarray(masks, dtype=np.int64)
        i = np.searchsorted(self.atom_masks, k)
        # one slot past the last atom, which no mask matches
        found = np.append(self.atom_masks, -1)[i] == k
        return np.where(found, np.append(self.atom_weights, 0.0)[i], 0.0)[()]

    def support_size(self) -> int:
        """The number of nonzero weights, with no table spread."""
        if self.by_size is None:
            return int(np.count_nonzero(self._held()))
        sizes = np.flatnonzero(self.by_size).tolist()
        return sum(math.comb(self.carrier.size, k) for k in sizes)

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The masks of the nonzero weights, ascending, and the weights."""
        if self.atom_masks is not None:
            return self.atom_masks, self.atom_weights
        masks = np.flatnonzero(self.weights)  # weights[0] is 0
        return masks, self.weights[masks]

    def min_weight(self) -> tuple[float, int]:
        """Smallest weight over nonempty sets and its witness, the first mask
        holding it: by size, the first set of the smallest size holding it;
        held by atoms, 0 at the first mask that is no atom, if any."""
        if self.atom_masks is not None:
            masks = self.atom_masks
            gaps = np.flatnonzero(masks != np.arange(1, masks.size + 1))
            gap = int(gaps[0]) + 1 if gaps.size else masks.size + 1
            if gap <= self.carrier.full_mask:
                return 0.0, gap
            k = int(np.argmin(self.atom_weights))
            return float(self.atom_weights[k]), int(masks[k])
        # np.argmin copies a read-only array whole; min does not, and the
        # search for its first index compares one chunk at a time
        rest = self._held()[1:]
        low = rest.min()
        start = 0
        while not (hits := np.flatnonzero(rest[start:start + _CHUNK] == low)).size:
            start += _CHUNK
        return float(low), self._first_mask(1 + start + int(hits[0]))

    def interval_masses(self) -> Optional[np.ndarray]:
        """For a measure held by size, the (d + 1, d + 1) table S[b, c] =
        sum over j of nu+[c + j] C(b, j), nu+ the weights clamped at 0: the
        mass of the masks that share their bits from b up, c of them set.
        Masks in ascending order that share a prefix form an interval, so
        S names the mass of each interval without a table.  Rows follow
        Pascal's rule, S[b, c] = S[b - 1, c] + S[b - 1, c + 1]; entries with
        b + c > d are never read.  None for a table."""
        if self.by_size is None:
            return None
        d = self.carrier.size
        s = np.zeros((d + 1, d + 1))
        np.maximum(self.by_size, 0.0, out=s[0])
        for b in range(1, d + 1):
            np.add(s[b - 1, :-1], s[b - 1, 1:], out=s[b, :-1])
        return s


_HITS = 1 << 18  # mask-atom pairs per chunk of _at_atoms
_SPAN = 1 << 12  # least Mobius table entries per chunk of positive_atoms
# Pairs per chunk of a whole-table pass: a chunk of each half and any
# temporary made from it stay in cache.
_CHUNK = 1 << 15
# Bits below _BLOCK_BITS run block by block, 2**_BLOCK_BITS masks (512 KB of
# floats) at a time, while the block is in cache; its lowest _LOW_BITS bits
# run on a transposed copy of it, so that every view holds rows of at least
# 2**(_BLOCK_BITS - _LOW_BITS) masks.
_BLOCK_BITS = 16
_LOW_BITS = 8


def _pairs(arr: np.ndarray, d: int, write: bool):
    """Yield (lo, hi) views pairing each mask without bit b (lo) with the
    mask plus b (hi), over every bit b, in the order of _sweep.

    The last axis of arr holds the 2**d masks and must be contiguous, in
    either direction, with any leading (batch) axes: a reversed view works,
    and every reshape of it is a view or raises.  The lowest bits of each
    block come as views of a transposed copy; with write=True the copy is
    written back into arr once its bits are done, so a caller may update hi
    in place.  The views are never 0-d, even at d = 1, so out= can always
    write to them.
    """
    for b in reversed(range(_BLOCK_BITS, d)):
        pairs = arr.reshape(-1, 2, 1 << b, copy=False)
        rows = max(1, _CHUNK >> b)
        cols = min(1 << b, _CHUNK)
        for r in range(0, pairs.shape[0], rows):
            for c in range(0, 1 << b, cols):
                yield pairs[r:r + rows, 0, c:c + cols], pairs[r:r + rows, 1, c:c + cols]
    k = min(d, _BLOCK_BITS)
    low = min(k, _LOW_BITS)
    rows = arr.reshape(-1, 1 << k, copy=False)  # one row per batch row and high bits
    step = max(1, (1 << _BLOCK_BITS) >> k)
    buf = np.empty(min(step, rows.shape[0]) << k, dtype=arr.dtype)
    for r in range(0, rows.shape[0], step):
        block = rows[r:r + step]
        for b in reversed(range(low, k)):
            pairs = block.reshape(-1, 2, 1 << b, copy=False)
            yield pairs[:, 0], pairs[:, 1]
        # row c of t holds the masks whose low bits are c, so a low bit
        # pairs whole rows of t as a higher bit pairs rows of block
        t = buf[:block.size].reshape(1 << low, -1)
        np.copyto(t, block.reshape(-1, 1 << low).T)
        for b in reversed(range(low)):
            pairs = t.reshape(-1, 2, t.shape[1] << b)
            yield pairs[:, 0], pairs[:, 1]
        if write:
            block.reshape(-1, 1 << low, copy=False)[...] = t.T


def _sweep(arr: np.ndarray, d: int, ufunc: np.ufunc) -> np.ndarray:
    """In place: hi = ufunc(hi, lo) for every pair of _pairs; returns arr.

    This is the d * 2**(d-1) subset sweep of Bjorklund, Husfeldt, Kaski
    and Koivisto (STOC 2007): with add it is the zeta transform, with
    subtract the Mobius inverse, and with maximum, minimum or bitwise_or
    it spreads values from the singletons to every set.

    Order: the bits from _BLOCK_BITS up go first, highest first, each as
    one pass over the whole table.  Then each block of 2**_BLOCK_BITS
    consecutive masks takes its bits _BLOCK_BITS - 1 down to _LOW_BITS in
    place, and bits _LOW_BITS - 1 down to 0 on a transposed copy that is
    written back.  Bits below _BLOCK_BITS pair masks of the same block
    only, and every block has all higher bits done before its own start,
    so each mask still gets the same ufunc steps on the same operands as
    in a plain pass per bit from the highest down: add and subtract keep
    one fixed rounding order and the result is bit-identical.
    """
    for lo, hi in _pairs(arr, d, write=True):
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


def _max_excess(theta: Capacity, weights: np.ndarray, chain: np.ndarray) -> tuple[float, int]:
    """The largest mu(K) - theta(K) over the masks K and the first mask
    holding it; mu has these point weights, theta's increments along the
    chain.  By size, the largest mu(K) over the k-sets is that of the k
    largest weights (the lowest points among ties); by atoms, mu(K) sums
    the atoms whose first chain point lies in K, so mu <= theta with
    equality on the chain's prefixes.  Either way d sets are checked."""
    if theta.by_size is None and theta.atom_masks is None:
        excess = _additive_table(weights)
        excess -= theta.table
        worst = int(np.argmax(excess))
        return float(excess[worst]), worst
    if theta.atom_masks is None:
        chain = np.argsort(-weights, kind="stable")
    prefixes = np.bitwise_or.accumulate(np.left_shift(1, chain))
    excess = np.cumsum(weights[chain]) - theta.at(prefixes)
    k = int(np.argmax(excess))
    return float(excess[k]), int(prefixes[k])


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


def _size_sweep(values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """In place: _sweep(table, d, ufunc) of the table holding values[|K|]
    at every K, by size; afterwards values[k] is the value the sweep
    leaves at every k-set.  Returns values.

    Step k leaves in values[k:] the values at sizes k..d with k bits done.
    A sweep step at a mask of size n with k of its bits done reads that
    mask and the mask without its newest bit, of size n - 1, each after
    k - 1 bits: the entries at n and n - 1 before step k.  Mask by mask
    the sweep performs these float operations, so values is bit-equal.
    """
    for k in range(1, values.size):
        ufunc(values[k:], values[k - 1:-1], out=values[k:])
    return values


def mobius_inverse(theta: Union[Capacity, _Owned]) -> MobiusMeasure:
    """Mobius measure of a capacity, held in the form theta is held in.

    g(A) = theta(E) - theta(E \\ A) accumulates the weight of all nonempty
    subsets of A, so one Mobius sweep recovers nu.  Exact inverse of
    capacity_from_measure up to float rounding.

    mobius_inverse(_Owned(theta)) consumes theta's table (_release): g is
    formed and swept in it, read in reverse, so no second table is built.
    nu is bit-identical to mobius_inverse(theta), stored reversed in that
    memory.  The caller must hold the only reference to a theta held as a
    table and drop it, since its table no longer holds theta.  A plain
    Capacity, and a capacity held by size, is never written.  Atoms are
    given back, with no sweep.
    """
    owned = isinstance(theta, _Owned)
    theta = theta.arr if owned else theta
    if theta.atom_masks is not None:
        return MobiusMeasure(theta.carrier, atoms=(theta.atom_masks, theta.atom_weights))
    if owned:
        # complement(mask) = full - mask, so the complement table is a reversal
        g = _release(theta)[::-1]
        np.subtract(g[0], g, out=g)  # g[0], theta(E), is read as a scalar first
    else:
        held = theta._held()
        g = held[-1] - held[::-1]
    nu = theta._sweep(g, np.subtract)
    nu[0] = 0.0  # g(0) = 0 exactly, but keep the slot clean
    return theta._new(MobiusMeasure, nu)


def certified_mobius(theta: Union[Capacity, _Owned], tol: float = DEFAULT_TOL,
                     nu: Optional[MobiusMeasure] = None) -> MobiusMeasure:
    """Mobius measure of a capacity certified completely alternating.

    The certificate that theta is the capacity functional of a random
    sup-measure: every weight is at least -theta.atol(tol).  Raises
    ValueError naming the smallest weight and its mask otherwise.  nu is
    theta's Mobius measure when the caller has it already.  Without nu,
    certified_mobius(_Owned(theta)) consumes theta's table as
    mobius_inverse does, and the caller must drop theta.
    """
    atol = (theta.arr if isinstance(theta, _Owned) else theta).atol(tol)
    if nu is None:
        nu = mobius_inverse(theta)
    min_w, witness = nu.min_weight()
    if min_w < -atol:
        raise ValueError(
            f"capacity is not completely alternating (mobius weight {min_w:.3g} "
            f"at mask {witness:#x}); no random sup-measure has it")
    return nu


def _roundtrip_error(theta: Capacity, nu: MobiusMeasure) -> float:
    """max |capacity_from_measure(nu) - theta| over the held array, nu
    theta's Mobius measure.  Held by atoms, whose weights come back as they
    are, it reads theta by its own recipe on the singletons and on the
    prefixes of the points in ascending theta({x}), the last of them E."""
    back = capacity_from_measure(nu)
    if theta.atom_masks is not None:
        singletons = np.left_shift(1, np.arange(theta.carrier.size))
        order = np.argsort(theta.at(singletons), kind="stable")
        probes = np.concatenate([singletons, np.bitwise_or.accumulate(singletons[order])])
        return float(np.max(np.abs(back.at(probes) - theta.at(probes))))
    back = _release(back)
    return float(np.max(np.abs(np.subtract(back, theta._held(), out=back), out=back)))


def positive_atoms(nu: _Owned) -> tuple[np.ndarray, np.ndarray, int]:
    """The positive atoms of a Mobius measure handed over, _Owned(nu), in
    any held form: masks ascending (int32, as d <= 24), weights the caller
    may overwrite, and their union.  A table is taken over (_release; drop
    nu): its weights move forward in place, in 64 chunks of at least _SPAN
    entries, and masks[k] >= k, so a chunk lands only on entries already
    read.  By size, the C(d, k) masks of each positive size k are listed."""
    nu = nu.arr
    if nu.by_size is not None:
        sizes, d = np.flatnonzero(nu.by_size > 0).tolist(), nu.carrier.size
        masks = np.array(sorted(sum(1 << i for i in c) for k in sizes
                                for c in itertools.combinations(range(d), k)), np.int32)
        w = nu.by_size[np.bitwise_count(masks)]
    elif nu.atom_masks is not None:
        masks, w = nu.atom_masks.astype(np.int32), _release(nu)
    else:
        w = _release(nu)
        masks = np.empty(np.count_nonzero(w > 0), dtype=np.int32)
        span = max(_SPAN, w.size >> 6)
        k = 0
        for s in range(0, w.size, span):
            hits = np.flatnonzero(w[s:s + span] > 0)
            hits += s
            w[k:k + hits.size] = w[hits]
            masks[k:k + hits.size] = hits
            k += hits.size
        w = w[:k]
    return masks, w, int(np.bitwise_or.reduce(masks))


def capacity_from_measure(nu: MobiusMeasure) -> Capacity:
    """Capacity theta(K) = sum of nu(F) over F meeting K, held in the form
    nu is held in.

    Computed as h(E) - h(E \\ K) with h the subset-sum (zeta) sweep of the
    held weights.  Raises if some resulting value is negative (the weights
    then do not come from a capacity).
    """
    if nu.atom_masks is not None:
        return Capacity(nu.carrier, atoms=(nu.atom_masks, nu.atom_weights))
    h = nu._sweep(nu._held().copy(), np.add)
    vals = h[-1] - h[::-1]
    vals[0] = 0.0
    return nu._new(Capacity, vals)


def atom_capacity(carrier: Carrier, parts: Sequence[tuple[float, Sequence[int]]],
                  scale: float = 1.0) -> Capacity:
    """theta(K) = scale * sum over the parts (q, masks), in order, of q *
    #{F in masks : F & K != 0}, held by its atoms; masks may repeat.

    Each value is summed in that order, and atom F weighs scale * sum of q
    * (F's multiplicity) over the parts, in the same order.  Parts with q
    = 0 or no masks add exactly 0 and are left out.
    """
    kept = [(float(q), np.asarray(f, dtype=np.int64)) for q, f in parts if q > 0 and len(f)]
    copies = np.concatenate([f for _, f in kept] or [np.zeros(0, dtype=np.int64)])
    sizes = [f.size for _, f in kept]
    starts = np.cumsum([0] + sizes)[:-1]
    q = np.array([q for q, _ in kept])
    masks, inverse = np.unique(copies, return_inverse=True)
    weights = np.zeros(masks.size)
    for j, start in enumerate(starts):
        weights += q[j] * np.bincount(inverse[start:start + sizes[j]], minlength=masks.size)
    weights *= scale
    atoms = weights > 0
    theta = Capacity(carrier, atoms=(masks[atoms], weights[atoms]))
    total = 0.0
    for qj, f in kept:  # theta(E), summed and scaled as _at_atoms reads it
        total += qj * f.size
    if total * scale == math.inf:
        raise ValueError("atom_capacity: theta(E) = scale * (sum of q * part size) "
                         "overflows to inf, beyond the float range")
    theta._parts = (copies, starts, q, scale)
    return theta


def _inclusion_exclusion(value, join, base, incs):
    """Yield (-1)**|S| * value(base joined with incs[i] for i in S) over the
    subfamilies S of the increments, in itertools.product order.  With
    join = operator.or_ on masks these are the terms of a successive
    difference; with np.maximum on vectors, of the max-lattice one."""
    for picks in itertools.product((0, 1), repeat=len(incs)):
        m = base
        for inc in itertools.compress(incs, picks):
            m = join(m, inc)
        yield (-1.0) ** sum(picks) * value(m)


def _worst(cases, score, worst=-math.inf):
    """(largest score, the first case holding it, number of cases) over
    cases; the case is None when no score exceeds the starting worst."""
    witness = None
    n = 0
    for n, case in enumerate(cases, 1):
        s = score(case)
        if s > worst:
            worst, witness = s, case
    return worst, witness, n


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
    return math.fsum(_inclusion_exclusion(theta.at, operator.or_, base, increments))


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
    tolerance tol (slack tol * theta(E), see Capacity.atol).

    Monotonicity compares theta(K) with theta(K + x) for every x not in K,
    on views of the held array in the order of the sweeps (_pairs).
    Complete alternation is certified through the Mobius measure (nu >=
    -slack entrywise), which is equivalent to every successive difference
    of order >= 2 being nonpositive.  Maxitivity uses the singleton
    criterion theta(K) = max over x in K of theta({x}), which is
    equivalent to the pairwise max property on a finite lattice.
    Additivity means nu carried by singletons.

    A capacity held by size takes all four from phi and nu by size, with
    the same verdicts and witness: maxitive iff phi(k) = phi(1) for k >= 1,
    the other three through the same code as a table (see _Lattice).

    A capacity held by atoms is monotone and CA by construction, with an
    exact least weight.  It is additive iff no atom above the slack has two
    points.  theta, also as rounded, is monotone, so the largest theta(K) -
    max over x in K of theta({x}) lies on a prefix of the points in
    ascending theta({x}): maxitive reads those d sets (all 0 when the atoms
    form a chain), with the table route's bits and verdict.
    """
    d = theta.carrier.size
    atol = theta.atol(tol)
    atoms = theta.atom_masks is not None
    monotone = atoms or not any(np.any(lo - hi > atol) for lo, hi in theta._pairs())

    nu = mobius_inverse(theta)
    min_w, witness = nu.min_weight()
    completely_alternating = min_w >= -atol

    singletons = np.left_shift(1, np.arange(d))
    singles = theta.at(singletons)
    if atoms:
        order = np.argsort(singles, kind="stable")
        excess = theta.at(np.bitwise_or.accumulate(singletons[order])) - singles[order]
        maxitive = bool(excess.max() <= atol)
        wide = theta.atom_weights[np.bitwise_count(theta.atom_masks) > 1]
        additive = bool(wide.max(initial=0.0) <= atol)
        return Classification(monotone, completely_alternating, maxitive, additive,
                              min_w, witness)

    # E is the cheapest witness against each of the two criteria below
    # (a nonsingleton once d >= 2), so most capacities skip the full pass
    maxitive = bool(abs(theta.total - max(0.0, singles.max())) <= atol)
    if maxitive and theta.by_size is None:
        maxitive = bool(np.all(np.abs(theta.table - subset_max(singles)) <= atol))
    elif maxitive:
        maxitive = bool(np.all(np.abs(theta.by_size[1:] - theta.by_size[1]) <= atol))

    weights = nu._held()
    additive = d == 1 or bool(abs(weights[-1]) <= atol)
    if additive:
        off = np.abs(weights)
        off[nu._index(singletons)] = 0.0
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

    A violation exceeds the slack theta.atol(tol) that `classify` uses.
    This is the slow cross-check of the Mobius criterion in `classify`; the
    two must agree on every capacity (exhaustive regime) or never contradict
    each other (sampled regime: a found violation is always real).
    """
    d = theta.carrier.size
    if not 2 <= max_order <= MAX_ALTERNATION_ORDER:
        raise ValueError(f"order must be in 2..{MAX_ALTERNATION_ORDER}")
    atol = theta.atol(tol)
    size = 1 << d
    if d <= 3:
        nonempty = range(1, size)
        families = ((base, incs) for n in range(2, max_order + 1) for base in range(size)
                    for incs in itertools.product(nonempty, repeat=n))
    else:
        if seed is None:
            raise ValueError("sampled alternation search needs a seed for d > 3")
        rng = np.random.default_rng(seed)

        def draw():  # the order n, then the base, then the n increments
            n = int(rng.integers(2, max_order + 1))
            return int(rng.integers(0, size)), tuple(int(rng.integers(1, size))
                                                     for _ in range(n))
        families = (draw() for _ in range(trials))

    worst, witness, checked = _worst(
        families, lambda fam: successive_difference(theta, *fam))
    if witness is None:
        return AlternationReport(True, -math.inf, None, None, 0)
    return AlternationReport(worst <= atol, worst, witness[0], witness[1], checked)
