"""Finite carrier spaces and the arrays living on them.

A carrier is an ordered tuple of distinct point labels.  Subsets of the
carrier are plain Python ints used as bitmasks: bit ``i`` set means the
``i``-th point belongs to the subset.  All set-function machinery in this
package indexes tables of length ``2**d`` by these masks, so carriers are
capped at d = 24 points (a 16M-entry table) and anything larger is refused
up front.

A nonnegative function on the carrier, such as the integrand f of the
nonlinear integrals or the point values g({x}) of a sup-measure, is a
plain float array in carrier order (see ``as_values``); a sup-measure
takes the max of its point values over a set.  ``_weighted_max`` reduces
a batch of point values, one row per sample, to max_x v(x) X(x): the
sup over K at v = 1_K, the extremal integral of f at v = f.
``_indicator`` and ``_mask_of`` turn a mask into its point vector and back.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

MAX_CARRIER_SIZE = 24

# Subset keys are built and read in blocks of 2**_KEY_BLOCK_BITS masks.
_KEY_BLOCK_BITS = 12


class CarrierSizeError(ValueError):
    """Raised when an operation would require more than 2**24 subset slots."""


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class TorusTag:
    """Marks a carrier whose points are the discrete torus (Z_n)**dim.

    Point ``(i_1, .., i_dim)`` sits at carrier index
    ``i_1 * n**(dim-1) + ... + i_dim``, label "i_1" or "i_1.i_2", so
    shifts are pure index arithmetic.
    """

    n: int
    dim: int = 1

    def __post_init__(self) -> None:
        if (not (_is_int(self.n) and _is_int(self.dim))
                or self.n < 1 or self.dim not in (1, 2)):
            raise ValueError(f"unsupported torus geometry n={self.n} dim={self.dim}")
        if self.size > MAX_CARRIER_SIZE:
            raise CarrierSizeError(f"torus with {self.size} points exceeds "
                                   f"the carrier cap of {MAX_CARRIER_SIZE}")

    @property
    def size(self) -> int:
        return self.n ** self.dim

    def coords(self, point) -> tuple[int, ...]:
        """A list or tuple of dim ints (or an int if dim is 1), mod n."""
        cs = (point,) if self.dim == 1 and _is_int(point) else point
        if (not isinstance(cs, (list, tuple)) or len(cs) != self.dim
                or not all(map(_is_int, cs))):
            raise ValueError(f"not a point of (Z_{self.n})^{self.dim}: {point!r}")
        return tuple(int(c) % self.n for c in cs)

    def carrier(self) -> "Carrier":
        return Carrier(tuple(".".join(map(str, p)) for p in self.shifts()), torus=self)

    def shifts(self) -> Iterator[tuple[int, ...]]:
        return np.ndindex((self.n,) * self.dim)

    def shift_permutation(self, shift) -> np.ndarray:
        """Index permutation sending point p to p + shift (mod n per axis)."""
        shape = (self.n,) * self.dim
        moved = np.indices(shape).reshape(self.dim, -1).T + self.coords(shift)
        return np.ravel_multi_index(moved.T, shape, mode="wrap")


@dataclass(frozen=True)
class Carrier:
    """Ordered finite ground set.  Labels are opaque strings.

    The label order fixes the bit layout of subset masks and the column
    order of every array tied to this carrier.
    """

    labels: tuple[str, ...]
    torus: Optional[TorusTag] = None
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("carrier needs at least one point")
        if len(self.labels) > MAX_CARRIER_SIZE:
            raise CarrierSizeError(
                f"carrier has {len(self.labels)} points, cap is {MAX_CARRIER_SIZE}"
            )
        if any(not isinstance(lb, str) or not lb for lb in self.labels):
            raise ValueError("labels must be nonempty strings")
        if any("," in lb for lb in self.labels):
            raise ValueError("labels must not contain commas (reserved for subset keys)")
        index = {lb: i for i, lb in enumerate(self.labels)}
        if len(index) != len(self.labels):
            raise ValueError("duplicate labels in carrier")
        if self.torus is not None and self.torus.size != len(self.labels):
            raise ValueError("torus tag size does not match carrier size")
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in carrier") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lb in labels:
            mask |= 1 << self.index_of(lb)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        self.validate_mask(mask)
        return tuple(self.labels[i] for i in iter_bits(mask))

    def validate_mask(self, mask: int) -> None:
        if not isinstance(mask, (int, np.integer)):
            raise TypeError(f"subset mask must be an int, got {type(mask).__name__}")
        if mask < 0 or mask > self.full_mask:
            raise ValueError(f"mask {mask:#x} outside carrier of size {self.size}")

    def subset_key(self, mask: int) -> str:
        """Canonical JSON key for a subset: comma-joined sorted labels."""
        return ",".join(sorted(self.labels_of(mask)))

    def subset_keys(self) -> np.ndarray:
        """subset_key of every mask 0..2**d - 1, as an object array."""
        keys = np.empty(1 << self.size, dtype=object)
        for masks, block in self.subset_key_blocks():
            keys[masks] = list(block)
        return keys

    def subset_key_blocks(self) -> Iterator[tuple[np.ndarray, Iterable[str]]]:
        """Blocks (int64 masks, keys), made as they are read, that cover each
        mask once, keys yielding the subset_key of each mask one at a time,
        at most 2**_KEY_BLOCK_BITS of them per block.

        The walk is the preorder of the subsets as tuples of their labels
        sorted as strings: a subset, then each subset that extends it by
        larger labels.  That is the order of sorted() on the keys, which
        json's sort_keys writes, whenever no label holds a character below
        ","; otherwise it is the order of the label tuples.  Each subset of
        all but the last _KEY_BLOCK_BITS labels is one block, followed
        after its extensions by the block of it joined with each nonempty
        subset of the last labels, whose keys are built once.
        """
        order = sorted(range(self.size), key=self.labels.__getitem__)
        cut = max(self.size - _KEY_BLOCK_BITS, 0)
        tail_masks, tails = self._preorder(order[cut:])

        def walk(mask: int, key: str, start: int):
            yield np.array([mask], dtype=np.int64), (key,)
            for j in range(start, cut):
                label = self.labels[order[j]]
                yield from walk(mask | 1 << order[j], f"{key},{label}" if key else label,
                                j + 1)
            yield (tail_masks | mask,
                   map(operator.add, repeat(key + ","), tails) if key else iter(tails))

        return walk(0, "", 0)

    def walk_positions(self, masks: np.ndarray) -> np.ndarray:
        """The place of each nonempty mask (int64) in subset_key_blocks' walk.
        With r_1 < .. < r_k the ranks of its labels among the sorted labels
        and v the sum of 2**(d-1-r_i), the walk meets the k prefixes and
        2**d - v - 2**(d-1-r_k) other subsets first."""
        order = sorted(range(self.size), key=self.labels.__getitem__)
        v = np.zeros_like(masks)
        for r, i in enumerate(order):
            v |= (masks >> i & 1) << (self.size - 1 - r)
        return (1 << self.size) - v - (v & -v) + np.bitwise_count(v)

    def _preorder(self, points: list[int]) -> tuple[np.ndarray, list[str]]:
        """Masks and keys of the nonempty subsets of points, given in sorted
        label order, in preorder: the subsets holding the first point (it
        alone, then it joined with each of the rest's), then the rest's."""
        masks = np.zeros(1, dtype=np.int64)
        keys = np.array([""], dtype=object)
        for i in reversed(points):
            more = (self.labels[i] + ",") + keys
            more[0] = self.labels[i]
            masks = np.concatenate([masks[:1], masks | (1 << i), masks[1:]])
            keys = np.concatenate([keys[:1], more, keys[1:]])
        return masks[1:], keys[1:].tolist()

    def mask_from_key(self, key: str) -> int:
        return self.mask_of(key.split(","))

    def to_json(self):
        """Plain label list, or an object when a torus tag must survive."""
        if self.torus is None:
            return list(self.labels)
        return {"labels": list(self.labels),
                "torus": {"n": self.torus.n, "dim": self.torus.dim}}


def as_carrier(carrier: "Carrier | int") -> Carrier:
    """The carrier itself, or the carrier x0, .., x{d-1} for an int d."""
    if isinstance(carrier, Carrier):
        return carrier
    return Carrier(tuple(f"x{i}" for i in range(carrier)))


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcounts(size: int) -> np.ndarray:
    """Bit counts of the masks 0..size-1 as a uint8 vector."""
    return np.bitwise_count(np.arange(size, dtype=np.uint32))


def as_values(carrier: Carrier, values: "np.ndarray | Sequence[float] | dict[str, float]",
              name: str = "values") -> np.ndarray:
    """Coerce point values to a read-only float64 array in carrier order.

    Accepts an array/sequence of length d or a label->value dict (missing
    labels default to 0).  Rejects negatives, NaN and infinities: every
    point function and sup-measure vector in this package is a finite
    nonnegative vector.
    """
    if isinstance(values, dict):
        arr = np.zeros(carrier.size)
        for lb, v in values.items():
            arr[carrier.index_of(lb)] = v
    else:
        arr = np.asarray(values, dtype=float)
        if arr.shape != (carrier.size,):
            raise ValueError(
                f"{name} has shape {arr.shape}, expected ({carrier.size},)"
            )
        arr = arr.copy()
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0):
        raise ValueError(f"{name} must be nonnegative")
    arr.setflags(write=False)
    return arr


def _indicator(mask, d: int) -> np.ndarray:
    """1_K as floats over d points; one row per mask for an array of masks.
    The bits are ANDed in the masks' own integer width straight into a
    boolean array (numpy casts through its small buffer), so an array of
    int32 masks costs one byte and then eight per entry."""
    masks = np.asarray(mask)
    bits = np.empty(masks.shape + (d,), dtype=bool)
    np.bitwise_and(masks[..., None], 1 << np.arange(d, dtype=masks.dtype), out=bits,
                   casting="unsafe")
    return bits.astype(float)


def _mask_of(flags: np.ndarray) -> int:
    """Bit mask of the True entries of a boolean vector."""
    return int(np.bitwise_or.reduce(np.left_shift(1, np.flatnonzero(flags))))


def _weighted_max(values: np.ndarray, v: np.ndarray) -> np.ndarray:
    """max_x v(x) values[j, x] for every row j, bit-equal to the row max of
    values * v as both are >= 0, one column of v's support at a time: no
    N x d temporary, and no product where v(x) = 1, since x * 1.0 = x."""
    out = np.zeros(values.shape[0])
    for i in np.flatnonzero(v):
        col = values[:, i]
        np.maximum(out, col if v[i] == 1.0 else col * v[i], out=out)
    return out
