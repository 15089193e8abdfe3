"""Finite carrier spaces and the arrays living on them.

A carrier is an ordered tuple of distinct point labels.  Subsets of the
carrier are plain Python ints used as bitmasks: bit ``i`` set means the
``i``-th point belongs to the subset.  All set-function machinery in this
package indexes tables of length ``2**d`` by these masks, so carriers are
capped at d = 24 points (a 16M-entry table) and anything larger is refused
up front.

A nonnegative function on the carrier, such as the integrand f of the
nonlinear integrals or the point values g({x}) of a sup-measure, is a
plain float array in carrier order (see ``as_values``); a sup-measure is
evaluated on a set by ``sup_integral``, the max over the set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

MAX_CARRIER_SIZE = 24


class CarrierSizeError(ValueError):
    """Raised when an operation would require more than 2**24 subset slots."""


@dataclass(frozen=True)
class TorusTag:
    """Marks a carrier whose points are the discrete torus (Z_n)**dim.

    Point ``(i_1, .., i_dim)`` sits at carrier index
    ``i_1 * n**(dim-1) + ... + i_dim`` so shifts are pure index arithmetic.
    """

    n: int
    dim: int = 1

    def __post_init__(self) -> None:
        if self.n < 1 or self.dim not in (1, 2):
            raise ValueError(f"unsupported torus geometry n={self.n} dim={self.dim}")

    @property
    def size(self) -> int:
        return self.n ** self.dim

    def shifts(self) -> Iterator[tuple[int, ...]]:
        if self.dim == 1:
            for v in range(self.n):
                yield (v,)
        else:
            for v1 in range(self.n):
                for v2 in range(self.n):
                    yield (v1, v2)

    def shift_permutation(self, shift: tuple[int, ...]) -> np.ndarray:
        """Index permutation sending point p to p + shift (mod n per axis)."""
        n = self.n
        if self.dim == 1:
            (v,) = shift
            return np.array([(i + v) % n for i in range(n)], dtype=np.int64)
        v1, v2 = shift
        perm = np.empty(n * n, dtype=np.int64)
        for i in range(n):
            for j in range(n):
                perm[i * n + j] = ((i + v1) % n) * n + (j + v2) % n
        return perm


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
        """subset_key of every mask 0..2**d - 1, as an object array.

        Keys are built by doubling once per label in sorted label order,
        where appending the next label keeps each key sorted; a second
        doubling maps carrier masks to masks over that sorted order.
        """
        order = sorted(range(self.size), key=self.labels.__getitem__)
        keys = np.array([""], dtype=object)
        for i in order:
            more = keys + ("," + self.labels[i])
            more[0] = self.labels[i]
            keys = np.concatenate([keys, more])
        rank = np.empty(self.size, dtype=np.int64)
        rank[order] = np.arange(self.size)
        sorted_mask = np.zeros(1, dtype=np.int64)
        for r in rank.tolist():
            sorted_mask = np.concatenate([sorted_mask, sorted_mask | (1 << r)])
        return keys[sorted_mask]

    def mask_from_key(self, key: str) -> int:
        return self.mask_of(key.split(","))

    def to_json(self):
        """Plain label list, or an object when a torus tag must survive."""
        if self.torus is None:
            return list(self.labels)
        return {"labels": list(self.labels),
                "torus": {"n": self.torus.n, "dim": self.torus.dim}}

    @classmethod
    def from_json(cls, obj) -> "Carrier":
        if isinstance(obj, dict):
            tor = obj.get("torus")
            tag = TorusTag(n=int(tor["n"]), dim=int(tor["dim"])) if tor else None
            return cls(tuple(obj["labels"]), torus=tag)
        return cls(tuple(obj))


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


def mask_size(mask: int) -> int:
    return int(mask).bit_count()


def popcounts(size: int) -> np.ndarray:
    """Bit counts of the masks 0..size-1 as a uint8 vector."""
    return np.bitwise_count(np.arange(size, dtype=np.uint32))


def enumerate_subsets(carrier: Carrier, nonempty_only: bool = False) -> range:
    """All subset masks of the carrier in mask order.

    The size cap is enforced here as well as at carrier construction so a
    hand-rolled oversized carrier still fails loudly.
    """
    if carrier.size > MAX_CARRIER_SIZE:
        raise CarrierSizeError(
            f"refusing to enumerate 2**{carrier.size} subsets (cap d={MAX_CARRIER_SIZE})"
        )
    return range(1 if nonempty_only else 0, 1 << carrier.size)


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


def sup_integral(g: np.ndarray, mask: int) -> float:
    """max of g over the masked points; the empty set gives 0."""
    if mask == 0:
        return 0.0
    best = 0.0
    for i in iter_bits(mask):
        v = g[i]
        if v > best:
            best = v
    return float(best)


def canonical_json(obj) -> str:
    """Deterministic JSON encoding used for hashing and byte-stable artifacts."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
