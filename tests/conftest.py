"""Shared generators for the test suite.

Random capacities come in two flavors: `random_capacity` draws an arbitrary
monotone table (no alternation guarantee), `random_ca_capacity` draws
nonnegative Mobius weights and rebuilds the table, so complete alternation
holds by construction.  Both are deterministic given the rng.

`lebesgue_capacity` reads the completely random law of point masses from
its model document, as the capacity that is its functional.  `indicator_tdf` writes the CRSM of a
capacity as a dense spectral table, the reference against which the CRSM
sampler and `couple` are checked.
"""

import numpy as np

from crsm.carrier import Carrier
from crsm.io import parse_model
from crsm.setfun import Capacity, MobiusMeasure, capacity_from_measure, mobius_inverse
from crsm.tdf import SpectralTDF


def carrier_of(d: int) -> Carrier:
    return Carrier(tuple(f"x{i}" for i in range(d)))


def lebesgue_capacity(weights) -> Capacity:
    """The completely random law of the point masses weights on
    carrier_of(len(weights)): the capacity a `lebesgue` model document is
    read as."""
    mu = [float(w) for w in weights]
    return parse_model({"kind": "lebesgue",
                        "carrier": list(carrier_of(len(mu)).labels), "mu": mu})


def random_capacity(rng: np.random.Generator, d: int) -> Capacity:
    """Monotone, grounded, otherwise arbitrary."""
    size = 1 << d
    table = np.zeros(size)
    for mask in range(1, size):
        below = max(table[mask & ~(1 << i)] for i in range(d) if mask >> i & 1)
        table[mask] = below + rng.exponential(0.3)
    return Capacity(carrier_of(d), table)


def random_ca_capacity(rng: np.random.Generator, d: int,
                       sparsity: float = 0.4) -> Capacity:
    size = 1 << d
    weights = rng.exponential(1.0, size=size)
    weights[rng.random(size) < sparsity] = 0.0
    weights[0] = 0.0
    if not weights.any():
        weights[size - 1] = 1.0
    return capacity_from_measure(MobiusMeasure(carrier_of(d), weights))


def near_ca_table(d: int = 8) -> Capacity:
    """Unit singletons, nu(E) = 0.5 and nu({x0, x1, x2}) = -1e-8: just
    outside complete alternation at the default tolerance."""
    weights = np.zeros(1 << d)
    weights[[1 << i for i in range(d)]] = 1.0
    weights[-1] = 0.5
    weights[0b111] = -1e-8
    return capacity_from_measure(MobiusMeasure(carrier_of(d), weights))


def skewed_capacity(rng: np.random.Generator, d: int, rel_mass: float) -> Capacity:
    """d - 1 singleton atoms, 12 multi-point atoms on those points and one
    rare singleton atom at the highest point, of relative mass rel_mass.

    The weights are integers, so the table and its Mobius inversion are
    exact and no rounding dust adds atoms.
    """
    others = d - 1
    multi = [m for m in range(1, 1 << others) if bin(m).count("1") >= 2]
    masks = [1 << i for i in range(others)] + list(rng.choice(multi, 12, replace=False))
    raw = np.concatenate([rng.uniform(0.2, 0.4, others), rng.uniform(0.5, 1.5, 12)])
    units = round(1.0 / rel_mass) - 1
    ints = np.maximum(1, np.floor(units * raw / raw.sum()))
    ints[ints.argmax()] += units - ints.sum()
    weights = np.zeros(1 << d)
    weights[masks] = ints
    weights[1 << others] = 1.0
    return capacity_from_measure(MobiusMeasure(carrier_of(d), weights))


def crsm_atoms(theta: Capacity) -> tuple[np.ndarray, np.ndarray]:
    """Masks (ascending) and weights of the positive Mobius atoms, with
    negative weights clamped first: the plain reference for the atom
    tables the CRSM sampler builds in place."""
    w = np.clip(mobius_inverse(theta).weights, 0.0, None)
    masks = np.flatnonzero(w > 0).astype(np.int64)
    return masks, w[masks]


def indicator_tdf(theta: Capacity) -> SpectralTDF:
    """Atoms theta(E) * 1_F with probabilities nu(F) / theta(E), F over the
    positive Mobius weights in ascending mask order: the CRSM of theta."""
    masks, w = crsm_atoms(theta)
    atoms = theta.total * ((masks[:, None] >> np.arange(theta.carrier.size)) & 1)
    return SpectralTDF(theta.carrier, w / w.sum(), atoms)


def random_f(rng: np.random.Generator, d: int, zeros: float = 0.25) -> np.ndarray:
    f = rng.exponential(1.0, size=d) * np.exp(rng.normal(0.0, 0.7))
    f[rng.random(d) < zeros] = 0.0
    return f
