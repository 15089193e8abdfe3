"""Shared generators for the test suite.

Random capacities come in two flavors: `random_capacity` draws an arbitrary
monotone table (no alternation guarantee), `random_ca_capacity` draws
nonnegative Mobius weights and rebuilds the table, so complete alternation
holds by construction.  Both are deterministic given the rng.

`indicator_tdf` writes the CRSM of a capacity as a dense spectral table,
the reference against which the CRSM sampler and `couple` are checked.
"""

import numpy as np

from crsm.carrier import Carrier
from crsm.setfun import Capacity, MobiusMeasure, capacity_from_measure, mobius_inverse
from crsm.tdf import SpectralTDF


def carrier_of(d: int) -> Carrier:
    return Carrier(tuple(f"x{i}" for i in range(d)))


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


def indicator_tdf(theta: Capacity) -> SpectralTDF:
    """Atoms theta(E) * 1_F with probabilities nu(F) / theta(E), F over the
    positive Mobius weights in ascending mask order: the CRSM of theta."""
    w = np.clip(mobius_inverse(theta).weights, 0.0, None)
    masks = np.flatnonzero(w > 0)
    atoms = theta.total * ((masks[:, None] >> np.arange(theta.carrier.size)) & 1)
    return SpectralTDF(theta.carrier, w[masks] / w[masks].sum(), atoms)


def random_f(rng: np.random.Generator, d: int, zeros: float = 0.25) -> np.ndarray:
    f = rng.exponential(1.0, size=d) * np.exp(rng.normal(0.0, 0.7))
    f[rng.random(d) < zeros] = 0.0
    return f
