"""Choquet and extremal integrals of nonnegative vectors against a capacity.

Both integrals see the capacity only along the comonotone chain of f: the
points x_(1), .., x_(d) in descending order of f (ties by carrier index)
and theta_i = theta({x_(1), .., x_(i)}).  With v_i = f(x_(i)) and
v_(d+1) = 0, the upper level sets {f >= t} are the prefixes that end a tie
group (v_i > v_(i+1)), so

    choquet(f)  = integral over t > 0 of theta({f >= t}) dt
                = sum over i of (v_i - v_(i+1)) * theta_i,
    extremal(f) = sup over t > 0 of t * theta({f >= t})
                = max of 0 and v_i * theta_i over the tie-group ends i.

`_chain` builds that chain once, for both integrals, for the batched
Capacity.eval_batch and for tdf.dual_greedy, whose maximizing measure
is the chain's increments.  For monotone theta the extremal integral also
equals max over nonempty K of theta(K) * min_{x in K} f(x); that form is
exponential in d and kept only as a debug oracle, and for other theta it
differs: theta({a}) = 1, theta({b}) = 0.2, theta(E) = 0.5 and f = (1, 1)
give 0.5 by thresholds and 1.0 by sets.

The Choquet integral is additive precisely on comonotone pairs (no pair of
points ordered oppositely by f and g).  `comonotone_additivity_check` probes
an arbitrary functional with randomly generated comonotone step-transform
pairs and reports the worst additivity gap, which is how the Choquet-ness
of a black-box functional gets falsified here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .carrier import Carrier, as_carrier, as_values
from .setfun import Capacity, _singleton_table, _sweep, _worst


def _vals(f, carrier: Carrier) -> np.ndarray:
    return as_values(carrier, f, "integrand")


def _chain(theta: Capacity, fs: np.ndarray):
    """The comonotone chain of each row of fs, shape (..., d): the points in
    descending order of value (ties by carrier index), the values in that
    order with a 0 appended, and theta on the chain's prefixes."""
    order = np.argsort(-fs, axis=-1, kind="stable")
    vals = np.take_along_axis(fs, order, axis=-1)
    vals = np.concatenate([vals, np.zeros(vals.shape[:-1] + (1,))], axis=-1)
    return order, vals, theta.at(np.bitwise_or.accumulate(np.left_shift(1, order), axis=-1))


def _choquet(theta: Capacity, fs: np.ndarray) -> np.ndarray:
    """The layer-cake sum of each row of fs: (v_i - v_(i+1)) * theta_i added
    along the chain in order (a cumsum, not a pairwise sum).  Inside a tie
    the factor is +0.0, so the sum is that over the distinct values."""
    _, vals, chain = _chain(theta, fs)
    return np.cumsum((vals[..., :-1] - vals[..., 1:]) * chain, axis=-1)[..., -1]


def choquet_integral(f, theta: Capacity) -> float:
    """Layer-cake sum of theta over the upper level sets of f."""
    return float(_choquet(theta, _vals(f, theta.carrier)))


def extremal_integral(f, theta: Capacity) -> float:
    """sup over t > 0 of t * theta({f >= t}); 0 for f identically 0.

    The sup is attained at one of the distinct positive values of f, so
    only the ends of the chain's tie groups are read: inside a group the
    prefix is not an upper level set, and theta need not be monotone.
    """
    _, vals, chain = _chain(theta, _vals(f, theta.carrier))
    ends = vals[:-1] > vals[1:]
    return float(np.max(vals[:-1] * chain, where=ends, initial=0.0))


def extremal_integral_setform(f, theta: Capacity) -> float:
    """Debug oracle: max over nonempty K of theta(K) * min over K of f.

    Builds min over K of f for all 2**d - 1 subsets with one minimum
    sweep; intended for cross-checking the threshold form on small
    carriers, not for production use.  The two forms agree for monotone
    theta only (see the module docstring for a non-monotone theta where
    this gives 1.0 and extremal_integral 0.5).
    """
    v = _vals(f, theta.carrier)
    mins = _sweep(_singleton_table(v, np.inf), theta.carrier.size, np.minimum)
    return max(0.0, float(np.max(theta.table[1:] * mins[1:])))


def comonotonic(f, g) -> bool:
    """True iff no pair of points is ordered oppositely by f and g.

    Exact O(d**2) check: (f(x)-f(y))*(g(x)-g(y)) >= 0 for all x, y.
    """
    fv = np.asarray(f, dtype=float)
    gv = np.asarray(g, dtype=float)
    df = fv[:, None] - fv[None, :]
    dg = gv[:, None] - gv[None, :]
    return bool(np.all(df * dg >= 0.0))


def comonotone_formula(f, theta: Capacity) -> float:
    """Choquet integral via the ascending rearrangement.

    Sort u ascending (ties broken by carrier index), peel points off the
    survivor set S_i = {x_(i), .., x_(d)}:

        sum_i u_(i) * (theta(S_i) - theta(S_{i+1})).

    Agrees with choquet_integral up to float rounding; the two are kept as
    genuinely separate computations so one can cross-check the other.
    """
    v = _vals(f, theta.carrier)
    order = np.argsort(v, kind="stable")
    mask = theta.carrier.full_mask
    total = 0.0
    for i in order:
        bit = 1 << int(i)
        total += float(v[i]) * (float(theta.at(mask)) - float(theta.at(mask ^ bit)))
        mask ^= bit
    return total


def _as_functional(ell, carrier: Optional[Union[Carrier, int]]):
    """Normalize a functional argument to (callable on arrays, carrier)."""
    if hasattr(ell, "eval") and hasattr(ell, "carrier"):
        return (lambda x: float(ell.eval(x))), ell.carrier
    if carrier is None:
        raise ValueError("plain callables need an explicit carrier")
    return (lambda x: float(ell(x))), as_carrier(carrier)


@dataclass(frozen=True)
class ComonotoneAdditivityReport:
    additive: bool
    max_deviation: float
    witness_f: Optional[np.ndarray]
    witness_g: Optional[np.ndarray]
    trials: int


def _random_step_pair(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A random comonotone pair: two nondecreasing step transforms of one
    shared driver vector.  Scales are mixed so that additivity violations
    with distinct argmax layers get found quickly."""
    z = rng.random(d)
    pair = []
    for _ in range(2):
        k = int(rng.integers(1, 5))
        thresholds = rng.random(k)
        jumps = rng.exponential(np.exp(rng.normal(0.0, 1.0)), size=k)
        vals = (z[:, None] >= thresholds[None, :]) @ jumps
        pair.append(vals)
    return pair[0], pair[1]


def comonotone_additivity_check(ell, trials: int = 1000, seed: int = 0,
                                carrier: Optional[Union[Carrier, int]] = None
                                ) -> ComonotoneAdditivityReport:
    """Probe ell(f+g) = ell(f) + ell(g) on random comonotone pairs.

    A pair's deviation is |ell(f+g) - ell(f) - ell(g)| divided by
    |ell(f+g)| + |ell(f)| + |ell(g)|, so no verdict depends on the scale of
    ell.  Returns the worst deviation and a witness pair when it exceeds
    1e-7.  A Choquet integral passes for every capacity; a genuinely
    non-comonotone-additive functional (e.g. an extremal integral against a
    non-maxitive capacity) should be falsified well within the default
    trial budget.
    """
    func, carr = _as_functional(ell, carrier)
    d = carr.size
    rng = np.random.default_rng(seed)

    def draw(_) -> tuple[np.ndarray, np.ndarray]:
        f, g = _random_step_pair(rng, d)
        if not comonotonic(f, g):  # generator guard, never expected to fire
            raise AssertionError("step-transform pair is not comonotone")
        return f, g

    def deviation(pair) -> float:
        f, g = pair
        a, b, c = func(f + g), func(f), func(g)
        scale = abs(a) + abs(b) + abs(c)
        return abs(a - b - c) / scale if scale > 0 else 0.0

    worst, witness, _ = _worst(map(draw, range(trials)), deviation, worst=0.0)
    wf, wg = witness or (None, None)
    return ComonotoneAdditivityReport(worst <= 1e-7, worst, wf, wg, trials)
