"""Choquet and extremal integrals of nonnegative vectors against a capacity.

Both integrals only see the capacity through its values on the upper level
sets {f >= t}:

    choquet(f)  = integral over t > 0 of theta({f >= t}) dt
                = sum over the descending distinct values v_1 > v_2 > ...
                  of (v_i - v_{i+1}) * theta({f >= v_i}),
    extremal(f) = sup over t > 0 of t * theta({f >= t}),

so on a finite carrier each is a short exact sum / max over at most d
layers.  The extremal integral also equals
max over nonempty K of theta(K) * min_{x in K} f(x); that form is exponential
in d and kept only as a debug oracle.

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
from .setfun import Capacity, _singleton_table, _sweep


def _vals(f, carrier: Carrier) -> np.ndarray:
    return as_values(carrier, f, "integrand")


def _layers(v: np.ndarray):
    """Yield (value, next_value, mask of {f >= value}) over descending
    distinct positive values."""
    order = np.argsort(-v, kind="stable")
    d = len(v)
    mask = 0
    j = 0
    while j < d:
        val = float(v[order[j]])
        if val <= 0.0:
            break
        while j < d and v[order[j]] == val:
            mask |= 1 << int(order[j])
            j += 1
        nxt = float(v[order[j]]) if j < d else 0.0
        if nxt < 0.0:
            nxt = 0.0
        yield val, nxt, mask


def choquet_integral(f, theta: Capacity) -> float:
    """Layer-cake sum of theta over the upper level sets of f."""
    v = _vals(f, theta.carrier)
    total = 0.0
    for val, nxt, mask in _layers(v):
        total += (val - nxt) * float(theta.at(mask))
    return total


def extremal_integral(f, theta: Capacity) -> float:
    """sup over t > 0 of t * theta({f >= t}); 0 for f identically 0.

    The sup is attained at one of the distinct positive values of f.
    """
    v = _vals(f, theta.carrier)
    best = 0.0
    for val, _, mask in _layers(v):
        cand = val * float(theta.at(mask))
        if cand > best:
            best = cand
    return best


def extremal_integral_setform(f, theta: Capacity) -> float:
    """Debug oracle: max over nonempty K of theta(K) * min over K of f.

    Builds min over K of f for all 2**d - 1 subsets with one minimum
    sweep; intended for cross-checking the threshold form on small
    carriers, not for production use.
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
    worst = 0.0
    wf = wg = None
    for _ in range(trials):
        f, g = _random_step_pair(rng, d)
        if not comonotonic(f, g):  # generator guard, never expected to fire
            raise AssertionError("step-transform pair is not comonotone")
        a, b, c = func(f + g), func(f), func(g)
        scale = abs(a) + abs(b) + abs(c)
        dev = abs(a - b - c) / scale if scale > 0 else 0.0
        if dev > worst:
            worst = dev
            wf, wg = f, g
    return ComonotoneAdditivityReport(worst <= 1e-7, worst, wf, wg, trials)
