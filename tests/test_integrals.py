import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import carrier_of, random_ca_capacity, random_capacity, random_f
from crsm.carrier import Carrier
from crsm.integrals import (
    choquet_integral,
    comonotone_additivity_check,
    comonotone_formula,
    comonotonic,
    extremal_integral,
    extremal_integral_setform,
)
from crsm.setfun import Capacity, mobius_inverse
from crsm.tdf import DiscreteMeasure, dual_greedy
from crsm.transforms import distortion_capacity, exchangeable_capacity


def theta2() -> Capacity:
    return Capacity(Carrier(("a", "b")), [0.0, 1.0, 1.0, 1.5])


def brute_choquet(f: np.ndarray, theta: Capacity) -> float:
    """Expansion over the hitting measure: integral = sum of nu(F) * max_F f.

    theta(K) = sum of nu over sets meeting K, and the Choquet integral of
    the elementary game K -> 1{F meets K} is max_F f, so this is linear
    bookkeeping and an oracle independent of the layer-cake code path.
    """
    nu = mobius_inverse(theta)
    total = 0.0
    d = theta.carrier.size
    for mask in range(1, 1 << d):
        hi = max(f[i] for i in range(d) if mask >> i & 1)
        total += nu.weights[mask] * hi
    return total


def brute_extremal(f: np.ndarray, theta: Capacity) -> float:
    d = theta.carrier.size
    best = 0.0
    for mask in range(1, 1 << d):
        lo = min(f[i] for i in range(d) if mask >> i & 1)
        best = max(best, lo * theta(mask))
    return best


def test_frozen_theta2_values():
    f = np.array([2.0, 1.0])
    assert choquet_integral(f, theta2()) == 2.5
    assert extremal_integral(f, theta2()) == 2.0
    assert comonotone_formula(f, theta2()) == 2.5
    assert extremal_integral_setform(f, theta2()) == 2.0


def test_indicator_recovers_theta():
    theta = theta2()
    c = theta.carrier
    for mask in (1, 2, 3):
        ind = np.array([(mask >> i) & 1 for i in range(2)], dtype=float)
        assert choquet_integral(ind, theta) == theta(mask)
        assert extremal_integral(ind, theta) == theta(mask)


def test_against_bruteforce():
    rng = np.random.default_rng(0)
    for d in (1, 2, 4, 6):
        theta = random_capacity(rng, d)
        for _ in range(25):
            f = random_f(rng, d)
            assert choquet_integral(f, theta) == pytest.approx(
                brute_choquet(f, theta), abs=1e-10)
            assert extremal_integral(f, theta) == pytest.approx(
                brute_extremal(f, theta), abs=1e-12)
            assert extremal_integral_setform(f, theta) == pytest.approx(
                brute_extremal(f, theta), abs=1e-12)


def test_three_routes_agree():
    rng = np.random.default_rng(1)
    for d in (2, 3, 5):
        theta = random_capacity(rng, d)
        for _ in range(40):
            f = random_f(rng, d)
            a = choquet_integral(f, theta)
            assert comonotone_formula(f, theta) == pytest.approx(a, abs=1e-10)
            assert extremal_integral(f, theta) == pytest.approx(
                extremal_integral_setform(f, theta), abs=1e-12)


def test_additive_capacity_gives_dot_product():
    rng = np.random.default_rng(2)
    w = rng.exponential(size=3)
    c = carrier_of(3)
    table = [sum(w[i] for i in range(3) if m >> i & 1) for m in range(8)]
    theta = Capacity(c, table)
    f = random_f(rng, 3)
    assert choquet_integral(f, theta) == pytest.approx(float(f @ w), abs=1e-12)


def test_maxitive_capacity_gives_weighted_max():
    rng = np.random.default_rng(3)
    s = rng.exponential(size=3)
    table = [max((s[i] for i in range(3) if m >> i & 1), default=0.0)
             for m in range(8)]
    theta = Capacity(carrier_of(3), table)
    f = random_f(rng, 3)
    assert extremal_integral(f, theta) == pytest.approx(float(np.max(f * s)),
                                                        abs=1e-12)
    assert choquet_integral(f, theta) >= extremal_integral(f, theta) - 1e-12


def test_zero_function():
    theta = theta2()
    z = np.zeros(2)
    assert choquet_integral(z, theta) == 0.0
    assert extremal_integral(z, theta) == 0.0


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.1, max_value=10.0))
def test_homogeneity_and_domination(d, seed, scale):
    rng = np.random.default_rng(seed)
    theta = random_ca_capacity(rng, d)
    f = random_f(rng, d)
    cf = choquet_integral(f, theta)
    ef = extremal_integral(f, theta)
    assert ef <= cf + 1e-10
    assert choquet_integral(scale * f, theta) == pytest.approx(scale * cf, rel=1e-12)
    assert extremal_integral(scale * f, theta) == pytest.approx(scale * ef, rel=1e-12)


def test_comonotonic_pairs():
    assert comonotonic([1.0, 2.0, 3.0], [0.0, 0.0, 5.0])
    assert not comonotonic([1.0, 2.0], [2.0, 1.0])
    # constants never bet in any direction
    assert comonotonic([7.0, 7.0], [2.0, 1.0])
    f = np.array([1.0, 2.0, 2.0])
    assert comonotonic(f, f * f)


def test_choquet_comonotone_additive():
    theta = theta2()
    f = np.array([1.0, 3.0])
    g = np.array([0.5, 4.0])
    assert comonotonic(f, g)
    assert choquet_integral(f + g, theta) == pytest.approx(
        choquet_integral(f, theta) + choquet_integral(g, theta), abs=1e-12)


def test_additivity_probe_accepts_choquet():
    theta = random_ca_capacity(np.random.default_rng(4), 4)
    rep = comonotone_additivity_check(
        lambda f: choquet_integral(f, theta), trials=400, seed=5,
        carrier=theta.carrier)
    assert rep.additive
    assert rep.max_deviation < 1e-7


def test_additivity_probe_rejects_extremal():
    theta = theta2()
    rep = comonotone_additivity_check(
        lambda f: extremal_integral(f, theta), trials=400, seed=6,
        carrier=theta.carrier)
    assert not rep.additive
    assert rep.witness_f is not None
    f, g = rep.witness_f, rep.witness_g
    assert comonotonic(f, g)
    got = extremal_integral(f + g, theta)
    parts = extremal_integral(f, theta) + extremal_integral(g, theta)
    assert abs(got - parts) >= rep.max_deviation - 1e-12


def test_additivity_probe_rejects_lp_mixture():
    # ell(f) = ||f||_2 * theta-ish scale is positively homogeneous but not
    # comonotone additive, a classic non-Choquet functional
    rep = comonotone_additivity_check(
        lambda f: float(np.sqrt(np.sum(f ** 2))), trials=400, seed=7,
        carrier=carrier_of(3))
    assert not rep.additive


# float.hex of choquet, extremal and, for the CA capacities, dual_greedy's
# value and the first 16 hex digits of sha256 of its weights' bytes: ties,
# zeros, constant f and the all-zero f, on non-monotone tables ("tie" is
# the example where the set form of the extremal integral gives 1.0) and
# on capacities held as a table (power4) and by size (exch24)
PINNED_CHAIN_BITS = {
    ("tie", 0): ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ("tie", 1): ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("tie", 2): ("0x0.0p+0", "0x0.0p+0"),
    ("bumpy3", 0): ("0x1.147ae147ae148p-1", "0x1.428f5c28f5c29p-1"),
    ("bumpy3", 1): ("0x1.6e147ae147ae2p+0", "0x1.6e147ae147ae2p+0"),
    ("bumpy3", 2): ("0x1.147ae147ae148p-1", "0x1.147ae147ae148p-1"),
    ("bumpy3", 3): ("0x1.d70a3d70a3d71p-2", "0x1.199999999999ap-1"),
    ("power4", 0): ("0x1.310693c31bf4ap-1", "0x1.feb17eabb72fbp-2",
                    "0x1.310693c31bf4ap-1", "efb033e781aa3517"),
    ("power4", 1): ("0x1.aaf335a992d2fp-1", "0x1.8e855a8c31735p-1",
                    "0x1.aaf335a992d2ep-1", "e023660169e1e981"),
    ("power4", 2): ("0x1.dd57059192477p-1", "0x1.dd57059192477p-1",
                    "0x1.dd57059192478p-1", "f4bef3e62c329ff0"),
    ("power4", 3): ("0x0.0p+0", "0x0.0p+0",
                    "0x0.0p+0", "f4bef3e62c329ff0"),
    ("power4", 4): ("0x1.ae9b0e5da158cp+0", "0x1.7923daf539295p+0",
                    "0x1.ae9b0e5da158cp+0", "a89c8f5bdb68bd5a"),
    ("exch24", 0): ("0x1.b2e9b6bcdafa6p+0", "0x1.4118e40c8ec6dp+0",
                    "0x1.b2e9b6bcdafa7p+0", "c773e4955dff3a00"),
    ("exch24", 1): ("0x1.98c89d4d86614p+0", "0x1.98c89d4d86614p+0",
                    "0x1.98c89d4d86614p+0", "94035ff4ac049bd5"),
    ("exch24", 2): ("0x1.6d916872b020dp-3", "0x1.6d916872b020dp-3",
                    "0x1.6d916872b020dp-3", "9a4bd6d3b5a9fafa"),
    ("exch24", 3): ("0x1.af7e02314704cp+1", "0x1.252e25fc1d915p+1",
                    "0x1.af7e02314704bp+1", "4382d97afa6e0bf5"),
}


def pinned_chain_cases():
    caps = {
        "tie": Capacity(carrier_of(2), [0.0, 1.0, 0.2, 0.5]),
        "bumpy3": Capacity(carrier_of(3), [0.0, 0.3, 1.1, 0.7, 0.2, 0.9, 0.4, 0.6]),
        "power4": distortion_capacity(
            DiscreteMeasure(carrier_of(4), [0.1, 0.25, 0.3, 0.45]), "power", 0.37),
        "exch24": exchangeable_capacity(24, [(0.3, 0.5), (0.05, 0.5)], scale=1.7),
    }
    fs = {
        "tie": [[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]],
        "bumpy3": [[0.7, 0.3, 0.7], [0.0, 1.3, 0.0], [0.9, 0.9, 0.9], [0.2, 0.5, 0.1]],
        "power4": [[0.7, 0.3, 0.7, 0.3], [0.0, 1.3, 0.0, 0.2], [0.9] * 4, [0.0] * 4,
                   [0.11, 0.57, 2.3, 0.57]],
        # the last sum differs when added pairwise (np.sum) instead of in order
        "exch24": [[(i % 5) * 0.37 for i in range(24)], [1.1] * 24, [0.0] * 23 + [0.6],
                   [((7 * i) % 24) * 0.13 for i in range(24)]],
    }
    for name, theta in caps.items():
        for i, f in enumerate(fs[name]):
            yield (name, i), theta, np.array(f)


def test_chain_bits_are_pinned():
    cases = list(pinned_chain_cases())
    assert [key for key, _, _ in cases] == list(PINNED_CHAIN_BITS)
    for key, theta, f in cases:
        got = [choquet_integral(f, theta).hex(), extremal_integral(f, theta).hex()]
        if theta.carrier.size > 3:
            mu, val = dual_greedy(theta, f)
            got += [val.hex(), hashlib.sha256(mu.weights.tobytes()).hexdigest()[:16]]
        assert tuple(got) == PINNED_CHAIN_BITS[key], key
    tie = Capacity(carrier_of(2), [0.0, 1.0, 0.2, 0.5])
    assert extremal_integral_setform([1.0, 1.0], tie) == 1.0
