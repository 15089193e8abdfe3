"""Capacity constructors and the Bernstein composition calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import carrier_of, random_ca_capacity
from crsm.carrier import Carrier, mask_size, popcounts
from crsm.setfun import Capacity, classify, mobius_inverse
from crsm.tdf import DiscreteMeasure
from crsm.transforms import (
    BernsteinFunction,
    check_stationary,
    compose_capacity,
    distortion_capacity,
    exchangeable_capacity,
    subset_size_capacity,
    torus_storm_capacity,
)

SQRT2 = math.sqrt(2.0)


def test_bernstein_power():
    g = BernsteinFunction(power=0.5)
    assert g(4.0) == 2.0
    assert g(0.0) == 0.0
    with pytest.raises(ValueError):
        g(-1.0)


def test_bernstein_drift_is_identity_scaling():
    g = BernsteinFunction(drift=1.0)
    assert g(3.7) == 3.7
    g2 = BernsteinFunction(drift=2.5)
    assert g2(2.0) == 5.0


def test_bernstein_jump_saturates():
    g = BernsteinFunction(atoms=[(2.0, 1.5)])
    assert g(0.0) == 0.0
    assert g(1e12) == pytest.approx(1.5)
    # concavity on a grid
    ts = np.linspace(0.0, 5.0, 50)
    vals = g(ts)
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all(np.diff(np.diff(vals)) <= 1e-12)


def test_bernstein_validation():
    with pytest.raises(ValueError):
        BernsteinFunction(power=1.0)  # exponent must lie strictly inside (0,1)
    with pytest.raises(ValueError):
        BernsteinFunction(power=0.5, drift=1.0)  # power excludes drift/atoms
    with pytest.raises(ValueError):
        BernsteinFunction(drift=-1.0)
    with pytest.raises(ValueError):
        BernsteinFunction(atoms=[(0.0, 1.0)])
    # the zero function is a (degenerate) member of the class
    assert BernsteinFunction()(3.0) == 0.0


def test_bernstein_function_matches_closed_form():
    g = BernsteinFunction(drift=0.25, atoms=[(1.0, 2.0), (3.0, 0.5)])
    for t in (0.0, 0.3, 1.7, 10.0):
        expect = 0.25 * t + 2.0 * (1 - math.exp(-t)) + 0.5 * (1 - math.exp(-3 * t))
        assert g(t) == pytest.approx(expect, rel=1e-15)


def test_compose_additive_with_sqrt():
    c = Carrier(("a", "b"))
    theta = Capacity(c, [0.0, 1.0, 1.0, 2.0])
    comp = compose_capacity(BernsteinFunction(power=0.5), theta)
    assert comp.table.tolist() == [0.0, 1.0, 1.0, SQRT2]
    nu = mobius_inverse(comp)
    assert nu.weights == pytest.approx([0.0, SQRT2 - 1, SQRT2 - 1, 2 - SQRT2])
    assert classify(comp).completely_alternating


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_compose_preserves_complete_alternation(d, seed):
    rng = np.random.default_rng(seed)
    theta = random_ca_capacity(rng, d)
    which = int(rng.integers(0, 3))
    if which == 0:
        g = BernsteinFunction(power=float(rng.uniform(0.05, 0.95)))
    elif which == 1:
        g = BernsteinFunction(drift=float(rng.exponential() + 0.01))
    else:
        atoms = [(float(rng.exponential() + 0.05), float(rng.exponential() + 0.05))
                 for _ in range(int(rng.integers(1, 4)))]
        g = BernsteinFunction(drift=float(rng.exponential() * 0.5), atoms=atoms)
    comp = compose_capacity(g, theta)
    cls = classify(comp)
    assert cls.monotone and cls.completely_alternating


def test_exchangeable_frozen():
    theta = exchangeable_capacity(2, [(0.5, 1.0)])
    assert theta.table.tolist() == [0.0, 0.5, 0.5, 0.75]
    nu = mobius_inverse(theta)
    assert nu.weights.tolist() == [0.0, 0.25, 0.25, 0.25]

    full = exchangeable_capacity(2, [(1.0, 1.0)])
    assert full.table.tolist() == [0.0, 1.0, 1.0, 1.0]
    assert classify(full).maxitive

    none = exchangeable_capacity(2, [(0.0, 1.0)])
    assert not none.table.any()


def test_exchangeable_survival_identity():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        vals = rng.uniform(0.0, 1.0, size=3)
        probs = rng.dirichlet(np.ones(3))
        theta = exchangeable_capacity(d, list(zip(vals, probs)), scale=2.0)
        sizes = popcounts(1 << d)
        miss = sum(q * (1 - z) ** sizes for z, q in zip(vals, probs))
        expect = 2.0 * (1.0 - miss)
        expect[0] = 0.0
        assert np.allclose(theta.table, expect, atol=1e-12)
        assert classify(theta).completely_alternating


def test_exchangeable_validation():
    with pytest.raises(ValueError):
        exchangeable_capacity(2, [(1.5, 1.0)])  # zeta outside [0, 1]
    with pytest.raises(ValueError):
        exchangeable_capacity(2, [(0.5, 0.7)])  # probs must sum to 1
    with pytest.raises(ValueError):
        exchangeable_capacity(2, [])


def test_subset_size_frozen():
    theta = subset_size_capacity(2, [0.0, 1.0, 0.0])
    assert theta.table.tolist() == [0.0, 0.5, 0.5, 1.0]
    nu = mobius_inverse(theta)
    assert nu.weights.tolist() == [0.0, 0.5, 0.5, 0.0]
    assert classify(theta).additive


def test_subset_size_rearrangement_invariant():
    rng = np.random.default_rng(1)
    for d in (2, 3, 5):
        p = rng.dirichlet(np.ones(d + 1))
        theta = subset_size_capacity(d, p)
        by_size = {}
        for m in range(1, 1 << d):
            by_size.setdefault(mask_size(m), set()).add(round(theta(m), 12))
        assert all(len(v) == 1 for v in by_size.values())
        assert classify(theta).monotone


def test_subset_size_matches_exchangeable():
    # drawing the size-k block uniformly is the de Finetti mixture of
    # exchangeable indicator draws; tables must agree for matched weights
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        zeta = rng.uniform(0.0, 1.0)
        exch = exchangeable_capacity(d, [(zeta, 1.0)])
        p = [math.comb(d, k) * zeta**k * (1 - zeta) ** (d - k)
             for k in range(d + 1)]
        ss = subset_size_capacity(d, p)
        assert np.allclose(exch.table, ss.table, atol=1e-12)


def test_distortion_power():
    mu = DiscreteMeasure(Carrier(("1", "2", "3", "4")), [0.25] * 4)
    theta = distortion_capacity(mu, kind="power", alpha=0.5)
    assert theta(0b0011) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert classify(theta).completely_alternating


def test_distortion_avar_frozen():
    mu = DiscreteMeasure(Carrier(("1", "2", "3", "4")), [0.25] * 4)
    theta = distortion_capacity(mu, kind="avar", alpha=0.8)
    assert [theta(m) for m in (0b0001, 0b0011, 0b0111, 0b1111)] == [
        0.3125, 0.625, 0.9375, 1.0]
    cls = classify(theta)
    assert cls.monotone and not cls.completely_alternating
    assert cls.min_mobius_weight == -0.25


def test_distortion_avar_alpha_one_is_additive():
    mu = DiscreteMeasure(carrier_of(3), [0.2, 0.3, 0.5])
    theta = distortion_capacity(mu, kind="avar", alpha=1.0)
    assert classify(theta).additive


def test_distortion_validation():
    mu = DiscreteMeasure(carrier_of(2), [0.5, 0.5])
    with pytest.raises(ValueError):
        distortion_capacity(mu, kind="power", alpha=1.0)
    with pytest.raises(ValueError):
        distortion_capacity(mu, kind="avar", alpha=0.0)
    with pytest.raises(ValueError):
        distortion_capacity(mu, kind="huber", alpha=0.5)


def test_torus_point_shape_counts():
    theta = torus_storm_capacity(4, [([0], 1.0)])
    c = theta.carrier
    for m in range(1, 16):
        assert theta(m) == mask_size(m)
    assert check_stationary(theta)


def test_torus_pair_shape_frozen():
    theta = torus_storm_capacity(4, [([0, 1], 1.0)])
    c = theta.carrier
    assert theta(c.mask_of(["0"])) == 2.0
    assert theta(c.mask_of(["0", "1"])) == 3.0
    assert theta(c.full_mask) == 4.0
    assert check_stationary(theta)
    assert classify(theta).completely_alternating


def test_torus_stationarity_is_exact_equality():
    theta = torus_storm_capacity(4, [([0, 1], 0.5), ([2], 0.5)], scale=1.25)
    assert check_stationary(theta)
    table = theta.table.copy()
    table[theta.carrier.mask_of(["2"])] += 0.125
    assert not check_stationary(Capacity(theta.carrier, table))


def test_torus_trivial_group():
    theta = torus_storm_capacity(1, [([0], 1.0)])
    assert check_stationary(theta)


def test_torus_2d():
    theta = torus_storm_capacity(3, [([(0, 0), (1, 1)], 0.5), ([(0, 0)], 0.5)],
                                 dim=2)
    assert theta.carrier.size == 9
    assert check_stationary(theta)
    assert classify(theta).completely_alternating


def test_check_stationary_needs_tag():
    plain = Capacity(carrier_of(2), [0.0, 1.0, 1.0, 1.5])
    with pytest.raises(ValueError):
        check_stationary(plain)


def test_torus_size_cap():
    from crsm.carrier import CarrierSizeError
    with pytest.raises(CarrierSizeError):
        torus_storm_capacity(25, [([0], 1.0)])
    with pytest.raises(CarrierSizeError):
        torus_storm_capacity(5, [([(0, 0)], 1.0)], dim=2)


def loop_storm_table(n, shapes, dim=1, scale=1.0):
    """The per-mask storm construction: reach[K] = reach[K - low] | hit[low]
    over all 2**d masks, then a popcount per mask."""
    d = n ** dim

    def index(pt):
        if dim == 1:
            return int(pt) % n
        return (int(pt[0]) % n) * n + int(pt[1]) % n

    def diff(x, s):
        if dim == 1:
            return (x - s) % n
        (xi, xj), (si, sj) = divmod(x, n), divmod(s, n)
        return ((xi - si) % n) * n + (xj - sj) % n

    table = np.zeros(1 << d)
    for points, q in shapes:
        idxs = {index(pt) for pt in points}
        hit = [sum(1 << diff(x, s) for s in idxs) for x in range(d)]
        reach = [0] * (1 << d)
        for mask in range(1, 1 << d):
            low = mask & -mask
            reach[mask] = reach[mask ^ low] | hit[low.bit_length() - 1]
        table += q * np.array([bin(r).count("1") for r in reach], dtype=np.int64)
    table *= scale
    table[0] = 0.0
    return table


def loop_stationary(theta):
    """Every group shift against the per-mask shifted-mask table."""
    tag = theta.carrier.torus
    size = 1 << theta.carrier.size
    for shift in tag.shifts():
        perm = tag.shift_permutation(shift)
        shifted = np.zeros(size, dtype=np.int64)
        for mask in range(1, size):
            low = mask & -mask
            shifted[mask] = shifted[mask ^ low] | (1 << int(perm[low.bit_length() - 1]))
        if not np.array_equal(theta.table[shifted], theta.table):
            return False
    return True


STORM_CASES = [
    (n, [([0, 1 % n], 0.3), ([0, 2 % n, 3 % n], 0.7)], 1, 1.7) for n in range(1, 9)
] + [
    (3, [([(0, 0), (0, 1)], 0.25), ([(1, 1), (2, 0), (0, 2)], 0.75)], 2, 2.5),
]


@pytest.mark.parametrize("n, shapes, dim, scale", STORM_CASES)
def test_storm_sweep_matches_per_mask_loop(n, shapes, dim, scale):
    theta = torus_storm_capacity(n, shapes, dim=dim, scale=scale)
    assert np.array_equal(theta.table, loop_storm_table(n, shapes, dim, scale))
    assert check_stationary(theta)


@pytest.mark.parametrize("n, shapes, dim, scale", [STORM_CASES[4], STORM_CASES[-1]])
def test_stationary_breaks_on_any_perturbed_entry(n, shapes, dim, scale):
    theta = torus_storm_capacity(n, shapes, dim=dim, scale=scale)
    full = theta.carrier.full_mask
    for mask in range(1, full):  # E is its own shift, so skip it
        table = theta.table.copy()
        table[mask] = np.nextafter(table[mask], np.inf)
        moved = Capacity(theta.carrier, table)
        assert not check_stationary(moved)
        assert not loop_stationary(moved)
    table = theta.table.copy()
    table[full] += 1.0
    assert check_stationary(Capacity(theta.carrier, table))
