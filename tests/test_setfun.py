"""Lattice calculus against brute-force oracles and frozen examples.

The oracle for the Mobius inverse is its defining property: summing nu over
the sets that meet K must reproduce theta(K).  The zeta/Mobius sweeps are
checked against literal double loops over subset pairs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import carrier_of, random_ca_capacity, random_capacity
from crsm.carrier import Carrier, mask_size
from crsm.setfun import (
    MAX_ALTERNATION_ORDER,
    Capacity,
    MobiusMeasure,
    _sweep,
    capacity_from_measure,
    check_complete_alternation_direct,
    classify,
    mobius_inverse,
    subset_max,
    subset_mobius,
    subset_zeta,
    successive_difference,
)


def brute_zeta(w: np.ndarray, d: int) -> np.ndarray:
    size = 1 << d
    out = np.zeros(size)
    for k in range(size):
        out[k] = sum(w[f] for f in range(size) if f & k == f)
    return out


def theta2() -> Capacity:
    return Capacity(Carrier(("a", "b")), [0.0, 1.0, 1.0, 1.5])


def avar4() -> Capacity:
    c = Carrier(("1", "2", "3", "4"))
    table = [min(1.0, mask_size(m) * 0.25 / 0.8) for m in range(16)]
    return Capacity(c, table)


def test_capacity_validation():
    c = Carrier(("a", "b"))
    with pytest.raises(ValueError):
        Capacity(c, [0.1, 1.0, 1.0, 1.5])  # grounding
    with pytest.raises(ValueError):
        Capacity(c, [0.0, -1.0, 1.0, 1.5])
    with pytest.raises(ValueError):
        Capacity(c, [0.0, 1.0, 1.5])  # wrong length
    with pytest.raises(ValueError):
        Capacity(c, [0.0, np.inf, 1.0, 1.5])


def test_theta2_mobius_frozen():
    nu = mobius_inverse(theta2())
    assert nu.weights.tolist() == [0.0, 0.5, 0.5, 0.5]
    assert nu.total_mass == 1.5


def test_zeta_mobius_inverse_pair():
    rng = np.random.default_rng(0)
    for d in (1, 2, 4, 6):
        w = rng.normal(size=1 << d)
        h = subset_zeta(w.copy(), d)
        assert np.allclose(h, brute_zeta(w, d), atol=1e-12)
        back = subset_mobius(h.copy(), d)
        assert np.allclose(back, w, atol=1e-10)


SWEEP_UFUNCS = (np.add, np.subtract, np.maximum, np.minimum, np.bitwise_or)


def brute_sweep(row: np.ndarray, d: int, ufunc) -> np.ndarray:
    """Per-mask oracle: the sweep over bit b folds out[m ^ 1 << b] into
    out[m] for every m holding b, highest bit first."""
    out = row.copy()
    for b in reversed(range(d)):
        for m in range(1 << d):
            if m >> b & 1:
                out[m] = ufunc(out[m], out[m ^ (1 << b)])
    return out


@pytest.mark.parametrize("ufunc", SWEEP_UFUNCS, ids=lambda u: u.__name__)
def test_sweep_matches_per_mask_oracle(ufunc):
    rng = np.random.default_rng(11)
    for d in range(1, 9):
        if ufunc is np.bitwise_or:
            rows = rng.integers(0, 1 << 30, size=(3, 1 << d))
        else:
            rows = rng.normal(size=(3, 1 << d))
        single = _sweep(rows[0].copy(), d, ufunc)
        batch = _sweep(rows.copy(), d, ufunc)
        for i in range(3):
            expect = brute_sweep(rows[i], d, ufunc)
            # the oracle folds in the same order, so even add and subtract
            # agree bit for bit
            assert np.array_equal(batch[i], expect)
        assert np.array_equal(single, batch[0])


def test_sweep_d1_writes_in_place():
    # at d = 1 an integer index would give a 0-d scalar, not a view
    arr = np.array([2.0, 5.0])
    assert _sweep(arr, 1, np.subtract) is arr
    assert arr.tolist() == [2.0, 3.0]
    stack = np.array([[1.0, 4.0], [3.0, 2.0]])
    _sweep(stack, 1, np.maximum)
    assert stack.tolist() == [[1.0, 4.0], [3.0, 3.0]]


def test_subset_max_matches_bruteforce():
    rng = np.random.default_rng(1)
    for d in (1, 3, 5):
        singles = rng.exponential(size=d)
        best = subset_max(singles)
        for mask in range(1 << d):
            expect = max((singles[i] for i in range(d) if mask >> i & 1),
                         default=0.0)
            assert best[mask] == expect


def test_mobius_defining_property():
    rng = np.random.default_rng(2)
    for d in (2, 3, 5):
        theta = random_capacity(rng, d)
        nu = mobius_inverse(theta)
        size = 1 << d
        for k in range(size):
            hit = sum(nu.weights[f] for f in range(1, size) if f & k)
            assert abs(hit - theta(k)) < 1e-9


def test_roundtrip_exact_on_random_tables():
    rng = np.random.default_rng(3)
    for d in range(1, 7):
        theta = random_capacity(rng, d)
        back = capacity_from_measure(mobius_inverse(theta))
        assert np.max(np.abs(back.table - theta.table)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_roundtrip_property(d, seed):
    theta = random_capacity(np.random.default_rng(seed), d)
    back = capacity_from_measure(mobius_inverse(theta))
    assert np.max(np.abs(back.table - theta.table)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_ca_construction_classifies_ca(d, seed):
    theta = random_ca_capacity(np.random.default_rng(seed), d)
    cls = classify(theta)
    assert cls.monotone and cls.completely_alternating


def test_classify_families():
    c = Carrier(("a", "b"))
    additive = Capacity(c, [0.0, 1.0, 2.0, 3.0])
    cls = classify(additive)
    assert cls.additive and cls.completely_alternating and cls.monotone
    assert not cls.maxitive

    maxitive = Capacity(c, [0.0, 1.0, 2.0, 2.0])
    cls = classify(maxitive)
    assert cls.maxitive and cls.completely_alternating
    assert not cls.additive

    cls = classify(theta2())
    assert cls.completely_alternating and not cls.maxitive and not cls.additive

    nonmono = Capacity(c, [0.0, 1.0, 1.0, 0.5])
    assert not classify(nonmono).monotone


@pytest.mark.parametrize("d", [2, 5, 8])
def test_classify_flags_nonmonotone_top_bit(d):
    # a single drop in the pair (K, K + top point) is the only violation
    table = np.arange(1 << d, dtype=float)
    top = 1 << (d - 1)
    low = top - 1
    table[low] = table[low | top] + 1e-3
    theta = Capacity(carrier_of(d), table)
    assert not classify(theta).monotone
    table[low] = table[low | top] + 0.5e-9
    assert classify(Capacity(carrier_of(d), table)).monotone


def test_avar_frozen_values():
    theta = avar4()
    assert theta.table[0b0001] == 0.3125
    assert theta.table[0b0011] == 0.625
    assert theta.table[0b0111] == 0.9375
    assert theta.total == 1.0
    nu = mobius_inverse(theta)
    by_size = {}
    for m in range(1, 16):
        by_size.setdefault(mask_size(m), set()).add(nu.weights[m])
    assert by_size[1] == {0.0625}
    assert by_size[2] == {0.25}
    assert by_size[3] == {-0.25}
    assert by_size[4] == {0.25}
    cls = classify(theta)
    assert cls.monotone and not cls.completely_alternating
    assert cls.min_mobius_weight == -0.25
    assert mask_size(cls.min_mobius_witness) == 3


def test_avar_successive_difference_exact():
    theta = avar4()
    base = 0b1000
    incs = (0b0001, 0b0010, 0b0100)
    assert successive_difference(theta, base, incs) == 0.25


def test_successive_difference_order1_is_monotonicity():
    theta = theta2()
    c = theta.carrier
    a = c.mask_of(["a"])
    # Delta_{K1} theta(K) = -(theta(K u K1) - theta(K)) under the alternating
    # sign convention, so order 1 is nonpositive iff theta is monotone
    assert successive_difference(theta, 0, (a,)) == -1.0
    assert successive_difference(theta, a, (a,)) == 0.0


def test_successive_difference_is_minus_mobius():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        theta = random_capacity(rng, d)
        nu = mobius_inverse(theta)
        full = (1 << d) - 1
        for f in range(1, 1 << d):
            incs = tuple(1 << i for i in range(d) if f >> i & 1)
            val = successive_difference(theta, full & ~f, incs)
            assert abs(val + nu.weights[f]) < 1e-9


def test_direct_check_agrees_with_classify():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        for make in (random_capacity, random_ca_capacity):
            theta = make(rng, d)
            rep = check_complete_alternation_direct(theta, max_order=d)
            assert rep.alternating == classify(theta).completely_alternating


def test_direct_check_finds_avar_witness():
    rep = check_complete_alternation_direct(avar4(), max_order=4, trials=4000,
                                            seed=0)
    assert not rep.alternating
    assert rep.worst_value >= 0.25


def test_direct_check_order_is_bounded():
    # the exhaustive d = 3 search at order 6 would take minutes
    theta = random_ca_capacity(np.random.default_rng(5), 3)
    for order in (1, MAX_ALTERNATION_ORDER + 1):
        with pytest.raises(ValueError, match=f"order must be in 2..{MAX_ALTERNATION_ORDER}"):
            check_complete_alternation_direct(theta, max_order=order)


def test_direct_check_needs_seed_beyond_exhaustive():
    with pytest.raises(ValueError):
        check_complete_alternation_direct(avar4(), max_order=3)


def test_min_weight_ignores_empty_set():
    nu = MobiusMeasure(carrier_of(2), [0.0, 0.5, 0.5, 0.5])
    w, witness = nu.min_weight()
    assert w == 0.5 and witness in (1, 2, 3)
