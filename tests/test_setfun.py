"""Lattice calculus against brute-force oracles and frozen examples.

The oracle for the Mobius inverse is its defining property: summing nu over
the sets that meet K must reproduce theta(K).  The zeta/Mobius sweeps are
checked against literal double loops over subset pairs, also with block
sizes small enough that every stage of the blocked order runs.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import carrier_of, random_ca_capacity, random_capacity
from crsm import setfun
from crsm.carrier import Carrier
from crsm.setfun import (
    MAX_ALTERNATION_ORDER,
    Capacity,
    MobiusMeasure,
    _Owned,
    _sweep,
    capacity_from_measure,
    certified_mobius,
    check_complete_alternation_direct,
    classify,
    mobius_inverse,
    subset_max,
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
    table = [min(1.0, m.bit_count() * 0.25 / 0.8) for m in range(16)]
    return Capacity(c, table)


def test_capacity_validation():
    c = Carrier(("a", "b"))
    with pytest.raises(ValueError, match="must vanish on the empty set, got 0.1"):
        Capacity(c, [0.1, 1.0, 1.0, 1.5])  # grounding
    with pytest.raises(ValueError, match="capacity table must be nonnegative"):
        Capacity(c, [0.0, -1.0, 1.0, 1.5])
    with pytest.raises(ValueError, match=r"has shape \(3,\), expected \(4,\)"):
        Capacity(c, [0.0, 1.0, 1.5])  # wrong length
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="capacity table must be finite"):
            Capacity(c, [0.0, bad, 1.0, 1.5])
    with pytest.raises(ValueError, match="mobius weights must be finite"):
        MobiusMeasure(c, [0.0, -1.0, np.nan, 1.5])
    assert MobiusMeasure(c, [0.0, -1.0, 1.0, 1.5]).min_weight() == (-1.0, 1)


def test_theta2_mobius_frozen():
    nu = mobius_inverse(theta2())
    assert nu.weights.tolist() == [0.0, 0.5, 0.5, 0.5]


def test_zeta_mobius_inverse_pair():
    rng = np.random.default_rng(0)
    for d in (1, 2, 4, 6):
        w = rng.normal(size=1 << d)
        h = _sweep(w.copy(), d, np.add)
        assert np.allclose(h, brute_zeta(w, d), atol=1e-12)
        back = _sweep(h.copy(), d, np.subtract)
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


def check_sweep_against_oracle(ufunc):
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


@pytest.mark.parametrize("ufunc", SWEEP_UFUNCS, ids=lambda u: u.__name__)
def test_sweep_matches_per_mask_oracle(ufunc):
    check_sweep_against_oracle(ufunc)


@pytest.mark.parametrize("ufunc", SWEEP_UFUNCS, ids=lambda u: u.__name__)
@pytest.mark.parametrize("block, low, chunk", [(4, 2, 4), (3, 3, 2), (5, 1, 1 << 15)])
def test_blocked_sweep_matches_per_mask_oracle(monkeypatch, ufunc, block, low, chunk):
    # up to d = 8 the real blocks hold the whole table; small ones make
    # the whole-table, in-block and transposed stages all run, in chunks
    monkeypatch.setattr(setfun, "_BLOCK_BITS", block)
    monkeypatch.setattr(setfun, "_LOW_BITS", low)
    monkeypatch.setattr(setfun, "_CHUNK", chunk)
    check_sweep_against_oracle(ufunc)


def per_bit_sweep(arr: np.ndarray, d: int, ufunc) -> np.ndarray:
    """One whole-table pass per bit, highest first: the unblocked order."""
    for b in reversed(range(d)):
        pairs = arr.reshape(-1, 2, 1 << b)
        ufunc(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    return arr


@pytest.mark.parametrize("ufunc", (np.add, np.subtract, np.bitwise_or),
                         ids=lambda u: u.__name__)
def test_sweep_past_the_block_size_is_bit_equal(ufunc):
    d = 17  # one bit above the real block size
    assert setfun._BLOCK_BITS < d
    rng = np.random.default_rng(12)
    if ufunc is np.bitwise_or:
        rows = rng.integers(0, 1 << 62, size=(2, 1 << d))
    else:
        rows = rng.normal(size=(2, 1 << d)) * np.exp(rng.normal(0, 8, size=(2, 1 << d)))
    assert np.array_equal(_sweep(rows.copy(), d, ufunc), per_bit_sweep(rows.copy(), d, ufunc))
    assert np.array_equal(_sweep(rows[1].copy(), d, ufunc),
                          per_bit_sweep(rows[1].copy(), d, ufunc))


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


@pytest.mark.parametrize("block, low", [(3, 1), (4, 2)])
def test_blocked_classify_flags_a_drop_on_every_bit(monkeypatch, block, low):
    # with small blocks every bit of d = 7 falls in one of the three
    # stages of _pairs; a single drop along bit b must be found on each
    monkeypatch.setattr(setfun, "_BLOCK_BITS", block)
    monkeypatch.setattr(setfun, "_LOW_BITS", low)
    d = 7
    for b in range(d):
        table = np.arange(1 << d, dtype=float)
        base = ((1 << d) - 1) ^ (1 << b)  # every point but b
        table[base] = table[base | 1 << b] + 1e-3
        assert not classify(Capacity(carrier_of(d), table)).monotone, b
    assert classify(Capacity(carrier_of(d), np.arange(1 << d, dtype=float))).monotone


def test_avar_frozen_values():
    theta = avar4()
    assert theta.table[0b0001] == 0.3125
    assert theta.table[0b0011] == 0.625
    assert theta.table[0b0111] == 0.9375
    assert theta.total == 1.0
    nu = mobius_inverse(theta)
    by_size = {}
    for m in range(1, 16):
        by_size.setdefault(m.bit_count(), set()).add(nu.weights[m])
    assert by_size[1] == {0.0625}
    assert by_size[2] == {0.25}
    assert by_size[3] == {-0.25}
    assert by_size[4] == {0.25}
    cls = classify(theta)
    assert cls.monotone and not cls.completely_alternating
    assert cls.min_mobius_weight == -0.25
    assert cls.min_mobius_witness.bit_count() == 3


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


def zero_one_products(root: Path) -> list[str]:
    """Each call product((0, 1), ...) in the modules under root, as path:line."""
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            first = node.args[0]
            if (name == "product" and isinstance(first, ast.Tuple)
                    and [getattr(e, "value", None) for e in first.elts] == [0, 1]):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_one_inclusion_exclusion():
    # successive differences and the max-lattice probe share one sum
    assert len(zero_one_products(Path(setfun.__file__).parent)) == 1


def test_min_weight_ignores_empty_set():
    nu = MobiusMeasure(carrier_of(2), [0.0, 0.5, 0.5, 0.5])
    w, witness = nu.min_weight()
    assert w == 0.5 and witness in (1, 2, 3)


def test_min_weight_returns_first_minimal_mask(monkeypatch):
    weights = np.full(64, 2.0)
    weights[0] = 0.0
    weights[[37, 38, 50, 63]] = -0.5
    for chunk in (1 << 15, 4, 1):  # ties within one chunk and across chunks
        monkeypatch.setattr(setfun, "_CHUNK", chunk)
        nu = MobiusMeasure(carrier_of(6), weights)
        assert not nu.weights.flags.writeable
        assert nu.min_weight() == (-0.5, 37)
    tied = MobiusMeasure(carrier_of(3), [0.0, 1.0, 0.5, 0.5, 1.0, 0.5, 0.5, 0.5])
    assert tied.min_weight() == (0.5, 2)


def test_constructors_copy_caller_arrays_and_store_them_read_only():
    table = np.array([0.0, 1.0, 1.0, 1.5])
    theta = Capacity(Carrier(("a", "b")), table)
    table[3] = 9.0
    assert theta.table.tolist() == [0.0, 1.0, 1.0, 1.5]
    assert not theta.table.flags.writeable
    with pytest.raises(ValueError):
        theta.table[1] = 2.0
    weights = np.array([0.0, 0.5, 0.5, 0.5])
    nu = MobiusMeasure(Carrier(("a", "b")), weights)
    weights[1] = -1.0
    assert nu.weights.tolist() == [0.0, 0.5, 0.5, 0.5]
    assert not nu.weights.flags.writeable
    # tables the library builds are read-only too
    assert not mobius_inverse(theta).weights.flags.writeable
    assert not capacity_from_measure(nu).table.flags.writeable


def test_certified_mobius_holds_one_working_table():
    # the capacity's table plus one working table: no copy of nu and no
    # argmin copy (at d = 20 the sweep's 512 KB block is 1/16 of a table);
    # consuming the capacity's own table needs no working table at all; a
    # distortion capacity, as one held by size would build no table
    from crsm.tdf import DiscreteMeasure
    from crsm.transforms import distortion_capacity
    d = 20
    table_bytes = 8 << d
    mu = DiscreteMeasure(carrier_of(d), np.linspace(0.5, 1.5, d))
    for owned, bound in ((False, 1.1), (True, 0.1)):
        theta = distortion_capacity(mu, "power", 0.5)
        tracemalloc.start()
        try:
            nu = certified_mobius(_Owned(theta) if owned else theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nu.min_weight()[0] >= 0.0
        assert peak <= bound * table_bytes, owned
        del theta, nu


@pytest.mark.parametrize("d", [1, 2, 5, 16, 17, 20])
def test_consuming_mobius_inverse_is_bit_equal_to_the_copying_route(d):
    # d >= 17 runs whole-table passes for the bits from 16 up and several
    # 2**16-mask blocks, all over the reversed view of the consumed table: a
    # reshape that copied would lose the write-back and change the bits
    rng = np.random.default_rng(d)
    cases = [random_ca_capacity(rng, d)]
    if d >= 2:
        # nu(E) = -1/2 with every singleton weight above 1: theta stays
        # positive but is not completely alternating
        weights = rng.exponential(1.0, size=1 << d)
        weights[0] = 0.0
        weights[np.left_shift(1, np.arange(d))] += 1.0
        weights[-1] = -0.5
        cases.append(capacity_from_measure(MobiusMeasure(carrier_of(d), weights)))
    if d <= 5:
        cases.append(random_capacity(rng, d))
    for theta in cases:
        ref = mobius_inverse(theta)
        owned = Capacity(theta.carrier, theta.table)  # a copy this test alone holds
        got = mobius_inverse(_Owned(owned))
        assert np.shares_memory(got.weights, owned.table)  # swept in place
        assert got.weights.tobytes() == ref.weights.tobytes()
        assert got.min_weight() == ref.min_weight()
        assert not got.weights.flags.writeable
        # the certificate takes the same verdict, witness and message
        try:
            certified_mobius(theta)
            want = None
        except ValueError as e:
            want = str(e)
        owned = Capacity(theta.carrier, theta.table)
        if want is None:
            nu = certified_mobius(_Owned(owned))
            assert nu.weights.tobytes() == ref.weights.tobytes()
        else:
            with pytest.raises(ValueError) as err:
                certified_mobius(_Owned(owned))
            assert str(err.value) == want
    if d >= 2:
        assert mobius_inverse(cases[1]).min_weight()[0] < -0.4


def test_public_mobius_routes_never_write_a_callers_capacity():
    rng = np.random.default_rng(4)
    for theta in (random_ca_capacity(rng, 17), avar4()):
        before = theta.table.tobytes()
        mobius_inverse(theta)
        try:
            certified_mobius(theta)
        except ValueError:
            pass
        classify(theta)
        assert theta.table.tobytes() == before
        assert not theta.table.flags.writeable


def test_direct_check_verdict_is_scale_free():
    # successive differences scale exactly by 2**k, and so does the slack
    # tol * theta(E): the verdict matches classify at every scale, both in
    # the exhaustive (d = 3) and the sampled (d = 4) regime
    rng = np.random.default_rng(9)
    cases = [(random_ca_capacity(rng, 3), {"max_order": 2}),
             (random_capacity(rng, 3), {"max_order": 2}),
             (random_ca_capacity(rng, 4), {"trials": 300, "seed": 0}),
             (avar4(), {"trials": 300, "seed": 0})]
    for theta, kw in cases:
        verdicts = set()
        for k in range(-60, 61):
            scaled = Capacity(theta.carrier, theta.table * 2.0 ** k)
            rep = check_complete_alternation_direct(scaled, **kw)
            assert rep.alternating == classify(scaled).completely_alternating, k
            verdicts.add(rep.alternating)
        assert len(verdicts) == 1


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    theta = random_ca_capacity(np.random.default_rng(2), 3)
    msg = "tolerance must be finite and nonnegative"
    for check in (theta.atol, lambda t: classify(theta, t),
                  lambda t: certified_mobius(theta, t),
                  lambda t: check_complete_alternation_direct(theta, tol=t)):
        with pytest.raises(ValueError, match=msg):
            check(tol)
    assert theta.atol(0.0) == 0.0
