"""Capacity constructors and the Bernstein composition calculus."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import carrier_of, random_ca_capacity
from crsm.carrier import Carrier, CarrierSizeError, popcounts
from crsm.setfun import Capacity, classify, mobius_inverse
from crsm.tdf import DiscreteMeasure
from crsm import setfun, transforms
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


def test_bernstein_table_holds_output_and_one_work_array():
    # d = 20: one table is 8 MB; a temporary per arithmetic step needs three
    g = BernsteinFunction(drift=0.3, atoms=[(0.5, 1.0), (2.0, 0.25), (7.0, 0.1)])
    t = np.random.default_rng(0).uniform(0.0, 5.0, size=1 << 20)
    tracemalloc.start()
    try:
        got = g(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * t.nbytes
    expect = 0.3 * t
    for s, w in g.atoms:
        expect = expect + w * -np.expm1(-s * t)
    assert np.array_equal(got, expect)


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


@pytest.mark.parametrize("d", [3, 17, 20])
def test_compose_writes_into_an_owned_base_and_never_a_callers(d):
    # g runs over blocks of 2**16 masks: into a new table for a caller's
    # capacity, into the base's own table when it is owned, bit-equal to
    # g(base.table) either way
    mu = DiscreteMeasure(carrier_of(d), np.linspace(0.5, 1.5, d))
    for g in (BernsteinFunction(drift=0.3, atoms=[(1.2, 0.8), (0.4, 2.0)]),
              BernsteinFunction(power=0.45)):
        plain = distortion_capacity(mu, "power", 0.5)
        before = plain.table.tobytes()
        want = g(plain.table)
        want[0] = 0.0
        assert compose_capacity(g, plain).table.tobytes() == want.tobytes()
        assert plain.table.tobytes() == before and not plain.table.flags.writeable
        base = distortion_capacity(mu, "power", 0.5)
        tracemalloc.start()
        try:
            out = compose_capacity(g, setfun._Owned(base))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(out.table, base.table)
        assert out.table.tobytes() == want.tobytes()
        assert not out.table.flags.writeable
        if d == 20:
            assert peak <= 0.25 * (8 << d), peak


def test_parsed_compose_base_is_composed_in_place(monkeypatch):
    from crsm import io
    compose = io.compose_capacity
    seen = []
    monkeypatch.setattr(io, "compose_capacity",
                        lambda g, base: seen.append(base) or compose(g, base))
    io.parse_capacity({"kind": "bernstein_compose",
                       "base": {"kind": "table", "carrier": ["a", "b"],
                                "table": {"a": 1.0, "b": 1.0, "a,b": 1.5}},
                       "bernstein": {"power": 0.5}})
    assert len(seen) == 1 and isinstance(seen[0], setfun._Owned)


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
            by_size.setdefault(m.bit_count(), set()).add(round(theta(m), 12))
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


@pytest.mark.parametrize("d, bits", [(1, 16), (2, 16), (2, 1), (16, 16), (17, 16), (17, 12)])
def test_by_size_constructors_match_the_one_shot_gather(monkeypatch, d, bits):
    # the tables are spread from phi chunk by chunk; each entry must take the
    # same operations as the whole-lattice gather by popcounts
    monkeypatch.setattr(setfun, "_BLOCK_BITS", bits)
    rng = np.random.default_rng(d)
    sizes = popcounts(1 << d)
    laws = [[(0.0, 1.0)], [(1.0, 1.0)], [(0.2, 0.5), (0.5, 0.5)],
            list(zip(rng.uniform(0.0, 1.0, 4), rng.dirichlet(np.ones(4))))]
    for zeta in laws:
        scale = rng.uniform(0.5, 2.0)
        vals = np.array([v for v, _ in zeta])
        probs = np.array([q for _, q in zeta])
        survival = (1.0 - vals)[None, :] ** np.arange(d + 1)[:, None]
        expect = (scale * (1.0 - survival @ probs))[sizes]
        expect[0] = 0.0
        got = exchangeable_capacity(d, zeta, scale).table
        assert got.tobytes() == expect.tobytes()
    for p in (np.eye(d + 1)[d], np.eye(d + 1)[1], rng.dirichlet(np.ones(d + 1)),
              [math.comb(d, k) * 0.3**k * 0.7 ** (d - k) for k in range(d + 1)]):
        p = np.asarray(p, dtype=float)
        p /= math.fsum(p)
        scale = rng.uniform(0.5, 2.0)
        miss = np.array([math.fsum([p[0]] + [p[k] * math.comb(d - m, k) / math.comb(d, k)
                                             for k in range(1, d - m + 1)])
                         for m in range(d + 1)])
        expect = scale * (1.0 - miss[sizes])
        expect[0] = 0.0
        got = subset_size_capacity(d, p, scale).table
        assert got.tobytes() == expect.tobytes()


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
        assert theta(m) == m.bit_count()
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


def brute_storm_table(n, shapes, dim, scale):
    """theta(K) = scale * sum_S q_S #{v : (S + v) meets K}, straight from
    the definition, accumulated shape by shape as the constructor does."""
    cells = list(np.ndindex((n,) * dim))
    index = {c: i for i, c in enumerate(cells)}
    table = np.zeros(1 << len(cells))
    for points, q in shapes:
        pts = [(p,) if dim == 1 else tuple(p) for p in points]
        moved = [{index[tuple((a + b) % n for a, b in zip(p, v))] for p in pts}
                 for v in cells]
        count = np.array([sum(any(mask >> i & 1 for i in m) for m in moved)
                          for mask in range(table.size)])
        table += q * count
    table *= scale
    table[0] = 0.0
    return table


def random_storm_law(rng, n, dim):
    k = int(rng.integers(1, 4))
    probs = rng.dirichlet(np.ones(k))
    shapes = []
    for q in probs:
        # coordinates in [-2n, 2n]: negative, >= n and repeated points
        pts = rng.integers(-2 * n, 2 * n + 1, size=(int(rng.integers(1, 5)), dim))
        pts = np.concatenate([pts, pts[:1]]).tolist()
        shapes.append(([p[0] for p in pts] if dim == 1 else pts, float(q)))
    return shapes


@pytest.mark.parametrize("n, dim", [(n, 1) for n in range(1, 7)] + [(n, 2) for n in (1, 2, 3)])
def test_storm_table_matches_the_definition(n, dim):
    rng = np.random.default_rng(100 * dim + n)
    for _ in range(4):
        shapes = random_storm_law(rng, n, dim)
        scale = float(rng.uniform(0.3, 3.0))
        theta = torus_storm_capacity(n, shapes, dim=dim, scale=scale)
        assert theta.table.tobytes() == brute_storm_table(n, shapes, dim, scale).tobytes()
        assert check_stationary(theta)


@pytest.mark.parametrize("dim, point", [(2, 1), (1, None), (2, None), (1, 1.7), (1, True),
                                        (2, [0, "x"]), (2, [0, 0, 0]), (1, [0, 1])])
def test_storm_refuses_malformed_points(dim, point):
    with pytest.raises(ValueError, match=rf"^not a point of \(Z_3\)\^{dim}: "):
        torus_storm_capacity(3, [([0] if dim == 1 else [[0, 0]], 0.5), ([point], 0.5)],
                             dim=dim)


def test_oversized_torus_fails_before_building_labels():
    tracemalloc.start()
    try:
        with pytest.raises(CarrierSizeError, match="torus with 1000000 points"):
            torus_storm_capacity(1000, [([(0, 0)], 1.0)], dim=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
