"""Capacities held by their atoms against brute force and the table route.

A torus storm, a `lebesgue` model and any Capacity(carrier, atoms=...)
keep their Mobius atoms: ascending masks with positive weights.  Point
reads must carry the bits of the table the same capacity spreads, every
classify verdict must be the one the table route gives, and each result
is checked against a brute-force pass over all 2**d masks at d <= 12.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import carrier_of, lebesgue_capacity, random_f
from test_transforms import random_storm_law
from crsm.io import mobius_to_json, parse_model
from crsm.integrals import choquet_integral, extremal_integral, extremal_integral_setform
from crsm.setfun import (Capacity, MobiusMeasure, _additive_table, _Owned, atom_capacity,
                         capacity_from_measure, classify, mobius_inverse)
from crsm.simulate import SimConfig, simulate_crsm
from crsm.tdf import dual_greedy, joint_cdf
from crsm.transforms import (BernsteinFunction, check_stationary, compose_capacity,
                             torus_storm_capacity)

TOL = 1e-9


def chain_atoms(rng, d, extra=None):
    """Atoms nested along a random point order, weights in [0.5, 1.5); with
    extra, one more atom off the chain, of that weight."""
    order = rng.permutation(d)
    masks = np.bitwise_or.accumulate(np.left_shift(1, order))
    weights = rng.uniform(0.5, 1.5, d)
    if extra is not None and d >= 2:
        off = (1 << int(order[-1])) | (1 << int(order[-2]))  # not a prefix
        masks, weights = np.append(masks, off), np.append(weights, extra)
    keep = np.argsort(masks)
    return masks[keep], weights[keep]


def atom_models():
    """(name, builder of a capacity held by atoms) at d <= 12; each call
    builds a fresh capacity, with no table spread."""
    rng = np.random.default_rng(7)
    models = []

    def storm(n, dim=1):
        law, scale = random_storm_law(rng, n, dim), float(rng.uniform(0.3, 3.0))
        return lambda: torus_storm_capacity(n, law, dim=dim, scale=scale)

    models += [(f"storm-Z{n}", storm(n)) for n in (1, 2, 3, 5, 8, 12)]
    models += [(f"storm-Z{n}^2", storm(n, 2)) for n in (2, 3)]
    # shapes whose shifts coincide, so their atoms' weights merge
    models += [
        ("periodic-Z6", lambda: torus_storm_capacity(
            6, [([0, 3], 0.4), ([1, 4], 0.35), ([2], 0.25)], scale=1.3)),
        ("periodic-Z12", lambda: torus_storm_capacity(12, [([0, 4, 8], 0.7), ([0, 6], 0.3)])),
        ("periodic-Z4^2", lambda: torus_storm_capacity(
            4, [([(0, 0), (0, 2)], 0.5), ([(0, 0), (2, 2)], 0.2), ([(1, 1)], 0.3)], dim=2,
            scale=0.7)),
        ("periodic-zero-shape", lambda: torus_storm_capacity(8, [([0, 4], 1.0), ([1], 0.0)])),
    ]
    for d in (1, 4, 9, 12):
        w = rng.exponential(1.0, d)
        w[rng.random(d) < 0.3] = 0.0
        w[0] = 0.7
        models.append((f"lebesgue-{d}", lambda w=w: lebesgue_capacity(w)))
    for d in (1, 3, 7, 10):
        atoms = chain_atoms(rng, d)
        models.append((f"chain-{d}",
                       lambda d=d, atoms=atoms: Capacity(carrier_of(d), atoms=atoms)))
    # a chain and one more atom, below the slack, then above it
    for d in (3, 7, 10):
        for rel in (0.3, 3.0):
            extra = rel * TOL * chain_atoms(np.random.default_rng(d), d)[1].sum()
            atoms = chain_atoms(np.random.default_rng(d), d, extra)
            models.append((f"near-chain-{d}-{rel}",
                           lambda d=d, atoms=atoms: Capacity(carrier_of(d), atoms=atoms)))
    return models


MODELS = atom_models()
IDS = [name for name, _ in MODELS]
STORMS = [m for m in MODELS if m[0].startswith(("storm", "periodic"))]


def brute_theta(theta: Capacity) -> np.ndarray:
    """theta(K) = sum of the atom weights over the atoms meeting K, each
    mask's sum rounded once (fsum)."""
    masks = np.asarray(theta.atom_masks).tolist()
    weights = np.asarray(theta.atom_weights).tolist()
    return np.array([math.fsum(w for f, w in zip(masks, weights) if f & k)
                     for k in range(1 << theta.carrier.size)])


def atom_integral(theta: Capacity, f: np.ndarray) -> float:
    """The Choquet integral as the LePage identity: sum of nu(F) max_F f."""
    d = theta.carrier.size
    return math.fsum(w * max(f[i] for i in range(d) if m >> i & 1)
                     for m, w in zip(theta.atom_masks.tolist(), theta.atom_weights.tolist()))


@pytest.mark.parametrize("name, build", MODELS, ids=IDS)
def test_point_reads_match_brute_force_and_the_spread_table(name, build):
    theta = build()
    size = 1 << theta.carrier.size
    vals = theta.at(np.arange(size))
    assert np.allclose(vals, brute_theta(theta), rtol=0.0, atol=1e-12 * theta.total)
    assert theta._table is None  # the reads built no table
    assert vals.tobytes() == theta.table.tobytes()
    assert all(theta(int(k)) == vals[k] for k in range(0, size, max(1, size >> 6)))
    assert theta.total == vals[-1] and np.array_equal(
        theta.singletons(), vals[np.left_shift(1, np.arange(theta.carrier.size))])


@pytest.mark.parametrize("name, build", MODELS, ids=IDS)
def test_classify_matches_the_table_route_and_brute_force(name, build):
    theta = build()
    cls = classify(theta)
    table = Capacity(theta.carrier, theta.table)
    ref = classify(table)
    assert (cls.monotone, cls.completely_alternating, cls.maxitive, cls.additive) == (
        ref.monotone, ref.completely_alternating, ref.maxitive, ref.additive), name
    # brute force: the swept nu vanishes, up to rounding dust, exactly off
    # the atoms, and the exact least weight is 0 at the first such mask
    swept = mobius_inverse(table).weights
    atol, dust = TOL * theta.total, 1e-12 * theta.total
    zero = np.flatnonzero(np.abs(swept[1:]) <= dust) + 1
    if zero.size:
        assert (cls.min_mobius_weight, cls.min_mobius_witness) == (0.0, int(zero[0]))
    else:
        k = int(np.argmin(theta.atom_weights))
        assert (cls.min_mobius_weight, cls.min_mobius_witness) == (
            float(theta.atom_weights[k]), int(theta.atom_masks[k]))
    assert np.array_equal(np.setdiff1d(np.arange(1, swept.size), zero), theta.atom_masks)
    assert np.allclose(swept[theta.atom_masks], theta.atom_weights, rtol=0.0, atol=dust)
    # brute-force maxitivity: theta(K) against the largest singleton in K
    vals, singles = theta.table, theta.singletons()
    dev = max(abs(vals[k] - max(singles[i] for i in range(theta.carrier.size) if k >> i & 1))
              for k in range(1, vals.size))
    assert cls.maxitive == (dev <= atol)
    wide = theta.atom_weights[np.bitwise_count(theta.atom_masks) > 1]
    assert cls.additive == (wide.size == 0 or wide.max() <= atol)
    if name.startswith("near-chain"):
        assert cls.maxitive == name.endswith("0.3")


@pytest.mark.parametrize("name, build", MODELS, ids=IDS)
def test_integrals_cdf_and_dual_match_the_table_route(name, build):
    theta = build()
    rng = np.random.default_rng(len(name))
    d = theta.carrier.size
    table = Capacity(theta.carrier, theta.table)
    atol = TOL * theta.total
    for _ in range(5):
        f = random_f(rng, d)
        value = choquet_integral(f, theta)
        assert value == choquet_integral(f, table)
        assert math.isclose(value, atom_integral(theta, f), rel_tol=1e-12, abs_tol=1e-300)
        ext = extremal_integral(f, theta)
        assert ext == extremal_integral(f, table)
        assert math.isclose(ext, extremal_integral_setform(f, table), rel_tol=1e-12)
        pairs = [(int(rng.integers(1, 1 << d)), float(rng.uniform(0.5, 2.0))) for _ in range(3)]
        h = np.zeros(d)
        for mask, a in pairs:
            for i in range(d):
                if mask >> i & 1:
                    h[i] = max(h[i], 1.0 / a)
        cdf = joint_cdf(theta, pairs)
        assert cdf == joint_cdf(table, pairs)
        assert math.isclose(cdf, math.exp(-atom_integral(theta, h)), rel_tol=1e-12)
        mu, val = dual_greedy(theta, f)
        mu_t, val_t = dual_greedy(table, f)
        assert val == val_t and mu.weights.tobytes() == mu_t.weights.tobytes()
        # feasible on every mask, and optimal: the value is the integral
        assert np.all(_additive_table(mu.weights) <= theta.table + atol)
        assert math.isclose(val, value, rel_tol=1e-12, abs_tol=1e-300)


@pytest.mark.parametrize("name, build", MODELS, ids=IDS)
def test_mobius_round_trip_keeps_the_atoms(name, build):
    theta = build()
    nu = mobius_inverse(theta)
    assert np.array_equal(nu.atom_masks, theta.atom_masks)
    assert nu.atom_weights.tobytes() == theta.atom_weights.tobytes()
    assert nu.weights[theta.atom_masks].tobytes() == theta.atom_weights.tobytes()
    assert np.count_nonzero(nu.weights) == theta.atom_masks.size
    back = capacity_from_measure(nu)
    assert back.atom_weights.tobytes() == theta.atom_weights.tobytes()
    assert np.allclose(back.table, theta.table, rtol=0.0, atol=1e-12 * theta.total)
    again = mobius_inverse(_Owned(back))
    assert again.atom_weights.tobytes() == nu.atom_weights.tobytes()


@pytest.mark.parametrize("name, build", STORMS, ids=[name for name, _ in STORMS])
def test_stationarity_reads_the_atoms(name, build):
    theta = build()
    assert check_stationary(theta) and theta._table is None
    assert check_stationary(Capacity(theta.carrier, theta.table))
    if theta.atom_masks.size < 2:
        return
    # one atom moved off its orbit's weight breaks it on both routes
    weights = theta.atom_weights.copy()
    weights[0] *= 1.5
    moved = Capacity(theta.carrier, atoms=(theta.atom_masks, weights))
    assert not check_stationary(moved)
    assert not check_stationary(Capacity(theta.carrier, moved.table))


@pytest.mark.parametrize("n", range(4, 13))
def test_unit_storms_keep_the_swept_atoms_and_the_stream(n):
    # q = 1 and scale = 1: the sweep is exact, so the atoms, their weights
    # and the sampler's stream are those of the table route, bit for bit
    rng = np.random.default_rng(n)
    shape = sorted(rng.choice(n, size=int(rng.integers(1, min(4, n) + 1)), replace=False).tolist())
    theta = torus_storm_capacity(n, [(shape, 1.0)])
    table = Capacity(theta.carrier, theta.table)
    swept = mobius_inverse(table).weights
    assert np.array_equal(np.flatnonzero(swept), theta.atom_masks)
    assert swept[theta.atom_masks].tobytes() == theta.atom_weights.tobytes()
    config = SimConfig(seed=n, samples=300)
    a, b = simulate_crsm(theta, config), simulate_crsm(table, config)
    assert a.method == b.method
    assert a.values.tobytes() == b.values.tobytes() and np.array_equal(a.terms, b.terms)


def test_lebesgue_keeps_its_singletons_and_the_additive_bits():
    rng = np.random.default_rng(3)
    for d in (1, 2, 6, 11):
        w = rng.exponential(1.0, d)
        w[rng.random(d) < 0.3] = 0.0
        theta = lebesgue_capacity(w)
        assert np.array_equal(theta.atom_masks, np.left_shift(1, np.flatnonzero(w > 0)))
        assert theta.at(np.arange(1 << d)).tobytes() == _additive_table(w).tobytes()
        assert theta.table.tobytes() == _additive_table(w).tobytes()


def test_lebesgue_on_24_points_runs_max_linear_on_its_atoms():
    d = 24
    theta = lebesgue_capacity(np.linspace(0.5, 1.5, d))
    batch = simulate_crsm(theta, SimConfig(seed=1, samples=50))
    assert batch.method == "max-linear" and np.all(batch.terms == d)
    assert theta._table is None


def test_compose_of_an_atom_capacity_reads_its_table():
    g = BernsteinFunction(drift=0.3, atoms=((1.5, 0.8),))
    theta = torus_storm_capacity(7, [([0, 2], 0.6), ([1, 3, 4], 0.4)], scale=1.4)
    want = compose_capacity(g, Capacity(theta.carrier, theta.table)).table.tobytes()
    assert compose_capacity(g, theta).table.tobytes() == want
    assert compose_capacity(g, _Owned(theta)).table.tobytes() == want


def test_mobius_measure_atoms_read_and_spread():
    c = carrier_of(3)
    nu = MobiusMeasure(c, atoms=([1, 5, 6], [0.5, 0.25, 2.0]))
    assert nu(5) == 0.25 and nu(4) == 0.0 and nu(7) == 0.0
    assert np.array_equal(nu.at(np.array([0, 1, 2, 6])), [0.0, 0.5, 0.0, 2.0])
    assert np.array_equal(nu.weights, [0.0, 0.5, 0.0, 0.0, 0.0, 0.25, 2.0, 0.0])
    assert nu.min_weight() == (0.0, 2)
    full = MobiusMeasure(carrier_of(2), atoms=([1, 2, 3], [0.5, 0.25, 0.25]))
    assert full.min_weight() == (0.25, 2)


@pytest.mark.parametrize("masks, weights, match", [
    ([2, 1], [1.0, 1.0], "ascending"), ([0, 1], [1.0, 1.0], "ascending"),
    ([1, 8], [1.0, 1.0], "ascending"), ([1, 1], [1.0, 1.0], "ascending"),
    ([1, 2], [1.0, 0.0], "positive"), ([1, 2], [1.0, math.inf], "positive"),
    ([1, 2], [1.0], "one atom weight"),
])
def test_atoms_are_checked(masks, weights, match):
    with pytest.raises(ValueError, match=match):
        Capacity(carrier_of(3), atoms=(masks, weights))


def test_atoms_whose_total_overflows_are_refused():
    # every weight is finite, theta(E), their sum, is not
    c = carrier_of(3)
    for lattice in (Capacity, MobiusMeasure):
        with pytest.raises(ValueError, match="sum to inf, beyond the float range"):
            lattice(c, atoms=([1, 2], [1e308, 1e308]))
    with pytest.raises(ValueError, match="sum to inf, beyond the float range"):
        atom_capacity(c, [(1.0, [1, 2, 4])], scale=1e308)
    # the weights 1e298 sum to 3e298, but the unscaled part sum 3e308 does not
    # fit, and theta is read part by part before it is scaled
    with pytest.raises(ValueError, match="overflows to inf, beyond the float range"):
        atom_capacity(c, [(1e308, [1, 2, 4])], scale=1e-10)
    assert atom_capacity(c, [(1e307, [1, 2, 4])], scale=1e-10).total == 1e307 * 3 * 1e-10
    assert Capacity(c, atoms=([1, 2], [1e308, 7e307])).total == 1e308 + 7e307


def test_atom_capacity_sums_part_by_part():
    # theta(K) = scale * (q1 #{copies of part 1 meeting K} + q2 #{...}),
    # with the repeated mask counted twice and the empty part left out
    theta = atom_capacity(carrier_of(3), [(0.3, [1, 1, 6]), (0.0, [2]), (0.7, [2, 4]),
                                          (0.5, [])], scale=2.0)
    assert np.array_equal(theta.atom_masks, [1, 2, 4, 6])
    assert np.array_equal(theta.atom_weights, [(0.3 * 2) * 2.0, 0.7 * 2.0, 0.7 * 2.0,
                                               0.3 * 2.0])
    for k in range(8):
        n1 = 2 * (k & 1 != 0) + (k & 6 != 0)
        n2 = (k & 2 != 0) + (k & 4 != 0)
        assert theta(k) == (0.3 * n1 + 0.7 * n2) * 2.0


def test_classify_and_stationarity_of_a_parsed_storm_allocate_no_table():
    model = {"dim": 1, "kind": "torus_storm", "n": 20, "scale": 1.8894992967956628,
             "shapes": [{"p": 0.6624708216060493, "points": [0, 8, 11]},
                        {"p": 0.3375291783939507, "points": [2, 12, 18]}]}
    text = json.dumps(model)
    tracemalloc.start()
    try:
        theta = parse_model(json.loads(text))
        cls = classify(theta)
        stationary = check_stationary(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cls.completely_alternating and cls.monotone and stationary
    assert (cls.min_mobius_weight, cls.min_mobius_witness) == (0.0, 1)
    assert theta._table is None
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("name, build", MODELS, ids=IDS)
def test_mobius_artifact_of_atoms_matches_the_spread_route(name, build):
    # the atoms give the dict, and the bytes, that the spread weights and
    # the table of every subset key give
    nu = mobius_inverse(build())
    c = nu.carrier
    weights = nu.weights
    masks = np.flatnonzero(weights)
    spread = {"kind": "mobius", "carrier": c.to_json(),
              "weights": dict(zip(c.subset_keys()[masks].tolist(), weights[masks].tolist()))}
    got = mobius_to_json(mobius_inverse(build()))
    assert json.dumps(got, indent=2) == json.dumps(spread, indent=2)


def test_dual_and_mobius_of_a_parsed_storm_allocate_no_table():
    model = {"dim": 1, "kind": "torus_storm", "n": 20, "scale": 1.5,
             "shapes": [{"p": 0.6, "points": [0, 3, 7]}, {"p": 0.4, "points": [1, 2]}]}
    f = np.random.default_rng(3).uniform(0.0, 2.0, 20)
    tracemalloc.start()
    try:
        theta = parse_model(model)
        mu, value = dual_greedy(theta, f)
        nu = mobius_inverse(theta)
        artifact = mobius_to_json(nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert theta._table is None and nu._table is None
    assert peak < 1 << 20, peak
    assert len(artifact["weights"]) == 40
    assert math.isclose(value, choquet_integral(f, theta), rel_tol=1e-12)
