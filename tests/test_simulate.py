"""Stochastic layer: exact sampling, coupling, and the statistical probes.

Monte Carlo assertions run at small N with wide (4 sigma or documented)
bands and fixed seeds, so they are deterministic here while the acceptance
suite re-runs them at full scale.
"""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import carrier_of, indicator_tdf
from crsm.carrier import Carrier
from crsm.setfun import Capacity
from crsm.simulate import (
    Coupling,
    MaxTermsExceeded,
    SimConfig,
    SpectralSampler,
    argmax_independence_test,
    argmax_set,
    continuity_bound_check,
    couple,
    frechet_scale_estimate,
    independence_on_disjoint,
    simulate_crsm,
    simulate_model,
    simulate_spectral,
    substream,
)
from crsm.tdf import (
    ChoquetTDF,
    DiscreteMeasure,
    LebesgueTDF,
    SpectralTDF,
    extremal_coefficients,
    joint_cdf,
)
from crsm.transforms import exchangeable_capacity, torus_storm_capacity


def theta2() -> Capacity:
    return Capacity(Carrier(("a", "b")), [0.0, 1.0, 1.0, 1.5])


def spectral3() -> SpectralTDF:
    atoms = np.array([[1.0, 0.3], [0.4, 1.0], [0.8, 0.8]])
    return SpectralTDF(carrier_of(2), np.array([0.5, 0.3, 0.2]), atoms)


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(seed=-1, samples=10)
    with pytest.raises(ValueError):
        SimConfig(seed=0, samples=0)
    with pytest.raises(ValueError):
        SimConfig(seed=0, samples=10, mode="fuzzy")
    with pytest.raises(ValueError):
        SimConfig(seed=0, samples=10, mode="truncated")  # needs n_terms
    SimConfig(seed=0, samples=10, mode="truncated", n_terms=5)


def test_substreams_are_independent_and_stable():
    a1 = substream(7, 0).random(4)
    a2 = substream(7, 0).random(4)
    b = substream(7, 1).random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_simulation_reproducible():
    cfg = SimConfig(seed=3, samples=200)
    b1 = simulate_crsm(theta2(), cfg)
    b2 = simulate_crsm(theta2(), cfg)
    assert np.array_equal(b1.values, b2.values)
    assert np.array_equal(b1.first_atoms, b2.first_atoms)


def test_sample_order_independent_of_batch_size():
    # per-sample substreams: sample j is the same whether or not the batch
    # also contains earlier samples
    big = simulate_crsm(theta2(), SimConfig(seed=5, samples=50))
    small = simulate_crsm(theta2(), SimConfig(seed=5, samples=10))
    assert np.array_equal(big.values[:10], small.values)


def test_truncated_dominated_by_exact():
    exact = simulate_crsm(theta2(), SimConfig(seed=11, samples=3000))
    trunc = simulate_crsm(theta2(), SimConfig(seed=11, samples=3000,
                                              mode="truncated", n_terms=2))
    assert np.all(trunc.values <= exact.values)
    assert np.any(trunc.values < exact.values)
    more = simulate_crsm(theta2(), SimConfig(seed=11, samples=3000,
                                             mode="truncated", n_terms=8))
    assert np.all(trunc.values <= more.values)
    assert np.all(more.values <= exact.values)


def test_values_positive_and_finite():
    batch = simulate_crsm(theta2(), SimConfig(seed=1, samples=500))
    assert np.all(batch.values > 0)
    assert np.all(np.isfinite(batch.values))


def test_first_atom_is_argmax():
    batch = simulate_crsm(theta2(), SimConfig(seed=2, samples=2000))
    for j in range(batch.n):
        assert batch.first_atoms[j] == argmax_set(batch.values[j])


def test_simulate_rejects_non_ca():
    c = Carrier(("1", "2", "3", "4"))
    from crsm.carrier import mask_size
    avar = Capacity(c, [min(1.0, mask_size(m) * 0.3125) for m in range(16)])
    with pytest.raises(ValueError):
        simulate_crsm(avar, SimConfig(seed=0, samples=10))


def test_simulate_rejects_zero_capacity():
    zero = Capacity(carrier_of(2), np.zeros(4))
    with pytest.raises(ValueError):
        simulate_crsm(zero, SimConfig(seed=0, samples=10))


def test_max_terms_exceeded():
    with pytest.raises(MaxTermsExceeded):
        simulate_crsm(theta2(), SimConfig(seed=0, samples=50, max_terms=2))


def test_scale_matches_closed_form():
    theta = theta2()
    ell = ChoquetTDF(theta)
    batch = simulate_crsm(theta, SimConfig(seed=4, samples=40000))
    for f in ([1.0, 1.0], [2.0, 1.0], [1.0, 0.0]):
        est = frechet_scale_estimate(batch.extremal(np.array(f)))
        assert abs(est.scale - ell.eval(np.array(f))) < est.half_width


def test_empirical_cdf_matches_joint_cdf():
    theta = theta2()
    ell = ChoquetTDF(theta)
    batch = simulate_crsm(theta, SimConfig(seed=6, samples=40000))
    c = theta.carrier
    pairs = [(c.mask_of(["a"]), 2.0), (c.mask_of(["b"]), 3.0)]
    p = joint_cdf(ell, pairs)
    hit = (batch.sup(pairs[0][0]) <= 2.0) & (batch.sup(pairs[1][0]) <= 3.0)
    sigma = math.sqrt(p * (1 - p) / batch.n)
    assert abs(hit.mean() - p) < 4 * sigma


def test_torus_storm_simulation_scale():
    theta = torus_storm_capacity(4, [([0, 1], 1.0)])
    batch = simulate_crsm(theta, SimConfig(seed=8, samples=30000))
    est = frechet_scale_estimate(batch.sup(theta.carrier.full_mask))
    assert abs(est.scale - theta.total) < est.half_width


def test_spectral_sampler_from_tdf_declarations():
    sp = spectral3()
    sampler = SpectralSampler.from_tdf(sp)
    assert sampler.bound == 1.0
    assert sampler.structural_zeros == 0
    # atoms peak at a, b, and both jointly
    assert sampler.argmax_reachable == 0b11
    y = sampler.checked_draw(substream(0, 0))
    assert y.shape == (2,)


def test_checked_draw_validations():
    c = carrier_of(2)
    bad_shape = SpectralSampler(c, lambda g: np.ones(3), bound=2.0)
    with pytest.raises(ValueError):
        bad_shape.checked_draw(substream(0, 0))
    negative = SpectralSampler(c, lambda g: np.array([-0.1, 1.0]), bound=2.0)
    with pytest.raises(ValueError):
        negative.checked_draw(substream(0, 0))
    over = SpectralSampler(c, lambda g: np.array([3.0, 0.0]), bound=2.0)
    with pytest.raises(ValueError):
        over.checked_draw(substream(0, 0))
    dirty_zero = SpectralSampler(c, lambda g: np.array([1.0, 0.5]), bound=2.0,
                                 structural_zeros=0b10)
    with pytest.raises(ValueError):
        dirty_zero.checked_draw(substream(0, 0))


def test_exact_spectral_needs_bound():
    sampler = SpectralSampler(carrier_of(2), lambda g: g.random(2))
    with pytest.raises(ValueError):
        simulate_spectral(sampler, SimConfig(seed=0, samples=5))
    # truncated mode works without a bound
    batch = simulate_spectral(sampler, SimConfig(seed=0, samples=5,
                                                 mode="truncated", n_terms=10))
    assert batch.values.shape == (5, 2)


def test_spectral_scale_matches_tdf():
    sp = spectral3()
    sampler = SpectralSampler.from_tdf(sp)
    batch = simulate_spectral(sampler, SimConfig(seed=9, samples=30000))
    f = np.array([1.0, 2.0])
    est = frechet_scale_estimate(batch.extremal(f))
    assert abs(est.scale - sp.eval(f)) < est.half_width


def test_simulate_model_dispatch():
    # every model but a spectral table is sampled as the CRSM of its capacity
    cfg = SimConfig(seed=1, samples=50)
    leb = LebesgueTDF(DiscreteMeasure(carrier_of(2), [0.4, 0.6]))
    for model, theta in ((theta2(), theta2()), (ChoquetTDF(theta2()), theta2()),
                         (leb, extremal_coefficients(leb))):
        batch = simulate_model(model, cfg)
        assert np.array_equal(batch.values, simulate_crsm(theta, cfg).values)
    batch = simulate_model(spectral3(), cfg)
    assert np.array_equal(batch.values, simulate_spectral(
        SpectralSampler.from_tdf(spectral3()), cfg).values)


def test_couple_on_capacity_builds_no_dense_atom_table():
    # d = 20: a dense indicator table holds 2**20 - 1 atoms x 20 points
    theta = exchangeable_capacity(20, [(0.2, 0.5), (0.5, 0.5)])
    cfg = SimConfig(seed=3, samples=200)
    tracemalloc.start()
    try:
        cpl = couple(theta, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    direct = simulate_crsm(theta, cfg)
    dense = couple(SpectralSampler.from_tdf(indicator_tdf(theta)), cfg)
    for got in (cpl.lower, cpl.exact, cpl.upper, dense.lower, dense.exact,
                dense.upper):
        assert np.array_equal(got.values, direct.values)
        assert np.array_equal(got.terms, direct.terms)


def test_crsm_direct_and_spectral_route_same_law():
    # theta2 sampled natively vs via its indicator spectral representation:
    # the same stream gives the same bits and term counts
    theta = theta2()
    config = SimConfig(seed=10, samples=30000)
    native = simulate_crsm(theta, config)
    routed = simulate_spectral(SpectralSampler.from_tdf(indicator_tdf(theta)), config)
    assert np.array_equal(native.values, routed.values)
    assert np.array_equal(native.terms, routed.terms)


def test_frechet_estimator_validations():
    with pytest.raises(ValueError):
        frechet_scale_estimate(np.ones(10))  # below min_n
    with pytest.raises(ValueError):
        frechet_scale_estimate(np.zeros(100))
    rng = np.random.default_rng(0)
    z = 2.0 / rng.exponential(1.0, size=50000)  # unit Frechet, scale 2
    est = frechet_scale_estimate(z)
    assert abs(est.scale - 2.0) < est.half_width


def test_argmax_set_ties():
    assert argmax_set(np.array([1.0, 2.0, 2.0])) == 0b110
    assert argmax_set(np.array([3.0, 1.0, 1.0])) == 0b001


def test_argmax_independence_pass_and_control():
    theta = theta2()
    region = theta.carrier.mask_of(["a"])
    rep = argmax_independence_test(theta, region, SimConfig(seed=5, samples=30000))
    assert rep.passed and abs(rep.z) <= 4
    assert abs(rep.hit_rate - 2.0 / 3.0) < 0.02
    bad = argmax_independence_test(theta, region, SimConfig(seed=5, samples=30000),
                                   negative_control=True)
    assert not bad.passed and abs(bad.z) > 4


def test_continuity_bound_holds():
    theta = theta2()
    c = theta.carrier
    rep = continuity_bound_check(theta, c.mask_of(["a"]), c.mask_of(["b"]),
                                 0.25, SimConfig(seed=6, samples=20000))
    assert rep.passed
    # bound: (2 theta(K1 u K2) - theta(K1) - theta(K2)) / eps = 1/0.25
    assert rep.bound == pytest.approx(4.0)


def test_disjoint_factorization_detects_both_ways():
    c = carrier_of(2)
    additive = Capacity(c, [0.0, 1.0, 1.0, 2.0])
    parts = [0b01, 0b10]
    cfg = SimConfig(seed=7, samples=30000)
    rep = independence_on_disjoint(additive, parts, cfg)
    assert rep.expect_independent and rep.consistent
    rep2 = independence_on_disjoint(theta2(), parts, cfg)
    assert not rep2.expect_independent and rep2.consistent
    assert rep2.max_z > 4


def test_disjoint_requires_disjoint_parts():
    with pytest.raises(ValueError):
        independence_on_disjoint(theta2(), [0b01, 0b01],
                                 SimConfig(seed=0, samples=100))


def test_coupling_sandwich_exact():
    sampler = SpectralSampler.from_tdf(spectral3())
    cpl = couple(sampler, SimConfig(seed=3, samples=4000))
    assert isinstance(cpl, Coupling)
    assert np.all(cpl.lower.values <= cpl.exact.values)
    assert np.all(cpl.exact.values <= cpl.upper.values)
    # the declared upper bound shares the sup with the exact path bitwise
    assert np.array_equal(cpl.upper.values.max(axis=1),
                          cpl.exact.values.max(axis=1))


def test_coupling_needs_bound_and_reach():
    sampler = SpectralSampler(carrier_of(2), lambda g: g.random(2))
    with pytest.raises(ValueError):
        couple(sampler, SimConfig(seed=0, samples=10))
