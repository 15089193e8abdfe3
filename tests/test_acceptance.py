"""Acceptance gate: twelve criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every criterion states
its tolerance and runtime budget inline; a criterion that cannot meet its
numbers must fail loudly here rather than be weakened.
"""

import math
import time

import numpy as np
import pytest

from conftest import (carrier_of, random_ca_capacity, random_capacity, random_f,
                      skewed_capacity)
from crsm.carrier import Carrier
from crsm.integrals import choquet_integral
from crsm.setfun import (
    Capacity,
    capacity_from_measure,
    certified_mobius,
    classify,
    mobius_inverse,
    successive_difference,
)
from crsm.simulate import SimConfig, SpectralSampler, couple, simulate_crsm
from crsm.tdf import (
    SpectralTDF,
    crsm_envelope,
    dual_greedy,
    dual_oracle,
    joint_cdf,
)
from crsm.transforms import (
    BernsteinFunction,
    compose_capacity,
    distortion_capacity,
    exchangeable_capacity,
    torus_storm_capacity,
)
from crsm.verify import (
    argmax_independence_test,
    continuity_bound_check,
    coupling_violations,
    frechet_scale_estimate,
    independence_on_disjoint,
)


def report(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    mark = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{mark} {name}: {detail} [{elapsed:.2f}s < {budget:.0f}s]")


def theta2() -> Capacity:
    return Capacity(Carrier(("a", "b")), [0.0, 1.0, 1.0, 1.5])


def test_01_choquet_theorem_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(1000):
        d = 1 + k % 6
        theta = random_capacity(rng, d)
        back = capacity_from_measure(mobius_inverse(theta))
        worst = max(worst, float(np.max(np.abs(back.table - theta.table))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    report("acceptance-01 mobius-roundtrip-1000", ok,
           f"max entrywise error {worst:.3g} (tol 1e-9)", elapsed, 5.0)
    assert ok and elapsed < 5.0


def test_02_avar_counterexample():
    t0 = time.perf_counter()
    theta = distortion_capacity(Carrier(("1", "2", "3", "4")), [0.25] * 4,
                                kind="avar", alpha=0.8)
    # Delta over the fourth singleton with the other three as increments
    val = successive_difference(theta, 0b1000, (0b0001, 0b0010, 0b0100))
    err = abs(val - 0.25)
    nu = mobius_inverse(theta)
    three_sets = [m for m in range(16) if m.bit_count() == 3]
    nu_ok = all(nu.weights[m] == -0.25 for m in three_sets)
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-12 and nu_ok
    report("acceptance-02 avar-counterexample", ok,
           f"difference {val} (err {err:.3g} <= 1e-12), "
           f"nu at all 3-sets {'-0.25' if nu_ok else 'WRONG'}", elapsed, 1.0)
    assert ok and elapsed < 1.0


def test_03_duality_triple_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_pair = 0.0
    worst_sampled = -math.inf
    for k in range(200):
        d = 1 + k % 3
        theta = random_ca_capacity(rng, d)
        f = random_f(rng, d)
        _, greedy = dual_greedy(theta, f)
        integral = choquet_integral(f, theta)
        exact, _ = dual_oracle(theta, f, method="exact")
        worst_pair = max(worst_pair, abs(greedy - integral), abs(exact - integral))
        sampled, _ = dual_oracle(theta, f, method="sampled", trials=10000,
                                 seed=1000 + k)
        worst_sampled = max(worst_sampled, sampled - greedy)
    elapsed = time.perf_counter() - t0
    ok = worst_pair <= 1e-8 and worst_sampled <= 1e-8
    report("acceptance-03 duality-triple-200", ok,
           f"max |greedy-integral-exact| {worst_pair:.3g} (tol 1e-8), "
           f"max sampled excess {worst_sampled:.3g}", elapsed, 30.0)
    assert ok and elapsed < 30.0


def test_04_envelope_domination():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_gap = math.inf
    worst_eq = 0.0
    for k in range(50):
        d = 1 + k % 5
        m = int(rng.integers(2, 7))
        probs = rng.dirichlet(np.ones(m))
        indicator = k % 2 == 1
        if indicator:
            atoms = np.zeros((m, d))
            for j in range(m):
                mask = int(rng.integers(1, 1 << d))
                atoms[j, [i for i in range(d) if mask >> i & 1]] = 1.0
        else:
            atoms = rng.exponential(1.0, size=(m, d))
            atoms[rng.random((m, d)) < 0.25] = 0.0
            atoms[np.all(atoms == 0.0, axis=1), 0] = 1.0
        ell = SpectralTDF(carrier_of(d), probs, atoms)
        env = crsm_envelope(ell)
        fs = np.abs(rng.normal(size=(10000, d))) * rng.exponential(1.0, size=(10000, 1))
        gap = env.eval_batch(fs) - ell.eval_batch(fs)
        worst_gap = min(worst_gap, float(gap.min()))
        if indicator:
            worst_eq = max(worst_eq, float(np.abs(gap).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_gap >= -1e-9 and worst_eq <= 1e-9
    report("acceptance-04 envelope-domination-50x10k", ok,
           f"min envelope gap {worst_gap:.3g} (floor -1e-9), "
           f"max indicator mismatch {worst_eq:.3g}", elapsed, 30.0)
    assert ok and elapsed < 30.0


def _closed_form_models() -> list[tuple[str, Capacity]]:
    c2 = Carrier(("a", "b"))
    return [
        ("theta2", theta2()),
        ("full-dependence", exchangeable_capacity(c2, [(1.0, 1.0)])),
        ("additive", Capacity(c2, [0.0, 0.6, 0.4, 1.0])),
        ("torus-storm-4", torus_storm_capacity(4, [([0, 1], 1.0)])),
    ]


def _fixed_test_functions(d: int) -> list[np.ndarray]:
    return [
        np.ones(d),
        np.eye(d)[0],
        1.0 + np.arange(d) / d,
        (np.arange(d) % 2 + 1).astype(float),
        0.5 + np.arange(d) / (2 * d),
    ]


def test_05_simulation_vs_closed_form():
    t0 = time.perf_counter()
    n = 100_000
    failures = []
    worst_scale_margin = math.inf
    worst_cdf_margin = math.inf
    for name, theta in _closed_form_models():
        d = theta.carrier.size
        batch = simulate_crsm(theta, SimConfig(seed=105, samples=n))
        for j, f in enumerate(_fixed_test_functions(d)):
            est = frechet_scale_estimate(batch.extremal(f))
            err = abs(est.scale - theta.eval(f))
            worst_scale_margin = min(worst_scale_margin, est.half_width - err)
            if err > est.half_width:
                failures.append(f"{name} f{j} err {err:.4g} > {est.half_width:.4g}")
        full = theta.carrier.full_mask
        single = 1
        grids = [
            [(full, theta.total / -math.log(0.4))],
            [(single, theta(single) / -math.log(0.6))],
            [(single, theta(single) / -math.log(0.5)),
             (full & ~single, theta.total / -math.log(0.7))],
        ]
        for g, pairs in enumerate(grids):
            p = joint_cdf(theta, pairs)
            hit = np.ones(n, dtype=bool)
            for mask, a in pairs:
                hit &= batch.sup(mask) <= a
            sigma = math.sqrt(p * (1 - p) / n)
            err = abs(float(hit.mean()) - p)
            worst_cdf_margin = min(worst_cdf_margin, 4 * sigma - err)
            if err > 4 * sigma:
                failures.append(f"{name} grid{g} err {err:.4g} > {4*sigma:.4g}")
    elapsed = time.perf_counter() - t0
    ok = not failures
    report("acceptance-05 simulation-vs-closed-form", ok,
           f"4 models x (5 scales + 3 cdf grids) at N=1e5; "
           f"slack: scale {worst_scale_margin:.4g}, cdf {worst_cdf_margin:.4g}"
           + (f"; failures {failures}" if failures else ""), elapsed, 60.0)
    assert ok and elapsed < 60.0


def test_06_bernstein_preservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    all_ca = True
    for k in range(200):
        d = 1 + k % 5
        theta = random_ca_capacity(rng, d)
        form = k % 3
        if form == 0:
            g = BernsteinFunction(power=float(rng.uniform(0.05, 0.95)))
        elif form == 1:
            g = BernsteinFunction(drift=float(rng.exponential() + 1e-3))
        else:
            g = BernsteinFunction(
                drift=float(rng.exponential() * 0.5),
                atoms=[(float(rng.exponential() + 0.05),
                        float(rng.exponential() + 0.05))
                       for _ in range(int(rng.integers(1, 4)))])
        cls = classify(compose_capacity(g, theta))
        all_ca = all_ca and cls.monotone and cls.completely_alternating
    elapsed = time.perf_counter() - t0
    report("acceptance-06 bernstein-preservation-200", all_ca,
           "every composed capacity classifies completely alternating",
           elapsed, 10.0)
    assert all_ca and elapsed < 10.0


def test_07_pathwise_coupling():
    t0 = time.perf_counter()
    atoms = np.array([
        [1.0, 0.3, 0.1],
        [0.4, 1.0, 0.0],
        [0.8, 0.8, 0.9],
        [0.2, 0.5, 0.6],
    ])
    law = SpectralTDF(carrier_of(3), np.array([0.4, 0.3, 0.2, 0.1]), atoms)
    assert not law.indicator_valued()
    sampler = SpectralSampler.from_tdf(law)
    cpl = couple(sampler, SimConfig(seed=107, samples=10_000))
    v = coupling_violations(cpl)
    elapsed = time.perf_counter() - t0
    ok = (v["lower_violations"] == 0 and v["upper_violations"] == 0
          and v["sup_mismatches"] == 0)
    report("acceptance-07 pathwise-coupling-10k", ok,
           f"violations lower {v['lower_violations']}, upper "
           f"{v['upper_violations']}, sup mismatches {v['sup_mismatches']}",
           elapsed, 20.0)
    assert ok and elapsed < 20.0


def test_08_argmax_independence():
    t0 = time.perf_counter()
    n = 100_000
    models = [("theta2", theta2()), ("torus-storm-4",
                                     torus_storm_capacity(4, [([0, 1], 1.0)]))]
    zs = {}
    ok = True
    for name, theta in models:
        cfg = SimConfig(seed=108, samples=n)
        batch = simulate_crsm(theta, cfg)
        rep = argmax_independence_test(theta, 1, batch)
        ctrl = argmax_independence_test(theta, 1, batch, negative_control=True)
        zs[name] = (rep.z, ctrl.z)
        ok = ok and abs(rep.z) <= 4 and abs(ctrl.z) > 4
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{k}: z {v[0]:.2f}, control {v[1]:.1f}"
                       for k, v in zs.items())
    report("acceptance-08 argmax-independence", ok, detail, elapsed, 30.0)
    assert ok and elapsed < 30.0


def test_09_continuity_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    worst_slack = math.inf
    ok = True
    for k in range(20):
        d = 2 + k % 3
        theta = random_ca_capacity(rng, d)
        size = 1 << d
        k1 = int(rng.integers(1, size))
        k2 = int(rng.integers(1, size))
        eps = float(rng.uniform(0.1, 1.0)) * max(theta.total, 0.1)
        rep = continuity_bound_check(theta, k1, k2, eps, simulate_crsm(
            theta, SimConfig(seed=2000 + k, samples=10_000)))
        worst_slack = min(worst_slack, rep.bound + rep.slack - rep.p_hat)
        ok = ok and rep.passed
    elapsed = time.perf_counter() - t0
    report("acceptance-09 continuity-bound-20x10k", ok,
           f"min slack of p_hat under bound+4sigma: {worst_slack:.4g}",
           elapsed, 60.0)
    assert ok and elapsed < 60.0


def test_10_complete_randomness():
    t0 = time.perf_counter()
    cfg = SimConfig(seed=110, samples=30_000)
    c2 = Carrier(("a", "b"))
    additive2 = Capacity(c2, [0.0, 0.6, 0.4, 1.0])
    additive3 = Capacity(carrier_of(3),
                         [0.0, 0.5, 0.3, 0.8, 0.2, 0.7, 0.5, 1.0])
    rep_a2 = independence_on_disjoint(additive2, [0b01, 0b10],
                                      simulate_crsm(additive2, cfg))
    rep_a3 = independence_on_disjoint(additive3, [0b001, 0b110],
                                      simulate_crsm(additive3, cfg))
    rep_dep = independence_on_disjoint(theta2(), [0b01, 0b10],
                                       simulate_crsm(theta2(), cfg))
    ok = (rep_a2.expect_independent and rep_a2.consistent
          and rep_a3.expect_independent and rep_a3.consistent
          and not rep_dep.expect_independent and rep_dep.consistent)
    elapsed = time.perf_counter() - t0
    report("acceptance-10 complete-randomness", ok,
           f"additive max |z| {max(rep_a2.max_z, rep_a3.max_z):.2f} <= 4, "
           f"theta2 dependence z {rep_dep.max_z:.1f} > 4", elapsed, 20.0)
    assert ok and elapsed < 20.0


def test_11_skewed_exact_sampling():
    # LePage needs E[N] >= theta(E)/theta({rare}) = 1e6 terms per sample on
    # this table; the max-linear draw costs its 20 atoms per sample
    theta = skewed_capacity(np.random.default_rng(111), 8, 1e-6)
    n = 10_000
    t0 = time.perf_counter()
    batch = simulate_crsm(theta, SimConfig(seed=111, samples=n))
    elapsed = time.perf_counter() - t0
    rare = 1 << 7
    checks = [(0.4, batch.values.max(axis=1) <= theta.total / -math.log(0.4)),
              (0.5, batch.sup(rare) <= theta(rare) / -math.log(0.5))]
    margins = [4 * math.sqrt(q * (1 - q) / n) - abs(float(below.mean()) - q)
               for q, below in checks]
    ok = batch.method == "max-linear" and min(margins) >= 0
    report("acceptance-11 skewed-exact-sampling-1e-6", ok,
           f"method {batch.method}, {batch.atoms} atoms, LePage E[N] >= "
           f"{batch.lepage_floor:.3g}; P(X(E) <= a), P(X(rare) <= a) 4-sigma "
           f"slack {min(margins):.4g}", elapsed, 1.0)
    assert ok and elapsed < 1.0


def test_12_lattice_sweeps_at_d22():
    # a power distortion is no function of |K| alone, so classify, the dual
    # and the certificate each sweep its 2**22 table
    d = 22
    theta = distortion_capacity(d, np.linspace(0.5, 1.5, d), kind="power", alpha=0.6)
    f = np.linspace(2.0, 0.0, d)
    t0 = time.perf_counter()
    cls = classify(theta)
    _, greedy = dual_greedy(theta, f)
    min_w, witness = certified_mobius(theta).min_weight()
    elapsed = time.perf_counter() - t0
    integral = choquet_integral(f, theta)
    ok = (cls.monotone and cls.completely_alternating and not cls.maxitive
          and not cls.additive and (min_w, witness) == (cls.min_mobius_weight,
                                                        cls.min_mobius_witness)
          and abs(greedy - integral) <= 1e-12 * integral)
    report("acceptance-12 lattice-sweeps-d22", ok,
           f"classify, dual_greedy and certified_mobius on 2^22 masks; min nu "
           f"{min_w:.3g} at {witness:#x}, |greedy - integral| {abs(greedy - integral):.3g}",
           elapsed, 5.0)
    assert ok and elapsed < 5.0
