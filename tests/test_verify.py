import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (carrier_of, lebesgue_capacity, near_ca_table, random_ca_capacity,
                      skewed_capacity)
from crsm import setfun
from crsm.carrier import Carrier
from crsm.io import capacity_to_json, parse_model
from crsm.setfun import (Capacity, MobiusMeasure, capacity_from_measure, classify,
                         mobius_inverse)
from crsm.simulate import SampleBatch, SimConfig, simulate_crsm, simulate_model
from crsm.integrals import comonotone_additivity_check
from crsm.tdf import (DiscreteMeasure, SpectralTDF,
                      check_max_complete_alternation, crsm_envelope, dominates,
                      dual_greedy)
from crsm.transforms import distortion_capacity, exchangeable_capacity, torus_storm_capacity
from crsm.verify import (CheckResult, coupling_violations, independence_on_disjoint,
                         verify_model)


def test_non_ca_model_fails_fast():
    c = Carrier(("1", "2", "3", "4"))
    avar = Capacity(c, [min(1.0, m.bit_count() * 0.3125) for m in range(16)])
    checks = verify_model(avar, samples=100, seed=0)
    names = [ch.name for ch in checks]
    assert names == ["mobius-roundtrip", "complete-alternation"]
    assert checks[0].passed and not checks[1].passed
    assert "witness" in checks[1].detail


CRSM_ROWS = (["mobius-roundtrip", "complete-alternation"]
             + [f"frechet-scale[{n}]" for n in ("all-ones", "spike@x0", "random-0",
                                                "random-1", "random-2")]
             + [f"joint-cdf[grid-{i}]" for i in range(3)]
             + ["argmax-independence", "continuity-bound", "disjoint-parts"])
SPECTRAL_ROWS = (["max-alternation"] + CRSM_ROWS[2:10] + ["coupling-sandwich"])


def test_lebesgue_model_passes():
    # a lebesgue model is the completely random CRSM and gets its rows
    for d in (2, 5):
        weights = np.random.default_rng(d).uniform(0.2, 1.0, size=d)
        leb = lebesgue_capacity(weights)
        checks = verify_model(leb, samples=8000, seed=3)
        assert [ch.name for ch in checks] == CRSM_ROWS
        assert all(ch.passed for ch in checks)


def choquet_document_model(theta: Capacity) -> Capacity:
    """theta written as a table and read back from a `choquet` document
    wrapping that table."""
    return parse_model({"kind": "choquet", "theta": capacity_to_json(theta)})


def test_capacity_and_choquet_wrapper_verify_alike():
    theta = random_ca_capacity(np.random.default_rng(4), 4)
    rows = verify_model(theta, samples=2000, seed=5)
    assert [ch.name for ch in rows] == CRSM_ROWS
    assert verify_model(choquet_document_model(theta), samples=2000, seed=5) == rows


def test_near_ca_violation_fails_for_capacity_and_wrapper():
    theta = near_ca_table()
    for model in (theta, choquet_document_model(theta)):
        checks = verify_model(model, samples=2000, seed=1)
        assert [ch.name for ch in checks] == CRSM_ROWS[:2]
        assert checks[0].passed and not checks[1].passed
        assert checks[1].detail == "witness {x0,x1,x2}"


def test_near_ca_table_verifies_at_a_looser_tolerance():
    # nu({x0, x1, x2}) = -1e-8 against theta(E) = 8.5: inside the band at
    # 1e-6, so every row runs on the clamped measure; outside it at 1e-10
    theta = near_ca_table()
    loose = verify_model(theta, samples=2000, seed=1, tol=1e-6)
    assert [ch.name for ch in loose] == CRSM_ROWS
    assert loose[1].passed and loose[1].statistic == pytest.approx(-1e-8)
    tight = verify_model(theta, samples=2000, seed=1, tol=1e-10)
    assert [ch.name for ch in tight] == CRSM_ROWS[:2] and not tight[1].passed


def test_spectral_verify_builds_no_lattice_table():
    # theta(K) = ell(1_K) at E, the singletons and one half set: the
    # (m, 2**d) subset-max table of extremal_coefficients would take
    # 64 * 2**18 * 8 bytes = 134 MB here
    rng = np.random.default_rng(0)
    d, m = 18, 64
    spec = SpectralTDF(carrier_of(d), np.full(m, 1.0 / m), rng.exponential(size=(m, d)))
    tracemalloc.start()
    try:
        rows = verify_model(spec, samples=2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [ch.name for ch in rows] == SPECTRAL_ROWS
    assert peak < 16e6, peak


def test_max_linear_models_pass():
    # the cost rule samples these max-linearly; the battery must not notice
    theta = skewed_capacity(np.random.default_rng(1), 6, 1e-3)
    spec = SpectralTDF(carrier_of(3), np.array([0.6, 0.38, 0.02]),
                       np.array([[1.0, 0.2, 0.0], [0.1, 1.0, 0.5], [0.0, 0.0, 1.0]]))
    for model, names in ((theta, CRSM_ROWS), (spec, SPECTRAL_ROWS)):
        assert simulate_model(model, SimConfig(seed=0, samples=1)).method == "max-linear"
        checks = verify_model(model, samples=20_000, seed=2)
        assert [ch.name for ch in checks] == names
        assert all(ch.passed for ch in checks), [ch.line() for ch in checks]


def test_zero_capacity_reported_untestable():
    zero = Capacity(carrier_of(2), np.zeros(4))
    checks = verify_model(zero, samples=100, seed=0)
    assert not checks[-1].passed
    assert checks[-1].name == "nontrivial"


def test_line_format():
    line = CheckResult("demo", 0.5, 1.0, True, "extra").line()
    assert line.startswith("PASS demo:") and "(extra)" in line
    assert CheckResult("demo", 2.0, 1.0, False).line().startswith("FAIL demo:")


def large_scale_ca(d: int) -> Capacity:
    """50 nonnegative Mobius weights of about 1e6 at random masks."""
    rng = np.random.default_rng(0)
    weights = np.zeros(1 << d)
    masks = rng.choice(np.arange(1, 1 << d), size=50, replace=False)
    weights[masks] = rng.uniform(0.5e6, 1.5e6, size=50)
    return capacity_from_measure(MobiusMeasure(carrier_of(d), weights))


@pytest.mark.parametrize("d, min_nu", [(12, -4.1e-8), (20, -2.7e-7)])
def test_tolerance_scales_with_theta_total(d, min_nu):
    # rounding in the lattice sweeps leaves negative Mobius dust far beyond
    # an absolute 1e-9, but tiny against theta(E), which the slack scales with
    theta = large_scale_ca(d)
    min_w, _ = mobius_inverse(theta).min_weight()
    assert min_w == pytest.approx(min_nu, rel=0.05)
    assert theta.atol(1e-9) == 1e-9 * theta.total
    cls = classify(theta)
    assert cls.completely_alternating and cls.monotone
    dual_greedy(theta, np.linspace(1.0, 2.0, d))
    assert simulate_crsm(theta, SimConfig(seed=0, samples=20)).n == 20


def test_large_scale_exact_rows_pass():
    theta = large_scale_ca(12)
    checks = verify_model(theta, samples=2000, seed=0)
    assert [ch.name for ch in checks[:2]] == ["mobius-roundtrip", "complete-alternation"]
    assert checks[0].passed and checks[1].passed
    assert checks[1].threshold == -1e-9 * theta.total


def test_disjoint_parts_ignore_rounding_dust():
    # Mobius mass only inside the low and the high six points: the two
    # halves are independent, and whatever rounding the sweeps leave in
    # theta(low) + theta(high) - theta(E) stays inside the slack
    rng = np.random.default_rng(0)
    weights = np.zeros(1 << 12)
    for shift in (0, 6):
        masks = rng.choice(np.arange(1, 1 << 6), size=25, replace=False) << shift
        weights[masks] = rng.uniform(0.5e6, 1.5e6, size=25)
    theta = capacity_from_measure(MobiusMeasure(carrier_of(12), weights))
    rep = independence_on_disjoint(theta, [0o77, 0o7700],
                                   simulate_crsm(theta, SimConfig(seed=0, samples=4000)))
    assert rep.cross_mass <= theta.atol(1e-9)
    assert rep.expect_independent and rep.consistent


def test_disjoint_parts_are_judged_by_their_exact_joint_law():
    # Two points of a Z_24 storm share little Mobius mass, so at N = 2000
    # the z against the product law stays near 3.5 and a demand for z > 4
    # failed most seeds; p_hat against the exact joint law passes them all
    storm = torus_storm_capacity(24, [([0, 3, 7], 0.6), ([1, 2], 0.4)], 1, 1.5)
    powers = []
    for seed in range(1, 9):
        rep = independence_on_disjoint(
            storm, [0b01, 0b10], simulate_crsm(storm, SimConfig(seed=seed, samples=2000)))
        assert not rep.expect_independent and rep.consistent, (seed, rep.law_z)
        powers.append(rep.max_z)
    assert min(powers) < 4
    # a planted dependence bug, one part's column shuffled against the
    # other's, breaks the exact law
    theta = Capacity(Carrier(("a", "b")), [0.0, 1.0, 1.0, 1.5])
    batch = simulate_crsm(theta, SimConfig(seed=1, samples=30000))
    values = batch.values.copy()
    np.random.default_rng(1).shuffle(values[:, 1])
    rep = independence_on_disjoint(theta, [0b01, 0b10],
                                   SampleBatch(batch.carrier, values, 1, "exact"))
    assert not rep.consistent and rep.law_z > 10


def avar4() -> Capacity:
    """The README's AVaR counterexample: Mobius weight -1/4 on every 3-set."""
    return distortion_capacity(DiscreteMeasure(carrier_of(4), [0.25] * 4),
                               kind="avar", alpha=0.8)


def verdicts(theta: Capacity) -> tuple:
    """Every scale-free verdict on theta, plus the numbers that scale."""
    cls = classify(theta)
    nu = mobius_inverse(theta)
    outcomes = []
    for run in (lambda: dual_greedy(theta, np.arange(1.0, theta.carrier.size + 1)),
                lambda: simulate_crsm(theta, SimConfig(seed=0, samples=5))):
        try:
            run()
            outcomes.append("accepted")
        except ValueError as e:
            outcomes.append(str(e).split(" (")[0])
    rows = verify_model(theta, samples=40, seed=0)
    flags = (cls.monotone, cls.completely_alternating, cls.maxitive, cls.additive,
             cls.min_mobius_witness, tuple(outcomes),
             tuple((r.name, r.passed) for r in rows))
    scaled = (nu.weights, cls.min_mobius_weight, rows[0].statistic, rows[0].threshold,
              rows[1].statistic, rows[1].threshold)
    return flags, scaled


@pytest.mark.parametrize("make", [avar4, near_ca_table,
                                  lambda: random_ca_capacity(np.random.default_rng(7), 4)],
                         ids=["avar", "near-ca", "random-ca"])
def test_verdicts_do_not_depend_on_scale(make):
    # scaling by 2**k is exact in binary floating point, so every verdict
    # must repeat and every Mobius number must scale by exactly 2**k
    theta = make()
    flags, scaled = verdicts(theta)
    for k in range(-60, 61):
        c = 2.0 ** k
        flags_k, scaled_k = verdicts(Capacity(theta.carrier, theta.table * c))
        assert flags_k == flags, k
        assert np.array_equal(scaled_k[0], scaled[0] * c), k
        assert list(scaled_k[1:]) == [v * c for v in scaled[1:]], k


def scaled_functionals(c: float) -> tuple:
    """A 5-point spectral TDF, a capacity (its own Choquet TDF) and its 1%
    larger copy, and the non-Choquet (sum of square roots)**2, all scaled
    by c."""
    rng = np.random.default_rng(5)
    spec = SpectralTDF(carrier_of(5), rng.dirichlet(np.ones(4)),
                       c * rng.exponential(1.0, size=(4, 5)))
    choquet = Capacity(carrier_of(4), c * random_ca_capacity(rng, 4).table)
    larger = Capacity(choquet.carrier, 1.01 * choquet.table)
    control = lambda u: c * float(np.sum(np.sqrt(u))) ** 2
    return spec, choquet, larger, control


def probe_verdicts(c: float) -> tuple:
    """Verdict and worst value of every functional probe at scale c."""
    spec, choquet, larger, control = scaled_functionals(c)
    alternation = [check_max_complete_alternation(ell, trials=30, seed=1, carrier=5)
                   for ell in (spec, control)]
    additivity = [comonotone_additivity_check(ell, trials=30, seed=2, carrier=4)
                  for ell in (choquet, control)]
    domination = [dominates(*pair, trials=30, seed=3)
                  for pair in ((crsm_envelope(spec), spec), (choquet, larger))]
    return ([(r.alternating, r.worst_value) for r in alternation],
            [(r.additive, r.max_deviation) for r in additivity],
            [(r.dominates, r.min_margin) for r in domination])


def test_functional_probes_do_not_depend_on_scale():
    # each probe divides a trial's value by the sum of the absolute terms
    # it added, which scaling by 2**k multiplies exactly; at 2**30 the
    # spectral TDF failed an absolute slack, so verify stopped on it
    base = probe_verdicts(1.0)
    assert [[v for v, _ in probe] for probe in base] == [[True, False]] * 3
    row = verify_model(scaled_functionals(1.0)[0], samples=40, seed=0)[0]
    assert row.name == "max-alternation" and row.passed
    for k in range(-60, 61):
        assert probe_verdicts(2.0 ** k) == base, k
        if k % 5 == 0:
            row_k = verify_model(scaled_functionals(2.0 ** k)[0], samples=40, seed=0)[0]
            assert row_k == row, k


def test_tiny_avar_is_refused():
    # with a slack floored at tol, 2**-30 * AVaR looked completely alternating
    for k in (-30, -40):
        theta = Capacity(carrier_of(4), avar4().table * 2.0 ** k)
        assert not classify(theta).completely_alternating
        with pytest.raises(ValueError, match="not completely alternating"):
            dual_greedy(theta, np.ones(4))
        with pytest.raises(ValueError, match="not completely alternating"):
            simulate_crsm(theta, SimConfig(seed=0, samples=5))


def test_verify_inverts_mobius_once_on_a_crsm(monkeypatch):
    # the exact rows' Mobius measure also gives the sampler its atoms; the
    # disjoint parts row reads theta directly
    calls = []
    real = setfun.mobius_inverse

    def counted(theta):
        calls.append(theta.carrier.size)
        return real(theta)

    for name, module in list(sys.modules.items()):
        if name.startswith("crsm") and getattr(module, "mobius_inverse", None) is real:
            monkeypatch.setattr(module, "mobius_inverse", counted)
    leb = lebesgue_capacity([0.2, 0.3, 0.5])
    for model in (random_ca_capacity(np.random.default_rng(2), 3), leb):
        calls.clear()
        rows = verify_model(model, samples=500, seed=1)
        assert [r.name for r in rows] == CRSM_ROWS
        assert calls == [3]


def test_verify_builds_no_lebesgue_table(monkeypatch):
    # a lebesgue model's capacity and its Mobius measure are held by their d
    # singletons from the constructor through the sampler
    from crsm import tdf, verify
    held = []
    for module, name in ((tdf, "extremal_coefficients"), (verify, "mobius_inverse")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda x, real=real: held.append(real(x)) or held[-1])
    leb = lebesgue_capacity(np.linspace(0.5, 1.5, 6))
    rows = verify_model(leb, samples=2000, seed=3)
    assert [ch.name for ch in rows] == CRSM_ROWS
    assert len(held) == 2 and all(lattice._table is None for lattice in held)


def test_verify_drops_the_roundtrip_table_before_sampling():
    # theta, its Mobius table and the sampler's working set: neither the
    # round-trip capacity nor a second lebesgue table stays alive to sample
    d = 16
    models = {"exchangeable": (exchangeable_capacity(carrier_of(d), [(0.3, 0.5), (0.8, 0.5)]),
                               5.7),
              "lebesgue": (lebesgue_capacity(np.linspace(0.5, 1.5, d)), 6.0)}
    for name, (model, bound) in models.items():
        tracemalloc.start()
        try:
            rows = verify_model(model, samples=2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1] / (8 << d)
        finally:
            tracemalloc.stop()
        assert [ch.name for ch in rows] == CRSM_ROWS, name
        assert peak < bound, (name, peak)


def test_verify_hands_its_clamped_measure_to_the_sampler(monkeypatch):
    # the round-trip error is formed in the round-trip table, nu is clamped
    # in place and the sampler takes it over as its own Mobius table.  On a
    # d = 16 power distortion (a table of 65535 atoms, sampled by LePage) the
    # peak was 5.40 tables with a clamped copy of nu and the sampler's own
    # weight array, and 4.40 with a bit-tracking CRSM kernel whose steps
    # held two (k, d) int64 arrays of newly hit points; it is 3.38 now, with
    # the same rows as a sampler that builds nu itself.
    def power(d):
        return distortion_capacity(DiscreteMeasure(carrier_of(d), np.linspace(0.5, 1.5, d)),
                                   "power", 0.5)
    verify_model(power(4), samples=200, seed=1)  # lazy imports stay untraced
    d = 16
    theta = power(d)
    tracemalloc.start()
    try:
        rows = verify_model(theta, samples=2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1] / (8 << d)
    finally:
        tracemalloc.stop()
    assert [ch.name for ch in rows] == CRSM_ROWS
    assert peak <= 3.5, peak
    monkeypatch.setattr("crsm.simulate.simulate_model",
                        lambda model, config, mobius=None: simulate_model(model, config))
    assert verify_model(theta, samples=2000, seed=1) == rows


def test_coupling_passes_only_without_violations():
    mid = np.array([[1.0, 2.0], [3.0, 1.0]])
    cases = {"clean": (mid - 0.5, mid, mid, True),
             "lower": (mid + np.array([[0.0, 0.1], [0.0, 0.0]]), mid, mid, False),
             "upper": (mid, mid, mid - np.array([[0.0, 0.0], [0.1, 0.0]]), False),
             "sup": (mid, mid, mid + np.array([[0.0, 0.0], [1.0, 0.0]]), False)}
    for name, (lo, ex, hi, ok) in cases.items():
        cpl = SimpleNamespace(**{k: SimpleNamespace(values=v)
                                 for k, v in (("lower", lo), ("exact", ex), ("upper", hi))})
        v = coupling_violations(cpl)
        assert v["passed"] is ok, name
        assert ok == (v["lower_violations"] == v["upper_violations"]
                      == v["sup_mismatches"] == 0), name


def test_roundtrip_row_reads_the_recipe_of_an_atom_capacity():
    # held by atoms, the row compares theta's own recipe with the capacity
    # of its Mobius atoms on singletons and one chain, so a recipe whose
    # two shapes' q are swapped fails it
    def storm():
        return torus_storm_capacity(10, [([0, 3, 7], 0.6), ([1, 2], 0.4)], scale=1.5)

    row = verify_model(storm(), samples=200, seed=1)[0]
    assert row.name == "mobius-roundtrip" and row.passed
    tampered = storm()
    copies, starts, q, scale = tampered._parts
    tampered._parts = (copies, starts, q[::-1].copy(), scale)
    row = verify_model(tampered, samples=200, seed=1)[0]
    assert row.name == "mobius-roundtrip" and not row.passed
    assert row.statistic > 0.1


def test_corrcoef_steps_match_numpy_bit_for_bit():
    # argmax_independence_test runs numpy's cov and corrcoef steps on the
    # rows it owns, in place, instead of letting np.corrcoef copy them
    from crsm.verify import _corrcoef
    rng = np.random.default_rng(2024)
    for case in range(300):
        n = int(rng.integers(2, 3000))
        rows = np.empty((2, n))
        rows[0] = 1.0 / rng.exponential(rng.uniform(0.1, 10.0), n)
        if case % 2:
            rows[1] = rng.random(n) < rng.uniform(0.01, 0.99)  # an indicator
            rows[1, :2] = 0.0, 1.0  # never flat
        else:
            rows[1] = rng.uniform(-2, 2) * rows[0] + rng.normal(0, rng.uniform(0.1, 5), n)
        want = np.corrcoef(rows)
        assert _corrcoef(rows).tobytes() == want.tobytes(), case
