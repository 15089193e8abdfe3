import numpy as np
import pytest

from conftest import carrier_of
from crsm.carrier import Carrier, mask_size
from crsm.setfun import (Capacity, MobiusMeasure, capacity_from_measure, classify,
                         mobius_inverse)
from crsm.simulate import SimConfig, independence_on_disjoint, simulate_crsm
from crsm.tdf import DiscreteMeasure, LebesgueTDF, dual_greedy
from crsm.verify import CheckResult, verify_model


def test_non_ca_model_fails_fast():
    c = Carrier(("1", "2", "3", "4"))
    avar = Capacity(c, [min(1.0, mask_size(m) * 0.3125) for m in range(16)])
    checks = verify_model(avar, samples=100, seed=0)
    names = [ch.name for ch in checks]
    assert names == ["mobius-roundtrip", "complete-alternation"]
    assert checks[0].passed and not checks[1].passed
    assert "witness" in checks[1].detail


def test_lebesgue_model_passes():
    leb = LebesgueTDF(DiscreteMeasure(carrier_of(2), [0.4, 0.6]))
    checks = verify_model(leb, samples=8000, seed=3)
    assert checks and all(ch.passed for ch in checks)


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
    # halves are independent, and the cross mass the sweeps leave behind
    # (about 2e-5 at theta(E) = 5e7) is rounding dust
    rng = np.random.default_rng(0)
    weights = np.zeros(1 << 12)
    for shift in (0, 6):
        masks = rng.choice(np.arange(1, 1 << 6), size=25, replace=False) << shift
        weights[masks] = rng.uniform(0.5e6, 1.5e6, size=25)
    theta = capacity_from_measure(MobiusMeasure(carrier_of(12), weights))
    rep = independence_on_disjoint(theta, [0o77, 0o7700], SimConfig(seed=0, samples=4000))
    assert 1e-9 < rep.cross_mass < theta.atol(1e-9)
    assert rep.expect_independent and rep.consistent
