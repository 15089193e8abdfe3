"""Self-verification battery: does a model behave like its own law?

Each check compares an exact quantity (Mobius roundtrip, closed-form
Frechet scale, joint CDF, independence of the argmax, the continuity
modulus, factorization over disjoint parts) against the simulation at an
explicit threshold.  Exact lattice identities use the relative calculus
tolerance (slack tol * theta(E), see Capacity.atol);
Monte Carlo comparisons use 3-sigma bands for scale estimates and 4-sigma
bands for probability and correlation statistics, so a healthy model
fails any single check with probability well under 1e-4.

Every model but a spectral table is a CRSM, checked through its capacity
theta = extremal_coefficients(ell) with exact lattice rows; a spectral
table gets the randomized max-alternation probe and the coupling row.

The battery is deliberately the same code for the CLI `verify` command
and the test suite: one list of CheckResult rows, pass/fail each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .carrier import _weighted_max
from .setfun import (DEFAULT_TOL, Capacity, MobiusMeasure, _Owned, _release,
                     capacity_from_measure, mobius_inverse)
from .simulate import (
    _FRECHET_MIN,
    SimConfig,
    argmax_independence_test,
    continuity_bound_check,
    couple,
    frechet_scale_estimate,
    independence_on_disjoint,
    simulate_model,
)
from .tdf import (
    PROBE_TOL,
    SpectralTDF,
    TailDependenceFunctional,
    as_tdf,
    check_max_complete_alternation,
    extremal_coefficients,
    joint_cdf,
)

Model = Union[Capacity, TailDependenceFunctional]


@dataclass(frozen=True)
class CheckResult:
    name: str
    statistic: float
    threshold: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"{mark} {self.name}: statistic {self.statistic:.6g} vs "
                f"threshold {self.threshold:.6g}{extra}")


def _test_vectors(carrier, relevant_idx: np.ndarray, seed: int) -> list[tuple[str, np.ndarray]]:
    """Five deterministic integrands, all positive somewhere relevant."""
    d = carrier.size
    anchor = int(relevant_idx[0])
    out = []
    ones = np.ones(d)
    out.append(("all-ones", ones))
    spike = np.zeros(d)
    spike[anchor] = 1.0
    out.append((f"spike@{carrier.labels[anchor]}", spike))
    rng = np.random.default_rng(seed)
    for k in range(3):
        f = rng.exponential(1.0, size=d) * np.exp(rng.normal(0.0, 1.0))
        f[rng.random(d) < 0.3] = 0.0
        f[anchor] = max(f[anchor], 0.5)
        out.append((f"random-{k}", f))
    return out


def verify_model(model: Model, samples: int = 20000, seed: int = 1,
                 tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Run the battery; returns one CheckResult per check, in run order.
    Refuses fewer samples than its Frechet scale rows need before any
    other work."""
    if samples < _FRECHET_MIN:
        raise ValueError(f"verify needs at least {_FRECHET_MIN} samples for its "
                         f"frechet-scale rows, got {samples}")
    checks: list[CheckResult] = []
    ell = as_tdf(model)
    carrier = ell.carrier

    crsm = not isinstance(model, SpectralTDF)
    if not crsm and seed + 1 >= 1 << 64:
        raise ValueError(f"a spectral model's coupling row draws from seed + 1 < 2**64, "
                         f"got seed {seed}")
    nu = None
    if crsm:
        theta = extremal_coefficients(ell)
        atol = theta.atol(tol)
        nu = mobius_inverse(theta)
        # the round trip, held as theta is, holds its own error (held by
        # atoms, the weights come back as they are: 0)
        back = _release(capacity_from_measure(nu))
        err = float(np.max(np.abs(np.subtract(back, theta._held(), out=back), out=back)))
        del back
        checks.append(CheckResult("mobius-roundtrip", err, atol, err <= atol))
        min_w, witness = nu.min_weight()
        ca = min_w >= -atol
        checks.append(CheckResult(
            "complete-alternation", min_w, -atol, ca,
            f"witness {{{','.join(sorted(carrier.labels_of(witness)))}}}" if not ca else ""))
        if not ca:
            return checks
        # the band accepted at tol, clamped to 0 as the sampler clamps its
        # own, in the array _release hands back
        w = _release(nu)
        nu = nu._new(MobiusMeasure, np.clip(w, 0.0, None, out=w))
    else:
        arep = check_max_complete_alternation(ell, order=3, trials=300, seed=seed)
        checks.append(CheckResult("max-alternation", arep.worst_value, PROBE_TOL,
                                  arep.alternating))
        if not arep.alternating:
            return checks

    # theta(K) = ell(1_K), so a spectral model never builds its lattice table
    cap = lambda mask: ell.eval((mask >> np.arange(carrier.size)) & 1)
    total = cap(carrier.full_mask)
    singles = np.array([cap(1 << i) for i in range(carrier.size)])
    relevant_idx = np.flatnonzero(singles > 0)
    if relevant_idx.size == 0:
        checks.append(CheckResult("nontrivial", 0.0, 0.0, False,
                                  "every point has zero capacity"))
        return checks

    config = SimConfig(seed=seed, samples=samples)
    # the sampler takes the clamped nu over as its own Mobius table
    batch = simulate_model(theta if crsm else model, config, _Owned(nu) if crsm else None)
    del nu
    n = batch.n

    for name, f in _test_vectors(carrier, relevant_idx, seed):
        est = frechet_scale_estimate(batch.extremal(f))
        target = ell.eval(f)
        err = abs(est.scale - target)
        checks.append(CheckResult(f"frechet-scale[{name}]", err, est.half_width,
                                  err <= est.half_width,
                                  f"estimate {est.scale:.6g}, exact {target:.6g}"))

    full = carrier.full_mask
    anchor = 1 << int(relevant_idx[0])
    half = sum(1 << int(i) for i in relevant_idx[: max(1, relevant_idx.size // 2)])
    rest = full & ~half
    grids = [
        [(full, total / -math.log(0.4))],
        [(half, cap(half) / -math.log(0.6))],
        [(half, cap(half) / -math.log(0.5)),
         (rest, total / -math.log(0.7))],
    ]
    for i, pairs in enumerate(grids):
        pairs = [(m, a) for m, a in pairs if m != 0]
        p = joint_cdf(ell, pairs)
        hit = np.ones(n, dtype=bool)
        for m, a in pairs:
            hit &= batch.sup(m) <= a
        p_hat = float(hit.mean())
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
        err = abs(p_hat - p)
        checks.append(CheckResult(f"joint-cdf[grid-{i}]", err, 4 * sigma,
                                  err <= 4 * sigma,
                                  f"empirical {p_hat:.4f}, exact {p:.4f}"))

    if crsm:
        rep = argmax_independence_test(theta, anchor, batch)
        checks.append(CheckResult("argmax-independence", abs(rep.z), 4.0, rep.passed,
                                  f"hit rate {rep.hit_rate:.3f}"))
        if relevant_idx.size >= 2:
            other = 1 << int(relevant_idx[1])
            eps = total / 4.0
            crep = continuity_bound_check(theta, anchor, other, eps, batch)
            checks.append(CheckResult("continuity-bound", crep.p_hat,
                                      crep.bound + crep.slack, crep.passed))
            drep = independence_on_disjoint(theta, [anchor, other], batch)
            checks.append(CheckResult(
                "disjoint-parts", drep.max_z, 4.0, drep.consistent,
                "independent" if drep.expect_independent else "dependence expected"))
    else:
        cpl = couple(model, SimConfig(seed=seed + 1, samples=min(samples, 2000)))
        v = coupling_violations(cpl)
        checks.append(CheckResult("coupling-sandwich", v["worst_gap"], 0.0, v["passed"]))

    return checks


def coupling_violations(cpl) -> dict:
    """Count pathwise sandwich violations in a Coupling (exact comparisons);
    it passes when all three counts are 0."""
    lo = cpl.lower.values
    mid = cpl.exact.values
    hi = cpl.upper.values
    lower_bad = int(np.sum(np.any(lo > mid, axis=1)))
    upper_bad = int(np.sum(np.any(mid > hi, axis=1)))
    ones = np.ones(mid.shape[1])
    sup_bad = int(np.sum(_weighted_max(hi, ones) != _weighted_max(mid, ones)))
    worst = float(max(np.max(lo - mid, initial=0.0), np.max(mid - hi, initial=0.0)))
    return {
        "samples": int(mid.shape[0]),
        "lower_violations": lower_bad,
        "upper_violations": upper_bad,
        "sup_mismatches": sup_bad,
        "worst_gap": worst,
        "passed": lower_bad == 0 and upper_bad == 0 and sup_bad == 0,
    }
