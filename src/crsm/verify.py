"""Self-verification battery: does a model behave like its own law?

Each check compares an exact quantity (Mobius roundtrip, closed-form
Frechet scale, joint CDF, independence of the argmax, the continuity
modulus, factorization over disjoint parts) against the simulation at an
explicit threshold.  Exact lattice identities use the relative calculus
tolerance (slack tol * max(1, theta(E)), see Capacity.atol);
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

from .setfun import Capacity, capacity_from_measure, mobius_inverse
from .simulate import (
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
    ChoquetTDF,
    SpectralTDF,
    TailDependenceFunctional,
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


def _as_tdf(model: Model) -> TailDependenceFunctional:
    if isinstance(model, Capacity):
        return ChoquetTDF(model)
    return model


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
                 tol: float = 1e-9) -> list[CheckResult]:
    """Run the battery; returns one CheckResult per check, in run order."""
    checks: list[CheckResult] = []
    ell = _as_tdf(model)
    carrier = ell.carrier
    theta = extremal_coefficients(ell)

    crsm = not isinstance(model, SpectralTDF)
    if crsm:
        atol = theta.atol(tol)
        nu = mobius_inverse(theta)
        back = capacity_from_measure(nu)
        err = float(np.max(np.abs(back.table - theta.table)))
        checks.append(CheckResult("mobius-roundtrip", err, atol, err <= atol))
        min_w, witness = nu.min_weight()
        ca = min_w >= -atol
        checks.append(CheckResult(
            "complete-alternation", min_w, -atol, ca,
            f"witness {{{','.join(sorted(carrier.labels_of(witness)))}}}" if not ca else ""))
        if not ca:
            return checks
    else:
        arep = check_max_complete_alternation(ell, order=3, trials=300, seed=seed)
        checks.append(CheckResult("max-alternation", arep.worst_value, PROBE_TOL,
                                  arep.alternating))
        if not arep.alternating:
            return checks

    singles = theta.singletons()
    relevant_idx = np.flatnonzero(singles > 0)
    if relevant_idx.size == 0:
        checks.append(CheckResult("nontrivial", 0.0, 0.0, False,
                                  "every point has zero capacity"))
        return checks

    config = SimConfig(seed=seed, samples=samples)
    batch = simulate_model(model, config)
    n = batch.n

    for name, f in _test_vectors(carrier, relevant_idx, seed):
        z = batch.extremal(f)
        est = frechet_scale_estimate(z)
        target = ell.eval(f)
        err = abs(est.scale - target)
        checks.append(CheckResult(f"frechet-scale[{name}]", err, est.half_width,
                                  err <= est.half_width,
                                  f"estimate {est.scale:.6g}, exact {target:.6g}"))

    full = carrier.full_mask
    anchor = 1 << int(relevant_idx[0])
    half = 0
    for i in relevant_idx[: max(1, relevant_idx.size // 2)]:
        half |= 1 << int(i)
    rest = full & ~half
    grids = [
        [(full, theta.total / -math.log(0.4))],
        [(half, float(theta.table[half]) / -math.log(0.6))],
        [(half, float(theta.table[half]) / -math.log(0.5)),
         (rest, theta.total / -math.log(0.7))],
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
        rep = argmax_independence_test(theta, anchor, config, batch=batch)
        checks.append(CheckResult("argmax-independence", abs(rep.z), 4.0, rep.passed,
                                  f"hit rate {rep.hit_rate:.3f}"))
        if relevant_idx.size >= 2:
            other = 1 << int(relevant_idx[1])
            eps = theta.total / 4.0
            crep = continuity_bound_check(theta, anchor, other, eps, config, batch=batch)
            checks.append(CheckResult("continuity-bound", crep.p_hat,
                                      crep.bound + crep.slack, crep.passed))
            drep = independence_on_disjoint(theta, [anchor, other], config, batch=batch)
            checks.append(CheckResult(
                "disjoint-parts", drep.max_z, 4.0, drep.consistent,
                "independent" if drep.expect_independent else "dependence expected"))
    else:
        cpl = couple(model, SimConfig(seed=seed + 1, samples=min(samples, 2000)))
        v = coupling_violations(cpl)
        checks.append(CheckResult("coupling-sandwich", v["worst_gap"], 0.0,
                                  v["lower_violations"] == 0 and v["upper_violations"] == 0
                                  and v["sup_mismatches"] == 0))

    return checks


def coupling_violations(cpl) -> dict:
    """Count pathwise sandwich violations in a Coupling (exact comparisons)."""
    lo = cpl.lower.values
    mid = cpl.exact.values
    hi = cpl.upper.values
    lower_bad = int(np.sum(np.any(lo > mid, axis=1)))
    upper_bad = int(np.sum(np.any(mid > hi, axis=1)))
    sup_bad = int(np.sum(hi.max(axis=1) != mid.max(axis=1)))
    worst = float(max(np.max(lo - mid, initial=0.0), np.max(mid - hi, initial=0.0)))
    return {
        "samples": int(mid.shape[0]),
        "lower_violations": lower_bad,
        "upper_violations": upper_bad,
        "sup_mismatches": sup_bad,
        "worst_gap": worst,
    }
