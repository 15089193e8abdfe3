"""Self-verification battery: does a model behave like its own law?

This module owns the statistics of a sample batch; simulate samples.
Each check compares an exact quantity (Mobius roundtrip, closed-form
Frechet scale, joint CDF, independence of the argmax, the continuity
modulus, the joint law of disjoint parts) against the simulation at an
explicit threshold.  Exact lattice identities use the relative calculus
tolerance (slack tol * theta(E), see Capacity.atol).  Monte Carlo
comparisons use the two bands named below.  A healthy model fails each
3-sigma frechet-scale row with probability about 2.7e-3, so one of the
five in about 1.3% of runs before correlation, and a 4-sigma probability
or correlation statistic about 6.3e-5 of the time.

Every model but a spectral table is a capacity, checked as the law of
its CRSM with exact lattice rows; a spectral table gets the randomized
max-alternation probe and the coupling row.

The battery is deliberately the same code for the CLI `verify` command
and the test suite: one list of CheckResult rows, pass/fail each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from .carrier import _indicator, _mask_of, _weighted_max
from .setfun import (DEFAULT_TOL, Capacity, MobiusMeasure, _Owned, _release,
                     _roundtrip_error, mobius_inverse)

if TYPE_CHECKING:  # the samplers and the functional layer load where they run
    from .simulate import SampleBatch
    from .tdf import SpectralTDF

    Model = Union[Capacity, SpectralTDF]

_FRECHET_MIN = 30   # least observations of a Frechet scale estimate
_SCALE_BAND = 3.0   # sigmas of a Frechet scale band
_BAND = 4.0         # sigmas of a probability or correlation band


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
    from .simulate import SimConfig, couple, simulate_model
    from .tdf import (PROBE_TOL, SpectralTDF, check_max_complete_alternation,
                      extremal_coefficients, joint_cdf)
    if samples < _FRECHET_MIN:
        raise ValueError(f"verify needs at least {_FRECHET_MIN} samples for its "
                         f"frechet-scale rows, got {samples}")
    checks: list[CheckResult] = []
    carrier = model.carrier

    crsm = not isinstance(model, SpectralTDF)
    if not crsm and seed + 1 >= 1 << 64:
        raise ValueError(f"a spectral model's coupling row draws from seed + 1 < 2**64, "
                         f"got seed {seed}")
    nu = None
    if crsm:
        theta = extremal_coefficients(model)
        atol = theta.atol(tol)
        nu = mobius_inverse(theta)
        err = _roundtrip_error(theta, nu)
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
        arep = check_max_complete_alternation(model, order=3, trials=300, seed=seed)
        checks.append(CheckResult("max-alternation", arep.worst_value, PROBE_TOL,
                                  arep.alternating))
        if not arep.alternating:
            return checks

    # theta(K) = ell(1_K), so a spectral model never builds its lattice table
    cap = lambda mask: model.eval(_indicator(mask, carrier.size))
    total = cap(carrier.full_mask)
    singles = np.array([cap(1 << i) for i in range(carrier.size)])
    relevant_idx = np.flatnonzero(singles > 0)
    if relevant_idx.size == 0:
        checks.append(CheckResult("nontrivial", 0.0, 0.0, False,
                                  "every point has zero capacity"))
        return checks

    config = SimConfig(seed=seed, samples=samples)
    # the sampler takes the clamped nu over as its own Mobius table
    batch = simulate_model(model, config, _Owned(nu) if crsm else None)
    del nu
    n = batch.n

    for name, f in _test_vectors(carrier, relevant_idx, seed):
        est = frechet_scale_estimate(batch.extremal(f))
        target = model.eval(f)
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
        p = joint_cdf(model, pairs)
        hit = np.ones(n, dtype=bool)
        for m, a in pairs:
            hit &= batch.sup(m) <= a
        p_hat = float(hit.mean())
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
        err = abs(p_hat - p)
        checks.append(CheckResult(f"joint-cdf[grid-{i}]", err, _BAND * sigma,
                                  err <= _BAND * sigma,
                                  f"empirical {p_hat:.4f}, exact {p:.4f}"))

    if crsm:
        rep = argmax_independence_test(theta, anchor, batch)
        checks.append(CheckResult("argmax-independence", abs(rep.z), _BAND, rep.passed,
                                  f"hit rate {rep.hit_rate:.3f}"))
        if relevant_idx.size >= 2:
            other = 1 << int(relevant_idx[1])
            eps = total / 4.0
            crep = continuity_bound_check(theta, anchor, other, eps, batch)
            checks.append(CheckResult("continuity-bound", crep.p_hat,
                                      crep.bound + crep.slack, crep.passed))
            drep = independence_on_disjoint(theta, [anchor, other], batch)
            # on independent parts the exact law is the product law
            checks.append(CheckResult(
                "disjoint-parts", drep.law_z, _BAND, drep.consistent,
                "independent" if drep.expect_independent else
                f"dependence expected, z against the product law {drep.max_z:.3g}"))
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


@dataclass(frozen=True)
class FrechetEstimate:
    scale: float
    half_width: float
    n: int


def frechet_scale_estimate(z: np.ndarray) -> FrechetEstimate:
    """MLE of the scale a of a unit-shape Frechet sample.

    1/z_j are iid Exp(a), so a_hat = n / sum(1/z_j); the reported
    half-width is the _SCALE_BAND-sigma band, 3 a_hat / sqrt(n).  Requires at least
    _FRECHET_MIN strictly positive observations.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < _FRECHET_MIN:
        raise ValueError(f"need at least {_FRECHET_MIN} observations, got {z.size}")
    if np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise ValueError("Frechet scale needs strictly positive finite observations")
    n = z.size
    scale = n / float((1.0 / z).sum())
    return FrechetEstimate(scale, _SCALE_BAND * scale / math.sqrt(n), n)


def argmax_set(x: np.ndarray) -> int:
    """Mask of the points where x attains its maximum, ties included; the
    zero vector has no argmax and raises."""
    x = np.asarray(x, dtype=float)
    m = float(x.max())
    if m <= 0.0:
        raise ValueError("argmax of the zero vector is undefined")
    return _mask_of(x == m)


@dataclass(frozen=True)
class ArgmaxIndependenceReport:
    z: float
    passed: bool
    n: int
    hit_rate: float
    negative_control: bool


def argmax_independence_test(theta: Capacity, region: int, batch: SampleBatch,
                             negative_control: bool = False
                             ) -> ArgmaxIndependenceReport:
    """Correlation test of {argmax set meets region} against 1/X(E).

    For an exact CRSM sample the argmax set equals the atom that realizes
    the maximum (first_atoms) and is independent of X(E).  It meets region
    iff X(region) = X(E), which is how the indicator is read, with no mask
    per sample.  The statistic z = corr * sqrt(n) is
    asymptotically standard normal, so |z| <= _BAND passes.  The negative
    control replaces the indicator with {X(region) > median}, which is
    strongly coupled to X(E) and must blow the same threshold up.  A flat
    indicator passes, as independence then holds trivially; fewer than 2
    samples, or a flat statistic in the negative control, raise.
    """
    theta.carrier.validate_mask(region)
    if region == 0:
        raise ValueError("region must be nonempty")
    n = batch.n
    if n < 2:
        raise ValueError(f"the argmax test needs at least 2 samples, got {n}")
    # 1/X(E) and the indicator are written as the rows of one array, and
    # X(E) is copied in before X(region) is formed
    rows = np.empty((2, n))
    t, ind = rows
    t[:] = batch.sup(batch.carrier.full_mask)
    stat = batch.sup(region)
    if negative_control:
        np.greater(stat, np.median(stat), out=ind)
    else:
        np.equal(stat, t, out=ind)
    np.divide(1.0, t, out=t)
    del stat
    flat = ind.std() == 0.0 or t.std() == 0.0
    if flat and negative_control:
        raise ValueError("the negative control's statistic has no spread over "
                         f"these {n} samples, so the control cannot fail")
    hit_rate = float(ind.mean())
    z = 0.0 if flat else float(_corrcoef(rows)[0, 1]) * math.sqrt(n)
    return ArgmaxIndependenceReport(z, abs(z) <= _BAND, n, hit_rate, negative_control)


def _corrcoef(rows: np.ndarray) -> np.ndarray:
    """np.corrcoef(rows), bit-equal, by numpy's own cov and corrcoef steps
    run on rows itself, which it centres in place: no copy of the rows."""
    rows -= rows.mean(axis=1)[:, None]
    c = np.dot(rows, rows.T)
    c *= np.true_divide(1, rows.shape[1] - 1)
    stddev = np.sqrt(np.diag(c))
    c /= stddev[:, None]
    c /= stddev[None, :]
    return np.clip(c, -1, 1, out=c)


@dataclass(frozen=True)
class ContinuityReport:
    p_hat: float
    bound: float
    slack: float
    passed: bool
    n: int


def continuity_bound_check(theta: Capacity, k1: int, k2: int, eps: float,
                           batch: SampleBatch) -> ContinuityReport:
    """Empirical check of P(|X(K1) - X(K2)| > eps) <= modulus / eps.

    The modulus is 2 theta(K1 | K2) - theta(K1) - theta(K2); the empirical
    side gets a _BAND-sigma binomial allowance on top of the bound.
    """
    theta.carrier.validate_mask(k1)
    theta.carrier.validate_mask(k2)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive finite, got {eps}")
    diff = np.abs(batch.sup(k1) - batch.sup(k2))
    p_hat = float((diff > eps).mean())
    n = batch.n
    bound = (2.0 * float(theta.at(k1 | k2)) - float(theta.at(k1))
             - float(theta.at(k2))) / eps
    slack = _BAND * math.sqrt(p_hat * (1.0 - p_hat) / n)
    return ContinuityReport(p_hat, bound, slack, p_hat <= bound + slack, n)


@dataclass(frozen=True)
class DisjointnessCheck:
    part_a: int
    part_b: int
    level_a: float
    level_b: float
    p_product: float
    p_exact: float
    p_hat: float
    sigma: float


@dataclass(frozen=True)
class DisjointnessReport:
    cross_mass: float
    expect_independent: bool
    max_z: float
    law_z: float
    consistent: bool
    checks: tuple[DisjointnessCheck, ...]


def independence_on_disjoint(theta: Capacity, parts: Sequence[int],
                             batch: SampleBatch) -> DisjointnessReport:
    """Factorization test of the CRSM over disjoint parts.

    X is independent over the parts iff no Mobius mass touches two of
    them.  cross_mass = sum_i theta(P_i) - theta(union of the P_i) is that
    mass, each atom counted once per part it meets beyond the first; this
    exact criterion sets expect_independent.  For each pair and q in
    (0.3, 0.5, 0.8) the joint empirical CDF at the exact marginal
    q-quantiles is compared with the exact joint law (joint_cdf), whose
    sigma is that of the joint-cdf rows: consistent iff the largest z,
    law_z, is at most _BAND.  max_z is the largest z against the product
    q**2, the power to see the dependence: about 0 on independent parts,
    and it grows like sqrt(N) where cross_mass > 0.
    """
    if len(parts) < 2:
        raise ValueError("need at least two parts")
    seen = 0
    for p in parts:
        theta.carrier.validate_mask(p)
        if p == 0:
            raise ValueError("parts must be nonempty")
        if p & seen:
            raise ValueError("parts overlap")
        if theta.at(p) <= 0:
            raise ValueError("parts must carry positive capacity")
        seen |= p
    cross_mass = sum(float(theta.at(p)) for p in parts) - float(theta.at(seen))
    expect_independent = cross_mass <= theta.atol(DEFAULT_TOL)

    from .tdf import joint_cdf
    n = batch.n
    sups = {p: batch.sup(p) for p in parts}
    checks = []
    max_z = law_z = 0.0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            a, b = parts[i], parts[j]
            for q in (0.3, 0.5, 0.8):
                s = float(theta.at(a)) / (-math.log(q))
                t = float(theta.at(b)) / (-math.log(q))
                p_prod = q * q
                p = joint_cdf(theta, [(a, s), (b, t)])
                p_hat = float(((sups[a] <= s) & (sups[b] <= t)).mean())
                sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
                checks.append(DisjointnessCheck(a, b, s, t, p_prod, p, p_hat, sigma))
                law_z = max(law_z, abs(p_hat - p) / sigma)
                power = abs(p_hat - p_prod) / math.sqrt(p_prod * (1.0 - p_prod) / n)
                max_z = max(max_z, power)
    return DisjointnessReport(cross_mass, expect_independent, max_z, law_z,
                              law_z <= _BAND, tuple(checks))
