"""Tail dependence functionals: representations, envelope, duality, CDFs."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import carrier_of, lebesgue_capacity, random_ca_capacity, random_capacity, random_f
import crsm
from crsm.carrier import Carrier, iter_bits
from crsm.integrals import choquet_integral, comonotone_additivity_check, extremal_integral
from crsm.io import parse_model
from crsm.setfun import Capacity, _additive_table, classify, mobius_inverse
from crsm.tdf import (
    ChoquetTDF,
    SpectralTDF,
    check_max_complete_alternation,
    crsm_envelope,
    dominates,
    dual_greedy,
    dual_oracle,
    extremal_coefficients,
    joint_cdf,
)


def theta2() -> Capacity:
    return Capacity(Carrier(("a", "b")), [0.0, 1.0, 1.0, 1.5])


def avar4() -> Capacity:
    c = Carrier(("1", "2", "3", "4"))
    return Capacity(c, [min(1.0, m.bit_count() * 0.3125) for m in range(16)])


def random_spectral(rng, d, m=None, indicators=False) -> SpectralTDF:
    m = m or int(rng.integers(2, 6))
    probs = rng.dirichlet(np.ones(m))
    if indicators:
        atoms = np.zeros((m, d))
        for j in range(m):
            mask = int(rng.integers(1, 1 << d))
            for i in range(d):
                if mask >> i & 1:
                    atoms[j, i] = 1.0
    else:
        atoms = rng.exponential(1.0, size=(m, d))
        atoms[rng.random((m, d)) < 0.2] = 0.0
        atoms[np.all(atoms == 0.0, axis=1), 0] = 1.0
    return SpectralTDF(carrier_of(d), probs, atoms)


def spectral_eval_brute(sp: SpectralTDF, f: np.ndarray) -> float:
    return float(sum(p * float(np.max(atom * f))
                     for p, atom in zip(sp.probs, sp.atoms)))


def test_choquet_tdf_matches_integral():
    ell = theta2()
    f = np.array([2.0, 1.0])
    assert ell.eval(f) == choquet_integral(f, theta2()) == 2.5
    batch = np.array([[2.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
    assert ell.eval_batch(batch).tolist() == [2.5, 1.0, 1.5]


def test_eval_batch_agrees_with_eval():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        models = [
            random_ca_capacity(rng, d),
            random_spectral(rng, d),
            lebesgue_capacity(rng.exponential(size=d)),
        ]
        fs = np.array([random_f(rng, d) for _ in range(30)])
        for ell in models:
            batch = ell.eval_batch(fs)
            single = np.array([ell.eval(f) for f in fs])
            assert np.allclose(batch, single, atol=1e-12)
            if isinstance(ell, Capacity):  # one chain sum for both
                assert batch.tobytes() == single.tobytes()


def test_spectral_eval_against_bruteforce():
    rng = np.random.default_rng(1)
    sp = random_spectral(rng, 4)
    for _ in range(50):
        f = random_f(rng, 4)
        assert sp.eval(f) == pytest.approx(spectral_eval_brute(sp, f), abs=1e-12)


def test_spectral_validation():
    c = carrier_of(2)
    with pytest.raises(ValueError):
        SpectralTDF(c, [0.5, 0.6], np.ones((2, 2)))  # probs sum > 1
    with pytest.raises(ValueError):
        SpectralTDF(c, [1.0], np.array([[1.0, -0.1]]))
    with pytest.raises(ValueError):
        SpectralTDF(c, [1.0], np.ones((1, 3)))  # shape mismatch


def test_extremal_coefficients_choquet_is_identity():
    # a capacity is its own Choquet TDF, and the kept name ChoquetTDF says so
    theta = theta2()
    assert extremal_coefficients(theta) is theta
    assert ChoquetTDF(theta) is theta


def test_extremal_coefficients_spectral_bruteforce():
    rng = np.random.default_rng(2)
    sp = random_spectral(rng, 4)
    theta = extremal_coefficients(sp)
    for mask in range(1, 16):
        idx = [i for i in range(4) if mask >> i & 1]
        expect = float(np.dot(sp.probs, sp.atoms[:, idx].max(axis=1)))
        assert theta(mask) == pytest.approx(expect, abs=1e-12)
    assert classify(theta).completely_alternating


def test_extremal_coefficients_lebesgue_additive():
    theta = extremal_coefficients(lebesgue_capacity([0.2, 0.3, 0.5]))
    assert classify(theta).additive
    assert theta.total == pytest.approx(1.0)


def random_masses(rng, d: int) -> np.ndarray:
    """Point masses with about a third of the points massless."""
    mu = rng.exponential(1.0, d)
    mu[rng.random(d) < 0.3] = 0.0
    return mu


def test_lebesgue_model_is_the_choquet_integral_of_its_masses():
    # complete randomness: ell(f) = sum_x f(x) mu(x) is the Choquet integral
    # against the additive capacity theta = mu
    rng = np.random.default_rng(31)
    for d in range(1, 13):
        for _ in range(10):
            mu = random_masses(rng, d)
            ell = lebesgue_capacity(mu)
            for _ in range(10):
                f = random_f(rng, d)
                want = math.fsum(f * mu)
                assert abs(ell.eval(f) - want) <= 1e-15 * want, (d, mu, f)


def test_lebesgue_model_classifies_as_its_additive_table():
    # the atoms give an exact 0 where the table gives rounding dust, so
    # the verdicts agree and the witnesses need not
    rng = np.random.default_rng(32)
    fields = ("monotone", "completely_alternating", "maxitive", "additive")
    for d in range(1, 13):
        for _ in range(8):
            mu = random_masses(rng, d)
            got = classify(lebesgue_capacity(mu))
            want = classify(Capacity(carrier_of(d), _additive_table(mu)))
            assert [getattr(got, k) for k in fields] == [getattr(want, k) for k in fields]
            assert got.additive and got.completely_alternating and got.monotone
            assert got.maxitive == (np.count_nonzero(mu) <= 1)
    # one point with mass: additive and maxitive at once
    single = classify(lebesgue_capacity([0.0, 0.0, 2.5, 0.0]))
    assert single.maxitive and single.additive


def functional_classes(src: Path) -> list[str]:
    """The classes of a package that define eval: its functionals."""
    return sorted(f"{path.stem}.{node.name}" for path in sorted(src.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.ClassDef)
                  and any(isinstance(item, ast.FunctionDef) and item.name == "eval"
                          for item in node.body))


def test_one_functional_class_per_representation():
    # a capacity is its own Choquet TDF and a lebesgue model the capacity of
    # its singleton atoms, so Capacity and SpectralTDF are the only
    # functional classes, and no wrapper class or name is left beside them
    src = Path(crsm.__file__).parent
    assert functional_classes(src) == ["setfun.Capacity", "tdf.SpectralTDF"]
    root = src.parents[1]
    files = [path for top in ("src", "scripts") for path in sorted((root / top).rglob("*.py"))]
    for name in ("TailDependenceFunctional", "as_tdf", "LebesgueTDF", "DiscreteMeasure"):
        named = [str(path.relative_to(root)) for path in files if name in path.read_text()]
        assert named == [], name
    named = [str(path.relative_to(root)) for path in files if "ChoquetTDF" in path.read_text()]
    assert named == ["src/crsm/tdf.py"]


def test_a_choquet_document_is_its_functional():
    # parse_model's capacity goes to the functional layer as it is
    theta = parse_model({"kind": "choquet", "theta": {
        "kind": "table", "carrier": ["a", "b"], "table": {"a": 1, "b": 1, "a,b": 1.5}}})
    assert joint_cdf(theta, [(0b11, 3.0)]) == math.exp(-0.5)
    assert dominates(theta, theta2(), trials=50, seed=1).dominates
    assert check_max_complete_alternation(theta, trials=50, seed=2).alternating
    assert comonotone_additivity_check(theta, trials=50, seed=3).additive


def test_envelope_dominates_spectral():
    rng = np.random.default_rng(3)
    for d in (2, 4):
        sp = random_spectral(rng, d)
        env = crsm_envelope(sp)
        fs = np.array([random_f(rng, d) for _ in range(500)])
        gap = env.eval_batch(fs) - sp.eval_batch(fs)
        assert gap.min() >= -1e-9
        rep = dominates(env, sp, trials=500, seed=4)
        assert rep.dominates


def test_envelope_equality_on_indicator_atoms():
    rng = np.random.default_rng(5)
    sp = random_spectral(rng, 4, indicators=True)
    assert sp.indicator_valued()
    env = crsm_envelope(sp)
    fs = np.array([random_f(rng, 4) for _ in range(500)])
    assert np.allclose(env.eval_batch(fs), sp.eval_batch(fs), atol=1e-10)


def test_envelope_of_choquet_is_itself():
    theta = theta2()
    assert crsm_envelope(theta) is theta


def test_max_alternation_accepts_all_representations():
    rng = np.random.default_rng(6)
    models = [
        random_ca_capacity(rng, 3),
        random_spectral(rng, 3),
        lebesgue_capacity([0.1, 0.5, 0.4]),
    ]
    for ell in models:
        rep = check_max_complete_alternation(ell, order=4, trials=400, seed=7)
        assert rep.alternating, rep


def test_max_alternation_rejects_documented_control():
    # ell(u) = (sum sqrt(u))^2 is homogeneous and monotone but subadditivity
    # fails in the max-lattice sense: order 2 already finds a violation
    control = lambda u: float(np.sum(np.sqrt(u))) ** 2
    rep = check_max_complete_alternation(control, order=2, trials=2000, seed=8,
                                         carrier=2)
    assert not rep.alternating
    assert rep.worst_value > 0.1


def test_dual_greedy_frozen_example():
    f = np.array([2.0, 1.0])
    mu, value = dual_greedy(theta2(), f)
    assert value == 2.5
    assert mu.tolist() == [1.0, 0.5]


def test_dual_greedy_feasible_and_tight():
    rng = np.random.default_rng(9)
    for d in (2, 3, 4):
        theta = random_ca_capacity(rng, d)
        for _ in range(20):
            f = random_f(rng, d)
            mu, value = dual_greedy(theta, f)
            assert value == pytest.approx(choquet_integral(f, theta), abs=1e-10)
            for mask in range(1, 1 << d):
                assert sum(mu[i] for i in iter_bits(mask)) <= theta(mask) + 1e-9
            assert float(mu @ f) == pytest.approx(value, abs=1e-10)


def test_dual_greedy_rejects_non_ca():
    with pytest.raises(ValueError):
        dual_greedy(avar4(), np.ones(4))


def test_dual_triple_agreement_small():
    rng = np.random.default_rng(10)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        theta = random_ca_capacity(rng, d)
        f = random_f(rng, d)
        _, greedy = dual_greedy(theta, f)
        exact, mu = dual_oracle(theta, f, method="exact")
        assert exact == pytest.approx(greedy, abs=1e-8)
        sampled, _ = dual_oracle(theta, f, method="sampled", trials=2000,
                                 seed=int(rng.integers(0, 2**31)))
        assert sampled <= greedy + 1e-8


@pytest.mark.parametrize("k", [40, 60])
def test_dual_oracle_agrees_with_greedy_at_large_scale(k):
    # the optimal vertex is solved with rounding of order 2**k * 1e-16, so a
    # bare 1e-9 feasibility slack rejected it; theta.atol(tol) scales along
    rng = np.random.default_rng(2)
    for _ in range(300):
        base = random_ca_capacity(rng, 3, sparsity=0.0)
        theta = Capacity(base.carrier, base.table * 2.0 ** k)
        f = rng.exponential(1.0, size=3)
        _, greedy = dual_greedy(theta, f)
        exact, _ = dual_oracle(theta, f, method="exact")
        assert exact == pytest.approx(greedy, rel=1e-9, abs=0.0)


def test_dual_oracle_validation():
    theta = random_ca_capacity(np.random.default_rng(11), 4)
    with pytest.raises(ValueError):
        dual_oracle(theta, np.ones(4), method="exact")
    with pytest.raises(ValueError):
        dual_oracle(theta, np.ones(4), method="sampled")  # seed needed
    with pytest.raises(ValueError):
        dual_oracle(theta, np.ones(4), method="bogus")


def test_joint_cdf_frozen_theta2():
    ell = theta2()
    c = ell.carrier
    pairs = [(c.mask_of(["a"]), 2.0), (c.mask_of(["b"]), 3.0)]
    # rate: 0.5/2 + 0.5/3 + 0.5 * max(1/2, 1/3) = 2/3
    assert joint_cdf(ell, pairs) == pytest.approx(math.exp(-2.0 / 3.0), abs=1e-15)
    assert joint_cdf(ell, []) == 1.0


def test_joint_cdf_marginal_is_frechet():
    ell = theta2()
    full = ell.carrier.full_mask
    for a in (0.5, 1.0, 4.0):
        assert joint_cdf(ell, [(full, a)]) == pytest.approx(math.exp(-1.5 / a),
                                                            abs=1e-15)


def test_joint_cdf_additive_factorizes():
    c = carrier_of(2)
    ell = Capacity(c, [0.0, 0.7, 0.3, 1.0])
    p_joint = joint_cdf(ell, [(0b01, 2.0), (0b10, 3.0)])
    p1 = joint_cdf(ell, [(0b01, 2.0)])
    p2 = joint_cdf(ell, [(0b10, 3.0)])
    assert p_joint == pytest.approx(p1 * p2, abs=1e-15)


def test_joint_cdf_representations_agree():
    rng = np.random.default_rng(12)
    sp = random_spectral(rng, 3, indicators=True)
    env = crsm_envelope(sp)
    pairs = [(0b011, 1.3), (0b110, 0.9)]
    assert joint_cdf(sp, pairs) == pytest.approx(joint_cdf(env, pairs), abs=1e-12)

    # the completely random law: each point is its own atom
    mu = [0.2, 0.3, 0.5]
    exponent = sum(w * max(1.0 / a for K, a in pairs if K >> i & 1) for i, w in enumerate(mu))
    assert joint_cdf(lebesgue_capacity(mu), pairs) == pytest.approx(math.exp(-exponent), abs=1e-12)


def test_joint_cdf_validation():
    ell = theta2()
    with pytest.raises(ValueError):
        joint_cdf(ell, [(0b01, 0.0)])
    with pytest.raises(ValueError):
        joint_cdf(ell, [(0b01, -1.0)])
    with pytest.raises(ValueError):
        joint_cdf(ell, [(0b1000, 1.0)])  # mask outside the carrier
    # X on the empty set is 0, so the constraint is vacuous
    assert joint_cdf(ell, [(0, 1.0)]) == 1.0


def _exponent_reference(ell, pairs, mu=None) -> float:
    """-log P(X(K_i) <= a_i for all i), summed over the atoms of each
    representation: Mobius sets, spectral atoms or, given point masses mu,
    carrier points."""
    def rate(F):  # max{1/a_i : F meets K_i}, 0 when it meets none
        return max((1.0 / a for K, a in pairs if F & K), default=0.0)

    d = ell.carrier.size
    if mu is not None:
        return math.fsum(mu[i] * rate(1 << i) for i in range(d))
    if isinstance(ell, Capacity):
        nu = mobius_inverse(ell)
        return math.fsum(nu.weights[F] * rate(F) for F in range(1, 1 << d))
    return math.fsum(p * max(y[i] / a for K, a in pairs for i in iter_bits(K))
                     for p, y in zip(ell.probs, ell.atoms))


@pytest.mark.parametrize("seed, kind", enumerate(["choquet-ca", "choquet-monotone",
                                                   "spectral", "lebesgue"]))
def test_joint_cdf_matches_per_representation_formulas(seed, kind):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        mu = None
        if kind == "choquet-ca":
            ell = random_ca_capacity(rng, d)
        elif kind == "choquet-monotone":  # not CA in general: ell.eval allows it
            ell = random_capacity(rng, d)
        elif kind == "spectral":
            ell = random_spectral(rng, d)
        else:
            mu = rng.exponential(1.0, d)
            ell = lebesgue_capacity(mu)
        pairs = [(int(rng.integers(1, 1 << d)), float(rng.uniform(0.2, 5.0)))
                 for _ in range(int(rng.integers(1, 5)))]
        exponent = -math.log(joint_cdf(ell, pairs))
        assert exponent == pytest.approx(_exponent_reference(ell, pairs, mu), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_joint_cdf_monotone_in_levels(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    ell = random_ca_capacity(rng, d)
    mask = int(rng.integers(1, 1 << d))
    a = float(rng.uniform(0.2, 3.0))
    assert joint_cdf(ell, [(mask, a)]) <= joint_cdf(ell, [(mask, a + 1.0)]) + 1e-15


def test_lattice_values_scale_exactly():
    # scaling theta by 2**k scales every table entry, every layer-cake term
    # and every greedy increment exactly, so the values scale exactly too
    rng = np.random.default_rng(7)
    theta = random_ca_capacity(rng, 5)
    f = random_f(rng, 5)
    h = np.maximum(0.0, rng.exponential(1.0, 5) - 0.3)   # a joint_cdf exponent argument
    base = (choquet_integral(f, theta), extremal_integral(f, theta),
            dual_greedy(theta, f)[1], theta.eval(h))
    pairs = [(0b00111, 0.7), (0b11100, 2.5)]
    cdf = joint_cdf(theta, pairs)
    for k in range(-60, 61):
        s = 2.0 ** k
        scaled = Capacity(theta.carrier, theta.table * s)
        got = (choquet_integral(f, scaled), extremal_integral(f, scaled),
               dual_greedy(scaled, f)[1], scaled.eval(h))
        assert got == tuple(v * s for v in base), k
        # levels scaled alike leave the probability bit-equal
        assert joint_cdf(scaled, [(m, a * s) for m, a in pairs]) == cdf, k
