"""The vectorized LePage engine against exact oracles.

A per-sample loop that reads the documented stream-2 layout is the
reference: the engine must reproduce it bit for bit, stragglers and
truncation included.  Term counts are checked against the closed-form
expectation E[N] = 1 + sum_{S in R} (-1)^{|S|+1} theta(E)/theta(S) and
its O(d) bounds, and a golden test pins the first rows at seed 0.
"""

import math

import numpy as np
import pytest

from conftest import carrier_of, indicator_tdf, random_ca_capacity
from crsm import simulate as sim
from crsm.carrier import Carrier, iter_bits, mask_size
from crsm.setfun import Capacity
from crsm.simulate import (
    BLOCK,
    BULK_ROUNDS,
    ROUND,
    TAIL,
    TAIL_MAX,
    MaxTermsExceeded,
    SimConfig,
    SpectralSampler,
    couple,
    simulate_crsm,
    simulate_spectral,
    substream,
)
from crsm.tdf import SpectralTDF
from crsm.transforms import torus_storm_capacity

BULK_TERMS = ROUND * BULK_ROUNDS


def theta2() -> Capacity:
    return Capacity(Carrier(("a", "b")), [0.0, 1.0, 1.0, 1.5])


def skewed3() -> Capacity:
    """Point c is hit with probability 0.05 / 1.52 per term, so about a
    tenth of the samples outlive the bulk rounds."""
    return Capacity(carrier_of(3), [0, 1, 0.8, 1.5, 0.05, 1.02, 0.84, 1.52])


def spectral4() -> SpectralSampler:
    atoms = np.array([[1.0, 0.3, 0.1], [0.4, 1.0, 0.0],
                      [0.8, 0.8, 0.9], [0.2, 0.5, 0.6]])
    return SpectralSampler.from_tdf(
        SpectralTDF(carrier_of(3), np.array([0.4, 0.3, 0.2, 0.1]), atoms))


def stream_terms(seed: int, j: int):
    """(spacing, pick uniform) of each term of sample j, per the contract."""
    block, lane = divmod(j, BLOCK)
    gen = substream(seed, 2 * block)
    for _ in range(BULK_ROUNDS):
        e = gen.standard_exponential((ROUND, BLOCK), method="inv")
        u = gen.random((ROUND, BLOCK))
        yield from zip(e[:, lane], u[:, lane])
    gen = substream(seed, 2 * j + 1)
    size = TAIL
    while True:
        e = gen.standard_exponential(size, method="inv")
        yield from zip(e, gen.random(size))
        size = min(2 * size, TAIL_MAX)


def reference_crsm(theta: Capacity, seed: int, j: int, n_terms=None):
    """One sample by the per-term loop: (values, terms, first atom)."""
    masks, weights, relevant = sim._crsm_atoms(theta)
    cum = np.cumsum(weights) / weights.sum()
    x = np.zeros(theta.carrier.size)
    gamma, covered, first = 0.0, 0, 0
    for n, (e, u) in enumerate(stream_terms(seed, j), start=1):
        gamma += e
        mask = int(masks[np.searchsorted(cum, u, side="right")])
        first = first or mask
        val = theta.total / gamma
        for i in iter_bits(mask):
            x[i] = max(x[i], val)
        covered |= mask
        if n == n_terms or (n_terms is None and covered == relevant
                            and val < x[list(iter_bits(relevant))].min()):
            return x, n, first


def reference_spectral(sampler: SpectralSampler, seed: int, j: int):
    """One coupled sample by the per-term loop: (X, lower, upper, terms)."""
    atoms = sampler.draw.rows
    d = atoms.shape[1]
    live = [i for i in range(d) if not sampler.structural_zeros >> i & 1]
    reach = list(iter_bits(sampler.argmax_reachable))
    x, lo, hi = np.zeros(d), np.zeros(d), np.zeros(d)
    gamma = 0.0
    for n, (e, u) in enumerate(stream_terms(seed, j), start=1):
        gamma += e
        y = atoms[np.searchsorted(sampler.draw.cum, u, side="right")]
        peak = y.max()
        x = np.maximum(x, y / gamma)
        lo = np.maximum(lo, np.where(y == peak, peak / gamma, 0.0))
        hi = np.maximum(hi, np.where(y > 0, peak / gamma, 0.0))
        room = sampler.bound / gamma
        if room < x[live].min() and room < lo[reach].min():
            return x, lo, hi, n


def test_crsm_matches_per_term_reference():
    theta = skewed3()
    n = BLOCK + 40
    batch = simulate_crsm(theta, SimConfig(seed=5, samples=n))
    stragglers = np.flatnonzero(batch.terms > BULK_TERMS)
    assert stragglers.size > 20
    for j in list(range(0, n, 31)) + list(stragglers[:40]):
        x, terms, first = reference_crsm(theta, 5, j)
        assert np.array_equal(batch.values[j], x), j
        assert batch.terms[j] == terms and batch.first_atoms[j] == first, j
    trunc = simulate_crsm(theta, SimConfig(seed=5, samples=n, mode="truncated",
                                           n_terms=BULK_TERMS + 30))
    for j in range(0, n, 53):
        x, _, _ = reference_crsm(theta, 5, j, n_terms=BULK_TERMS + 30)
        assert np.array_equal(trunc.values[j], x), j
    assert np.all(trunc.terms == BULK_TERMS + 30)


def test_coupling_matches_per_term_reference():
    sampler = spectral4()
    cpl = couple(sampler, SimConfig(seed=6, samples=300))
    for j in range(0, 300, 7):
        x, lo, hi, terms = reference_spectral(sampler, 6, j)
        assert np.array_equal(cpl.exact.values[j], x), j
        assert np.array_equal(cpl.lower.values[j], lo), j
        assert np.array_equal(cpl.upper.values[j], hi), j
        assert cpl.exact.terms[j] == terms, j


def test_couple_exact_is_simulate_spectral():
    for sampler in (spectral4(), SpectralSampler.from_tdf(indicator_tdf(skewed3()))):
        cfg = SimConfig(seed=12, samples=BLOCK + 300)
        assert np.array_equal(couple(sampler, cfg).exact.values,
                              simulate_spectral(sampler, cfg).values)


def test_crsm_coupling_is_degenerate_and_matches_dense_reference():
    # indicator atoms make lower = X = upper; the dense spectral route over
    # the same atoms and stream gives the same bits and term counts
    rng = np.random.default_rng(8)
    cfg = SimConfig(seed=12, samples=BLOCK + 300)
    for theta in (theta2(), skewed3(), random_ca_capacity(rng, 4),
                  torus_storm_capacity(5, [([0, 1], 1.0)])):
        direct = simulate_crsm(theta, cfg)
        cpl = couple(theta, cfg)
        dense = couple(SpectralSampler.from_tdf(indicator_tdf(theta)), cfg)
        for got in (cpl.lower, cpl.exact, cpl.upper, dense.lower, dense.exact,
                    dense.upper):
            assert np.array_equal(got.values, direct.values)
            assert np.array_equal(got.terms, direct.terms)


def test_samples_independent_of_count_across_blocks():
    theta = skewed3()
    big = simulate_crsm(theta, SimConfig(seed=4, samples=2 * BLOCK + 3))
    small = simulate_crsm(theta, SimConfig(seed=4, samples=BLOCK + 1))
    assert np.array_equal(big.values[:BLOCK + 1], small.values)
    assert np.array_equal(big.terms[:BLOCK + 1], small.terms)
    trunc = simulate_crsm(theta, SimConfig(seed=4, samples=2 * BLOCK + 3,
                                           mode="truncated", n_terms=100))
    assert np.all(trunc.values <= big.values)


def test_block_and_continuation_keys_disjoint(monkeypatch):
    keys = []
    real = sim.substream
    monkeypatch.setattr(sim, "substream",
                        lambda seed, index: keys.append(index) or real(seed, index))
    n = 2 * BLOCK + 5
    batch = simulate_crsm(skewed3(), SimConfig(seed=0, samples=n))
    blocks = {2 * b for b in range(3)}
    # all points hit by term 64 means the stop term 65 needs no more draws
    tails = {2 * int(j) + 1 for j in np.flatnonzero(batch.terms > BULK_TERMS + 1)}
    assert tails and len(keys) == len(set(keys))
    assert set(keys) == blocks | tails and not blocks & tails


def expected_terms(theta: Capacity) -> float:
    """E[N] = 1 + sum over nonempty S in R of (-1)^{|S|+1} theta(E)/theta(S)."""
    rel = [i for i in range(theta.carrier.size) if theta(1 << i) > 0]
    total = 1.0
    for sub in range(1, 1 << len(rel)):
        mask = sum(1 << rel[k] for k in range(len(rel)) if sub >> k & 1)
        total += (-1) ** (mask_size(sub) + 1) * theta.total / theta(mask)
    return total


@pytest.mark.parametrize("name", ["theta2", "skewed3", "storm4", "random3", "random4"])
def test_mean_terms_match_exact_expectation(name):
    rng = np.random.default_rng(31)
    theta = {"theta2": theta2(), "skewed3": skewed3(),
             "storm4": torus_storm_capacity(4, [([0, 1], 1.0)]),
             "random3": random_ca_capacity(rng, 3),
             "random4": random_ca_capacity(rng, 4)}[name]
    exact = expected_terms(theta)
    singles = theta.singletons()
    ratios = theta.total / singles[singles > 0]
    assert 1 + ratios.max() <= exact + 1e-12 and exact <= 1 + ratios.sum() + 1e-12
    terms = simulate_crsm(theta, SimConfig(seed=3, samples=20_000)).terms
    sigma = terms.std() / math.sqrt(terms.size)
    assert abs(terms.mean() - exact) < 5 * sigma
    if name == "theta2":
        assert exact == pytest.approx(3.0)


def test_max_terms_message_names_sample_and_bounds():
    with pytest.raises(MaxTermsExceeded, match=r"sample \d+ did not stop within 20 "
                       r"terms; expected terms E\[N\] in \[31.4, 34.82\]"):
        simulate_crsm(skewed3(), SimConfig(seed=0, samples=50, max_terms=20))


def test_black_box_draw_truncated_and_validated():
    c = carrier_of(2)
    box = SpectralSampler(c, lambda g: g.random(2))
    short = simulate_spectral(box, SimConfig(seed=2, samples=6, mode="truncated",
                                             n_terms=3))
    long = simulate_spectral(box, SimConfig(seed=2, samples=9, mode="truncated",
                                            n_terms=90))
    assert np.all(short.values <= long.values[:6]) and np.all(short.values > 0)
    assert np.all(long.terms == 90)
    bad = SpectralSampler(c, lambda g: np.array([-0.5, 1.0]), bound=2.0)
    for cfg in (SimConfig(seed=0, samples=3),
                SimConfig(seed=0, samples=3, mode="truncated", n_terms=4)):
        with pytest.raises(ValueError, match="nonnegative"):
            simulate_spectral(bad, cfg)


def test_atom_table_validated_at_construction():
    table = sim._AtomTable(np.array([[1.0, 0.5], [0.2, 3.0]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="bound"):
        SpectralSampler(carrier_of(2), table, bound=2.0)
    with pytest.raises(ValueError, match="structural zero"):
        SpectralSampler(carrier_of(2), table, bound=3.0, structural_zeros=0b01)
    sampler = SpectralSampler.from_tdf(indicator_tdf(skewed3()))
    assert sampler.bound == 1.52 and sampler.structural_zeros == 0
    assert sampler.argmax_reachable == 0b111


def test_golden_first_rows_seed_0():
    batch = simulate_crsm(theta2(), SimConfig(seed=0, samples=4))
    assert batch.values.tolist() == [
        [129.15518373683142, 5.85436969336953],
        [5.425399368099469, 0.44969737249350494],
        [12.697102861040717, 3.6666004253153415],
        [1.804914156579304, 1.804914156579304]]
    assert batch.terms.tolist() == [4, 3, 3, 2]
    assert batch.first_atoms.tolist() == [1, 1, 1, 3]
    cfg = SimConfig(seed=0, samples=3)
    spec = simulate_spectral(spectral4(), cfg)
    assert spec.values.tolist() == [
        [86.10345582455427, 25.831036747366284, 8.610345582455428],
        [3.6169329120663125, 1.0850798736198937, 0.3616932912066313],
        [8.46473524069381, 2.5394205722081433, 1.4666401701261367]]
    assert spec.terms.tolist() == [2, 2, 3]
    cpl = couple(spectral4(), cfg)
    assert cpl.lower.values.tolist() == [
        [86.10345582455427, 3.9029131289130197, 0.5696874939643622],
        [3.6169329120663125, 0.2997982483290033, 0.14115884199017886],
        [8.46473524069381, 0.636320925059247, 1.4666401701261367]]
    assert cpl.upper.values.tolist() == [[86.10345582455427] * 3,
                                         [3.6169329120663125] * 3,
                                         [8.46473524069381] * 3]
    assert cpl.exact.terms.tolist() == [5, 6, 4]
