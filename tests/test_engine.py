"""The vectorized LePage and max-linear engines against exact oracles.

A per-sample loop that reads the documented stream-2 layout is the
reference: each engine must reproduce it bit for bit, LePage stragglers
and truncation included.  Term counts are checked against the closed-form
expectation E[N] = 1 + sum_{S in R} (-1)^{|S|+1} theta(E)/theta(S) and
its O(d) bounds, and golden tests pin the first rows at seed 0.  Tests of
the LePage stream on tables the cost rule sends to max-linear pin the
method with the `lepage_only` fixture.
"""

import ast
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (carrier_of, crsm_atoms, indicator_tdf, random_ca_capacity,
                      skewed_capacity)
from crsm import setfun
from crsm import simulate as sim
from crsm.carrier import Carrier, iter_bits
from crsm.io import parse_model
from crsm.setfun import (Capacity, MobiusMeasure, _Owned, capacity_from_measure,
                         mobius_inverse, positive_atoms)
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
    simulate_model,
    simulate_spectral,
    substream,
)
from crsm.tdf import SpectralTDF
from crsm.transforms import (BernsteinFunction, compose_capacity, exchangeable_capacity,
                             subset_size_capacity, torus_storm_capacity)

BULK_TERMS = ROUND * BULK_ROUNDS


@pytest.fixture
def lepage_only(monkeypatch):
    monkeypatch.setattr(sim, "_method", lambda atoms, floor, config: "lepage")


@pytest.fixture
def max_linear_only(monkeypatch):
    monkeypatch.setattr(sim, "_method", lambda atoms, floor, config: (
        "max-linear" if config.mode == "exact" else "lepage"))


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


def skewed_spectral() -> SpectralSampler:
    """Three atoms, LB = 1 / 0.21 = 4.76 >= m: the cost rule picks max-linear."""
    atoms = np.array([[1.0, 0.2, 0.0], [0.1, 1.0, 0.5], [0.0, 0.0, 1.0]])
    return SpectralSampler.from_tdf(
        SpectralTDF(carrier_of(3), np.array([0.6, 0.38, 0.02]), atoms))


def benchmark_models(monkeypatch, seed: int) -> dict:
    """The sampled models of the benchmark's two sampling workloads."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    models = {}
    for workload in ("sample-narrow", "sample-wide"):
        for name, obj in workloads.build(workload, seed).files.items():
            if name[:-5] in ("theta2", "spec3", "exch12", "exch20", "skew8"):
                models[name[:-5]] = parse_model(obj)
    return models


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
    masks, weights = crsm_atoms(theta)
    relevant = int(np.bitwise_or.reduce(masks))
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
    atoms = sampler.table.rows
    d = atoms.shape[1]
    # points some atom makes positive, and points where a positive atom peaks
    live = [i for i in range(d) if any(row[i] > 0 for row in atoms)]
    reach = [i for i in range(d) if any(0 < row.max() == row[i] for row in atoms)]
    x, lo, hi = np.zeros(d), np.zeros(d), np.zeros(d)
    gamma = 0.0
    for n, (e, u) in enumerate(stream_terms(seed, j), start=1):
        gamma += e
        y = atoms[np.searchsorted(sampler.table.cum, u, side="right")]
        peak = y.max()
        x = np.maximum(x, y / gamma)
        lo = np.maximum(lo, np.where(y == peak, peak / gamma, 0.0))
        hi = np.maximum(hi, np.where(y > 0, peak / gamma, 0.0))
        room = sampler.bound / gamma
        if room < x[live].min() and room < lo[reach].min():
            return x, lo, hi, n


def reference_max_linear(rows: np.ndarray, w: np.ndarray, seed: int, j: int):
    """One sample by the max-linear layout: row j - b * BLOCK of the block's
    (lanes, m) exponentials; returns (values, argmax atom)."""
    block, lane = divmod(j, BLOCK)
    e = substream(seed, 2 * block).standard_exponential((lane + 1, w.size),
                                                         method="inv")[lane]
    z = w / e
    return (z[:, None] * rows).max(axis=0), int(z.argmax())


def test_crsm_matches_per_term_reference(lepage_only):
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


def atom_cases() -> dict:
    """Mobius tables whose atoms the sampler must find exactly."""
    rng = np.random.default_rng(21)
    d = 10
    dense = rng.uniform(0.5, 1.5, 1 << d)
    one = np.zeros(1 << d)
    one[0b1011] = 2.5
    sparse = np.zeros(1 << d)
    sparse[rng.choice(np.arange(1, 1 << d), 12, replace=False)] = rng.exponential(1.0, 12)
    # theta(E) is about 1000, so -1e-9 lies inside the band DEFAULT_TOL * theta(E)
    band = dense.copy()
    band[rng.choice(np.arange(3, 1 << d), 40, replace=False)] = -1e-9
    cases = {"all positive": dense, "one atom": one, "sparse": sparse,
             "negative in band": band}
    for w in cases.values():
        w[0] = 0.0
    return {name: capacity_from_measure(MobiusMeasure(carrier_of(d), w))
            for name, w in cases.items()}


@pytest.mark.parametrize("span", [3, setfun._SPAN])
@pytest.mark.parametrize("name", ["all positive", "one atom", "sparse", "negative in band"])
def test_atoms_built_in_place_match_the_clipped_reference(monkeypatch, name, span):
    # the atoms, their weights and the pick table are bit-equal to a plain
    # clip / flatnonzero / cumsum over a fresh copy of the Mobius table
    monkeypatch.setattr(setfun, "_SPAN", span)
    theta = atom_cases()[name]
    masks, weights = crsm_atoms(theta)
    if name == "negative in band":
        assert mobius_inverse(theta).min_weight()[0] < 0.0
    ref_cum = np.cumsum(weights)
    ref_cum = ref_cum / ref_cum[-1]
    handed = mobius_inverse(theta)
    for given in (None, _Owned(handed)):
        nu = setfun.certified_mobius(theta, nu=None if given is None else given.arr)
        got_masks, got_weights, relevant = positive_atoms(_Owned(nu))
        assert np.array_equal(got_masks, masks)
        assert relevant == int(np.bitwise_or.reduce(masks))
        assert got_weights.tobytes() == weights.tobytes()
        # a handed-over measure holds the atoms
        assert np.shares_memory(got_weights, handed.weights) == (given is not None)
        cum = sim._cumulative(got_weights, out=got_weights)
        assert cum.tobytes() == ref_cum.tobytes()


def test_crsm_sampler_consumes_a_handed_over_mobius(monkeypatch):
    # _Owned(nu) gives the stream of a run that builds nu itself, on a table
    # and on a capacity held by size
    cfg = SimConfig(seed=3, samples=50)
    exch = parse_model({"kind": "exchangeable", "carrier": ["a", "b", "c", "d"],
                        "zeta": [[0.2, 0.5], [0.5, 0.5]]})
    for theta in (skewed3(), exch):
        for method in ("lepage", "max-linear"):
            monkeypatch.setattr(sim, "_method", lambda atoms, floor, config: method)
            own = simulate_crsm(theta, cfg)
            handed = simulate_crsm(theta, cfg, _Owned(mobius_inverse(theta)))
            assert handed.method == own.method == method
            assert np.array_equal(handed.values, own.values)
            assert np.array_equal(handed.terms, own.terms)


def test_spectral_tables_never_write_their_weights():
    law = SpectralTDF(carrier_of(3), np.array([0.5, 0.3, 0.2]),
                      np.array([[1.0, 0.5, 0.0], [0.3, 1.0, 0.0], [0.0, 0.2, 1.0]]))
    before = law.probs.copy()
    sampler = SpectralSampler.from_tdf(law)
    cfg = SimConfig(seed=2, samples=200)
    simulate_spectral(sampler, cfg)
    couple(sampler, cfg)
    assert sampler.table.weights is law.probs
    assert law.probs.tobytes() == before.tobytes()
    assert not np.shares_memory(sampler.table.cum, law.probs)


def test_crsm_sampler_memory_on_a_dense_table():
    # A dense d = 16 table on LePage: past the certificate (mobius_inverse's
    # table and its sweep's 2**16-entry block) sampling keeps the Mobius
    # table, which takes the atom weights and then the pick table, and the
    # int32 masks (half a table), and holds no atom copies.  Clip and astype
    # copies, gathered weights and a separate cumulative array peaked at 4
    # tables above theta.
    d = 16
    w = np.random.default_rng(4).uniform(0.5, 1.5, 1 << d)
    w[0] = 0.0
    theta = capacity_from_measure(MobiusMeasure(carrier_of(d), w))
    cfg = SimConfig(seed=1, samples=100)
    assert simulate_crsm(theta, cfg).method == "lepage"

    def peak_tables(fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / (8 << d)
        finally:
            tracemalloc.stop()

    certificate = peak_tables(lambda: mobius_inverse(theta))
    own = peak_tables(lambda: simulate_crsm(theta, cfg))
    assert own <= certificate + 0.25, (own, certificate)


def test_a_crsm_law_record_sampled_twice():
    # a LePage run builds the record's pick table in place of its atom
    # weights and drops them, so a later max-linear run of the same record,
    # which would read the cumulative sums as weights, is refused, while
    # LePage runs it again on the same picks
    theta = skewed3()
    law = sim._crsm_law(theta, None)
    truncated = SimConfig(seed=0, samples=5, mode="truncated", n_terms=3)
    first = sim._sample(law, truncated)
    with pytest.raises(ValueError, match="build a new record"):
        sim._sample(law, SimConfig(seed=0, samples=5))
    assert np.array_equal(sim._sample(law, truncated).values, first.values)
    fresh = sim._sample(sim._crsm_law(theta, None), SimConfig(seed=0, samples=5))
    assert fresh.method == "max-linear"


def test_crsm_run_holds_its_values_and_terms_and_little_else():
    # first_atoms is derived on read: a run builds no N x d argmax mask and
    # no N-vector of atoms, so on a two-point table it peaks within 1 MB of
    # the values and terms it returns
    cfg = SimConfig(seed=1, samples=200_000)
    simulate_crsm(theta2(), cfg)  # warm-up
    tracemalloc.start()
    try:
        batch = simulate_crsm(theta2(), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < batch.values.nbytes + batch.terms.nbytes + (1 << 20), peak
    assert batch.method == "lepage" and "first_atoms" not in batch.__dict__


def test_coupling_matches_per_term_reference():
    sampler = spectral4()
    cpl = couple(sampler, SimConfig(seed=6, samples=300))
    for j in range(0, 300, 7):
        x, lo, hi, terms = reference_spectral(sampler, 6, j)
        assert np.array_equal(cpl.exact.values[j], x), j
        assert np.array_equal(cpl.lower.values[j], lo), j
        assert np.array_equal(cpl.upper.values[j], hi), j
        assert cpl.exact.terms[j] == terms, j


def test_long_tails_match_per_term_reference(lepage_only):
    # a rare atom of probability 1e-4 keeps samples running into the
    # TAIL_MAX continuation chunks, which start after term 8192
    theta = skewed_capacity(np.random.default_rng(0), 8, 1e-4)
    cfg = SimConfig(seed=1, samples=8)
    batch, cpl = simulate_crsm(theta, cfg), couple(theta, cfg)
    assert batch.terms.max() > BULK_TERMS + TAIL_MAX - TAIL
    for j in range(cfg.samples):
        x, terms, first = reference_crsm(theta, 1, j)
        assert np.array_equal(batch.values[j], x), j
        assert batch.terms[j] == terms and batch.first_atoms[j] == first, j
    for got in (cpl.lower, cpl.exact, cpl.upper):
        assert np.array_equal(got.values, batch.values)
        assert np.array_equal(got.terms, batch.terms)
    sampler = SpectralSampler.from_tdf(SpectralTDF(
        carrier_of(3), np.array([0.6, 0.3999, 1e-4]),
        np.array([[1.0, 0.5, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]])))
    spec, cpl = simulate_spectral(sampler, cfg), couple(sampler, cfg)
    assert spec.terms.max() > BULK_TERMS + TAIL_MAX - TAIL
    for j in range(cfg.samples):
        x, lo, hi, terms = reference_spectral(sampler, 1, j)
        assert cpl.exact.terms[j] == terms, j
        assert np.array_equal(spec.values[j], x), j
        assert np.array_equal(cpl.exact.values[j], x), j
        assert np.array_equal(cpl.lower.values[j], lo), j
        assert np.array_equal(cpl.upper.values[j], hi), j
    # the coupled stop also waits for lower, so it is never earlier
    assert np.all(cpl.exact.terms >= spec.terms)


def test_couple_exact_is_simulate_spectral(lepage_only):
    for sampler in (spectral4(), SpectralSampler.from_tdf(indicator_tdf(skewed3()))):
        cfg = SimConfig(seed=12, samples=BLOCK + 300)
        assert np.array_equal(couple(sampler, cfg).exact.values,
                              simulate_spectral(sampler, cfg).values)


def test_crsm_coupling_is_degenerate_and_matches_dense_reference(lepage_only):
    # indicator atoms make lower = X = upper; the dense spectral route over
    # the same atoms and stream gives the same bits and term counts, exact
    # or truncated
    rng = np.random.default_rng(8)
    thetas = (theta2(), skewed3(), random_ca_capacity(rng, 4),
              torus_storm_capacity(5, [([0, 1], 1.0)]))
    configs = [SimConfig(seed=12, samples=BLOCK + 300)] + [
        SimConfig(seed=12, samples=BLOCK + 300, mode="truncated", n_terms=k)
        for k in (1, 8, 64, 65, 200)]
    for theta, cfg in itertools.product(thetas, configs):
        direct = simulate_crsm(theta, cfg)
        cpl = couple(theta, cfg)
        dense = couple(SpectralSampler.from_tdf(indicator_tdf(theta)), cfg)
        for got in (cpl.lower, cpl.exact, cpl.upper, dense.lower, dense.exact,
                    dense.upper):
            assert np.array_equal(got.values, direct.values)
            assert np.array_equal(got.terms, direct.terms)


def test_samples_independent_of_count_across_blocks(lepage_only):
    theta = skewed3()
    big = simulate_crsm(theta, SimConfig(seed=4, samples=2 * BLOCK + 3))
    small = simulate_crsm(theta, SimConfig(seed=4, samples=BLOCK + 1))
    assert np.array_equal(big.values[:BLOCK + 1], small.values)
    assert np.array_equal(big.terms[:BLOCK + 1], small.terms)
    trunc = simulate_crsm(theta, SimConfig(seed=4, samples=2 * BLOCK + 3,
                                           mode="truncated", n_terms=100))
    assert np.all(trunc.values <= big.values)


def test_block_and_continuation_keys_disjoint(monkeypatch, lepage_only):
    # the CRSM and its indicator spectral table open the same keys, in the
    # same order
    real = sim.substream
    cfg = SimConfig(seed=0, samples=2 * BLOCK + 5)
    runs = []
    for run in (lambda: simulate_crsm(skewed3(), cfg),
                lambda: simulate_spectral(
                    SpectralSampler.from_tdf(indicator_tdf(skewed3())), cfg)):
        keys = []
        monkeypatch.setattr(sim, "substream",
                            lambda seed, index: keys.append(index) or real(seed, index))
        batch = run()
        blocks = {2 * b for b in range(3)}
        # all points hit by term 64 means the stop term 65 needs no more draws
        tails = {2 * int(j) + 1 for j in np.flatnonzero(batch.terms > BULK_TERMS + 1)}
        assert tails and len(keys) == len(set(keys))
        assert set(keys) == blocks | tails and not blocks & tails
        runs.append(keys)
    assert runs[0] == runs[1]


def top_defs(path: Path) -> list:
    """(name, node) of each top-level function and method of a module; a
    nested function belongs to its enclosing one."""
    tree = ast.parse(path.read_text(), str(path))
    defs = [(f"{node.name}.{f.name}", f) for node in tree.body if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, ast.FunctionDef)]
    return defs + [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]


def engine_calls(path: Path, names=("_method", "_max_linear", "_lepage")) -> list[str]:
    """"caller:callee" for each call of a function or method named in names
    in a module, by top_defs."""
    return sorted(f"{name}:{callee}" for name, fn in top_defs(path) for node in ast.walk(fn)
                  if isinstance(node, ast.Call)
                  and (callee := getattr(node.func, "id", getattr(node.func, "attr", None)))
                  in names)


def test_one_lepage_kernel():
    # CRSMs, spectral tables and couple all run the one LePage loop: no
    # code but _lepage picks atoms
    assert engine_calls(Path(sim.__file__), ("pick",)) == ["_lepage:pick"]


def test_one_atom_law():
    # every run samples a SpectralSampler record through _sample, which
    # applies the cost rule once; couple alone runs LePage over the
    # widened table it builds
    assert engine_calls(Path(sim.__file__)) == [
        "_sample:_lepage", "_sample:_max_linear", "_sample:_method", "couple:_lepage"]


def mask_expansions(src: Path) -> list[str]:
    """The top-level functions and methods of a package that spread masks
    into bits: a shift by np.arange (operator or np.right_shift), or an
    AND (operator or np.bitwise_and) with 1 << np.arange."""
    def name(node):
        return getattr(node, "attr", getattr(node, "id", None))

    def arange(node):
        return isinstance(node, ast.Call) and name(node.func) == "arange"

    def powers(node):  # 1 << np.arange(..), either way it is written
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift):
            return arange(node.right)
        return (isinstance(node, ast.Call) and name(node.func) == "left_shift"
                and len(node.args) == 2 and arange(node.args[1]))

    def expands(node):
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.RShift):
                return arange(node.right)
            return isinstance(node.op, ast.BitAnd) and (powers(node.left)
                                                        or powers(node.right))
        if isinstance(node, ast.Call) and len(node.args) >= 2:
            if name(node.func) == "right_shift":
                return arange(node.args[1])
            return name(node.func) == "bitwise_and" and any(map(powers, node.args[:2]))
        return False

    return [f"{path.stem}.{fname}" for path in sorted(src.glob("*.py"))
            for fname, fn in top_defs(path) if any(map(expands, ast.walk(fn)))]


def test_one_mask_expansion():
    # carrier._indicator is the one place that turns masks into point
    # vectors: the LePage pick, max-linear and the invariance check call it
    assert mask_expansions(Path(sim.__file__).parent) == ["carrier._indicator"]


def row_max_routes(src: Path) -> list[str]:
    """The row-max helpers a package defines (functions named like one) and
    its calls that reduce rows another way: np.einsum, np.maximum.reduce
    and functools.reduce(np.maximum, ..)."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                if re.search(r"row_?max|weighted_max", node.name):
                    found.append(f"{path.stem}.{node.name}")
                continue
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            owner = getattr(node.func, "value", None)  # np.maximum of np.maximum.reduce
            first = node.args[0] if node.args else None
            if name == "einsum" or name == "reduce" and "maximum" in (
                    getattr(owner, "attr", None), getattr(first, "attr", None)):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_one_row_max():
    # every statistic reduces samples through carrier._weighted_max
    assert row_max_routes(Path(sim.__file__).parent) == ["carrier._weighted_max"]


def test_max_linear_matches_per_sample_reference(monkeypatch):
    # 8 cells: one lane and two atoms per step; 100: five lanes, a group
    # count that does not divide the block
    theta, spec = skewed3(), skewed_spectral()
    masks, w = crsm_atoms(theta)
    rows = (masks[:, None] >> np.arange(3)) & 1
    p = spec.table.weights / spec.table.weights.sum()
    n = BLOCK + 40
    for cells in (sim._CELLS, 100, 8):
        monkeypatch.setattr(sim, "_CELLS", cells)
        batch = simulate_crsm(theta, SimConfig(seed=5, samples=n))
        sbatch = simulate_spectral(spec, SimConfig(seed=5, samples=n))
        assert batch.method == sbatch.method == "max-linear"
        assert np.all(batch.terms == 6) and np.all(sbatch.terms == 3)
        for j in list(range(0, n, 17)) + [n - 1]:
            x, top = reference_max_linear(rows, w, 5, j)
            assert np.array_equal(batch.values[j], x), (cells, j)
            assert batch.first_atoms[j] == masks[top], (cells, j)
            x, _ = reference_max_linear(spec.table.rows, p, 5, j)
            assert np.array_equal(sbatch.values[j], x), (cells, j)
    small = simulate_crsm(theta, SimConfig(seed=5, samples=BLOCK + 1))
    assert np.array_equal(small.values, batch.values[:BLOCK + 1])


def test_max_linear_argmax_atom_law(max_linear_only):
    # the argmax of independent Frechet variables of scales nu(F) is F with
    # probability nu(F) / theta(E), and it is the argmax set of the sample
    rng = np.random.default_rng(11)
    n = 20_000
    for theta in (theta2(), skewed3(), random_ca_capacity(rng, 3),
                  random_ca_capacity(rng, 4)):
        masks, w = crsm_atoms(theta)
        batch = simulate_crsm(theta, SimConfig(seed=9, samples=n))
        assert batch.method == "max-linear"
        counts = (batch.first_atoms[:, None] == masks[None, :]).sum(axis=0)
        assert counts.sum() == n
        expect = n * w / theta.total
        chi2 = float(((counts - expect) ** 2 / expect).sum())
        k = masks.size - 1
        # Wilson-Hilferty: (chi2 / k) ** (1/3) is close to normal
        z = ((chi2 / k) ** (1 / 3) - 1 + 2 / (9 * k)) / math.sqrt(2 / (9 * k))
        assert z < 4, (theta.table, chi2, k)
        top = batch.values == batch.values.max(axis=1, keepdims=True)
        assert np.array_equal(top @ (1 << np.arange(theta.carrier.size)),
                              batch.first_atoms)


def test_max_linear_law_on_skewed_table():
    # the benchmark's skew8 shape: 20 atoms, rare point of relative mass 1e-4
    theta = skewed_capacity(np.random.default_rng(0), 8, 1e-4)
    n = 200_000
    batch = simulate_crsm(theta, SimConfig(seed=0, samples=n))
    assert (batch.method, batch.atoms, batch.lepage_floor) == ("max-linear", 20, 1e4)
    for q, below in ((0.4, batch.values.max(axis=1) <= theta.total / -math.log(0.4)),
                     (0.5, batch.values[:, 7] <= theta(1 << 7) / -math.log(0.5))):
        assert abs(below.mean() - q) <= 3 * math.sqrt(q * (1 - q) / n), q


def test_cost_rule_on_benchmark_shapes(monkeypatch):
    want = {"theta2": "lepage", "spec3": "lepage", "exch12": "lepage",
            "exch20": "lepage", "skew8": "max-linear"}
    for seed in (1, 2):
        models = benchmark_models(monkeypatch, seed)
        got = {role: simulate_model(model, SimConfig(seed=0, samples=1)).method
               for role, model in models.items()}
        assert got == want, seed
    assert simulate_crsm(theta2(), SimConfig(seed=0, samples=1)).lepage_floor == 1.5
    assert simulate_spectral(spectral4(), SimConfig(seed=0, samples=1)
                             ).lepage_floor == pytest.approx(1 / 0.28)
    # truncated runs keep the LePage stream whatever the cost
    trunc = simulate_crsm(skewed3(), SimConfig(seed=0, samples=3, mode="truncated",
                                               n_terms=4))
    assert trunc.method == "lepage" and trunc.lepage_floor == pytest.approx(30.4)


def test_lepage_mean_terms_exceed_wald_floor(monkeypatch, lepage_only):
    # Wald: E[N] = E[Gamma_N] > bound * E[1/X(x)] = bound / ell(1_x)
    spec3 = benchmark_models(monkeypatch, 1)["spec3"]
    for sampler in (spectral4(), skewed_spectral(), SpectralSampler.from_tdf(spec3),
                    SpectralSampler.from_tdf(indicator_tdf(skewed3()))):
        batch = simulate_spectral(sampler, SimConfig(seed=3, samples=20_000))
        assert batch.method == "lepage"
        assert batch.terms.mean() >= batch.lepage_floor, sampler.table.rows


def expected_terms(theta: Capacity) -> float:
    """E[N] = 1 + sum over nonempty S in R of (-1)^{|S|+1} theta(E)/theta(S)."""
    rel = [i for i in range(theta.carrier.size) if theta(1 << i) > 0]
    total = 1.0
    for sub in range(1, 1 << len(rel)):
        mask = sum(1 << rel[k] for k in range(len(rel)) if sub >> k & 1)
        total += (-1) ** (sub.bit_count() + 1) * theta.total / theta(mask)
    return total


@pytest.mark.parametrize("name", ["theta2", "skewed3", "storm4", "random3", "random4"])
def test_mean_terms_match_exact_expectation(name, lepage_only):
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


def test_max_terms_message_names_sample_and_bounds(lepage_only):
    with pytest.raises(MaxTermsExceeded, match=r"sample \d+ did not stop within 20 "
                       r"terms; expected terms E\[N\] in \[31.4, 34.82\]"):
        simulate_crsm(skewed3(), SimConfig(seed=0, samples=50, max_terms=20))


def size_models(d: int) -> dict:
    """Capacities held by size: the three constructors, a Mobius measure by
    size with an empty size class (integer weights, so the round trip is
    exact) and, for d >= 2, one whose singleton weight is negative inside
    the tolerance band, which the sampler clamps to 0."""
    c = carrier_of(d)
    p = np.arange(1.0, d + 2) / np.arange(1.0, d + 2).sum()
    models = {"exchangeable": exchangeable_capacity(c, [(0.2, 0.5), (0.5, 0.5)]),
              "subset-size": subset_size_capacity(c, p, 2.0)}
    models["compose"] = compose_capacity(BernsteinFunction(power=0.6),
                                         models["exchangeable"])
    gap = np.array([0.0] + [(k % 3 != 2) * (1.0 + k % 4) for k in range(1, d + 1)])
    models["gap"] = capacity_from_measure(MobiusMeasure(c, by_size=gap))
    if d >= 2:
        band = np.ones(d + 1)
        band[0] = 0.0
        band[1] = -0.3e-9 * sum(math.comb(d, k) for k in range(2, d + 1))
        models["band"] = capacity_from_measure(MobiusMeasure(c, by_size=band))
    return models


def size_picks(theta: Capacity) -> "sim._SizePicks":
    nu = setfun.certified_mobius(theta)
    masses = nu.interval_masses()
    assert masses is not None
    return sim._SizePicks(nu, masses, 1.0)


def picked_masks(picks, u: np.ndarray) -> np.ndarray:
    return (picks.pick(u) > 0) @ (1 << np.arange(picks.width))


@pytest.mark.parametrize("d", [1, 2, 5, 12, 16])
def test_size_picks_match_the_table_route(d):
    # the d-step walk over the interval masses picks the mask that
    # searchsorted picks on the atom table's cumulative weights; the two
    # round differently, so a lane could differ right at a bucket edge,
    # but none of these does
    u = np.random.default_rng(7).random(100_000)
    for name, theta in size_models(d).items():
        masks, weights, _ = positive_atoms(_Owned(setfun.certified_mobius(theta)))
        cum = sim._cumulative(weights)
        idx = np.searchsorted(cum, u, side="right")
        got = picked_masks(size_picks(theta), u)
        off = np.flatnonzero(got != masks[idx])
        assert off.size == 0, (name, u[off], cum[idx[off]])
        sizes = np.bitwise_count(got)
        if name == "gap":
            assert not np.any(sizes % 3 == 2)
        if name == "band":
            assert mobius_inverse(theta).min_weight()[0] < 0.0
            assert not np.any(sizes == 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_size_picks_chi_square(d):
    # P(pick = F) = nu+(|F|) / sum of nu+ over the nonempty sets
    n = 200_000
    u = np.random.default_rng(100 + d).random(n)
    for name, theta in size_models(d).items():
        nu = np.clip(mobius_inverse(theta).weights, 0.0, None)
        counts = np.bincount(picked_masks(size_picks(theta), u), minlength=1 << d)
        assert counts.sum() == n and not counts[nu == 0].any(), name
        live = nu > 0
        expect = n * nu[live] / nu.sum()
        chi2 = float(((counts[live] - expect) ** 2 / expect).sum())
        k = max(1, int(live.sum()) - 1)
        # Wilson-Hilferty: (chi2 / k) ** (1/3) is close to normal
        z = ((chi2 / k) ** (1 / 3) - 1 + 2 / (9 * k)) / math.sqrt(2 / (9 * k))
        assert z < 4, (name, chi2, k)


def test_crsm_sampler_by_size_holds_no_table():
    # LePage on an exchangeable capacity picks by size: no Mobius table and
    # no masks, so the run peaks far below one 2**20 float table
    d = 20
    theta = exchangeable_capacity(d, [(0.2, 0.5), (0.5, 0.5)])
    cfg = SimConfig(seed=1, samples=100)
    # the first generator imports modules of about 0.7 MB; import them first
    simulate_crsm(exchangeable_capacity(2, [(0.5, 1.0)]), cfg)
    tracemalloc.start()
    try:
        batch = simulate_crsm(theta, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.method == "lepage" and batch.atoms == (1 << d) - 1
    assert peak < 0.1 * (8 << d), peak


@pytest.mark.parametrize("d", range(1, 13))
def test_max_linear_by_size_is_bit_equal_to_the_table_route(d, max_linear_only):
    # max-linear lists the atoms of a measure held by size, size class by
    # size class, as the table route finds them in the spread Mobius table
    cfg = SimConfig(seed=d, samples=50)
    for name, theta in size_models(d).items():
        by_size = simulate_crsm(theta, cfg)
        table = simulate_crsm(Capacity(theta.carrier, theta.table), cfg)
        assert by_size.method == table.method == "max-linear", name
        assert by_size.atoms == table.atoms, name
        assert by_size.values.tobytes() == table.values.tobytes(), name
        assert by_size.terms.tobytes() == table.terms.tobytes(), name


def test_max_linear_by_size_holds_no_table():
    # nu = delta_E at d = 20: one atom, so the cost rule picks max-linear,
    # which lists that atom without spreading nu over 2**20 masks
    d = 20
    by_size = np.zeros(d + 1)
    by_size[d] = 1.0
    theta = capacity_from_measure(MobiusMeasure(carrier_of(d), by_size=by_size))
    cfg = SimConfig(seed=1, samples=100)
    simulate_crsm(exchangeable_capacity(2, [(0.5, 1.0)]), cfg)  # imports
    tracemalloc.start()
    try:
        batch = simulate_crsm(theta, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.method == "max-linear" and batch.atoms == 1
    assert np.all(batch.values == batch.values[:, :1])
    assert peak < 0.1 * (8 << d), peak


def test_exact_expected_terms_by_size():
    # E[N] = 1 + phi(d) sum_k (-1)^(k+1) C(d, k) / phi(k) against the sum
    # over subsets, its bracket and the simulated mean
    for d in range(1, 13):
        for name, theta in size_models(d).items():
            assert sim._expected_terms(theta) == pytest.approx(
                expected_terms(theta), rel=1e-9), (d, name)
    phi = lambda theta, k: theta((1 << k) - 1)
    for theta in size_models(24).values():
        exact, ratio = sim._expected_terms(theta), phi(theta, 24) / phi(theta, 1)
        assert 1 + ratio <= exact <= 1 + 24 * ratio, exact
    theta = size_models(12)["exchangeable"]
    batch = simulate_crsm(theta, SimConfig(seed=3, samples=20_000))
    assert batch.method == "lepage"
    assert batch.expected_terms == sim._expected_terms(theta)
    sigma = batch.terms.std() / math.sqrt(batch.terms.size)
    assert abs(batch.terms.mean() - batch.expected_terms) < 5 * sigma
    # only an exact LePage run by size knows it
    truncated = SimConfig(seed=3, samples=5, mode="truncated", n_terms=4)
    assert simulate_crsm(theta, truncated).expected_terms is None
    assert simulate_crsm(skewed3(), SimConfig(seed=3, samples=5)).expected_terms is None
    assert simulate_crsm(theta2(), SimConfig(seed=3, samples=5)).expected_terms is None


def test_truncated_spectral_runs_are_dominated():
    # a truncated sample keeps the first n_terms terms of its exact stream,
    # so a longer truncation dominates it pathwise
    sampler = spectral4()
    short = simulate_spectral(sampler, SimConfig(seed=2, samples=6, mode="truncated",
                                                 n_terms=3))
    long = simulate_spectral(sampler, SimConfig(seed=2, samples=9, mode="truncated",
                                                n_terms=90))
    assert np.all(short.values <= long.values[:6]) and np.all(short.values > 0)
    assert np.all(short.terms == 3) and np.all(long.terms == 90)


def test_spectral_sampler_derives_its_envelope():
    sampler = SpectralSampler.from_tdf(indicator_tdf(skewed3()))
    assert sampler.bound == 1.52 and sampler.live.tolist() == [0, 1, 2]
    assert sampler.reach.tolist() == [0, 1, 2]


def test_couple_widens_the_table_once(monkeypatch):
    # one widened table per call, whatever the number of terms and steps
    calls = []
    real = sim._coupled_rows
    monkeypatch.setattr(sim, "_coupled_rows", lambda y: calls.append(y.shape) or real(y))
    cpl = couple(spectral4(), SimConfig(seed=0, samples=3 * BLOCK // 2))
    assert calls == [(4, 3)]
    assert cpl.exact.terms.max() > ROUND and cpl.lower.values.shape == (3 * BLOCK // 2, 3)


def test_couple_and_sample_refuse_a_law_without_live_points():
    zero = SpectralTDF(carrier_of(2), np.array([0.5, 0.5]), np.zeros((2, 2)))
    for run in (simulate_model, couple):
        with pytest.raises(ValueError, match="every point is a structural zero"):
            run(zero, SimConfig(seed=0, samples=2))


def test_seeded_samples_scale_exactly():
    # theta(E) 2**k / Gamma and nu(F) 2**k / E scale exactly, the picks
    # read normalized weights and LB is a ratio: 2**k theta samples the
    # same stream, by the same method, at 2**k the values
    rng = np.random.default_rng(3)
    cfg = SimConfig(seed=4, samples=300)
    for theta, method in ((random_ca_capacity(rng, 5), "lepage"),
                          (skewed_capacity(rng, 8, 1e-4), "max-linear")):
        base = simulate_crsm(theta, cfg)
        assert base.method == method
        for k in range(-60, 61):
            got = simulate_crsm(Capacity(theta.carrier, theta.table * 2.0 ** k), cfg)
            assert got.method == method, k
            assert np.array_equal(got.values, base.values * 2.0 ** k), k
            assert np.array_equal(got.terms, base.terms), k
            assert np.array_equal(got.first_atoms, base.first_atoms), k


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


def test_golden_max_linear_rows_seed_0():
    cfg = SimConfig(seed=0, samples=3)
    batch = simulate_crsm(skewed3(), cfg)
    assert batch.method == "max-linear"
    assert batch.values.tolist() == [
        [58.55034996069691, 2.4547732198012047, 0.030751820805754705],
        [0.9904639037384949, 0.9904639037384949, 0.09217616525497101],
        [0.800286849368169, 1.6985264484763025, 0.061029241899246064]]
    assert batch.terms.tolist() == [6, 6, 6]
    assert batch.first_atoms.tolist() == [1, 3, 2]
    spec = simulate_spectral(skewed_spectral(), cfg)
    assert spec.method == "max-linear"
    assert spec.values.tolist() == [
        [51.66207349473257, 10.332414698946515, 0.6872172532925994],
        [0.7219656626317216, 0.5444767666256566, 0.2722383833128283],
        [0.20485493420801498, 0.08892131539697719, 0.06830785543024105]]
