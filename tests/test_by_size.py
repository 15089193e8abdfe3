"""Capacities held by size against the table route, bit for bit.

A rearrangement-invariant capacity, theta(K) = phi(|K|), is held as its
d + 1 values phi.  Every result computed from phi must carry the bits the
same capacity gives as a plain 2**d table: verdicts, witnesses, messages,
Mobius weights, integrals, the dual measure, CDFs and CLI artifacts.
"""

import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import carrier_of
import crsm
from crsm import cli
from crsm.carrier import Carrier
from crsm.integrals import choquet_integral, comonotone_formula, extremal_integral
from crsm.setfun import (
    Capacity,
    MobiusMeasure,
    _Owned,
    capacity_from_measure,
    certified_mobius,
    classify,
    mobius_inverse,
    successive_difference,
)
from crsm.tdf import DiscreteMeasure, dual_greedy, joint_cdf
from crsm.transforms import (
    BernsteinFunction,
    compose_capacity,
    distortion_capacity,
    exchangeable_capacity,
    subset_size_capacity,
)

# min(k/4, 0.8)/0.8 on four points: the AVaR distortion of the uniform
# measure, with Mobius weight -1/4 on every 3-set
AVAR4_PHI = [0.0, 0.3125, 0.625, 0.9375, 1.0]


def bernstein_forms(rng):
    return [BernsteinFunction(power=float(rng.uniform(0.1, 0.9))),
            BernsteinFunction(drift=float(rng.uniform(0.1, 2.0))),
            BernsteinFunction(drift=float(rng.uniform(0.0, 0.5)),
                              atoms=[(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 2.0)))
                                     for _ in range(2)])]


def symmetric_models(rng, d):
    """(name, capacity held by size): constructors, compositions and
    arbitrary phi, some not monotone and some not completely alternating."""
    c = carrier_of(d)
    scale = float(rng.uniform(0.5, 2.0))
    m = int(rng.integers(1, 4))
    mixing = list(zip(rng.uniform(0.0, 1.0, m), rng.dirichlet(np.ones(m))))
    p = rng.dirichlet(np.ones(d + 1))
    point = np.eye(d + 1)[int(rng.integers(0, d + 1))]  # ties in phi
    models = [("mixing", exchangeable_capacity(c, mixing, scale)),
              ("full-dependence", exchangeable_capacity(c, [(1.0, 1.0)], scale)),
              ("size-law", subset_size_capacity(c, p, scale)),
              ("size-point", subset_size_capacity(c, point, scale))]
    for g in bernstein_forms(rng):
        models.append(("compose-mixing", compose_capacity(g, models[0][1])))
        models.append(("compose-size", compose_capacity(g, models[2][1])))
    wild = np.concatenate([[0.0], rng.exponential(1.0, d)])
    tied = np.concatenate([[0.0], np.round(rng.uniform(0.0, 3.0, d))])
    models += [("arbitrary", Capacity(c, by_size=wild)),
               ("arbitrary-tied", Capacity(c, by_size=tied)),
               ("increasing", Capacity(c, by_size=np.cumsum(wild)))]
    # verdicts a relative slack of 0.5e-9 keeps and 1.5e-9 breaks at the
    # default tolerance: a dip in phi, a maxitive phi with phi(d - 1) moved
    # (phi(d), when d < 3) and an additive phi with phi(d) moved
    for rel in (0.5e-9, 1.5e-9):
        if d >= 3:
            dip = np.cumsum(wild)
            dip[d - 1] = dip[d - 2] - rel * dip[d]
            models.append(("dip", Capacity(c, by_size=dip)))
        for name, phi, k in (("near-maxitive", np.minimum(np.arange(d + 1), 1.0),
                              d - 1 if d >= 3 else d),
                             ("near-additive", np.arange(d + 1.0), d)):
            phi = scale * phi
            phi[k] *= 1.0 + rel
            models.append((name, Capacity(c, by_size=phi)))
    return models


def as_table(theta: Capacity) -> Capacity:
    """The same capacity as a plain 2**d table."""
    return Capacity(theta.carrier, theta.table)


def outcome(fn, *args, **kw):
    """A result, or the type and message of the error it raised."""
    try:
        return "ok", fn(*args, **kw)
    except (ValueError, RuntimeError) as e:
        return type(e).__name__, str(e)


def bits(x):
    """Bytes of an array, a float's repr, or a tuple of those."""
    if isinstance(x, tuple):
        return tuple(bits(v) for v in x)
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, (Capacity, MobiusMeasure)):
        return bits(x.table if isinstance(x, Capacity) else x.weights)
    if isinstance(x, DiscreteMeasure):
        return x.weights.tobytes()
    return repr(x)


def test_symmetric_constructors_hold_d_plus_one_numbers_and_spread_todays_table():
    rng = np.random.default_rng(0)
    for d in (1, 2, 5):
        for name, theta in symmetric_models(rng, d):
            assert theta.by_size is not None and theta.by_size.shape == (d + 1,), name
            assert theta._table is None, name
            table = theta.table
            assert theta.table is table and not table.flags.writeable
            sizes = np.array([bin(k).count("1") for k in range(1 << d)])
            want = theta.by_size[sizes]
            want[0] = 0.0
            assert table.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 12, 16])
def test_every_lattice_result_by_size_is_bit_equal_to_the_table_route(d):
    rng = np.random.default_rng(100 + d)
    for name, sym in symmetric_models(rng, d):
        tab = as_table(sym)
        ctx = (d, name)
        assert sym.total == tab.total and bits(sym.singletons()) == bits(tab.singletons())
        masks = rng.integers(0, 1 << d, 50)
        assert bits(sym.at(masks)) == bits(tab.at(masks)), ctx
        assert all(sym(int(k)) == tab(int(k)) for k in masks[:10]), ctx

        cls_s, cls_t = classify(sym), classify(tab)
        assert repr(cls_s) == repr(cls_t), ctx

        nu_s, nu_t = mobius_inverse(sym), mobius_inverse(tab)
        assert nu_s.by_size is not None and nu_t.by_size is None
        assert bits(nu_s) == bits(nu_t), ctx
        assert nu_s.min_weight() == nu_t.min_weight(), ctx
        assert bits(mobius_inverse(_Owned(sym))) == bits(nu_t), ctx
        assert bits(outcome(capacity_from_measure, nu_s)) == \
            bits(outcome(capacity_from_measure, nu_t)), ctx
        for tol in (1e-9, 0.3):
            assert bits(outcome(certified_mobius, sym, tol)) == \
                bits(outcome(certified_mobius, tab, tol)), ctx

        fs = rng.exponential(1.0, (20, d))
        fs[rng.random((20, d)) < 0.25] = 0.0
        fs[::3] = np.round(fs[::3])  # ties
        assert bits(sym.eval_batch(fs)) == bits(tab.eval_batch(fs)), ctx
        for f in fs:
            for integral in (choquet_integral, extremal_integral, comonotone_formula):
                assert bits(integral(f, sym)) == bits(integral(f, tab)), ctx
            assert bits(outcome(dual_greedy, sym, f)) == bits(outcome(dual_greedy, tab, f)), ctx
            pairs = [(int(rng.integers(1, 1 << d)), float(rng.uniform(0.2, 3.0)))
                     for _ in range(int(rng.integers(1, 4)))]
            assert bits(joint_cdf(sym, pairs)) == bits(joint_cdf(tab, pairs)), ctx
        base, incs = int(rng.integers(0, 1 << d)), rng.integers(1, 1 << d, 3).tolist()
        assert bits(successive_difference(sym, base, incs)) == \
            bits(successive_difference(tab, base, incs)), ctx


def test_compose_of_a_symmetric_capacity_applies_g_to_phi():
    rng = np.random.default_rng(3)
    for d in (1, 3, 9, 16):
        for name, theta in symmetric_models(rng, d)[:4]:
            for g in bernstein_forms(rng):
                want = g(theta.table)
                want[0] = 0.0
                phi = theta.by_size.tobytes()
                # _Owned gives the same bits: phi is copied, a table consumed
                for given in (theta, _Owned(theta), as_table(theta), _Owned(as_table(theta))):
                    got = compose_capacity(g, given)
                    held = given.arr if isinstance(given, _Owned) else given
                    assert (got.by_size is None) == (held.by_size is None), name
                    assert got.table.tobytes() == want.tobytes(), name
                assert theta.by_size.tobytes() == phi


def test_avar_by_size_is_refused_alike_with_the_same_witness():
    c = Carrier(("1", "2", "3", "4"))
    sym = Capacity(c, by_size=AVAR4_PHI)
    tab = distortion_capacity(DiscreteMeasure(c, [0.25] * 4), kind="avar", alpha=0.8)
    assert sym.table.tobytes() == tab.table.tobytes()
    nu = mobius_inverse(sym)
    assert nu.by_size.tolist() == [0.0, 0.0625, 0.25, -0.25, 0.25]
    assert nu.min_weight() == mobius_inverse(tab).min_weight() == (-0.25, 0b0111)
    messages = []
    for theta in (sym, tab):
        with pytest.raises(ValueError) as err:
            certified_mobius(theta)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and "at mask 0x7" in messages[0]
    assert repr(classify(sym)) == repr(classify(tab))
    assert not classify(sym).completely_alternating


def test_infeasible_dual_names_the_same_mask_by_size():
    # phi = (0, 0, 1, 3) passes its certificate at slack 1 (nu = (0, 2, -1, 0)),
    # but the chain gives its last point 2 > theta({x}) + 1: both routes
    # name the singleton; at d = 4 the worst excess sits on a 2-set, a tie
    # of two weights 2 that both routes resolve to the same mask
    # (0, 1, 1, 2, 4) gives weights (1, 0, 1, 2): the worst 2-set takes the
    # point of weight 2 and, of the two of weight 1, the lower
    for phi, tol, f, mask in (([0.0, 0.0, 1.0, 3.0], 1.0 / 3.0, [3.0, 2.0, 1.0], "0x4"),
                              ([0.0, 0.0, 1.0, 3.0, 5.0], 0.2, [4.0, 3.0, 2.0, 1.0], "0xc"),
                              ([0.0, 1.0, 1.0, 2.0, 4.0], 0.25, [4.0, 3.0, 2.0, 1.0], "0x9")):
        sym = Capacity(carrier_of(len(phi) - 1), by_size=phi)
        assert certified_mobius(sym, tol).by_size.min() == -1.0
        got = [outcome(dual_greedy, theta, f, tol) for theta in (sym, as_table(sym))]
        assert got[0] == got[1], got
        assert got[0][0] == "RuntimeError"
        assert f"violates feasibility at mask {mask};" in got[0][1]


def _table_models(monkeypatch):
    """Make the CLI parse every model into a plain table."""
    def tabled(parse):
        def wrapped(obj, *a):
            m = parse(obj, *a)
            return as_table(m) if isinstance(m, Capacity) and m.by_size is not None else m
        return wrapped
    monkeypatch.setattr(cli, "parse_model", tabled(cli.parse_model))


def _cli_bytes(capsys, argv, out):
    code = cli.main(argv + ["--out", str(out)] if out else argv)
    text = capsys.readouterr()
    return code, text.out, text.err, out.read_bytes() if out else b""


@pytest.mark.parametrize("d", [1, 3, 8])
def test_cli_artifacts_by_size_are_byte_identical(tmp_path, capsys, monkeypatch, d):
    rng = np.random.default_rng(200 + d)
    labels = [f"x{i}" for i in range(d)]
    size_law = {"kind": "subset_size", "carrier": labels,
                "p": (rng.dirichlet(np.ones(d + 1))).tolist(), "scale": 1.5}
    models = {
        "exchangeable": {"kind": "exchangeable", "carrier": labels,
                         "zeta": [[0.3, 0.4], [0.7, 0.6]], "scale": 2.0},
        "subset_size": size_law,
        "compose": {"kind": "bernstein_compose", "base": size_law,
                    "bernstein": {"drift": 0.4, "atoms": [[1.3, 0.7]]}},
        "compose-power": {"kind": "bernstein_compose", "base": size_law,
                          "bernstein": {"power": 0.6}},
    }
    f = json.dumps(rng.exponential(1.0, d).round(3).tolist())
    pairs = json.dumps([{"set": labels[:1 + d // 2], "level": 1.2},
                        {"set": labels[d // 2:], "level": 0.7}])
    for name, obj in models.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        m = ["--model", str(path), "--deterministic"]
        runs = {"check": (["check"] + m + ["--direct", "--seed", "3", "--trials", "50"], None),
                "dual": (["dual"] + m + ["--f", f], None),
                "cdf": (["cdf"] + m + ["--pairs", pairs], tmp_path / "cdf.json"),
                "mobius": (["mobius"] + m, tmp_path / "mobius.json"),
                "materialize": (["materialize"] + m, tmp_path / "table.json"),
                "verify": (["verify"] + m + ["--seed", "1", "--samples", "2000"],
                           tmp_path / "verify.json")}
        by_size = {k: _cli_bytes(capsys, *v) for k, v in runs.items()}
        with monkeypatch.context() as mp:
            _table_models(mp)
            table = {k: _cli_bytes(capsys, *v) for k, v in runs.items()}
        for k in runs:
            assert by_size[k] == table[k], (name, k)
            assert by_size[k][0] == 0, (name, k, by_size[k][2])


def test_classify_by_size_allocates_no_table():
    theta = exchangeable_capacity(24, [(0.2, 0.5), (0.5, 0.5)])
    tracemalloc.start()
    try:
        cls = classify(theta)
        nu = certified_mobius(_Owned(theta))
        mu, _ = dual_greedy(theta, np.linspace(0.0, 2.0, 24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cls.completely_alternating and cls.monotone
    assert nu.min_weight()[1] == cls.min_mobius_witness
    assert theta._table is None and nu._table is None
    assert peak < 1 << 20, peak


def representation_reads(package: Path) -> list[str]:
    """Every read of by_size, the atom arrays or _table in the package's
    modules other than setfun.py, as module:line.attribute."""
    return [f"{path.name}:{node.lineno}.{node.attr}"
            for path in sorted(package.glob("*.py")) if path.name != "setfun.py"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and node.attr in (
                "by_size", "atom_masks", "atom_weights", "_parts", "_table")]


def test_only_setfun_tells_the_two_forms_apart():
    # every other module reaches the held form through the _Lattice
    # operations, so each lattice identity is written once for every form
    assert representation_reads(Path(crsm.__file__).parent) == []
