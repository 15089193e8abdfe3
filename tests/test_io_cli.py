"""JSON schemas and the command line, exercised in process."""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import near_ca_table, skewed_capacity
import crsm.carrier as carrier_module
import crsm.io as io_module
from crsm import cli, tdf
from crsm.carrier import Carrier, CarrierSizeError
from crsm.cli import _csv_block_rows, _read_batch_csv, _write_batch_csv, main, model_hash
from crsm.io import (
    CAPACITY_KINDS,
    SchemaError,
    capacity_to_json,
    load_json_file,
    mobius_to_json,
    parse_bernstein,
    parse_capacity,
    parse_model,
    parse_pairs,
)
from crsm.setfun import Capacity, mobius_inverse
from crsm.simulate import SampleBatch
from crsm.tdf import SpectralTDF, check_max_complete_alternation
from crsm.transforms import check_stationary, exchangeable_capacity, subset_size_capacity

THETA2 = {"kind": "table", "carrier": ["a", "b"],
          "table": {"a": 1.0, "b": 1.0, "a,b": 1.5}}
# the README's AVaR distortion: monotone and subadditive, not CA
AVAR4 = {"kind": "distortion", "carrier": ["1", "2", "3", "4"],
         "mu": {"1": 0.25, "2": 0.25, "3": 0.25, "4": 0.25},
         "distortion": "avar", "alpha": 0.8}


def test_parse_table():
    theta = parse_capacity(THETA2)
    assert theta.table.tolist() == [0.0, 1.0, 1.0, 1.5]


def test_table_roundtrip_all_kinds():
    specs = [
        THETA2,
        {"kind": "exchangeable", "carrier": ["a", "b", "c"],
         "zeta": [[0.3, 0.5], [0.9, 0.5]], "scale": 2.0},
        {"kind": "subset_size", "carrier": ["a", "b"], "p": [0.1, 0.6, 0.3]},
        {"kind": "distortion", "carrier": ["a", "b", "c"],
         "mu": {"a": 0.2, "b": 0.3, "c": 0.5},
         "distortion": "power", "alpha": 0.5},
        {"kind": "torus_storm", "n": 4,
         "shapes": [{"points": [0, 1], "p": 1.0}]},
        {"kind": "bernstein_compose", "base": THETA2,
         "bernstein": {"power": 0.5}},
    ]
    for spec in specs:
        theta = parse_capacity(spec)
        again = parse_capacity(capacity_to_json(theta))
        assert np.array_equal(theta.table, again.table), spec["kind"]


def test_torus_json_keeps_stationarity_tag():
    spec = {"kind": "torus_storm", "n": 4, "dim": 1,
            "shapes": [{"points": [0, 1], "p": 1.0}]}
    theta = parse_capacity(spec)
    assert check_stationary(theta)
    again = parse_capacity(capacity_to_json(theta))
    assert check_stationary(again)


def test_torus_2d_points():
    spec = {"kind": "torus_storm", "n": 3, "dim": 2,
            "shapes": [{"points": [[0, 0], [1, 1]], "p": 1.0}]}
    theta = parse_capacity(spec)
    assert theta.carrier.size == 9


def test_schema_errors_are_path_precise():
    with pytest.raises(SchemaError, match=r"\$\.kind"):
        parse_capacity({"kind": "wavelet"})
    with pytest.raises(SchemaError, match=r"\$\.table"):
        parse_capacity({"kind": "table", "carrier": ["a"], "table": []})
    with pytest.raises(SchemaError, match=r'\$\.table\["a"\]'):
        parse_capacity({"kind": "table", "carrier": ["a"], "table": {"a": "x"}})
    with pytest.raises(SchemaError, match="missing"):
        parse_capacity({"kind": "table", "carrier": ["a"]})
    with pytest.raises(SchemaError, match=r"\$\.zeta\[0\]"):
        parse_capacity({"kind": "exchangeable", "carrier": ["a"],
                        "zeta": [[0.5]]})


def test_incomplete_table_lists_missing_subsets():
    with pytest.raises(SchemaError, match="a,b"):
        parse_capacity({"kind": "table", "carrier": ["a", "b"],
                        "table": {"a": 1.0, "b": 1.0}})


def test_booleans_are_not_numbers():
    with pytest.raises(SchemaError):
        parse_capacity({"kind": "table", "carrier": ["a"], "table": {"a": True}})


def big_table_with(bad_key: str, bad_value) -> dict:
    """A d = 14 table whose entry bad_key comes after 10**4 good ones."""
    keys = Carrier(tuple(f"p{i:02d}" for i in range(14))).subset_keys()[1:].tolist()
    assert keys.index(bad_key) >= 10 ** 4
    table = {k: 1.0 + i for i, k in enumerate(keys)}
    table[bad_key] = bad_value
    return {"kind": "table", "carrier": [f"p{i:02d}" for i in range(14)], "table": table}


@pytest.mark.parametrize("value, message", [
    ("x", "expected a number, got 'x'"),
    (True, "expected a number, got True"),
    (None, "expected a number, got None"),
    (float("inf"), "number must be finite, got inf"),
    (float("nan"), "number must be finite, got nan"),
    (-2.5, "number must be nonnegative, got -2.5"),
    pytest.param(10 ** 400, "number must be finite, got an integer beyond the float range",
                 id="int-beyond-float"),
])
def test_bad_value_deep_in_a_table_is_named(value, message):
    keys = Carrier(tuple(f"p{i:02d}" for i in range(14))).subset_keys().tolist()
    bad, later = keys[12000], keys[15000]
    obj = big_table_with(bad, value)
    obj["table"][later] = "later"  # only the first bad entry is reported
    with pytest.raises(SchemaError) as exc:
        parse_capacity(obj)
    assert str(exc.value) == f'at $.table["{bad}"]: {message}'
    # a bad key before the bad value is reported first, as entries come
    obj = big_table_with(bad, value)
    table = {"p00,zz" if k == keys[11000] else k: v for k, v in obj["table"].items()}
    with pytest.raises(SchemaError, match=r'\$\.table\["p00,zz"\]: label \'zz\' not in carrier'):
        parse_capacity({**obj, "table": table})


def test_empty_set_key_must_be_zero():
    parse_capacity({"kind": "table", "carrier": ["a"],
                    "table": {"": 0.0, "a": 1.0}})
    with pytest.raises(SchemaError):
        parse_capacity({"kind": "table", "carrier": ["a"],
                        "table": {"": 0.5, "a": 1.0}})


def test_duplicate_subset_rejected():
    with pytest.raises(SchemaError, match="twice"):
        parse_capacity({"kind": "table", "carrier": ["a", "b"],
                        "table": {"a,b": 1.5, "b,a": 1.5, "a": 1, "b": 1}})
    with pytest.raises(SchemaError, match="subset 'a,b' given twice"):
        parse_capacity({"kind": "table", "carrier": ["a", "b"],
                        "table": {"b,a": 1.5, "a,b": 1.5, "a": 1, "b": 1}})


def test_permuted_subset_key_parses_like_canonical():
    permuted = parse_capacity({"kind": "table", "carrier": ["a", "b", "c"],
                               "table": {"a": 1, "b": 1, "c": 1, "b,a": 1.5,
                                         "c,a": 1.5, "c,b": 1.5, "c,a,b": 2}})
    canonical = parse_capacity({"kind": "table", "carrier": ["a", "b", "c"],
                                "table": {"a": 1, "b": 1, "c": 1, "a,b": 1.5,
                                          "a,c": 1.5, "b,c": 1.5, "a,b,c": 2}})
    assert np.array_equal(permuted.table, canonical.table)
    with pytest.raises(SchemaError, match=r"""\$\.table\["a,z"\]: label 'z' not in carrier"""):
        parse_capacity({"kind": "table", "carrier": ["a", "b"],
                        "table": {"a": 1, "b": 1, "a,z": 1.5}})


# 11 labels, so 2047 keys take the lookup route, and in string order "x10"
# sorts before "x2"
LABELS11 = [f"x{i}" for i in range(11)]


def _table11() -> dict:
    keys = Carrier(tuple(LABELS11)).subset_keys()[1:].tolist()
    return {k: 1.0 + i / 7 for i, k in enumerate(keys)}


def _entry_order(carrier: Carrier, table: dict) -> np.ndarray:
    """The table as the entry-order route reads it, one key at a time."""
    arr = np.zeros(1 << carrier.size)
    for key, val in table.items():
        if key:
            arr[carrier.mask_from_key(key)] = float(val)
    return arr


@pytest.mark.parametrize("bits", [2, None])
def test_lookup_route_reads_what_the_entry_order_route_reads(monkeypatch, bits):
    # the lookup route, with small key blocks and the module's own, on
    # shuffled entries of an unsorted carrier, with ints beyond 2**53 among
    # the values; adding the key "" sends the same document down the
    # entry-order route
    if bits is not None:
        monkeypatch.setattr(carrier_module, "_KEY_BLOCK_BITS", bits)
    rng = np.random.default_rng(7)
    labels = ["z", "b", "ab", "a", "q", "B", "a b", "+", "x10", "x2", "\u00e9"]
    c = Carrier(tuple(labels))
    keys = c.subset_keys()[1:].tolist()
    ints = [2 ** 53 + 1, 2 ** 60 + 3, 0, 7, 2 ** 53 - 1]
    values = [ints[i % 5] if i % 3 == 0 else float(rng.random()) for i in range(len(keys))]
    items = list(zip(keys, values))
    rng.shuffle(items)
    table = dict(items)
    theta = parse_capacity({"kind": "table", "carrier": labels, "table": table})
    want = _entry_order(c, table)
    assert theta.table.tobytes() == want.tobytes()
    assert theta.table[c.mask_from_key(keys[0])] == float(2 ** 53 + 1) == 2.0 ** 53
    again = parse_capacity({"kind": "table", "carrier": labels, "table": {"": 0, **table}})
    assert again.table.tobytes() == want.tobytes()


@pytest.mark.parametrize("edit, message", [
    (lambda t: {**t, "x3,x3": 1.0}, '["x3,x3"]: subset \'x3\' given twice'),
    (lambda t: {**t, "x2,x1": 1.0}, '["x2,x1"]: subset \'x1,x2\' given twice'),
    (lambda t: {"x2,x1": 1.0, **t}, '["x1,x2"]: subset \'x1,x2\' given twice'),
    (lambda t: {**t, "": 0.5}, '[""]: the empty set must map to 0 (or be omitted)'),
    (lambda t: {("x1,zz" if k == "x1,x7" else k): v for k, v in t.items()},
     '["x1,zz"]: label \'zz\' not in carrier'),
    (lambda t: {**t, "x4": True}, '["x4"]: expected a number, got True'),
    (lambda t: {k: v for k, v in t.items() if k not in ("x0,x5", "x10")},
     ": missing subsets: 'x0,x5', 'x10'"),
    (lambda t: {("x9,x3" if k == "x3,x9" else k): v for k, v in t.items()
                if k != "x0,x10,x2"}, ": missing subsets: 'x0,x10,x2'"),
])
def test_table_errors_name_the_first_offending_entry(edit, message):
    with pytest.raises(SchemaError) as exc:
        parse_capacity({"kind": "table", "carrier": LABELS11, "table": edit(_table11())})
    assert str(exc.value) == "at $.table" + message


# Labels like ODD_LABELS (some sorting below ",", a quote, a backslash,
# non-ASCII), with "b" so that "b,a" names {a, b}, and "x10" before "x2"
WALK_LABELS = ["x2", "a", "a b", "a!", "+", "\u00e9", 'q"', "b\\", "b", "x10"]


class _CountedGets(dict):
    """A document's table that counts the keys looked up in it."""
    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def _parsed_or_error(table: dict):
    try:
        theta = parse_capacity({"kind": "table", "carrier": WALK_LABELS, "table": table})
    except SchemaError as e:
        return str(e)
    return theta.table.tobytes()


@pytest.mark.parametrize("bits", [2, None])
def test_the_lookup_route_reads_in_order_then_looks_up(monkeypatch, bits):
    # the walk's keys are compared with the document's and read in entry
    # order until one differs, then looked up; every document parses to
    # the entry-order route's table, or raises its exact error, with small
    # key blocks and the module's own
    if bits is not None:
        monkeypatch.setattr(carrier_module, "_KEY_BLOCK_BITS", bits)
    c = Carrier(tuple(WALK_LABELS))
    keys = [key for _, block in c.subset_key_blocks() for key in block][1:]
    rng = np.random.default_rng(11)
    ints = [2 ** 53 + 1, 2 ** 60 + 3, 0, 7]
    values = [ints[i % 4] if i % 5 == 0 else float(rng.random()) for i in range(len(keys))]
    walk = list(zip(keys, values))
    shuffled = list(walk)
    rng.shuffle(shuffled)
    missing = walk[:500] + walk[501:]
    documents = {
        "walk": (walk, 0),
        "sorted": (sorted(walk), None),
        "shuffled": (shuffled, None),
        "last swapped": (walk[:-2] + walk[-1:] + walk[-2:-1], 2),
        "missing": (missing, None),
        "empty first": ([("", 0)] + walk, len(walk)),
        "b,a": ([("b,a" if key == "a,b" else key, v) for key, v in walk], None),
    }
    for name, (items, gets) in documents.items():
        table = _CountedGets(items)
        got = _parsed_or_error(table)
        if gets is not None:
            assert table.gets == gets, name
        with monkeypatch.context() as m:
            m.setattr(io_module, "_few_keys", lambda carrier, count: True)
            assert got == _parsed_or_error(dict(items)), name
        if name == "missing":
            assert got == f"at $.table: missing subsets: {keys[500]!r}"
        else:
            assert got == _entry_order(c, dict(items)).tobytes(), name
    assert walk != sorted(walk)


def test_noncanonical_keys_parse_like_canonical_ones():
    # a permuted or repeated label names the same subset, when it is the
    # only key that does
    table = _table11()
    edited = {{"x1,x2": "x2,x1", "x3": "x3,x3"}.get(k, k): v for k, v in table.items()}
    theta = parse_capacity({"kind": "table", "carrier": LABELS11, "table": edited})
    assert theta.table.tobytes() == _entry_order(Carrier(tuple(LABELS11)), table).tobytes()


def test_size_cap_is_not_a_schema_error():
    labels = [f"p{i}" for i in range(25)]
    with pytest.raises(CarrierSizeError):
        parse_capacity({"kind": "table", "carrier": labels, "table": {}})
    with pytest.raises(CarrierSizeError):
        parse_capacity({"kind": "torus_storm", "n": 5, "dim": 2,
                        "shapes": [{"points": [[0, 0]], "p": 1.0}]})


def test_parse_bernstein_forms():
    g = parse_bernstein({"power": 0.5})
    assert g(4.0) == 2.0
    g2 = parse_bernstein({"drift": 1.0, "atoms": [[2.0, 0.5]]})
    assert g2(0.0) == 0.0
    with pytest.raises(SchemaError):
        parse_bernstein({"power": 2.0})
    with pytest.raises(SchemaError):
        parse_bernstein({"atoms": [[2.0]]})


def _held_form(theta: Capacity) -> tuple:
    """A capacity's carrier, the form it is held in and its held bits."""
    masks = None if theta.atom_masks is None else theta.atom_masks.tolist()
    return theta.carrier, theta.by_size is not None, masks, theta._held().tobytes()


def test_parse_model_dispatches_on_kind():
    # a choquet document is the law of its capacity: the same capacity, in
    # the same held form, as its inner document parsed alone
    for inner in (THETA2, {"kind": "exchangeable", "carrier": ["a", "b", "c"],
                           "zeta": [[0.3, 0.5], [0.9, 0.5]], "scale": 2.0},
                  {"kind": "torus_storm", "n": 5, "dim": 1, "scale": 0.7,
                   "shapes": [{"points": [0, 1], "p": 0.4}, {"points": [2], "p": 0.6}]}):
        cho = parse_model({"kind": "choquet", "theta": inner})
        assert type(cho) is Capacity, inner["kind"]
        assert _held_form(cho) == _held_form(parse_model(inner)), inner["kind"]
    with pytest.raises(SchemaError, match="unknown model kind 'nope'"):
        parse_model({"kind": "nope"})
    with pytest.raises(SchemaError):
        parse_model([1, 2])


def test_parse_tdf_kinds():
    # the choquet, spectral and lebesgue kinds, each read by parse_model;
    # the completely random law is the capacity of its positive singletons
    leb = parse_model({"kind": "lebesgue", "carrier": ["a", "b", "c"],
                       "mu": {"a": 0.4, "b": 0.6, "c": 0.0}})
    assert type(leb) is Capacity
    assert leb.atom_masks.tolist() == [1, 2]
    assert leb.atom_weights.tolist() == [0.4, 0.6]
    sp = parse_model({"kind": "spectral", "carrier": ["a", "b"],
                      "atoms": [{"p": 0.6, "y": {"a": 1.0, "b": 0.2}},
                                {"p": 0.4, "y": {"a": 0.0, "b": 1.0}}]})
    assert isinstance(sp, SpectralTDF)
    # ell(f) in closed form at f = (1, 2): (2 - 1) theta(b) + 1 theta(a, b);
    # sum_j p_j max_x f(x) y_j(x); sum_x mu(x) f(x)
    f = np.array([1.0, 2.0])
    cho = parse_model({"kind": "choquet", "theta": THETA2})
    for ell, want in ((cho, 2.5), (sp, 0.6 * 1.0 + 0.4 * 2.0)):
        assert ell.eval(f) == pytest.approx(want, rel=1e-15)
    assert leb.eval([1.0, 2.0, 5.0]) == pytest.approx(0.4 + 0.6 * 2.0, rel=1e-15)


def test_one_runtime_form_of_a_choquet_model():
    # the whole package holds a choquet or lebesgue model as its capacity:
    # no module names a wrapper, and the one name kept, tdf.ChoquetTDF,
    # hands its capacity back
    for path in sorted(Path(io_module.__file__).parent.glob("*.py")):
        text = path.read_text()
        named = [name for name in ("ChoquetTDF", "TailDependenceFunctional") if name in text]
        assert named == (["ChoquetTDF"] if path.name == "tdf.py" else []), path.name
    theta = parse_model({"kind": "choquet", "theta": THETA2})
    assert tdf.ChoquetTDF(theta) is theta


def test_mobius_json_roundtrip_drops_zeros():
    theta = parse_capacity(THETA2)
    nu = mobius_inverse(theta)
    obj = mobius_to_json(nu)
    assert obj["weights"] == {"a": 0.5, "b": 0.5, "a,b": 0.5}


def test_json_keys_follow_subset_key_on_unsorted_labels():
    # each key is the subset_key of its mask and carries that mask's value,
    # in the order of the key walk: the label tuples' order, which is not
    # sorted() order here ("a b" and "+" sort below ",")
    carrier = Carrier(("z", "b", "ab", "a", "q", "B", "a b", "+"))
    table = np.arange(1 << carrier.size, dtype=float)
    theta = Capacity(carrier, table)
    obj = capacity_to_json(theta)
    walk = np.concatenate([m for m, _ in carrier.subset_key_blocks()]).tolist()
    assert walk[0] == 0 and sorted(walk) == list(range(1 << carrier.size))
    tuples = [tuple(sorted(carrier.labels_of(m))) for m in walk]
    assert tuples == sorted(tuples)
    masks = walk[1:]
    assert list(obj["table"]) == [carrier.subset_key(m) for m in masks]
    assert list(obj["table"]) != sorted(obj["table"])
    assert list(obj["table"].values()) == table[masks].tolist()
    assert np.array_equal(parse_capacity(obj).table, table)
    nu = mobius_inverse(theta)
    kept = mobius_to_json(nu)["weights"]
    nonzero = [m for m in masks if nu.weights[m] != 0.0]
    assert 0 < len(nonzero) < len(masks)
    assert list(kept) == [carrier.subset_key(m) for m in nonzero]
    assert list(kept.values()) == nu.weights[nonzero].tolist()


def test_parse_pairs():
    c = Carrier(("a", "b"))
    pairs = parse_pairs([{"set": ["a"], "level": 2.0},
                         {"set": ["a", "b"], "level": 1.0}], c)
    assert pairs == [(0b01, 2.0), (0b11, 1.0)]
    with pytest.raises(SchemaError):
        parse_pairs([{"set": ["a"], "level": 0.0}], c)
    with pytest.raises(SchemaError):
        parse_pairs([{"set": [], "level": 1.0}], c)
    with pytest.raises(SchemaError):
        parse_pairs([{"level": 1.0}], c)


def test_model_hash_is_content_addressed():
    a = model_hash({"x": 1, "y": [1, 2]})
    b = model_hash({"y": [1, 2], "x": 1})
    c = model_hash({"y": [1, 2], "x": 2})
    assert a == b != c


# ---------------------------------------------------------------- CLI


@pytest.fixture()
def theta2_file(tmp_path):
    p = tmp_path / "theta2.json"
    p.write_text(json.dumps(THETA2))
    return str(p)


@pytest.fixture()
def spectral_file(tmp_path):
    p = tmp_path / "spectral.json"
    p.write_text(json.dumps(
        {"kind": "spectral", "carrier": ["a", "b"],
         "atoms": [{"p": 0.5, "y": {"a": 1.0, "b": 0.3}},
                   {"p": 0.3, "y": {"a": 0.4, "b": 1.0}},
                   {"p": 0.2, "y": {"a": 0.8, "b": 0.8}}]}))
    return str(p)


def test_one_runner_owns_the_load_hash_emit_protocol():
    # only cli._run reads --model, parses it, hashes it and writes a
    # command's JSON; _inline_json also loads @file arguments
    tree = ast.parse(Path(cli.__file__).read_text())
    owners: dict = {}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and node.attr == "model"
                    and isinstance(node.value, ast.Name) and node.value.id == "args"):
                owners.setdefault("args.model", set()).add(fn.name)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                name = node.func.id
                if name == "getattr" and any(isinstance(a, ast.Constant) and a.value == "model"
                                             for a in node.args):
                    owners.setdefault("args.model", set()).add(fn.name)
                elif name in ("load_json_file", "parse_model", "parse_capacity",
                              "_provenance", "_emit_json"):
                    owners.setdefault(name, set()).add(fn.name)
    assert owners == {"args.model": {"_run"}, "load_json_file": {"_run", "_inline_json"},
                      "parse_model": {"_run"}, "_provenance": {"_run"},
                      "_emit_json": {"_run"}}


def test_cli_hashes_the_model_only_for_an_artifact(tmp_path, theta2_file, capsys,
                                                   monkeypatch):
    calls = []
    real = cli.model_hash
    monkeypatch.setattr(cli, "model_hash", lambda obj: calls.append(1) or real(obj))
    model = ["--model", theta2_file]
    csv = tmp_path / "batch.csv"
    assert main(["simulate", *model, "--seed", "1", "--samples", "100",
                 "--out", str(csv)]) == 0
    assert len(calls) == 1
    printing = [["choquet", *model, "--f", '{"a":2,"b":1}'],
                ["extremal", *model, "--f", '{"a":2,"b":1}'],
                ["cdf", *model, "--pairs", '[{"set": ["a"], "level": 2}]'],
                ["verify", *model, "--seed", "1", "--samples", "100"]]
    for argv in printing:
        for out, hashes in (([], 0), (["--out", str(tmp_path / "out.json")], 1)):
            calls.clear()
            assert main(argv + out) in (0, 1), argv
            assert len(calls) == hashes, argv + out
    writing = [["check", *model], ["mobius", *model], ["materialize", *model],
               ["dual", *model, "--f", '{"a":2,"b":1}'],
               ["couple", *model, "--seed", "1", "--samples", "50"],
               ["argmax-test", *model, "--set", '["a"]', "--seed", "1", "--samples", "50"]]
    for argv in writing:
        calls.clear()
        assert main(argv) in (0, 1), argv
        assert len(calls) == 1, argv
    calls.clear()
    assert main(["estimate", "--batch", str(csv), "--set", '["a"]']) == 0
    assert calls == []


def test_cli_choquet_prints_bare_number(theta2_file, capsys):
    assert main(["choquet", "--model", theta2_file, "--f", '{"a":2,"b":1}']) == 0
    assert capsys.readouterr().out.strip() == "2.5"


def test_cli_check_witness_shape(theta2_file, tmp_path, capsys):
    avar = tmp_path / "avar.json"
    avar.write_text(json.dumps(
        {"kind": "distortion", "carrier": ["1", "2", "3", "4"],
         "mu": {"1": 0.25, "2": 0.25, "3": 0.25, "4": 0.25},
         "distortion": "avar", "alpha": 0.8}))
    assert main(["check", "--model", str(avar), "--deterministic"]) == 0
    out = json.loads(capsys.readouterr().out)
    cls = out["classification"]
    assert cls["completely_alternating"] is False
    assert cls["witness"]["F"] == ["1", "2", "3"]
    assert cls["witness"]["nu"] == -0.25


def test_cli_simulate_estimate_roundtrip(theta2_file, tmp_path, capsys):
    csv = tmp_path / "batch.csv"
    assert main(["simulate", "--model", theta2_file, "--samples", "4000",
                 "--seed", "11", "--deterministic", "--out", str(csv)]) == 0
    text = csv.read_text()
    assert text.startswith("# provenance:")
    assert text.splitlines()[1] == "sample_index,a,b"
    assert main(["estimate", "--batch", str(csv), "--set", '["a","b"]',
                 "--deterministic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["scale"] - 1.5) < 3 * payload["half_width"]


def test_cli_simulate_json_format(theta2_file, capsys):
    assert main(["simulate", "--model", theta2_file, "--samples", "5",
                 "--seed", "0", "--format", "json", "--deterministic"]) == 0
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert len(payload["samples"]) == 5
    assert payload["provenance"]["seed"] == 0
    assert payload["provenance"]["stream"] == 2
    assert "generated_at" not in payload["provenance"]
    assert out.err.startswith("terms per sample: mean ")


def test_cli_deterministic_byte_identical(theta2_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["simulate", "--model", theta2_file, "--samples", "20",
                     "--seed", "9", "--format", "json", "--deterministic",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


# Labels that sort below "," (space, "!", "+"), so that sorted keys are not
# in the order of the label tuples, besides non-ASCII ones, a quote and a
# backslash.
ODD_LABELS = ["a", "a b", "a!", "+", "\u00e9", 'q"', "b\\", "\u2603"]


def _writer_corpus() -> list:
    odd = Carrier(tuple(ODD_LABELS))
    theta = Capacity(odd, np.arange(1 << odd.size, dtype=float))
    nu = mobius_inverse(theta)
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.1, 1e300, 5e-324]
    # float tables that take the writer's distinct-value route: a few values
    # over several blocks, with 0.0 and -0.0 (one dict key) in one block
    n = 3 * cli._BLOCK_VALUES
    few = [math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1, float("nan")]
    values = [few[i % len(few)] for i in range(n)]
    values[n // 2:n // 2 + 2] = 0.0, -0.0
    odd_keys = ODD_LABELS + ["\n", "\x00", "\x7f", "\U0001f600"]
    return [
        {}, [], {"a": {}, "b": [], "c": [{}], "d": [[]]}, [{}, [], [[]]],
        [{"a": 1, "b": [1, 2]}, {"c": {"d": None}}], {"x": [1, 2], "y": {"z": [3.5]}},
        {lb: i for i, lb in enumerate(ODD_LABELS)}, ODD_LABELS,
        {"v": specials, "w": dict(zip(ODD_LABELS, specials))},
        {1: "int", 2.5: "float"}, {True: [1], False: {}}, {None: "null"},
        (1, (2.0, "3"), [True, False, None]),
        capacity_to_json(theta), mobius_to_json(nu),
        {"kind": "spectral", "carrier": ODD_LABELS,
         "atoms": [{"p": 0.25, "y": {lb: float(i) for i, lb in enumerate(ODD_LABELS)}},
                   {"p": 0.75, "y": {lb: float(i + 8) for i, lb in enumerate(ODD_LABELS)}}]},
        {f"k{i}": specials[i % len(specials)] for i in range(3 * cli._BLOCK_VALUES + 5)},
        [i / 7 for i in range(cli._BLOCK_VALUES + 1)],
        {f"f{i:05d}": v for i, v in enumerate(values)},
        {f"d{i}": (i + 1) / 7 for i in range(cli._BLOCK_VALUES + 3)},
        # 1, 1.0 and true are one dict key but three texts
        {"a": 1.0, "b": 1, "c": 1.0, "d": 2.0}, {"a": 1.0, "b": True, "c": 1.0},
        {key: [0.5, 2.0][i % 2] for i, key in enumerate(odd_keys)},
        [[float(i), float(-i)] for i in range(50)],
        {"checks": [{"name": "n", "statistic": 0.5, "passed": True, "detail": ""}],
         "provenance": {"tool": "crsm", "seed": None}},
        "text", 1.5, None, True, 7,
    ]


@pytest.mark.parametrize("block", [3, None])
def test_json_writer_matches_json_dumps(monkeypatch, tmp_path, capsys, block):
    # the streamed text is json.dumps(obj, indent=2, sort_keys=True) + "\n",
    # byte for byte, with blocks of 3 (every container split) and the
    # module's own size (one dict and one list of several blocks)
    if block is not None:
        monkeypatch.setattr(cli, "_BLOCK_VALUES", block)
    out = tmp_path / "out.json"
    for i, obj in enumerate(_writer_corpus()):
        want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        cli._emit_json(obj, str(out))
        assert out.read_bytes() == want.encode(), i
        cli._emit_json(obj, None)
        assert capsys.readouterr().out == want, i
    # keys that json cannot sort or encode fail as json fails
    for bad in ({1: 0, "a": 1}, {(1, 2): 0, (3, 4): [0]}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._emit_json(bad, str(out))


@pytest.mark.parametrize("block", [3, None])
def test_model_hash_is_the_sha256_of_the_compact_sorted_json(monkeypatch, block):
    # the hash streams the artifact writer's compact text, which is
    # json.dumps(obj, sort_keys=True, separators=(",", ":")) byte for byte
    if block is not None:
        monkeypatch.setattr(cli, "_BLOCK_VALUES", block)
    for i, obj in enumerate(_writer_corpus()):
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        assert model_hash(obj) == hashlib.sha256(text.encode()).hexdigest(), i
    for bad in ({1: 0, "a": 1}, {(1, 2): 0, (3, 4): [0]}):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, separators=(",", ":"))
        with pytest.raises(TypeError):
            model_hash(bad)


# one model document of each shape the hash meets: a table, a constructor,
# a functional and a nested constructor
HASHED_MODELS = [
    THETA2,
    {"kind": "torus_storm", "n": 5, "dim": 1, "scale": 0.7,
     "shapes": [{"points": [0, 1], "p": 0.4}, {"points": [2], "p": 0.6}]},
    {"kind": "spectral", "carrier": ["a", "b"],
     "atoms": [{"p": 0.5, "y": {"a": 1.0, "b": 0.3}},
               {"p": 0.5, "y": {"a": 0.4, "b": 1.0}}]},
    {"kind": "bernstein_compose",
     "base": {"kind": "exchangeable", "carrier": ["a", "b", "c"],
              "zeta": [[0.25, 0.5], [1.0, 0.5]], "scale": 2.0},
     "bernstein": {"drift": 0.5, "atoms": [[1.0, 0.25], [3.0, 1e-3]]}},
]


def _compact_sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("doc", HASHED_MODELS, ids=lambda doc: doc["kind"])
def test_model_hash_keeps_its_digest_on_the_builtin_sha256(doc, monkeypatch):
    # CPython's own sha256 module hashes, with OpenSSL's digest; a build
    # without that module falls back to hashlib, with the same digest
    want = _compact_sha256(doc)
    assert type(cli._sha256()).__module__ in ("_sha2", "_sha256")
    assert model_hash(doc) == want
    fallback = []
    real = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda: fallback.append(1) or real())
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)  # import raises ImportError
    assert model_hash(doc) == want
    assert fallback == [1]


def test_reading_a_table_holds_the_document_and_one_table():
    # a 2^16 table document of 3.3 MB: hashing it holds one block of text,
    # and parsing it the 512 KB table and one block of keys, no second copy
    # of the document's keys or text
    c = Carrier(tuple(f"x{i}" for i in range(16)))
    doc = capacity_to_json(exchangeable_capacity(c, [(0.3, 0.5), (0.05, 0.5)], 1.0))
    want = hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    tracemalloc.start()
    try:
        digest = model_hash(doc)
        hash_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        theta = parse_model(doc)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == want.hexdigest()
    assert theta.table.tobytes() == _entry_order(c, doc["table"]).tobytes()
    assert hash_peak < 1 << 20, hash_peak
    assert parse_peak < 1.5 * (1 << 20), parse_peak
    # a table whose 65535 values all differ encodes every value, one block
    # at a time too
    distinct = {**doc, "table": dict(zip(doc["table"],
                                         np.linspace(1.0, 2.0, len(doc["table"])).tolist()))}
    tracemalloc.start()
    try:
        digest = model_hash(distinct)
        hash_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == _compact_sha256(distinct)
    assert hash_peak < 1 << 20, hash_peak


@pytest.mark.parametrize("held", ["by size", "table"])
def test_writing_a_table_holds_one_block_beside_its_dict(held):
    # capacity_to_json and mobius_to_json of a d = 16 subset_size capacity
    # read their values and keys a block at a time: beyond the dict each
    # returns they allocate under 1 MB (2.4 and 2.9 MB with the keys of the
    # whole lattice built first), and a capacity held by size stays so
    c = Carrier(tuple(f"x{i}" for i in range(16)))
    p = [0.0] + [1.0 / k for k in range(1, 17)]
    theta = subset_size_capacity(c, [v / sum(p) for v in p], 1.0)
    if held == "table":
        theta = Capacity(c, theta.table)
    nu = mobius_inverse(theta)
    for write, lattice in ((capacity_to_json, theta), (mobius_to_json, nu)):
        tracemalloc.start()
        try:
            obj = write(lattice)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < 1 << 20, (write.__name__, peak - kept)
        assert (lattice._table is None) == (held == "by size")
    assert len(obj["weights"]) == (1 << 16) - 1


def test_model_hash_encodes_each_distinct_value_of_a_block_once(monkeypatch):
    # the 2^16 table of a capacity held by size has one value per subset
    # size, so each block of entries hands the float encoder at most 17
    c = Carrier(tuple(f"x{i}" for i in range(16)))
    doc = capacity_to_json(exchangeable_capacity(c, [(0.3, 0.5), (0.05, 0.5)], 1.0))
    real, counts = cli._FLOATS, []

    class Counted:
        def encode(self, values):
            counts.append(len(values))
            return real.encode(values)

    monkeypatch.setattr(cli, "_FLOATS", Counted())
    assert model_hash(doc) == _compact_sha256(doc)
    step = cli._BLOCK_VALUES // 2
    assert len(counts) == -(-len(doc["table"]) // step) and max(counts) <= 17, counts


def test_every_json_artifact_is_the_indent_encoders_text(tmp_path, theta2_file,
                                                          spectral_file, capsys):
    # each command's JSON, on stdout or in --out, reads back to the same text
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"kind": "exchangeable", "carrier": ODD_LABELS[:5],
                               "zeta": [[0.2, 0.5], [0.5, 0.5]]}))
    model, f = ["--model", str(odd)], json.dumps({lb: 1.0 + i for i, lb in enumerate(ODD_LABELS[:5])})
    csv, out = tmp_path / "batch.csv", tmp_path / "out.json"
    assert main(["simulate", *model, "--seed", "1", "--samples", "300", "--out", str(csv)]) == 0
    runs = [
        (["check", *model], False), (["check", *model, "--direct", "--seed", "2",
                                      "--trials", "50"], False),
        (["check", "--model", spectral_file, "--seed", "1", "--trials", "50"], False),
        (["dual", *model, "--f", f, "--oracle", "sampled", "--seed", "7",
          "--trials", "50"], False),
        (["mobius", *model], False), (["materialize", *model], False),
        (["cdf", *model, "--pairs", '[{"set": ["a b", "+"], "level": 2}]'], True),
        (["choquet", *model, "--f", f], True),
        (["estimate", "--batch", str(csv), "--set", '["\u00e9"]'], False),
        (["couple", "--model", spectral_file, "--seed", "3", "--samples", "200"], False),
        (["argmax-test", *model, "--set", '["a!"]', "--seed", "4", "--samples", "500"], False),
        (["verify", *model, "--seed", "5", "--samples", "500"], True),
        (["simulate", "--model", theta2_file, "--seed", "6", "--samples", "20",
          "--format", "json"], False),
    ]
    for argv, to_file in runs:
        if to_file:
            argv = argv + ["--out", str(out)]
        assert main(argv) in (0, 1), argv
        stdout = capsys.readouterr().out
        text = out.read_text() if to_file else stdout
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", argv


def test_cli_simulate_names_its_method(theta2_file, tmp_path, capsys):
    # 20 atoms against LePage's E[N] >= 1e4: the cost rule draws max-linearly;
    # the method enters the artifact, the cost only stderr
    skew = tmp_path / "skew.json"
    skew.write_text(json.dumps(capacity_to_json(
        skewed_capacity(np.random.default_rng(0), 8, 1e-4))))
    for model, method, note in (
            (theta2_file, "lepage", "method lepage: E[N] >= 1.5 terms per sample; "
                                    "max-linear needs 3 atoms"),
            (str(skew), "max-linear", "method max-linear: 20 atoms per sample; "
                                      "LePage needs E[N] >= 10000 terms")):
        outs = []
        for _ in range(2):
            assert main(["simulate", "--model", model, "--samples", "30", "--seed", "4",
                         "--format", "json", "--deterministic"]) == 0
            outs.append(capsys.readouterr())
        assert outs[0].out == outs[1].out
        assert json.loads(outs[0].out)["provenance"]["method"] == method
        assert outs[0].err.splitlines()[1] == note


def test_cli_simulate_prints_the_exact_expected_terms_by_size(theta2_file, tmp_path,
                                                             capsys):
    # an exact LePage run of a capacity held by size prints its exact E[N]
    # beside the mean term count, on stderr only; a table run has none
    exch = tmp_path / "exch.json"
    exch.write_text(json.dumps({"kind": "exchangeable", "carrier": list("abcdefghijkl"),
                                "zeta": [[0.2, 0.5], [0.5, 0.5]]}))
    argv = ["--samples", "500", "--seed", "1", "--deterministic"]
    assert main(["simulate", "--model", str(exch)] + argv) == 0
    out = capsys.readouterr()
    assert out.err.startswith("terms per sample: mean 8.292 (exact E[N] 8.14963), p50 8, ")
    assert "E[N]" not in out.out
    assert main(["simulate", "--model", theta2_file] + argv) == 0
    assert "exact" not in capsys.readouterr().err


def test_cli_randomized_commands_require_seed(theta2_file, capsys):
    extra = {"argmax-test": ["--set", '["a"]']}
    for command in ("simulate", "couple", "argmax-test", "verify"):
        argv = [command, "--model", theta2_file, "--samples", "5"]
        assert main(argv + extra.get(command, [])) == 2
        err = capsys.readouterr().err
        assert f"{command} is randomized: --seed is required" in err
    assert main(["dual", "--model", theta2_file, "--f", '{"a":1,"b":1}',
                 "--oracle", "sampled"]) == 2


def test_cli_tolerance_only_on_exact_check_commands(tmp_path, theta2_file, capsys):
    # nu({a,b}) = -1e-6: outside the default slack 1e-9 * 2, inside 1e-5 * 2
    near = tmp_path / "near.json"
    near.write_text(json.dumps({"kind": "table", "carrier": ["a", "b"],
                                "table": {"a": 1.0, "b": 1.0, "a,b": 2.0 + 1e-6}}))
    argv = ["dual", "--model", str(near), "--f", '{"a":2,"b":1}', "--deterministic"]
    assert main(argv) == 2
    assert "completely alternating" in capsys.readouterr().err
    assert main(argv + ["--tolerance", "1e-5"]) == 0
    assert json.loads(capsys.readouterr().out)["greedy"] == pytest.approx(3.0 + 1e-6)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", theta2_file, "--seed", "0",
              "--tolerance", "1e-6"])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


def test_cli_verify_refuses_a_tolerance_on_a_spectral_model(spectral_file, capsys):
    # a spectral model has no exact lattice rows, as in `check`
    argv = ["verify", "--model", spectral_file, "--seed", "1", "--samples", "200"]
    for tol in ("nan", "1e-6"):
        assert main(argv + ["--tolerance", tol]) == 2
        assert capsys.readouterr().err == ("error: at $.kind: verify --tolerance needs a "
                                           "CRSM model, not a SpectralTDF\n")
    assert main(argv) == 0


def test_cli_argmax_test_refuses_a_single_sample(theta2_file, capsys):
    argv = ["argmax-test", "--model", theta2_file, "--set", '["a"]', "--seed", "1",
            "--samples", "1"]
    for extra in ([], ["--negative-control"]):
        assert main(argv + extra) == 2
        assert capsys.readouterr().err == ("error: the argmax test needs at least 2 "
                                           "samples, got 1\n")


@pytest.mark.parametrize("command", ["simulate", "couple", "argmax-test"])
def test_cli_sample_counts_are_refused_before_the_model_is_read(tmp_path, capsys,
                                                                command):
    # the model path does not exist: only argparse can give this message
    argv = [command, "--model", str(tmp_path / "missing.json"), "--seed", "1"]
    if command == "argmax-test":
        argv += ["--set", '["a"]']
    for flag, value in (("--samples", "0"), ("--samples", "-3"), ("--samples", "1.5"),
                        ("--max-terms", "0")):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert f"{flag}: expected a positive integer, got '{value}'" in \
            capsys.readouterr().err


def test_cli_verify_refuses_too_few_samples_before_any_work(theta2_file, spectral_file,
                                                            capsys, monkeypatch):
    # the frechet-scale rows need 30 samples; neither the Mobius round trip,
    # the probe nor the sample runs first
    calls = []
    for target in ("crsm.simulate.simulate_model", "crsm.verify.mobius_inverse",
                   "crsm.tdf.check_max_complete_alternation"):
        monkeypatch.setattr(target, lambda *a, name=target, **k: calls.append(name))
    for model in (theta2_file, spectral_file):
        assert main(["verify", "--model", model, "--seed", "1", "--samples", "29"]) == 2
        assert capsys.readouterr().err == ("error: verify needs at least 30 samples "
                                           "for its frechet-scale rows, got 29\n")
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 100, 101])
def test_simulate_percentiles_match_numpy(n):
    rng = np.random.default_rng(n)
    for values in (rng.integers(1, 10 ** 6, n), rng.geometric(0.01, n), np.full(n, 7),
                   rng.exponential(1.0, n)):
        got = cli._percentiles(values, (50, 99))
        want = np.percentile(values, [50, 99])
        assert [np.float64(g).tobytes() for g in got] == [w.tobytes() for w in want]


def test_cli_simulate_does_not_import_numpy_ma(theta2_file, spectral_file, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    run = ("import sys; from crsm.cli import main; "
           "print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)")
    for model in (theta2_file, spectral_file):
        out = subprocess.run([sys.executable, "-c", run, "simulate", "--model", model,
                              "--seed", "1", "--samples", "2000",
                              "--out", str(tmp_path / "x.csv")],
                             env=env, capture_output=True, text=True, check=True).stdout
        assert out.split() == ["0", "False"], model


# the public names of crsm, as the package listed them when it imported
# every module eagerly
PUBLIC_NAMES = [
    "BernsteinFunction", "Capacity", "Carrier", "CarrierSizeError", "CheckResult",
    "Coupling", "MaxTermsExceeded",
    "MobiusMeasure", "SampleBatch", "SimConfig", "SpectralSampler", "SpectralTDF",
    "TorusTag", "argmax_independence_test", "argmax_set", "capacity_from_measure",
    "carrier", "check_complete_alternation_direct", "check_max_complete_alternation",
    "check_stationary", "choquet_integral", "classify", "comonotone_additivity_check",
    "comonotone_formula", "comonotonic", "compose_capacity", "continuity_bound_check",
    "couple", "crsm_envelope", "distortion_capacity", "dominates", "dual_greedy",
    "dual_oracle", "exchangeable_capacity", "extremal_coefficients", "extremal_integral",
    "extremal_integral_setform", "frechet_scale_estimate", "independence_on_disjoint",
    "integrals", "joint_cdf", "mobius_inverse", "setfun", "simulate", "simulate_crsm",
    "simulate_model", "simulate_spectral", "subset_size_capacity", "substream",
    "successive_difference", "tdf", "torus_storm_capacity", "transforms", "verify",
    "verify_model",
]


def test_lattice_commands_load_neither_sampler_nor_openssl(theta2_file, spectral_file,
                                                           tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    watched = ("crsm.simulate", "crsm.verify", "crsm.tdf", "crsm.integrals", "_hashlib")
    report = f"print(json.dumps(sorted(m for m in {watched!r} if m in sys.modules)))"

    def child(script, arg):
        """The watched modules a fresh process loads to run script on arg."""
        out = subprocess.run([sys.executable, "-c", "import json, sys; " + script + report,
                              json.dumps(arg)], env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.splitlines()[-1])

    def loaded(*argvs):
        return child("from crsm.cli import main; codes = [main(argv) for argv in "
                     "json.loads(sys.argv[1])]; assert codes == [0] * len(codes), codes; ",
                     argvs)

    functional = ["crsm.integrals", "crsm.tdf"]
    pairs = ["--pairs", '[{"set": ["a"], "level": 2}]']
    out = [["--out", str(tmp_path / f"{i}.json")] for i in range(6)]
    # a capacity command reads the capacity alone, and the model hash runs on
    # CPython's own sha256, so neither OpenSSL nor the functional layer loads
    assert loaded(["check", "--model", theta2_file, *out[0]],
                  ["materialize", "--model", theta2_file, *out[1]],
                  ["mobius", "--model", theta2_file, *out[2]]) == []
    # so does materialize of a choquet or lebesgue model, read as its capacity
    wrapped = {"choquet": {"kind": "choquet", "theta": json.loads(Path(theta2_file).read_text())},
               "lebesgue": {"kind": "lebesgue", "carrier": ["a", "b"], "mu": {"a": 1, "b": 2}}}
    for kind, doc in wrapped.items():
        (tmp_path / f"{kind}.json").write_text(json.dumps(doc))
    assert loaded(*[["materialize", "--model", str(tmp_path / f"{kind}.json"), *out[0]]
                    for kind in wrapped]) == []
    # the dual and the cdf run in crsm.tdf, and still hash without OpenSSL
    assert loaded(["dual", "--model", theta2_file, "--f", '{"a": 2, "b": 1}', *out[3]],
                  ["cdf", "--model", theta2_file, *pairs, *out[4]],
                  ["cdf", "--model", spectral_file, *pairs, *out[5]]) == functional
    assert loaded(["cdf", "--model", theta2_file, *pairs],
                  ["cdf", "--model", spectral_file, *pairs]) == functional
    # estimate reads a CSV: its statistic loads crsm.verify, which imports
    # the functional layer only where it runs, and no sampler
    csv = str(tmp_path / "batch.csv")
    assert main(["simulate", "--model", theta2_file, "--seed", "1", "--samples", "50",
                 "--out", csv]) == 0
    assert loaded(["estimate", "--batch", csv, "--set", '["a"]']) == ["crsm.verify"]
    # a seed puts the stream version in the provenance, and loads no sampler
    seeded = [["--seed", "1", "--out", str(tmp_path / f"s{i}.json")] for i in range(2)]
    assert loaded(["check", "--model", theta2_file, *seeded[0]]) == []
    assert loaded(["dual", "--model", theta2_file, "--f", '{"a": 2, "b": 1}',
                   *seeded[1]]) == functional
    assert json.loads((tmp_path / "s1.json").read_text())["provenance"]["stream"] == 2
    # parsing any capacity kind loads no functional layer
    docs = [THETA2, HASHED_MODELS[1], HASHED_MODELS[3],
            {"kind": "exchangeable", "carrier": ["a", "b"], "zeta": [[0.5, 1.0]]},
            {"kind": "subset_size", "carrier": ["a", "b"], "p": [0.2, 0.3, 0.5]},
            AVAR4]
    assert {doc["kind"] for doc in docs} == set(CAPACITY_KINDS)
    # a choquet or lebesgue document is read as its capacity, so its parse
    # and its capacity commands load no functional layer either
    wrapped = [{"kind": "choquet", "theta": THETA2},
               {"kind": "choquet", "theta": docs[3]},
               {"kind": "lebesgue", "carrier": ["a", "b", "c"],
                "mu": {"a": 0.4, "b": 0.6, "c": 0.0}}]
    for doc in docs + wrapped:
        assert child("from crsm.io import parse_model; "
                     "parse_model(json.loads(sys.argv[1])); ", doc) == [], doc
    for i, doc in enumerate(wrapped[1:]):
        path = tmp_path / f"{doc['kind']}.json"
        path.write_text(json.dumps(doc))
        outs = [str(tmp_path / f"{cmd}-{i}.json") for cmd in ("check", "mobius")]
        assert loaded(["check", "--model", str(path), "--out", outs[0]],
                      ["mobius", "--model", str(path), "--out", outs[1]]) == [], doc["kind"]


def test_public_names_resolve_on_first_use():
    import importlib
    import crsm
    assert crsm.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(crsm))
    for name in PUBLIC_NAMES:
        obj = getattr(crsm, name)
        if name in crsm._EXPORTS:
            assert obj is importlib.import_module(f"crsm.{name}")
        else:
            assert obj is getattr(importlib.import_module(obj.__module__), name), name
            assert name in crsm._EXPORTS[obj.__module__.removeprefix("crsm.")], name
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        crsm.nope


def test_out_of_range_integer_is_a_schema_error(tmp_path, capsys):
    # an int that float() cannot hold is refused with its path, exit 2
    huge = 10 ** 400
    model = tmp_path / "huge.json"
    model.write_text(json.dumps({**THETA2, "table": {"a": 1, "b": 1, "a,b": huge}}))
    assert main(["check", "--model", str(model)]) == 2
    assert capsys.readouterr().err == (
        'error: at $.table["a,b"]: number must be finite, got an integer beyond the '
        'float range\n')
    with pytest.raises(SchemaError, match=r"at \$\.scale: number must be finite"):
        parse_capacity({"kind": "exchangeable", "carrier": ["a"],
                        "zeta": [[0.3, 0.5]], "scale": huge})


def test_cli_estimate_rejects_ragged_csv(tmp_path, capsys):
    csv = tmp_path / "ragged.csv"
    csv.write_text("# provenance: {}\nsample_index,a,b\n0,1.0,2.0\n1,3.0\n")
    assert main(["estimate", "--batch", str(csv), "--set", '["a"]']) == 2
    err = capsys.readouterr().err
    assert "line 4 has 1 values for 2 carrier points" in err
    assert "inhomogeneous" not in err


def _per_row_csv(batch: SampleBatch, prov: dict) -> str:
    """The CSV of a batch written one row and one repr call at a time."""
    lines = ["# provenance: " + json.dumps(prov, sort_keys=True),
             "sample_index," + ",".join(batch.carrier.labels)]
    for j in range(batch.n):
        lines.append(f"{j}," + ",".join(repr(float(v)) for v in batch.values[j]))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("n", [1, _csv_block_rows(3) - 1, _csv_block_rows(3),
                               _csv_block_rows(3) + 1])
def test_batch_csv_matches_per_row_repr_and_reads_back_bit_equal(tmp_path, n):
    special = [5e-324, 1e-5, 0.1 + 0.2, 1e16, 1.7976931348623157e308,
               1.0, 3.0e5, 123456789.0]
    rng = np.random.default_rng(n)
    values = 1.0 / rng.exponential(size=3 * n)
    values[:min(3 * n, len(special))] = special[:3 * n]
    batch = SampleBatch(Carrier(("a", "b", "c")), values.reshape(n, 3), seed=0,
                        mode="exact")
    prov = {"tool": "crsm", "seed": 0}
    path = tmp_path / "batch.csv"
    with open(path, "w") as fh:
        _write_batch_csv(fh, batch, prov)
    assert path.read_text() == _per_row_csv(batch, prov)
    carrier, back = _read_batch_csv(str(path))
    assert carrier.labels == ("a", "b", "c")
    assert back.dtype == np.float64 and back.shape == (n, 3)
    assert back.tobytes() == batch.values.tobytes()


def test_read_batch_csv_skips_comments_blanks_and_whitespace(tmp_path):
    path = tmp_path / "edge.csv"
    path.write_bytes(b"# provenance: {}\r\n\r\n  sample_index,a,b \r\n"
                     b"# note\r\nidx, 1.5 ,2\r\n\r\n   \r\n  # later\r\n"
                     b"1,\t3e-5,4.0")
    carrier, values = _read_batch_csv(str(path))
    assert carrier.labels == ("a", "b")
    assert values.tolist() == [[1.5, 2.0], [3e-5, 4.0]]


def _rows(n: int) -> str:
    return "".join(f"{j},{j}.5,1.0\n" for j in range(n))


@pytest.mark.parametrize("text, message", [
    (None, "cannot read {path}: no such file"),
    # reported once, not wrapped in a second "bad CSV row" message
    ("sample_index0,a\n0,1.0\n",
     "{path} is not a simulation CSV (header starts with 'sample_index0')"),
    # the bad cell on line 3 comes before the ragged row on line 4
    ("sample_index,a,b\n0,1.0,x\n1,2.0\n",
     "bad CSV row in {path}: could not convert string to float: 'x'"),
    ("# provenance: {}\nsample_index,a,b\n\n", "{path} contains no samples"),
    # line numbers count comment and blank lines, also past the first block
    ("sample_index,a,b\n# c\n\n" + _rows(_csv_block_rows(2)) + "x,1.0\n",
     "bad CSV row in {path}: "
     f"line {_csv_block_rows(2) + 4} has 1 values for 2 carrier points"),
])
def test_cli_estimate_csv_errors(tmp_path, capsys, text, message):
    path = tmp_path / "batch.csv"
    if text is not None:
        path.write_text(text)
    assert main(["estimate", "--batch", str(path), "--set", '["a"]']) == 2
    assert capsys.readouterr().err == f"error: at $: {message.format(path=path)}\n"


def test_cli_io_errors_exit_2_with_a_message(tmp_path, theta2_file, capsys):
    # a directory is no file to read, and a missing directory none to write in
    for argv in (["check", "--model", str(tmp_path)],
                 ["estimate", "--batch", str(tmp_path), "--set", '["a"]']):
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: at $: cannot read {tmp_path}: "
                                           f"Is a directory\n")
    out = tmp_path / "missing" / "x.json"
    assert main(["mobius", "--model", theta2_file, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: cannot write {out}: "
                                       f"No such file or directory\n")


@pytest.mark.parametrize("chars", [3, io_module._READ_CHARS])
def test_a_json_file_is_read_in_pieces_as_one_text(tmp_path, monkeypatch, chars):
    # read a few characters at a time, a document, with multi-byte and
    # "\r\n" line ends across the reads, is the one json.load gives; a bad
    # byte is reported at its place in the whole file
    monkeypatch.setattr(io_module, "_READ_CHARS", chars)
    doc = {"kind": "table", "carrier": ["é", "€", "a"],
           "table": {"a": 1.0, "é": 2.5, "€": 0.5, "a,é": 3.0,
                     "a,€": 1.5, "é,€": 3.0, "a,é,€": 4.0}}
    path = tmp_path / "m.json"
    text = json.dumps(doc, indent=2, ensure_ascii=False).replace("\n", "\r\n")
    path.write_bytes(text.encode())
    assert load_json_file(str(path)) == doc
    raw = json.dumps({"pad": "x" * 100000}).encode()
    path.write_bytes(raw[:90000] + b"\xff" + raw[90001:])
    with pytest.raises(UnicodeDecodeError, match="in position 90000:"):
        load_json_file(str(path))


def test_cli_estimate_checks_its_flags_before_reading_the_batch(tmp_path, capsys):
    good = tmp_path / "batch.csv"
    good.write_text("sample_index,a\n0,1.0\n")
    for path in (good, tmp_path / "missing.csv"):
        for flags in ([], ["--f", '{"a": 1}', "--set", '["a"]']):
            assert main(["estimate", "--batch", str(path)] + flags) == 2
            assert capsys.readouterr().err == ("error: at $: estimate needs exactly "
                                               "one of --f or --set\n")


def test_cli_dual(theta2_file, capsys):
    assert main(["dual", "--model", theta2_file, "--f", '{"a":2,"b":1}',
                 "--oracle", "exact", "--deterministic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["greedy"] == 2.5
    assert payload["oracle"] == 2.5
    assert payload["measure"] == {"a": 1.0, "b": 0.5}


def test_cli_cdf(theta2_file, capsys):
    assert main(["cdf", "--model", theta2_file, "--pairs",
                 '[{"set":["a"],"level":2.0},{"set":["b"],"level":3.0}]']) == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(np.exp(-2.0 / 3.0), abs=1e-12)


def test_cli_couple_and_argmax(spectral_file, theta2_file, capsys):
    assert main(["couple", "--model", spectral_file, "--samples", "1000",
                 "--seed", "3", "--deterministic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert main(["argmax-test", "--model", theta2_file, "--set", '["a"]',
                 "--samples", "20000", "--seed", "5", "--deterministic"]) == 0
    assert main(["argmax-test", "--model", theta2_file, "--set", '["a"]',
                 "--samples", "20000", "--seed", "5", "--negative-control",
                 "--deterministic"]) == 1


def test_cli_couple_on_every_crsm_model_is_degenerate(tmp_path, theta2_file, capsys):
    models = {"table": theta2_file}
    for kind, obj in (("choquet", {"kind": "choquet", "theta": THETA2}),
                      ("lebesgue", {"kind": "lebesgue", "carrier": ["a", "b"],
                                    "mu": {"a": 0.7, "b": 0.3}})):
        models[kind] = str(tmp_path / f"{kind}.json")
        Path(models[kind]).write_text(json.dumps(obj))
    for kind, path in models.items():
        assert main(["couple", "--model", path, "--samples", "2000", "--seed", "4",
                     "--deterministic"]) == 0, kind
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True and payload["samples"] == 2000
        assert payload["worst_gap"] == 0.0


def test_cli_verify_near_ca_table_fails_alike(tmp_path, capsys):
    table = tmp_path / "near.json"
    table.write_text(json.dumps(capacity_to_json(near_ca_table())))
    wrapped = tmp_path / "near-choquet.json"
    wrapped.write_text(json.dumps({"kind": "choquet", "theta": json.loads(table.read_text())}))
    for path in (table, wrapped):
        assert main(["verify", "--model", str(path), "--seed", "1",
                     "--samples", "2000"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("PASS mobius-roundtrip")
        assert out[1].startswith("FAIL complete-alternation")
        assert len(out) == 2


@pytest.mark.parametrize("inner", [THETA2, {"kind": "exchangeable",
                                             "carrier": ["a", "b", "c", "d"],
                                             "zeta": [[0.3, 0.5], [0.9, 0.5]]}],
                         ids=lambda doc: doc["kind"])
def test_cli_choquet_model_runs_as_its_capacity(tmp_path, capsys, inner):
    # every capacity command gives a choquet document and its inner capacity
    # the same exit code, stdout, stderr and artifact; only the model hash
    # in the provenance differs, since the documents do
    f, region = '{"a": 2, "b": 1}', '["a"]'
    commands = [["check", "--seed", "1"], ["check", "--direct", "--seed", "1"],
                ["mobius"], ["dual", "--f", f, "--oracle", "sampled", "--seed", "1",
                             "--trials", "200"],
                ["choquet", "--f", f], ["extremal", "--f", f],
                ["cdf", "--pairs", '[{"set": ["a", "b"], "level": 3}]'],
                ["simulate", "--seed", "1", "--samples", "200"],
                ["couple", "--seed", "1", "--samples", "200"],
                ["verify", "--seed", "1", "--samples", "2000"],
                ["argmax-test", "--set", region, "--seed", "5", "--samples", "2000"],
                ["materialize"]]
    docs = {"capacity": inner, "choquet": {"kind": "choquet", "theta": inner}}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))

    def run(name, argv):
        out = tmp_path / f"{name}.out"
        out.unlink(missing_ok=True)  # every command writes its own artifact
        code = main([argv[0], "--model", str(tmp_path / f"{name}.json"), *argv[1:],
                     "--out", str(out), "--deterministic"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_text().replace(
            model_hash(docs[name]), "<model_sha256>")

    for argv in commands:
        assert run("choquet", argv) == run("capacity", argv), argv


def test_cli_verify_near_ca_table_at_its_tolerance(tmp_path, capsys):
    # the weight -1e-8 passes at 1e-6, where every row runs, and fails at 1e-10
    table = tmp_path / "near.json"
    table.write_text(json.dumps(capacity_to_json(near_ca_table())))
    argv = ["verify", "--model", str(table), "--seed", "1", "--samples", "2000"]
    assert main(argv + ["--tolerance", "1e-6"]) in (0, 1)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 13 and out[1].startswith("PASS complete-alternation")
    assert main(argv + ["--tolerance", "1e-10"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[1].startswith("FAIL complete-alternation")


def test_cli_check_refuses_order_beyond_limit(tmp_path, spectral_file, capsys):
    table = tmp_path / "three.json"
    table.write_text(json.dumps({"kind": "table", "carrier": ["a", "b", "c"],
                                 "table": {"a": 1, "b": 1, "c": 1, "a,b": 1.5, "a,c": 1.5,
                                           "b,c": 1.5, "a,b,c": 2}}))
    for argv in (["check", "--model", spectral_file, "--seed", "0", "--order", "7"],
                 ["check", "--model", str(table), "--direct", "--order", "6"]):
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert time.perf_counter() - t0 < 1.0
        assert f"argument --order: invalid choice: {argv[-1]}" in capsys.readouterr().err
    # the library refuses it too, for callers that do not come through argparse
    law = parse_model(json.loads(Path(spectral_file).read_text()))
    with pytest.raises(ValueError, match="order must be in 2..5"):
        check_max_complete_alternation(law, order=7, trials=1, seed=0)


def test_cli_alternation_order_is_refused_before_the_model_is_read(tmp_path, capsys):
    # the model path does not exist: only argparse can give this message;
    # without --direct a capacity's check used to ignore the order
    for extra in ([], ["--direct"]):
        argv = ["check", "--model", str(tmp_path / "missing.json"), "--seed", "1", *extra]
        for value in ("1", "6", "9", "-3", "2.5", "three"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--order", value])
            assert exc.value.code == 2
            assert "argument --order: invalid" in capsys.readouterr().err


def test_cli_dual_oracle_gets_the_tolerance(theta2_file, capsys, monkeypatch):
    seen = []
    real = tdf.dual_oracle
    monkeypatch.setattr(tdf, "dual_oracle",
                        lambda *a, **kw: seen.append(kw["tol"]) or real(*a, **kw))
    assert main(["dual", "--model", theta2_file, "--f", '{"a":2,"b":1}',
                 "--oracle", "exact", "--tolerance", "1e-6"]) == 0
    assert seen == [1e-6]
    assert json.loads(capsys.readouterr().out)["oracle"] == 2.5


def test_cli_verify_small(theta2_file, capsys):
    assert main(["verify", "--model", theta2_file, "--samples", "5000",
                 "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS mobius-roundtrip" in out
    assert "FAIL" not in out


def test_cli_materialize(tmp_path, capsys):
    src = tmp_path / "exch.json"
    src.write_text(json.dumps({"kind": "exchangeable", "carrier": ["a", "b"],
                               "zeta": [[0.5, 1.0]]}))
    assert main(["materialize", "--model", str(src), "--deterministic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "table"
    assert payload["table"]["a,b"] == 0.75
    # a lebesgue model is read as its capacity and written as the additive
    # table of its masses; a spectral model has no capacity to write
    src.write_text(json.dumps({"kind": "lebesgue", "carrier": ["a", "b", "c"],
                               "mu": {"a": 0.25, "b": 0.5, "c": 0.0}}))
    assert main(["materialize", "--model", str(src), "--deterministic"]) == 0
    table = json.loads(capsys.readouterr().out)["table"]
    assert table == {"a": 0.25, "b": 0.5, "a,b": 0.75, "c": 0.0, "a,c": 0.25,
                     "b,c": 0.5, "a,b,c": 0.75}
    src.write_text(json.dumps({"kind": "spectral", "carrier": ["a", "b"],
                               "atoms": [{"p": 1.0, "y": {"a": 1.0, "b": 0.5}}]}))
    assert main(["materialize", "--model", str(src), "--deterministic"]) == 2
    assert capsys.readouterr().err == ("error: at $.kind: materialize needs a capacity "
                                       "model, not a SpectralTDF\n")


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "table", "carrier": ["a"], "table": {"z": 1}}')
    assert main(["mobius", "--model", str(bad)]) == 2
    assert "$.table" in capsys.readouterr().err

    big = tmp_path / "big.json"
    big.write_text(json.dumps({"kind": "table",
                               "carrier": [f"p{i}" for i in range(25)],
                               "table": {}}))
    assert main(["mobius", "--model", str(big)]) == 3

    missing = tmp_path / "nope.json"
    assert main(["mobius", "--model", str(missing)]) == 2

    notjson = tmp_path / "garbage.json"
    notjson.write_text("{unbalanced")
    assert main(["mobius", "--model", str(notjson)]) == 2


@pytest.mark.parametrize("flags", [["--direct"], ["--tolerance", "1e-9"],
                                   ["--tolerance", "1e-3", "--direct"]])
@pytest.mark.parametrize("model", ["spectral"])  # the one model kind with no capacity
def test_cli_check_refuses_capacity_flags_on_functionals(spectral_file, capsys, flags, model):
    assert main(["check", "--model", spectral_file, "--seed", "0", "--trials", "50"]
                + flags) == 2
    flag = flags[-1] if flags[-1] == "--direct" else flags[0]
    assert capsys.readouterr().err == (f"error: at $.kind: check {flag} needs a capacity "
                                       f"model, not a SpectralTDF\n")


def test_cli_check_tolerance_still_applies_to_capacities(tmp_path, capsys):
    # nu({a,b}) = -1e-6: outside the default slack 1e-9 * 2, inside 1e-5 * 2
    near = tmp_path / "near.json"
    near.write_text(json.dumps({"kind": "table", "carrier": ["a", "b"],
                                "table": {"a": 1.0, "b": 1.0, "a,b": 2.0 + 1e-6}}))
    for extra, ca in (([], False), (["--tolerance", "1e-5"], True)):
        assert main(["check", "--model", str(near), "--direct"] + extra) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"]["completely_alternating"] is ca
        assert payload["direct_search"]["alternating"] is ca


SPAWN_AND_REPORT_RSS = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable] + sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _max_rss_mb(argv):
    """Max RSS of `python argv` in MB, by wait4, with src/ on the path.

    A process's ru_maxrss starts at the high-water RSS of the process that
    spawned it, here all of pytest's; a small python in between spawns the
    measured one and reports its wait4 figure instead."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", SPAWN_AND_REPORT_RSS, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, kilobytes = map(int, out.split())
    assert code == 0, argv
    return kilobytes / 1024  # ru_maxrss is in kilobytes on Linux


def test_cli_cdf_holds_the_table_and_one_working_table(tmp_path):
    # crsm cdf certifies a capacity by its Mobius measure, swept in the
    # capacity's own table: that table plus the sweep's 512 KB block (1/16
    # of a table at d = 20) and numpy's ufunc buffers, not a second table,
    # a copy of nu or an argmin copy.  A distortion capacity is a table; one
    # held by size would build none.
    d = 20
    labels = [f"x{i}" for i in range(d)]
    model = tmp_path / "power20.json"
    model.write_text(json.dumps({"kind": "distortion", "carrier": labels,
                                 "mu": dict(zip(labels, np.linspace(0.5, 1.5, d).tolist())),
                                 "distortion": "power", "alpha": 0.5}))
    base = _max_rss_mb(["-c", "import crsm.cli"])
    cdf = _max_rss_mb(["-m", "crsm.cli", "cdf", "--model", str(model),
                       "--pairs", '[{"set": ["x0", "x3"], "level": 2}]'])
    table_mb = (8 << d) / 2 ** 20
    assert cdf <= base + 1.5 * table_mb, (base, cdf)


def test_cli_by_size_commands_build_no_table(tmp_path):
    # an exchangeable capacity on 24 points, and a Bernstein composition of
    # one, are held as 25 numbers: parse, CDF, certificate, classification
    # and the dual all run by size, far below one 128 MB table
    d = 24
    labels = [f"x{i}" for i in range(d)]
    exch = {"kind": "exchangeable", "carrier": labels, "zeta": [[0.2, 0.5], [0.5, 0.5]]}
    (tmp_path / "exch24.json").write_text(json.dumps(exch))
    (tmp_path / "compose24.json").write_text(json.dumps(
        {"kind": "bernstein_compose", "base": exch,
         "bernstein": {"drift": 0.5, "atoms": [[1.5, 0.8]]}}))
    f = json.dumps(np.linspace(0.0, 2.0, d).tolist())
    base = _max_rss_mb(["-c", "import crsm.cli"])
    for name in ("exch24", "compose24"):
        model = ["--model", str(tmp_path / f"{name}.json")]
        for argv in (["cdf", "--pairs", '[{"set": ["x0", "x3"], "level": 2}]'],
                     ["check"], ["dual", "--f", f]):
            rss = _max_rss_mb(["-m", "crsm.cli", argv[0]] + model + argv[1:])
            assert rss <= base + 8, (name, argv[0], base, rss)


def test_cli_table_artifacts_hold_no_whole_text(tmp_path):
    # materialize and mobius on a d = 18 table model: the parsed input is
    # dropped once hashed, and the artifact goes out in blocks of entries, so
    # neither the input nor the whole text is held beside the artifact dict.
    # Max RSS above `import crsm.cli` (wait4, 2 cores): materialize 176.8 MB
    # and mobius 174.8 MB with the text built whole by json.dumps, 86.3 MB
    # and 85.9 MB streamed.
    d = 18
    labels = [f"x{i}" for i in range(d)]
    p = [0.0] + [1.0 / k for k in range(1, d + 1)]
    size_law = tmp_path / "size18.json"
    size_law.write_text(json.dumps({"kind": "subset_size", "carrier": labels,
                                    "p": [v / sum(p) for v in p]}))
    table = tmp_path / "table18.json"
    _max_rss_mb(["-m", "crsm.cli", "materialize", "--model", str(size_law),
                 "--out", str(table), "--deterministic"])
    base = _max_rss_mb(["-c", "import crsm.cli"])
    for command in ("materialize", "mobius"):
        rss = _max_rss_mb(["-m", "crsm.cli", command, "--model", str(table),
                           "--out", str(tmp_path / f"{command}.json"), "--deterministic"])
        assert rss <= base + 130, (command, base, rss)


class _Stop(Exception):
    """Raised by a patched JSON writer: nothing after the warning runs."""


@pytest.mark.parametrize("command, writer", [("materialize", "capacity_to_json"),
                                             ("mobius", "mobius_to_json")])
def test_cli_warns_before_a_huge_artifact(tmp_path, capsys, monkeypatch, command, writer):
    def stop(*args):
        raise _Stop
    monkeypatch.setattr(cli, writer, stop)
    for d in (21, 22, 24):
        model = tmp_path / f"exch{d}.json"
        model.write_text(json.dumps({"kind": "exchangeable",
                                     "carrier": [f"x{i}" for i in range(d)],
                                     "zeta": [[0.2, 0.5], [0.5, 0.5]]}))
        with pytest.raises(_Stop):
            main([command, "--model", str(model), "--out", str(tmp_path / "out.json")])
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "out.json").exists()
        if d < 22:
            assert err == ""
            continue
        assert err.count("\n") == 1 and err.startswith(f"warning: {command} writes JSON over all "
                                                       f"2^{d} = {1 << d} subsets")
        assert ("at d = 22 materialize took about 27 s and 0.88 GB, mobius about 27 s "
                "and 0.91 GB (2 cores, 8 GB)") in err


def test_cli_mobius_of_atoms_skips_the_huge_warning(tmp_path, capsys):
    # a storm's artifact holds its atoms, not 2^22 entries
    model = tmp_path / "storm22.json"
    model.write_text(json.dumps({"kind": "torus_storm", "n": 22, "scale": 1.5, "shapes": [
        {"p": 0.6, "points": [0, 3, 7]}, {"p": 0.4, "points": [1, 2]}]}))
    out = tmp_path / "nu.json"
    assert main(["mobius", "--model", str(model), "--out", str(out), "--deterministic"]) == 0
    assert capsys.readouterr().err == ""
    assert len(json.loads(out.read_text())["weights"]) == 44


def test_cli_check_tdf_probe(spectral_file, capsys):
    assert main(["check", "--model", spectral_file, "--seed", "0",
                 "--trials", "200", "--deterministic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_alternation"]["alternating"] is True


def test_cli_estimate_strips_header_labels(tmp_path, theta2_file, capsys):
    plain = tmp_path / "plain.csv"
    assert main(["simulate", "--model", theta2_file, "--samples", "300", "--seed", "4",
                 "--out", str(plain)]) == 0
    padded = tmp_path / "padded.csv"
    padded.write_text(plain.read_text().replace("sample_index,a,b\n",
                                                "sample_index, a, b\n"))
    capsys.readouterr()
    outs = []
    for path in (plain, padded):
        assert main(["estimate", "--batch", str(path), "--set", '["a"]',
                     "--deterministic"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cli_broken_pipe_exits_quietly(theta2_file):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    with subprocess.Popen([sys.executable, "-m", "crsm.cli", "simulate", "--model",
                           theta2_file, "--seed", "0", "--samples", "100000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        lines = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()  # the reader goes away long before 100000 rows
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""
    assert lines[1] == b"sample_index,a,b\n"


@pytest.mark.parametrize("labels, path, message", [
    ('"a"', "", "expected a nonempty list of labels"),
    ('[["a"]]', "[0]", "expected a label string, got ['a']"),
    ('[{"x": 1}]', "[0]", "expected a label string, got {'x': 1}"),
    ('["z"]', "", "label 'z' not in carrier"),
    ("[]", "", "expected a nonempty list of labels"),
])
def test_cli_label_sets_are_checked_alike(tmp_path, theta2_file, capsys,
                                          labels, path, message):
    batch = tmp_path / "batch.csv"
    batch.write_text("sample_index,a,b\n0,1.0,2.0\n1,3.0,0.5\n")
    pairs = '[{"set": %s, "level": 1}]' % labels
    runs = [(["estimate", "--batch", str(batch), "--set", labels], "$.set"),
            (["argmax-test", "--model", theta2_file, "--seed", "0", "--samples", "10",
              "--set", labels], "$.set"),
            (["cdf", "--model", theta2_file, "--pairs", pairs], "$.pairs[0].set")]
    for argv, root in runs:
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr().err == f"error: at {root}{path}: {message}\n"


def test_cli_refuses_capacity_that_is_not_completely_alternating(tmp_path, capsys):
    avar = tmp_path / "avar.json"
    avar.write_text(json.dumps(AVAR4))
    choquet = tmp_path / "avar-choquet.json"
    choquet.write_text(json.dumps({"kind": "choquet", "theta": AVAR4}))
    out = tmp_path / "cdf.json"
    runs = [["cdf", "--model", str(avar), "--pairs", '[{"set":["1","2","3"],"level":1}]',
             "--out", str(out)],
            ["cdf", "--model", str(choquet), "--pairs", '[{"set":["1"],"level":1}]',
             "--out", str(out)],
            ["dual", "--model", str(avar), "--f", '{"1":1,"2":2,"3":3,"4":4}'],
            ["simulate", "--model", str(avar), "--seed", "0", "--samples", "10"]]
    for argv in runs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not completely alternating (mobius weight -0.25 at mask 0x7)" in captured.err
        assert not out.exists()
    # cdf parses its pairs before it certifies the capacity
    for model in (avar, choquet):
        assert main(["cdf", "--model", str(model), "--pairs", '[{"set":["9"],"level":1}]',
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: at $.pairs[0].set: label '9' not in carrier\n"
        assert not out.exists()


def test_cli_refuses_tiny_avar(tmp_path, capsys):
    # the slack is relative, so scaling AVaR down does not make it CA
    avar = parse_capacity(AVAR4)
    for k in (-30, -40):
        path = tmp_path / f"avar{k}.json"
        path.write_text(json.dumps(capacity_to_json(
            Capacity(avar.carrier, avar.table * 2.0 ** k))))
        argv = ["cdf", "--model", str(path), "--pairs", '[{"set":["1"],"level":1}]']
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not completely alternating (mobius weight -" in captured.err
        assert "at mask 0x7" in captured.err


def test_cli_cdf_prints_spectral_and_lebesgue_laws(tmp_path, spectral_file, capsys):
    leb = tmp_path / "lebesgue.json"
    leb.write_text(json.dumps({"kind": "lebesgue", "carrier": ["a", "b"],
                               "mu": {"a": 0.7, "b": 0.3}}))
    # h = (1/2, 1/4): spectral 0.5 * 0.5 + 0.3 * 0.25 + 0.2 * 0.4, lebesgue 0.7/2 + 0.3/4
    pairs = '[{"set":["a"],"level":2},{"set":["a","b"],"level":4}]'
    for path, exponent in ((spectral_file, 0.405), (str(leb), 0.425)):
        assert main(["cdf", "--model", path, "--pairs", pairs]) == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(math.exp(-exponent), rel=1e-14)


def test_cli_capacity_commands_read_a_lebesgue_model(tmp_path, capsys):
    # a lebesgue model is the Choquet TDF of its singleton atoms, so every
    # capacity command reads it; b has no mass
    mu = {"a": 0.7, "b": 0.0, "c": 0.3}
    path = tmp_path / "lebesgue.json"
    path.write_text(json.dumps({"kind": "lebesgue", "carrier": ["a", "b", "c"], "mu": mu}))
    model = ["--model", str(path), "--deterministic"]
    f = {"a": 1.0, "b": 2.0, "c": 3.0}
    dot = math.fsum(f[x] * mu[x] for x in mu)

    def run(*argv) -> str:
        assert main([*argv, *model]) == 0, argv
        return capsys.readouterr().out

    # the exact classification, with no --seed and no probe
    for flags in ([], ["--direct"], ["--tolerance", "1e-6"]):
        payload = json.loads(run("check", *flags))
        assert "max_alternation" not in payload
        assert payload["classification"] | {"witness": None} == {
            "monotone": True, "completely_alternating": True, "maxitive": False,
            "additive": True, "witness": None}
        assert ("direct_search" in payload) == (flags == ["--direct"])
    # the positive singletons, in mask order
    weights = json.loads(run("mobius"))["weights"]
    assert list(weights.items()) == [("a", 0.7), ("c", 0.3)]
    dual = json.loads(run("dual", "--f", json.dumps(f)))
    assert dual["measure"] == mu and dual["greedy"] == pytest.approx(dot, rel=1e-15)
    assert float(run("choquet", "--f", json.dumps(f))) == pytest.approx(dot, rel=1e-15)
    # max over t of t * mu({f >= t}): t = 1 holds all the mass
    assert float(run("extremal", "--f", json.dumps(f))) == 1.0
    assert json.loads(run("argmax-test", "--set", '["a"]', "--samples", "2000",
                          "--seed", "1"))["passed"] is True


@pytest.mark.parametrize("doc, what", [
    ({"kind": "torus_storm", "n": 3, "dim": 1, "shapes": [{"points": [0], "p": 1.0}],
      "scale": 1e308}, "capacity table: atom weights"),
    ({"kind": "lebesgue", "carrier": ["a", "b"], "mu": {"a": 1e308, "b": 1e308}},
     "capacity table: atom weights"),
    ({"kind": "distortion", "carrier": ["a", "b"], "mu": {"a": 1e308, "b": 1e308},
      "distortion": "power", "alpha": 0.5}, "measure weights"),
    ({"kind": "distortion", "carrier": ["a", "b"], "mu": {"a": 1e308, "b": 1e308},
      "distortion": "avar", "alpha": 0.5}, "measure weights"),
], ids=["torus_storm", "lebesgue", "distortion-power", "distortion-avar"])
def test_atoms_whose_total_overflows_are_refused_at_parse(tmp_path, capsys, doc, what):
    # each atom weight is finite but theta(E) is not: simulate wrote Infinity
    # or NaN and exited 0, and verify read a nan round-trip error.  A
    # distortion's mu(E) overflowed in its table of sums: check warned, then
    # exited 2 on a power distortion ("capacity table must be finite") and
    # 0 on an avar one
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    for argv in (["simulate", "--samples", "3"], ["verify", "--samples", "100"], ["check"]):
        assert main([*argv, "--model", str(path), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: at $: {what} sum to inf, beyond the float range\n"


def test_a_negative_distortion_weight_is_named_by_its_path(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**AVAR4, "mu": {"1": 0.25, "2": -0.25, "3": 0.25, "4": 0.25}}))
    assert main(["check", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 'error: at $.mu["2"]: number must be nonnegative, got -0.25\n'


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cli_refuses_tolerances_that_are_not_finite_and_nonnegative(theta2_file, capsys,
                                                                   tol):
    runs = [["check", "--direct"], ["dual", "--f", '{"a":2,"b":1}'],
            ["verify", "--seed", "1", "--samples", "100"]]
    for argv in runs:
        assert main(argv + ["--model", theta2_file, "--tolerance", tol]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: tolerance must be finite and nonnegative, "
                                f"got {float(tol)}\n")


@pytest.mark.parametrize("trials", ["0", "-4"])
def test_cli_trials_must_be_positive(tmp_path, theta2_file, spectral_file, capsys, trials):
    avar = tmp_path / "avar.json"
    avar.write_text(json.dumps(AVAR4))
    runs = [["check", "--model", spectral_file, "--seed", "0"],
            ["check", "--model", str(avar), "--direct", "--seed", "0"],
            ["dual", "--model", theta2_file, "--f", '{"a":2,"b":1}', "--oracle", "sampled",
             "--seed", "0"]]
    for argv in runs:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--trials", trials])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--trials: expected a positive integer, got '{trials}'" in captured.err


def test_cli_seeds_are_64_bit(theta2_file, spectral_file, capsys):
    top = (1 << 64) - 1
    argv = ["simulate", "--model", theta2_file, "--samples", "5"]
    assert main(argv + ["--seed", str(top + 1)]) == 2
    assert capsys.readouterr().err == (f"error: seed must be an int in [0, 2**64), "
                                       f"got {top + 1}\n")
    rows = []
    for seed in (top, 0):
        assert main(argv + ["--seed", str(seed)]) == 0
        rows.append(capsys.readouterr().out.split("\n", 1)[1])  # after provenance
    assert rows[0] != rows[1]  # the top seed keeps all 64 bits of its key
    # verify draws its coupling row from seed + 1
    assert main(["verify", "--model", spectral_file, "--samples", "100",
                 "--seed", str(top)]) == 2
    assert "draws from seed + 1" in capsys.readouterr().err


@pytest.mark.parametrize("dim, points, at, shown", [
    (2, [1], 0, "1"),
    (1, [None], 0, "None"),
    (2, [None], 0, "None"),
    (1, [1.7, True], 0, "1.7"),
    (1, [1, True], 1, "True"),
    (2, [[0, "x"]], 0, "[0, 'x']"),
    (2, [[0, 0], [0, 0, 0]], 1, "[0, 0, 0]"),
])
def test_cli_refuses_malformed_torus_points(tmp_path, capsys, dim, points, at, shown):
    src = tmp_path / "storm.json"
    src.write_text(json.dumps({"kind": "torus_storm", "n": 3, "dim": dim, "shapes": [
        {"points": [0] if dim == 1 else [[0, 0]], "p": 0.5},
        {"points": points, "p": 0.5}]}))
    assert main(["materialize", "--model", str(src), "--deterministic"]) == 2
    assert capsys.readouterr().err == (f"error: at $.shapes[1].points[{at}]: "
                                       f"not a point of (Z_3)^{dim}: {shown}\n")


def test_cli_refuses_an_oversized_torus_carrier_before_its_labels(tmp_path, capsys):
    src = tmp_path / "tagged.json"
    src.write_text(json.dumps({"kind": "table", "table": {"a": 1.0},
                               "carrier": {"labels": ["a"], "torus": {"n": 25, "dim": 1}}}))
    assert main(["materialize", "--model", str(src), "--deterministic"]) == 3
    assert capsys.readouterr().err == ("error: torus with 25 points exceeds "
                                       "the carrier cap of 24\n")


def test_torus_dim_is_the_int_1_or_2():
    for dim in (True, 1.0, 3):
        with pytest.raises(SchemaError, match=r"^at \$\.dim: expected 1 or 2, got "):
            parse_capacity({"kind": "torus_storm", "n": 3, "dim": dim,
                            "shapes": [{"points": [0], "p": 1.0}]})
