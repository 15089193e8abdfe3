"""JSON schemas and the command line, exercised in process."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import near_ca_table
from crsm import cli
from crsm.carrier import Carrier, CarrierSizeError
from crsm.cli import _csv_block_rows, _read_batch_csv, _write_batch_csv, main
from crsm.io import (
    SchemaError,
    capacity_to_json,
    mobius_to_json,
    model_hash,
    parse_bernstein,
    parse_capacity,
    parse_mobius,
    parse_model,
    parse_pairs,
    parse_tdf,
    tdf_to_json,
)
from crsm.setfun import Capacity, mobius_inverse
from crsm.simulate import SampleBatch
from crsm.tdf import ChoquetTDF, LebesgueTDF, SpectralTDF
from crsm.transforms import check_stationary

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


def test_parse_tdf_kinds():
    cho = parse_tdf({"kind": "choquet", "theta": THETA2})
    assert isinstance(cho, ChoquetTDF)
    sp = parse_tdf({"kind": "spectral", "carrier": ["a", "b"],
                    "atoms": [{"p": 0.6, "y": {"a": 1.0, "b": 0.2}},
                              {"p": 0.4, "y": {"a": 0.0, "b": 1.0}}]})
    assert isinstance(sp, SpectralTDF)
    leb = parse_tdf({"kind": "lebesgue", "carrier": ["a", "b"],
                     "mu": {"a": 0.4, "b": 0.6}})
    assert isinstance(leb, LebesgueTDF)
    for ell in (cho, sp, leb):
        again = parse_tdf(tdf_to_json(ell))
        assert type(again) is type(ell)
        f = np.array([1.0, 2.0])
        assert again.eval(f) == ell.eval(f)


def test_parse_model_dispatches_on_kind():
    assert isinstance(parse_model(THETA2), Capacity)
    assert isinstance(parse_model({"kind": "lebesgue", "carrier": ["a"],
                                   "mu": {"a": 1.0}}), LebesgueTDF)
    with pytest.raises(SchemaError):
        parse_model({"kind": "nope"})
    with pytest.raises(SchemaError):
        parse_model([1, 2])


def test_mobius_json_roundtrip_drops_zeros():
    theta = parse_capacity(THETA2)
    nu = mobius_inverse(theta)
    obj = mobius_to_json(nu)
    assert obj["weights"] == {"a": 0.5, "b": 0.5, "a,b": 0.5}
    nu2 = parse_mobius(obj)
    assert np.array_equal(nu2.weights, nu.weights)


def test_json_keys_follow_subset_key_on_unsorted_labels():
    carrier = Carrier(("z", "b", "ab", "a", "q", "B"))
    table = np.arange(1 << carrier.size, dtype=float)
    theta = Capacity(carrier, table)
    obj = capacity_to_json(theta)
    masks = range(1, 1 << carrier.size)
    assert list(obj["table"]) == [carrier.subset_key(m) for m in masks]
    assert list(obj["table"].values()) == table[1:].tolist()
    assert np.array_equal(parse_capacity(obj).table, table)
    nu = mobius_inverse(theta)
    full = mobius_to_json(nu, drop_zeros=False)["weights"]
    assert list(full) == [carrier.subset_key(m) for m in masks]
    kept = mobius_to_json(nu)["weights"]
    assert kept == {k: w for k, w in full.items() if w != 0.0}
    assert len(kept) < len(full)


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


def test_cli_check_refuses_order_beyond_limit(tmp_path, spectral_file, capsys):
    table = tmp_path / "three.json"
    table.write_text(json.dumps({"kind": "table", "carrier": ["a", "b", "c"],
                                 "table": {"a": 1, "b": 1, "c": 1, "a,b": 1.5, "a,c": 1.5,
                                           "b,c": 1.5, "a,b,c": 2}}))
    for argv in (["check", "--model", spectral_file, "--seed", "0", "--order", "7"],
                 ["check", "--model", str(table), "--direct", "--order", "6"]):
        t0 = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == "error: order must be in 2..5\n"


def test_cli_dual_oracle_gets_the_tolerance(theta2_file, capsys, monkeypatch):
    seen = []
    real = cli.dual_oracle
    monkeypatch.setattr(cli, "dual_oracle",
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
    runs = [["cdf", "--model", str(avar), "--pairs", '[{"set":["1","2","3"],"level":1}]'],
            ["cdf", "--model", str(choquet), "--pairs", '[{"set":["1"],"level":1}]'],
            ["dual", "--model", str(avar), "--f", '{"1":1,"2":2,"3":3,"4":4}'],
            ["simulate", "--model", str(avar), "--seed", "0", "--samples", "10"]]
    for argv in runs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not completely alternating (mobius weight -0.25 at mask 0x7)" in captured.err


def test_cli_cdf_prints_spectral_and_lebesgue_laws(tmp_path, spectral_file, capsys):
    leb = tmp_path / "lebesgue.json"
    leb.write_text(json.dumps({"kind": "lebesgue", "carrier": ["a", "b"],
                               "mu": {"a": 0.7, "b": 0.3}}))
    # h = (1/2, 1/4): spectral 0.5 * 0.5 + 0.3 * 0.25 + 0.2 * 0.4, Lebesgue 0.7/2 + 0.3/4
    pairs = '[{"set":["a"],"level":2},{"set":["a","b"],"level":4}]'
    for path, exponent in ((spectral_file, 0.405), (str(leb), 0.425)):
        assert main(["cdf", "--model", path, "--pairs", pairs]) == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(math.exp(-exponent), rel=1e-14)
