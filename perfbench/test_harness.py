"""Harness tests: the output checks catch bad outputs, and smoke mode
prints every metric named in BENCHMARK.json.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import OpOutput  # noqa: E402


def _csv_op(rows: int) -> workloads.Op:
    return workloads.Op("simulate-theta2", ("simulate",), "csv_rows",
                        params={"rows": rows, "points": 2}, samples=rows, out="theta2.csv")


def _write_csv(path: Path, rows: list[str]) -> None:
    path.write_text("# provenance: {}\nsample_index,a,b\n" + "".join(r + "\n" for r in rows))


def _tally(workdir: Path, results) -> run.Run:
    """Feed outputs through the same accounting run.py uses."""
    bench = object.__new__(run.Run)
    bench.workdir, bench.attempted, bench.failures = workdir, 0, []
    for op, out, expected in results:
        bench.record(op, out, {op.name: expected})
    return bench


def test_clean_csv_passes(tmp_path):
    _write_csv(tmp_path / "theta2.csv", [f"{j},1.5,0.25" for j in range(5)])
    assert checks.judge(_csv_op(5), OpOutput(0, ""), tmp_path, {}) is None


@pytest.mark.parametrize("bad_row", ["2,1.5", "2,1.5,abc", "2,1.5,-0.25", "7,1.5,0.25",
                                     "2,1.5,inf"])
def test_corrupted_csv_row_counts_as_failed(tmp_path, bad_row):
    rows = [f"{j},1.5,0.25" for j in range(5)]
    rows[2] = bad_row
    _write_csv(tmp_path / "theta2.csv", rows)
    bench = _tally(tmp_path, [(_csv_op(5), OpOutput(0, ""), {})])
    assert (bench.attempted, len(bench.failures)) == (1, 1)


def test_missing_csv_row_counts_as_failed(tmp_path):
    _write_csv(tmp_path / "theta2.csv", [f"{j},1.5,0.25" for j in range(4)])
    bench = _tally(tmp_path, [(_csv_op(5), OpOutput(0, ""), {})])
    assert len(bench.failures) == 1


def _table_json(values, labels=("x0", "x1", "x2")) -> dict:
    table = {}
    for mask in range(1, 1 << len(labels)):
        key = ",".join(sorted(lb for i, lb in enumerate(labels) if mask >> i & 1))
        table[key] = values[mask]
    return {"kind": "table", "carrier": list(labels), "table": table}


def test_perturbed_table_counts_as_failed(tmp_path):
    values = [0.0, 1.0, 1.25, 1.75, 0.5, 1.25, 1.5, 2.0]
    op = workloads.Op("materialize-table16", ("materialize",), "materialize",
                      out="table16.json")
    expected = {"table_sha256": checks.table_digest(values), "total": values[-1]}

    (tmp_path / "table16.json").write_text(json.dumps(_table_json(values)))
    assert checks.judge(op, OpOutput(0, ""), tmp_path, expected) is None

    perturbed = list(values)
    perturbed[5] = 1.25 + 2.0 ** -50      # one ulp-scale change in one entry
    (tmp_path / "table16.json").write_text(json.dumps(_table_json(perturbed)))
    bench = _tally(tmp_path, [(op, OpOutput(0, ""), expected)])
    assert (bench.attempted, len(bench.failures)) == (1, 1)


def test_verify_rows_rejudged_at_wider_band(tmp_path):
    op = workloads.Op("verify-theta2", ("verify",), "verify")
    rows = ["PASS mobius-roundtrip: statistic 0 vs threshold 1e-09"] * 12
    inside = "FAIL frechet-scale[all-ones]: statistic 0.054 vs threshold 0.03 (x)"
    outside = "FAIL frechet-scale[all-ones]: statistic 0.056 vs threshold 0.03 (x)"
    assert checks.judge(op, OpOutput(1, "\n".join(rows + [inside])), tmp_path, {}) is None
    assert checks.judge(op, OpOutput(1, "\n".join(rows + [outside])), tmp_path, {})
    # an exit code that disagrees with the rows is a failure too
    assert checks.judge(op, OpOutput(0, "\n".join(rows + [inside])), tmp_path, {})
    # exact rows are never widened
    exact = "FAIL complete-alternation: statistic -1e-06 vs threshold -1e-09"
    assert checks.judge(op, OpOutput(1, "\n".join(rows + [exact])), tmp_path, {})


def test_workload_inputs_are_seeded():
    for w in workloads.WORKLOADS:
        a, b = workloads.build(w, 7, "smoke"), workloads.build(w, 7, "smoke")
        assert json.dumps(a.files, sort_keys=True) == json.dumps(b.files, sort_keys=True)
        assert a.ops == b.ops
        c = workloads.build(w, 8, "smoke")
        assert json.dumps(a.files, sort_keys=True) != json.dumps(c.files, sort_keys=True)


def test_skewed_table_keeps_rare_mass():
    for seed in range(5):
        obj, rare = workloads.skewed_table_model(workloads._rng("t", seed, "skew8"), 8, 1e-4)
        labels = obj["carrier"]
        assert labels[-1] == rare
        total = obj["table"][",".join(sorted(labels))]
        without = obj["table"][",".join(sorted(labels[:-1]))]
        assert abs((total - without) / total - 1e-4) < 1e-12


def test_smoke_mode_prints_every_metric():
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1])["smoke"] == "ok"
