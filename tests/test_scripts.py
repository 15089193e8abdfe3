"""Every script under scripts/ runs to completion on tiny inputs.

The scripts import the public API by name, so a removed or renamed name
they still use fails here rather than for the next reader who runs them.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    # this checkout against itself: every benchmark op is deterministic
    "compare_ops.py": [str(ROOT), "1"],
    "coupling_demo.py": ["--samples", "200", "--seed", "1"],
    "run_verification.py": ["--samples", "2000", "--seed", "1"],
    "torus_storm_demo.py": ["--n", "5", "--samples", "200", "--seed", "1"],
}


def test_every_script_has_a_run():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *RUNS[script]],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    if script == "compare_ops.py":
        assert "path length" not in proc.stderr  # the same checkout, the same path
        # after the per-op lines, one peak line per workload, each side's
        # largest max RSS: the figure perfbench reports as peak_rss_mb
        lines = proc.stdout.splitlines()
        # each op line gives both sides' wall seconds beside their max RSS
        ops = [line for line in lines if "/" in line.split(":")[0]]
        assert ops and all(re.search(r": wall \d+\.\d{3} s here, \d+\.\d{3} s there; "
                                     r"max RSS \d+\.\d{2} MB here, \d+\.\d{2} MB there$",
                                     line) for line in ops), ops
        peaks = [line for line in lines if ": peak max RSS " in line]
        assert [line.split(":")[0] for line in peaks] == [
            "seed 1 sample-narrow", "seed 1 sample-wide", "seed 1 lattice-wide"]
        assert all(line.endswith(" MB there") for line in peaks)
        assert lines.index(peaks[0]) > lines.index(ops[-1])


def test_compare_ops_warns_when_the_path_lengths_differ(tmp_path, monkeypatch, capsys):
    # max RSS moves with the checkout's path length, so RSS figures of two
    # checkouts whose paths differ in length come with a warning
    import importlib.util
    spec = importlib.util.spec_from_file_location("compare_ops",
                                                  ROOT / "scripts" / "compare_ops.py")
    compare_ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_ops)
    monkeypatch.setattr(compare_ops.workloads, "WORKLOADS", ())  # compare no op
    monkeypatch.setattr(compare_ops, "ROOT", tmp_path / "z")
    for name, warned in (("a", False), ("bb", True)):
        (tmp_path / name / "src" / "crsm").mkdir(parents=True)
        assert compare_ops.main([str(tmp_path / name), "1"]) == 0
        assert ("differ in path length" in capsys.readouterr().err) == warned, name
