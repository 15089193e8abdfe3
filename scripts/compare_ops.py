"""Check that every benchmark op gives the same output in two checkouts.

    python scripts/compare_ops.py OTHER_DIR SEED [SEED ...]

For each seed and each workload of perfbench/workloads.py (this
checkout's), the workload's inputs are written into a fresh directory
per checkout, and its ops run there in job order, each as a fresh
process with that checkout's src/ on PYTHONPATH, PYTHONHASHSEED=0 and
one BLAS thread, as perfbench/run.py runs them.  An op differs if its
exit code, stdout, stderr or the sha256 of its --out file differ between
the checkouts.  Each op is printed with both checkouts' wall seconds,
from starting the process to wait4's return, and max RSS in MB
(ru_maxrss from that wait4; Linux folds this script's own RSS, about
20 MB and below every op's, into it), and each differing op with the
fields that differ.  One run's time only points to where time moved
between the checkouts; perfbench/run.py measures it.  Then each seed and workload is printed with the largest
max RSS of its ops on each side, the figure perfbench/run.py reports as
peak_rss_mb.  The exit code is 1 if any op differs, otherwise 0; the
RSS figures never change it.  Compared with itself, a checkout shows
that every op is deterministic.

Max RSS also moves with the length of the checkout's absolute path, with
the source byte for byte the same, so RSS figures compare only between
checkouts whose paths are equally long; the script warns on stderr when
they are not.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def child_env(checkout: Path, workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    for var in workloads.BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run(cmd: list, workdir: Path, env: dict) -> tuple:
    """(exit code, stdout, stderr, wall seconds, max RSS in MB) of one
    child process."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024.0


def run_plan(checkout: Path, plan: workloads.Plan, workdir: Path) -> dict:
    """op name -> ((exit code, stdout, stderr, sha256 of --out or None),
    wall seconds, max RSS in MB)."""
    plan.write(workdir)
    env = child_env(checkout, workdir)
    results = {}
    for op in plan.ops:
        if op.lib:
            cmd = [sys.executable, str(checkout / "perfbench" / "probe.py"), *op.argv]
        else:
            cmd = [sys.executable, "-m", "crsm.cli", *op.argv]
        code, stdout, stderr, wall, rss = run(cmd, workdir, env)
        digest = None
        if op.out and (workdir / op.out).exists():
            digest = hashlib.sha256((workdir / op.out).read_bytes()).hexdigest()
        results[op.name] = ((code, stdout, stderr, digest), wall, rss)
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("other", type=Path, help="the checkout to compare with")
    p.add_argument("seeds", type=int, nargs="+", help="workload seeds")
    args = p.parse_args(argv)
    other = args.other.resolve()
    if not (other / "src" / "crsm").is_dir():
        p.error(f"{other} is no checkout: it has no src/crsm")
    if len(str(other)) != len(str(ROOT)):
        print(f"warning: {ROOT} and {other} differ in path length, which moves "
              f"max RSS: compare RSS only between equally long paths", file=sys.stderr)

    fields = ("exit code", "stdout", "stderr", "--out sha256")
    compared, differing, peaks = 0, [], []
    for seed in args.seeds:
        for workload in workloads.WORKLOADS:
            plan = workloads.build(workload, seed)
            with tempfile.TemporaryDirectory() as tmp:
                runs = []
                for side, checkout in (("this", ROOT), ("other", other)):
                    workdir = Path(tmp) / side
                    workdir.mkdir()
                    runs.append(run_plan(checkout, plan, workdir))
            peaks.append((seed, workload, max(r[2] for r in runs[0].values()),
                          max(r[2] for r in runs[1].values())))
            for op in plan.ops:
                compared += 1
                (this, this_s, this_rss), (that, that_s, that_rss) = (runs[0][op.name],
                                                                      runs[1][op.name])
                diff = [name for name, a, b in zip(fields, this, that) if a != b]
                line = (f"seed {seed} {workload}/{op.name}: wall {this_s:.3f} s here, "
                        f"{that_s:.3f} s there; max RSS {this_rss:.2f} MB here, "
                        f"{that_rss:.2f} MB there")
                if diff:
                    differing.append(op.name)
                    line += f"; {', '.join(diff)} differ"
                print(line)
    for seed, workload, this_peak, that_peak in peaks:
        print(f"seed {seed} {workload}: peak max RSS {this_peak:.2f} MB here, "
              f"{that_peak:.2f} MB there")
    print(f"{compared} ops compared, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
