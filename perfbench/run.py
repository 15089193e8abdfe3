"""crsm benchmark: entry point.

    python3 perfbench/run.py --workload sample-narrow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One client in a closed loop: run.py starts one operation, waits for
it to exit, checks its output, then starts the next.  Each operation is
a fresh `python -m crsm.cli` process (or a fresh probe.py process for a
library call the CLI lacks), run against the checkout's src/ with every
BLAS thread variable set to 1.

--trace 0 repeats the workload's job for about --seconds and prints the
end-to-end metrics.  --trace 1 replays every job in one process with a
span around each call into a crsm module (tracer.py) and prints the
per-layer metrics.  The last stdout line is the result object; the line
before it is the full report (per-op times, exact cost counts, the
environment), also written to .perfbench_work/<run>/report.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads
from checks import OpOutput
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
# Times are reported in reference-speed seconds: raw seconds times
# REF_CAL_S over the time of `probe.py calibrate` (fixed work that never
# touches crsm) measured next to them.  Shared machines drift for minutes
# into states where every operation runs up to 1.7x slower, uniformly;
# the calibration slows with them and the scaling takes the drift out.
# A faster program still reads faster.  Raw times stay in the report.
REF_CAL_S = 0.2
RUN_BUDGET_S = 150.0      # stop starting passes past this; the hard limit is 180 s


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken oracle)."""


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    for var in workloads.BLAS_THREAD_VARS:
        env[var] = "1"
    return env


@dataclasses.dataclass
class Proc:
    wall_s: float
    maxrss_mb: float
    out: OpOutput


def spawn(cmd: list[str], workdir: Path, env: dict, timeout: float) -> Proc:
    """Run one process to completion; wall time and max RSS from wait4."""
    out_path, err_path = workdir / ".stdout", workdir / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=out, stderr=err)
        lock = threading.Lock()
        reaped = False

        def kill():
            with lock:
                if not reaped:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            with lock:
                reaped = True
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(errors="replace")
    stderr = err_path.read_text(errors="replace")
    return Proc(wall, usage.ru_maxrss / 1024.0, OpOutput(code, stdout, stderr))


def op_command(op: workloads.Op) -> list[str]:
    if op.lib:
        return [sys.executable, str(HERE / "probe.py"), *op.argv]
    return [sys.executable, "-m", "crsm.cli", *op.argv]


def _plan_json(plans: list[workloads.Plan], size: str) -> dict:
    sampled = {op.argv[op.argv.index("--model") + 1]
               for p in plans for op in p.ops if op.samples}
    return {
        "size": size,
        "jobs": {p.workload: [dataclasses.asdict(op) for op in p.ops] for p in plans},
        "models": [m for p in plans for m in p.models],
        "sampled": sorted(sampled),
    }


def environment(numpy_version: str) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {v: "1" for v in workloads.BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "load": "1 client, closed loop",
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


class Run:
    """One benchmark run: inputs, oracle, set-up timing, then the job."""

    def __init__(self, workload: str, seed: int, size: str, trace: bool):
        self.t_start = time.perf_counter()
        self.workload, self.seed, self.size = workload, seed, size
        tag = f"{workload}-s{seed}" + ("-trace" if trace else "") + \
            ("-smoke" if size == "smoke" else "")
        self.workdir = ROOT / ".perfbench_work" / tag
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self.env = child_env(self.workdir)
        names = workloads.WORKLOADS if trace else (workload,)
        self.plans = [workloads.build(w, seed, size) for w in names]
        self.plan = next(p for p in self.plans if p.workload == workload)
        for p in self.plans:
            p.write(self.workdir)
        with open(self.workdir / "plans.json", "w") as fh:
            json.dump(_plan_json(self.plans, size), fh)
        self.attempted = 0
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def timeout(self) -> float:
        return max(10.0, 170.0 - self.elapsed())

    def oracle(self) -> dict:
        proc = spawn([sys.executable, str(HERE / "probe.py"), "oracle", "plans.json",
                      "expected.json"], self.workdir, self.env, self.timeout())
        if proc.out.exit_code != 0:
            raise BenchError(f"oracle failed: {proc.out.stderr.strip()[-400:]}")
        with open(self.workdir / "expected.json") as fh:
            expected = json.load(fh)
        if Path(expected["crsm_src"]) != ROOT / "src":
            raise BenchError(f"imported crsm from {expected['crsm_src']}, not the checkout")
        return expected

    def record(self, op, out: OpOutput, expected: dict) -> bool:
        self.attempted += 1
        reason = checks.judge(op, out, self.workdir, expected.get(op.name))
        if reason is not None:
            self.failures.append(f"{op.name}: {reason}")
        return reason is None

    def setup_time(self):
        """One fresh process that imports crsm and parses every model;
        None when it failed."""
        op = workloads.Op("setup", ("setup", *self.plan.models), "setup",
                          params={"models": len(self.plan.models)}, lib=True)
        proc = spawn(op_command(op), self.workdir, self.env, self.timeout())
        return proc.wall_s if self.record(op, proc.out, {}) else None

    def calibrate(self) -> float:
        proc = spawn([sys.executable, str(HERE / "probe.py"), "calibrate"], self.workdir,
                     self.env, self.timeout())
        if proc.out.exit_code != 0:
            raise BenchError(f"calibration failed: {proc.out.stderr.strip()[-400:]}")
        return proc.wall_s

    def output_digest(self, op, out: OpOutput) -> str:
        h = hashlib.sha256(out.stdout.encode())
        if op.out:
            path = self.workdir / op.out
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        return h.hexdigest()


def run_e2e(run: Run, seconds: float, min_passes: int) -> tuple[dict, dict]:
    """Repeat the job for about `seconds`, at least `min_passes` times.

    Each pass is preceded by one set-up process and one calibration, and
    the last is followed by one more calibration.  A pass is scaled by the
    mean of the calibrations on either side of it, a set-up by the one
    right after it; wall_s and setup_s are the medians of the scaled
    values, which shrug off a burst in either the pass or a calibration.
    """
    expected = run.oracle()               # also warms the page cache and bytecode
    ops = run.plan.ops
    walls = {op.name: [] for op in ops}
    rss = {op.name: 0.0 for op in ops}
    digests: dict[str, str] = {}
    pass_walls, setup, calibration = [], [], []
    t_measure = time.perf_counter()
    while True:
        setup.append(run.setup_time())
        calibration.append(run.calibrate())
        total = 0.0
        for op in ops:
            proc = spawn(op_command(op), run.workdir, run.env, run.timeout())
            total += proc.wall_s
            walls[op.name].append(proc.wall_s)
            rss[op.name] = max(rss[op.name], proc.maxrss_mb)
            if run.record(op, proc.out, expected["ops"]):
                digest = run.output_digest(op, proc.out)
                if digests.setdefault(op.name, digest) != digest:
                    run.failures.append(f"{op.name}: output differs from the first pass")
        pass_walls.append(total)
        measured = time.perf_counter() - t_measure
        mean = measured / len(pass_walls)
        if run.elapsed() + mean > RUN_BUDGET_S:
            break
        if len(pass_walls) >= min_passes and measured + mean / 2 >= seconds:
            break
    calibration.append(run.calibrate())
    pass_speed = [2.0 * REF_CAL_S / (a + b) for a, b in zip(calibration, calibration[1:])]
    scaled_setup = [t * REF_CAL_S / c for t, c in zip(setup, calibration) if t is not None]
    samplers = [op for op in ops if op.samples]
    sampling_s = sum(sum(walls[op.name]) for op in samplers)
    counts = dict(expected["counts"])
    for op in ops:
        if op.out:
            path = run.workdir / op.out
            data = path.read_bytes() if path.exists() else b""
            counts[op.out] = {"bytes": len(data), "lines": data.count(b"\n")}
    counts["shapes"] = run.plan.shapes
    metrics = {
        "wall_s": {"value": statistics.median(w * f for w, f in zip(pass_walls, pass_speed)),
                   "unit": "s"},
        # 0 only when every set-up failed, and then the run is not correct
        "setup_s": {"value": statistics.median(scaled_setup) if scaled_setup else 0.0,
                    "unit": "s"},
        "peak_rss_mb": {"value": max(rss.values()), "unit": "MB"},
    }
    report = {
        "calibration_s": calibration,
        "pass_speed_factor": pass_speed,
        "passes": len(pass_walls),
        "pass_wall_s": pass_walls,
        "median_pass_wall_s": statistics.median(pass_walls),
        "setup_runs_s": setup,
        "fastest_op_sum_s": sum(min(w) for w in walls.values()),
        "op_wall_s": walls,
        "ops": {op.name: {"median_s": statistics.median(walls[op.name]),
                          "min_s": min(walls[op.name]), "max_s": max(walls[op.name]),
                          "maxrss_mb": rss[op.name], "samples": op.samples}
                for op in ops},
        "counts": counts,
        "numpy": expected["numpy"],
    }
    if samplers:
        report["samples_per_s"] = {
            "value": len(pass_walls) * sum(op.samples for op in samplers) / sampling_s,
            "unit": "1/s"}
    return metrics, report


def run_traced(run: Run) -> tuple[dict, dict]:
    expected = run.oracle()
    proc = spawn([sys.executable, str(HERE / "tracer.py"), str(run.workdir), "plans.json",
                  run.workload, str(run.seed)], run.workdir, run.env, run.timeout())
    if proc.out.exit_code != 0:
        raise BenchError(f"traced replay failed: {proc.out.stderr.strip()[-600:]}")
    with open(run.workdir / "traced.json") as fh:
        traced = json.load(fh)
    for plan in run.plans:
        for op in plan.ops:
            code, stdout, stderr = traced["outputs"][plan.workload][op.name]
            run.record(op, OpOutput(code, stdout, stderr), expected["ops"])
    metrics = {name: {"value": traced["metrics"][name], "unit": PER_LAYER[name][0]}
               for name in PER_LAYER}
    report = {
        "labels": {name: {"moves": moves, "how": how}
                   for name, (_, moves, how) in PER_LAYER.items()},
        "tracing": {"untraced_replay_s": traced["untraced_s"],
                    "traced_replay_s": traced["traced_s"],
                    "overhead_s": traced["traced_s"] - traced["untraced_s"],
                    "spans": traced["spans"], "run_id": traced["run_id"],
                    "spans_file": str((run.workdir / "spans.jsonl").relative_to(ROOT))},
        "numpy": expected["numpy"],
    }
    return metrics, report


def bench(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    run = Run(workload, seed, size, trace)
    if trace:
        metrics, report = run_traced(run)
    else:
        metrics, report = run_e2e(run, seconds, MIN_PASSES if size == "full" else 1)
    report.update({
        "workload": workload, "seed": seed, "trace": int(trace), "size": size,
        "claim": None,          # defining the benchmark claims no speed-up
        "attempted": run.attempted, "failed": len(run.failures), "failures": run.failures,
        "env": environment(report.pop("numpy")),
        "run_s": run.elapsed(),
    })
    with open(run.workdir / "report.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    # drop the bulky artifacts; keep the report, the spans and the inputs
    for name in [op.out for p in run.plans for op in p.ops if op.out] + [".stdout", ".stderr"]:
        (run.workdir / name).unlink(missing_ok=True)
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    return {"report": report, "result": result}


def smoke() -> int:
    """Every workload at tiny size, both modes; every metric name and unit
    in BENCHMARK.json must be printed."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    t0 = time.perf_counter()
    for w in spec["workloads"]:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            out = bench(w["name"], 0, 0.0, trace, size="smoke")
            res = out["result"]
            for m in spec[kind]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{w['name']} trace={int(trace)}: {m['name']} -> {got}")
            extra = set(res["metrics"]) - {m["name"] for m in spec[kind]}
            if extra:
                problems.append(f"{w['name']} trace={int(trace)}: unlisted {sorted(extra)}")
            if not res["correct"]:
                problems.append(f"{w['name']} trace={int(trace)}: "
                                f"{out['report']['failures']}")
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": len(problems), "seconds": time.perf_counter() - t0}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny size and check the metric names")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "crsm" / "__init__.py").is_file():
        print(f"error: no crsm package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"report": out["report"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
