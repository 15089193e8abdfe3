"""Steadiness check: run the benchmark on several seeds and report spreads.

    python3 perfbench/steady.py --seeds 10 [--workloads sample-narrow ...]

For every workload and end-to-end metric it prints the median of the
per-seed values and the quartile spread (Q3 - Q1) / median, as
statistics.quantiles(values, n=4) gives them, next to the metric's bound
in BENCHMARK.json.  The first seed is then run a second time and its
exact cost counts must repeat bit for bit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, check=True)
    lines = res.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def main(argv=None) -> int:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)
    ok = True
    for w in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        failed = 0
        first_counts = None
        for k in range(args.seeds):
            result, report = bench(w, args.first_seed + k, spec["run_seconds"])
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            if k == 0:
                first_counts = report["counts"]
        _, again = bench(w, args.first_seed, spec["run_seconds"])
        counts_repeat = again["counts"] == first_counts
        ok &= counts_repeat and failed == 0
        print(f"{w}: ops failed {failed}, counts repeat exactly: {counts_repeat}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            print(f"  {m['name']:12s} median {med:10.4f} {m['unit']:3s} spread {spread:6.3f} "
                  f"bound {m['bound']:.2f}  values {[round(x, 4) for x in v]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
