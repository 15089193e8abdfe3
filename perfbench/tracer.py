"""Traced in-process replay: per-layer numbers for the benchmark.

    python tracer.py WORKDIR PLANS.json WORKLOAD SEED

Run by run.py with PYTHONPATH at the checkout's src/.  It replays every
job once with a span around each call into a public function of a crsm
module, plus a few probes (one-sample runs, import time, a tracemalloc
pass over classify).  The job of WORKLOAD is also replayed without spans
before and after, for the tracing overhead.
Spans live in memory and are written to WORKDIR/spans.jsonl at the end;
the op outputs and per-layer metrics go to WORKDIR/traced.json.

A layer is a module of the package; carrier key handling counts as io.
Generator functions get no span, because a span around creating a
generator measures nothing.
"""

from __future__ import annotations

import functools
import inspect
import io as _io
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import redirect_stderr, redirect_stdout

import probe
import workloads

LAYER_OF = {"crsm.carrier": "io", "crsm.io": "io", "crsm.cli": "cli",
            "crsm.setfun": "setfun", "crsm.transforms": "transforms",
            "crsm.tdf": "tdf", "crsm.integrals": "integrals",
            "crsm.simulate": "simulate", "crsm.verify": "verify"}

# Layers each job calls into.  A layer a job never enters has no self time
# there, so it gets no metric rather than a constant zero.
JOB_LAYERS = {
    "sample-narrow": ("cli", "io", "setfun", "integrals", "tdf", "simulate", "verify"),
    "sample-wide": ("cli", "io", "setfun", "transforms", "integrals", "tdf", "simulate",
                    "verify"),
    "lattice-wide": ("cli", "io", "setfun", "transforms", "tdf"),
}

# name -> (unit, E2E metric and workload it should move, how it is obtained)
PER_LAYER = {
    "simulate.simulate_crsm.us_per_sample.theta2":
        ("us", "samples_per_s, wall_s @ sample-narrow", "(t(N)-t(1))/(N-1)"),
    "simulate.simulate_crsm.us_per_sample.exch20":
        ("us", "samples_per_s, wall_s @ sample-wide", "(t(N)-t(1))/(N-1)"),
    "simulate.simulate_crsm.us_per_sample.skew8":
        ("us", "samples_per_s, wall_s @ sample-wide", "(t(N)-t(1))/(N-1)"),
    "simulate.simulate_crsm.first_sample_ms.theta2":
        ("ms", "none: stays about 0 @ sample-narrow", "samples=1 run"),
    "simulate.simulate_crsm.first_sample_ms.exch20":
        ("ms", "wall_s @ sample-wide", "samples=1 run: atom preparation"),
    "simulate.simulate_crsm.first_sample_ms.skew8":
        ("ms", "wall_s @ sample-wide", "samples=1 run: one 1e4-term sample"),
    "simulate.simulate_spectral.us_per_sample.spec3":
        ("us", "samples_per_s, wall_s @ sample-narrow", "(t(N)-t(1))/(N-1)"),
    "simulate.couple.us_per_sample.spec3":
        ("us", "samples_per_s, wall_s @ sample-narrow", "(t(N)-t(1))/(N-1)"),
    "simulate.substream.us_per_call":
        ("us", "wall_s @ sample-narrow", "mean span"),
    "setfun.mobius_inverse.ms.compose22": ("ms", "wall_s @ lattice-wide", "median span, d=22"),
    "setfun.mobius_inverse.ms.exch24": ("ms", "wall_s @ lattice-wide", "span, d=24"),
    "setfun.classify.ms.compose22": ("ms", "wall_s @ lattice-wide", "median span, d=22"),
    "setfun.classify.peak_alloc_mb.compose22":
        ("MB", "peak_rss_mb @ lattice-wide", "tracemalloc peak, d=22"),
    "transforms.exchangeable_capacity.ms.exch24":
        ("ms", "setup_s, wall_s @ lattice-wide", "span, d=24"),
    "transforms.subset_size_capacity.ms.compose22":
        ("ms", "setup_s, wall_s @ lattice-wide", "median span, d=22"),
    "transforms.compose_capacity.ms.compose22":
        ("ms", "setup_s, wall_s @ lattice-wide", "median span, d=22"),
    "transforms.torus_storm_capacity.ms.storm20":
        ("ms", "setup_s, wall_s @ lattice-wide", "span, Z_20"),
    "transforms.check_stationary.ms.storm16": ("ms", "wall_s @ lattice-wide", "span, Z_16"),
    "tdf.dual_greedy.ms.compose22": ("ms", "wall_s @ lattice-wide", "span, d=22"),
    "tdf.joint_cdf.ms.exch24": ("ms", "wall_s @ lattice-wide", "span, d=24"),
    "tdf.extremal_coefficients.ms.exch12":
        ("ms", "wall_s @ sample-wide", "span inside verify, d=12; a table copy for "
                                       "Choquet models"),
    "io.load_json_file.ms.table16": ("ms", "wall_s @ lattice-wide", "median span, d=16 table"),
    "io.parse_model.ms.table16": ("ms", "wall_s @ lattice-wide", "median span, d=16 table"),
    "io.capacity_to_json.ms.table16": ("ms", "wall_s @ lattice-wide", "span, d=16"),
    "io.mobius_to_json.ms.table16": ("ms", "wall_s @ lattice-wide", "span, d=16"),
    "cli.simulate.csv_write_us_per_row.theta2":
        ("us", "wall_s @ sample-narrow", "derived: cmd_simulate self time / rows"),
    "cli.estimate.csv_read_us_per_row.theta2":
        ("us", "wall_s @ sample-narrow", "derived: cmd_estimate self time / rows"),
    "cli.import_ms": ("ms", "setup_s @ every workload", "median of 5 fresh processes"),
    "verify.verify_model.self_ms.theta2":
        ("ms", "wall_s @ sample-narrow", "derived: verify_model - simulate_model"),
    "verify.verify_model.self_ms.exch12":
        ("ms", "wall_s @ sample-wide", "derived: verify_model - simulate_model"),
    "integrals.choquet_integral.us_per_eval.exch20":
        ("us", "none predicted; recorded to catch regressions", "2000 evals, d=20"),
    "trace.overhead_s":
        ("s", "none: cost of tracing @ this run's workload", "traced - untraced replay"),
}
for _job, _layers in JOB_LAYERS.items():
    for _layer in _layers:
        PER_LAYER[f"{_layer}.self_ms.{_job}"] = (
            "ms", f"wall_s @ {_job}",
            "derived: cli.main minus library calls" if _layer == "cli"
            else "sum of span self times")


class Tracer:
    """Spans (name id, start ns, end ns, parent index, op id) in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.ops: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1

    def begin_op(self, label: str) -> None:
        self.ops.append(label)
        self.op = len(self.ops) - 1

    def wrap(self, name: str, fn):
        self.names.append(name)
        nid = len(self.names) - 1
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op)
        return traced

    def install(self, modules) -> dict:
        """Wrap every public function and rebind it in every module that
        imported it, so cross-module calls go through the span too."""
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self.wrap(f"{mod.__name__[5:]}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        return wrappers

    @staticmethod
    def uninstall(modules, wrappers: dict) -> None:
        originals = {w: f for f, w in wrappers.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, attr, originals[obj])

    def self_times(self) -> list[int]:
        child = [0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - child[i] for i, (_, t0, t1, _, _) in enumerate(self.spans)]

    def dump(self, path, run_id: str) -> None:
        with open(path, "w") as fh:
            for nid, t0, t1, parent, op in self.spans:
                fh.write(json.dumps([self.names[nid], t0, t1, parent, run_id,
                                     self.ops[op] if op >= 0 else None]) + "\n")


def replay_op(op, cli_main):
    """Run one operation in-process; returns (exit code, stdout, stderr)."""
    out, err = _io.StringIO(), _io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if op.lib:
                code = probe.main(list(op.argv))
            else:
                code = cli_main(list(op.argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash is a failed op, as in a fresh process
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _median_ms(ns: list[int]) -> float:
    return statistics.median(ns) / 1e6


def main(argv: list[str]) -> int:
    workdir, plans_path, workload, seed = argv[0], argv[1], argv[2], int(argv[3])
    os.chdir(workdir)
    with open(plans_path) as fh:
        plans = json.load(fh)
    size = plans["size"]

    import numpy as np
    import crsm
    from crsm import (carrier, cli, integrals, io, setfun, simulate, tdf, transforms,
                      verify)
    modules = [carrier, io, setfun, integrals, tdf, transforms, simulate, verify, cli, crsm]

    def ops_of(job):
        return [workloads.Op(**{**o, "argv": tuple(o["argv"])}) for o in plans["jobs"][job]]

    def replay_untraced():
        t0 = time.perf_counter()
        for op in ops_of(workload):
            replay_op(op, cli.main)
        return time.perf_counter() - t0

    # the first replay warms lazy imports and the allocator; untraced replays
    # before and after the traced one cancel drift in the machine's speed
    replay_untraced()
    untraced = [replay_untraced()]
    theta2, exch20, skew8, spec3, compose22 = (
        io.parse_model(io.load_json_file(f"{role}.json"))
        for role in ("theta2", "exch20", "skew8", "spec3", "compose22"))

    tracer = Tracer()
    wrappers = tracer.install(modules)

    outputs = {}
    traced_s = None
    order = [workload] + [w for w in workloads.WORKLOADS if w != workload]
    for job in order:
        t0 = time.perf_counter()
        outputs[job] = {}
        for op in ops_of(job):
            tracer.begin_op(f"{job}/{op.name}")
            outputs[job][op.name] = replay_op(op, cli.main)
        if job == workload:
            traced_s = time.perf_counter() - t0

    z = workloads.SIZES[size]
    sim_seed = workloads.stream_seed(seed)

    def probe_first(role, fn):
        tracer.begin_op(f"probe/first-{role}")
        fn()

    one = simulate.SimConfig(seed=sim_seed, samples=1)
    probe_first("theta2", lambda: simulate.simulate_crsm(theta2, one))
    probe_first("exch20", lambda: simulate.simulate_crsm(exch20, one))
    probe_first("skew8", lambda: simulate.simulate_crsm(
        skew8, simulate.SimConfig(seed=workloads.SKEW_STREAM_SEED, samples=1)))
    probe_first("spec3", lambda: simulate.simulate_spectral(
        simulate.SpectralSampler.from_tdf(spec3), one))
    probe_first("couple", lambda: simulate.couple(
        simulate.SpectralSampler.from_tdf(spec3), one))

    Tracer.uninstall(modules, wrappers)
    untraced.append(replay_untraced())
    untraced_s = statistics.fmean(untraced)

    # probes below run without spans
    tracemalloc.start()
    setfun.classify(compose22)
    peak_alloc = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del compose22

    choquet = integrals.choquet_integral
    rng = np.random.default_rng(seed % (1 << 63))
    fs = rng.exponential(1.0, size=(2000, exch20.carrier.size))
    t0 = time.perf_counter()
    for f in fs:
        choquet(f, exch20)
    choquet_us = (time.perf_counter() - t0) / len(fs) * 1e6

    import_ms = []
    for _ in range(5):
        res = subprocess.run([sys.executable, probe.__file__, "import"], capture_output=True,
                             text=True, check=True)
        import_ms.append(json.loads(res.stdout)["import_ms"])

    # ---- metrics from spans
    names = tracer.names
    self_ns = tracer.self_times()
    by_op: dict[str, list[int]] = {}
    for i, span in enumerate(tracer.spans):
        by_op.setdefault(tracer.ops[span[4]], []).append(i)

    def spans(op_label, fname):
        return [i for i in by_op.get(op_label, []) if names[tracer.spans[i][0]] == fname]

    def dur(i):
        return tracer.spans[i][2] - tracer.spans[i][1]

    def durs(labels, fname):
        found = [dur(i) for lb in labels for i in spans(lb, fname)]
        if not found:
            raise RuntimeError(f"no span of {fname} in {labels}")
        return found

    def per_sample_us(op_label, probe_label, fname, n):
        t_n = durs([op_label], fname)[0]
        t_1 = durs([probe_label], fname)[0]
        return (t_n - t_1) / (n - 1) / 1e3

    def first_ms(role, fname="simulate.simulate_crsm"):
        return durs([f"probe/first-{role}"], fname)[0] / 1e6

    def derived_self(op_label, outer, inner):
        return (durs([op_label], outer)[0] - durs([op_label], inner)[0]) / 1e6

    nw, lw, ww = "sample-narrow", "lattice-wide", "sample-wide"
    c22 = [f"{lw}/check-compose22", f"{lw}/dual-compose22"]
    t16 = [f"{lw}/check-table16", f"{lw}/mobius-table16"]
    substream = [dur(i) for i, s in enumerate(tracer.spans)
                 if names[s[0]] == "simulate.substream"]
    m = {
        "simulate.simulate_crsm.us_per_sample.theta2": per_sample_us(
            f"{nw}/simulate-theta2", "probe/first-theta2", "simulate.simulate_crsm",
            z["theta2_n"]),
        "simulate.simulate_crsm.us_per_sample.exch20": per_sample_us(
            f"{ww}/simulate-exch20", "probe/first-exch20", "simulate.simulate_crsm",
            z["exch20_n"]),
        "simulate.simulate_crsm.us_per_sample.skew8": per_sample_us(
            f"{ww}/simulate-skew8", "probe/first-skew8", "simulate.simulate_crsm",
            z["skew8_n"]),
        "simulate.simulate_crsm.first_sample_ms.theta2": first_ms("theta2"),
        "simulate.simulate_crsm.first_sample_ms.exch20": first_ms("exch20"),
        "simulate.simulate_crsm.first_sample_ms.skew8": first_ms("skew8"),
        "simulate.simulate_spectral.us_per_sample.spec3": per_sample_us(
            f"{nw}/simulate-spec3", "probe/first-spec3", "simulate.simulate_spectral",
            z["spec3_n"]),
        "simulate.couple.us_per_sample.spec3": per_sample_us(
            f"{nw}/couple-spec3", "probe/first-couple", "simulate.couple", z["couple_n"]),
        "simulate.substream.us_per_call": statistics.fmean(substream) / 1e3,
        "setfun.mobius_inverse.ms.compose22": _median_ms(durs(c22, "setfun.mobius_inverse")),
        "setfun.mobius_inverse.ms.exch24": _median_ms(
            durs([f"{lw}/cdf-exch24"], "setfun.mobius_inverse")),
        "setfun.classify.ms.compose22": _median_ms(durs(c22, "setfun.classify")),
        "setfun.classify.peak_alloc_mb.compose22": peak_alloc / 2**20,
        "transforms.exchangeable_capacity.ms.exch24": _median_ms(
            durs([f"{lw}/cdf-exch24"], "transforms.exchangeable_capacity")),
        "transforms.subset_size_capacity.ms.compose22": _median_ms(
            durs(c22, "transforms.subset_size_capacity")),
        "transforms.compose_capacity.ms.compose22": _median_ms(
            durs(c22, "transforms.compose_capacity")),
        "transforms.torus_storm_capacity.ms.storm20": _median_ms(
            durs([f"{lw}/check-storm20"], "transforms.torus_storm_capacity")),
        "transforms.check_stationary.ms.storm16": _median_ms(
            durs([f"{lw}/stationary-storm16"], "transforms.check_stationary")),
        "tdf.dual_greedy.ms.compose22": _median_ms(
            durs([f"{lw}/dual-compose22"], "tdf.dual_greedy")),
        "tdf.joint_cdf.ms.exch24": _median_ms(durs([f"{lw}/cdf-exch24"], "tdf.joint_cdf")),
        "tdf.extremal_coefficients.ms.exch12": _median_ms(
            durs([f"{ww}/verify-exch12"], "tdf.extremal_coefficients")),
        "io.load_json_file.ms.table16": _median_ms(durs(t16, "io.load_json_file")),
        "io.parse_model.ms.table16": _median_ms(durs(t16, "io.parse_model")),
        "io.capacity_to_json.ms.table16": _median_ms(
            durs([f"{lw}/materialize-table16"], "io.capacity_to_json")),
        "io.mobius_to_json.ms.table16": _median_ms(
            durs([f"{lw}/mobius-table16"], "io.mobius_to_json")),
        "cli.simulate.csv_write_us_per_row.theta2": self_ns[
            spans(f"{nw}/simulate-theta2", "cli.cmd_simulate")[0]] / z["theta2_n"] / 1e3,
        "cli.estimate.csv_read_us_per_row.theta2": self_ns[
            spans(f"{nw}/estimate-theta2", "cli.cmd_estimate")[0]] / z["theta2_n"] / 1e3,
        "cli.import_ms": statistics.median(import_ms),
        "verify.verify_model.self_ms.theta2": derived_self(
            f"{nw}/verify-theta2", "verify.verify_model", "simulate.simulate_model"),
        "verify.verify_model.self_ms.exch12": derived_self(
            f"{ww}/verify-exch12", "verify.verify_model", "simulate.simulate_model"),
        "integrals.choquet_integral.us_per_eval.exch20": choquet_us,
        "trace.overhead_s": traced_s - untraced_s,
    }
    layer_self: dict[tuple[str, str], int] = {}
    for i, span in enumerate(tracer.spans):
        job = tracer.ops[span[4]].split("/", 1)[0]
        if job in JOB_LAYERS:
            key = (LAYER_OF["crsm." + names[span[0]].split(".", 1)[0]], job)
            layer_self[key] = layer_self.get(key, 0) + self_ns[i]
    for job, layers in JOB_LAYERS.items():
        for layer in layers:
            m[f"{layer}.self_ms.{job}"] = layer_self.get((layer, job), 0) / 1e6

    run_id = f"{workload}:{seed}"
    tracer.dump("spans.jsonl", run_id)
    with open("traced.json", "w") as fh:
        json.dump({"run_id": run_id, "outputs": outputs, "metrics": m,
                   "untraced_s": untraced_s, "traced_s": traced_s,
                   "spans": len(tracer.spans)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
