"""Seeded inputs and the operation list of each benchmark workload.

Everything the program under test receives is generated here from the
workload seed: model JSON files, integrand vectors and CDF queries.  The
same (workload, seed, size) always yields byte-identical files.

A job is a fixed list of operations run one after another.  Each
operation is a fresh `python -m crsm.cli ...` process, or a fresh
`python perfbench/probe.py ...` process where the CLI has no command for
the library call (`check_stationary`).

Model roles carry their full-size shape in the name (exch20 is the
exchangeable capacity on 20 points); smoke mode shrinks every shape but
keeps the role names, so metric names do not depend on the size.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("sample-narrow", "sample-wide", "lattice-wide")

# Sample counts and carrier sizes.  "full" is what the benchmark measures;
# "smoke" runs every operation at a tiny size to exercise the harness.
SIZES = {
    "full": {
        "theta2_n": 50_000, "spec3_n": 10_000, "couple_n": 5_000,
        "verify_theta2_n": 20_000,
        "exch20_d": 20, "exch20_n": 500, "exch12_d": 12, "verify_exch12_n": 20_000,
        "skew8_n": 100, "skew_rel_mass": 1e-4,
        "compose22_d": 22, "exch24_d": 24, "storm20_n": 20, "storm16_n": 16,
        "table16_d": 16,
    },
    "smoke": {
        "theta2_n": 400, "spec3_n": 300, "couple_n": 200,
        "verify_theta2_n": 2_000,
        "exch20_d": 8, "exch20_n": 50, "exch12_d": 6, "verify_exch12_n": 2_000,
        "skew8_n": 20, "skew_rel_mass": 1e-2,
        "compose22_d": 8, "exch24_d": 9, "storm20_n": 7, "storm16_n": 6,
        "table16_d": 7,
    },
}

# The skewed table is always simulated from this stream seed.  Its cost is
# dominated by the waiting time for the rare atom, a geometric count whose
# relative spread over N samples is 1/sqrt(N) (8% at N = 150).  With the rare
# point at the highest bit and a fixed atom count, the alias bucket of the
# rare atom is the same for every workload seed, so a fixed stream draws the
# same number of terms whatever the seed picked; only the values change.
SKEW_STREAM_SEED = 0

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Op:
    """One operation of a job.

    argv is the crsm CLI argument list, or the probe.py argument list when
    lib is set.  check names the output check in checks.CHECKS; params are
    the facts that check needs and that are known when the inputs are made.
    """

    name: str
    argv: tuple[str, ...]
    check: str
    params: dict = field(default_factory=dict)
    lib: bool = False
    samples: int = 0
    out: Optional[str] = None


@dataclass
class Plan:
    workload: str
    files: dict            # file name -> JSON object written before the run
    models: tuple          # model files the set-up measurement parses
    ops: tuple             # Op, in job order
    shapes: dict           # model role -> shape facts (d, 2^d, N, ...)

    def write(self, workdir) -> None:
        for name, obj in self.files.items():
            with open(workdir / name, "w") as fh:
                json.dump(obj, fh, sort_keys=True)
                fh.write("\n")


def stream_seed(seed: int) -> int:
    """The --seed the sampling operations get: a nonnegative Philox key."""
    return seed % (1 << 31)


def _rng(workload: str, seed: int, role: str) -> random.Random:
    # str seeds hash with sha512, so this is stable across processes
    return random.Random(f"crsm-perfbench/{workload}/{seed}/{role}")


def _labels(d: int) -> list[str]:
    return [f"x{i}" for i in range(d)]


def _jitter(rng: random.Random, x: float, rel: float = 0.03) -> float:
    return x * rng.uniform(1.0 - rel, 1.0 + rel)


def theta2_model(rng: random.Random) -> dict:
    """Two-point table; mass ratios vary by a few percent, scale freely."""
    c = rng.uniform(0.5, 2.0)
    ta = c
    tb = c * rng.uniform(0.97, 1.03)
    tab = c * rng.uniform(1.45, 1.55)
    return {"kind": "table", "carrier": ["a", "b"],
            "table": {"a": ta, "b": tb, "a,b": tab}}


def spectral3_model(rng: random.Random) -> dict:
    """Four non-indicator spectral atoms on three points."""
    base = [(0.3, (1.0, 0.5, 0.2)), (0.3, (0.3, 1.0, 0.6)),
            (0.2, (0.4, 0.4, 1.0)), (0.2, (0.9, 0.1, 0.8))]
    probs = [_jitter(rng, p) for p, _ in base]
    total = math.fsum(probs)
    atoms = []
    for p, (_, ys) in zip(probs, base):
        y = [_jitter(rng, v) for v in ys]
        atoms.append({"p": p / total, "y": dict(zip(("a", "b", "c"), y))})
    return {"kind": "spectral", "carrier": ["a", "b", "c"], "atoms": atoms}


def exchangeable_model(rng: random.Random, d: int, lo: float, hi: float) -> dict:
    q = _jitter(rng, 0.5)
    return {"kind": "exchangeable", "carrier": _labels(d),
            "zeta": [[_jitter(rng, lo), q], [_jitter(rng, hi), 1.0 - q]],
            "scale": rng.uniform(0.5, 2.0)}


def skewed_table_model(rng: random.Random, d: int, rel_mass: float) -> tuple[dict, str]:
    """Table capacity whose rare point is reachable only through one
    singleton atom of relative mass rel_mass.

    The seed picks every label (hence which label is rare) and every
    weight.  The rare point sits at the highest bit and the atom count is
    fixed: d - 1 singletons, 12 multi-point atoms and the rare atom.
    Weights are integers times a power of two, so every table entry and
    the program's Mobius inversion are exact: no rounding dust adds atoms.
    """
    names = rng.sample([f"p{i:02d}" for i in range(100)], d)
    others = d - 1
    raw: dict[int, float] = {1 << i: rng.uniform(0.2, 0.4) for i in range(others)}
    multi = [m for m in range(1, 1 << others) if bin(m).count("1") >= 2]
    for m in rng.sample(multi, min(12, len(multi))):
        raw[m] = rng.uniform(0.5, 1.5)
    units = round(1.0 / rel_mass) - 1          # the rare atom weighs 1 unit
    total = math.fsum(raw.values())
    atoms = {m: max(1, int(units * w / total)) for m, w in raw.items()}
    largest = max(atoms, key=atoms.get)
    atoms[largest] += units - sum(atoms.values())
    atoms[1 << others] = 1
    c = 2.0 ** rng.randint(-3, 1)
    table = {}
    for k in range(1, 1 << d):
        key = ",".join(sorted(names[i] for i in range(d) if k >> i & 1))
        table[key] = c * sum(w for f, w in atoms.items() if f & k)
    return {"kind": "table", "carrier": names, "table": table}, names[-1]


def subset_size_model(rng: random.Random, d: int) -> dict:
    raw = [0.0] + [rng.uniform(0.5, 1.5) / k for k in range(1, d + 1)]
    total = math.fsum(raw)
    return {"kind": "subset_size", "carrier": _labels(d),
            "p": [v / total for v in raw], "scale": rng.uniform(0.5, 2.0)}


def compose_model(rng: random.Random, d: int) -> dict:
    return {"kind": "bernstein_compose", "base": subset_size_model(rng, d),
            "bernstein": {"drift": rng.uniform(0.2, 0.8),
                          "atoms": [[rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5)]]}}


def storm_model(rng: random.Random, n: int) -> dict:
    """Two random shapes on Z_n; the shape count fixes the constructor cost."""
    shapes = []
    probs = [rng.uniform(0.3, 0.7)]
    probs.append(1.0 - probs[0])
    for p in probs:
        size = rng.randint(1, min(4, n))
        shapes.append({"points": sorted(rng.sample(range(n), size)), "p": p})
    return {"kind": "torus_storm", "n": n, "dim": 1, "shapes": shapes,
            "scale": rng.uniform(0.5, 2.0)}


def _cli(name, argv, check, **kw) -> Op:
    return Op(name, tuple(str(a) for a in argv), check, **kw)


def build(workload: str, seed: int, size: str = "full") -> Plan:
    """The seeded inputs and the operation list of one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    z = SIZES[size]
    sim_seed = stream_seed(seed)
    r = lambda role: _rng(workload, seed, role)
    files: dict = {}
    ops: list[Op] = []
    shapes: dict = {}

    if workload == "sample-narrow":
        files["theta2.json"] = theta2_model(r("theta2"))
        files["spec3.json"] = spectral3_model(r("spec3"))
        fr = r("f-theta2")
        f = {"a": fr.uniform(1.0, 3.0), "b": fr.uniform(0.5, 1.5)}
        files["f-theta2.json"] = f
        n, ns, nc, nv = z["theta2_n"], z["spec3_n"], z["couple_n"], z["verify_theta2_n"]
        ops += [
            _cli("simulate-theta2", ["simulate", "--model", "theta2.json", "--seed", sim_seed,
                                     "--samples", n, "--out", "theta2.csv", "--deterministic"],
                 "csv_rows", params={"rows": n, "points": 2}, samples=n, out="theta2.csv"),
            _cli("estimate-theta2", ["estimate", "--batch", "theta2.csv", "--f", "@f-theta2.json",
                                     "--deterministic"],
                 "estimate", params={"model": "theta2.json", "f": "f-theta2.json", "n": n}),
            _cli("simulate-spec3", ["simulate", "--model", "spec3.json", "--seed", sim_seed,
                                    "--samples", ns, "--out", "spec3.csv", "--deterministic"],
                 "csv_rows", params={"rows": ns, "points": 3}, samples=ns, out="spec3.csv"),
            _cli("couple-spec3", ["couple", "--model", "spec3.json", "--seed", sim_seed,
                                  "--samples", nc, "--deterministic"],
                 "couple", params={"n": nc}, samples=nc),
            _cli("verify-theta2", ["verify", "--model", "theta2.json", "--seed", sim_seed,
                                   "--samples", nv],
                 "verify", samples=nv),
        ]
        shapes["theta2"] = {"d": 2, "lattice": 4, "n": n, "verify_n": nv}
        shapes["spec3"] = {"d": 3, "spectral_atoms": 4, "lattice": 8, "n": ns, "couple_n": nc}
    elif workload == "sample-wide":
        d20, d12 = z["exch20_d"], z["exch12_d"]
        files["exch20.json"] = exchangeable_model(r("exch20"), d20, 0.2, 0.5)
        files["exch12.json"] = exchangeable_model(r("exch12"), d12, 0.3, 0.6)
        skew, rare = skewed_table_model(r("skew8"), 8, z["skew_rel_mass"])
        files["skew8.json"] = skew
        n20, nv, nk = z["exch20_n"], z["verify_exch12_n"], z["skew8_n"]
        ops += [
            _cli("simulate-exch20", ["simulate", "--model", "exch20.json", "--seed", sim_seed,
                                     "--samples", n20, "--out", "exch20.csv", "--deterministic"],
                 "csv_rows", params={"rows": n20, "points": d20}, samples=n20, out="exch20.csv"),
            _cli("verify-exch12", ["verify", "--model", "exch12.json", "--seed", sim_seed,
                                   "--samples", nv],
                 "verify", samples=nv),
            _cli("simulate-skew8", ["simulate", "--model", "skew8.json",
                                    "--seed", SKEW_STREAM_SEED, "--samples", nk,
                                    "--out", "skew8.csv", "--deterministic"],
                 "csv_rows", params={"rows": nk, "points": 8}, samples=nk, out="skew8.csv"),
        ]
        shapes["exch20"] = {"d": d20, "lattice": 1 << d20, "n": n20}
        shapes["exch12"] = {"d": d12, "lattice": 1 << d12, "verify_n": nv}
        shapes["skew8"] = {"d": 8, "lattice": 256, "n": nk, "atoms": 20,
                           "rare_point": rare, "rare_rel_mass": z["skew_rel_mass"]}
    else:
        d22, d24, dt = z["compose22_d"], z["exch24_d"], z["table16_d"]
        n20, n16 = z["storm20_n"], z["storm16_n"]
        files["compose22.json"] = compose_model(r("compose22"), d22)
        files["exch24.json"] = exchangeable_model(r("exch24"), d24, 0.2, 0.5)
        files["storm20.json"] = storm_model(r("storm20"), n20)
        files["storm16.json"] = storm_model(r("storm16"), n16)
        files["ss16.json"] = subset_size_model(r("ss16"), dt)
        fr = r("f-compose22")
        files["f-compose22.json"] = [round(fr.uniform(0.0, 2.0), 6) for _ in range(d22)]
        pr = r("pairs-exch24")
        labels = _labels(d24)
        files["pairs-exch24.json"] = [
            {"set": sorted(pr.sample(labels, pr.randint(1, 6))),
             "level": pr.uniform(0.5, 3.0)} for _ in range(3)]
        ops += [
            _cli("check-compose22", ["check", "--model", "compose22.json", "--deterministic"],
                 "check_ca"),
            _cli("dual-compose22", ["dual", "--model", "compose22.json",
                                    "--f", "@f-compose22.json", "--deterministic"],
                 "dual", params={"model": "compose22.json", "f": "f-compose22.json"}),
            _cli("cdf-exch24", ["cdf", "--model", "exch24.json", "--pairs", "@pairs-exch24.json"],
                 "cdf", params={"model": "exch24.json", "pairs": "pairs-exch24.json"}),
            _cli("check-storm20", ["check", "--model", "storm20.json", "--deterministic"],
                 "check_ca"),
            Op("stationary-storm16", ("check-stationary", "storm16.json"), "stationary",
               lib=True),
            _cli("materialize-table16", ["materialize", "--model", "ss16.json",
                                         "--out", "table16.json", "--deterministic"],
                 "materialize", params={"model": "ss16.json"}, out="table16.json"),
            _cli("check-table16", ["check", "--model", "table16.json", "--deterministic"],
                 "check_ca"),
            _cli("mobius-table16", ["mobius", "--model", "table16.json",
                                    "--out", "mobius16.json", "--deterministic"],
                 "mobius", params={"model": "ss16.json"}, out="mobius16.json"),
        ]
        shapes["compose22"] = {"d": d22, "lattice": 1 << d22}
        shapes["exch24"] = {"d": d24, "lattice": 1 << d24, "cdf_pairs": 3}
        shapes["storm20"] = {"d": n20, "lattice": 1 << n20, "shapes": 2}
        shapes["storm16"] = {"d": n16, "lattice": 1 << n16, "shifts": n16}
        shapes["table16"] = {"d": dt, "lattice": 1 << dt}
    for role, shape in shapes.items():
        d = shape["d"]
        shape["sweep_ops_per_transform"] = d * (1 << (d - 1))
    models = tuple(name for name, obj in files.items()
                   if isinstance(obj, dict) and "kind" in obj)
    return Plan(workload, files, models, tuple(ops), shapes)
