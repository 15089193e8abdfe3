"""Child-process helpers that call the crsm library directly.

    probe.py setup MODEL.json ...        import crsm, load and parse every model
    probe.py check-stationary MODEL.json one library call the CLI lacks
    probe.py oracle PLAN.json OUT.json   expected outputs and exact cost counts
    probe.py import                      milliseconds to import crsm.cli
    probe.py calibrate                   fixed work that never touches crsm

run.py starts these with PYTHONPATH pointing at the checkout's src/, so
they exercise the code under test, never an installed copy.
"""

from __future__ import annotations

import json
import math
import sys
import time


def cmd_setup(paths: list[str]) -> int:
    from crsm.io import load_json_file, parse_model
    for path in paths:
        parse_model(load_json_file(path))
    print(json.dumps({"parsed": len(paths)}))
    return 0


def cmd_check_stationary(path: str) -> int:
    from crsm.io import load_json_file, parse_model
    from crsm.transforms import check_stationary
    print(json.dumps({"stationary": bool(check_stationary(parse_model(load_json_file(path))))}))
    return 0


def cmd_import() -> int:
    t0 = time.perf_counter()
    import crsm.cli  # noqa: F401
    print(json.dumps({"import_ms": (time.perf_counter() - t0) * 1e3}))
    return 0


def cmd_calibrate() -> int:
    """Machine-speed reference for run.py: an interpreter loop and numpy
    streaming, the two kinds of work the jobs spend their time in."""
    import numpy as np
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    a = np.arange(1 << 21, dtype=float)
    for _ in range(6):
        a = np.sqrt(a + 1.0)
    print(json.dumps({"checksum": acc + float(a[-1])}))
    return 0


def expected_terms(table, d: int) -> dict:
    """Exact LePage cost of the CRSM sampler, from the capacity table.

    The sampler stops at N = T + 1 where T is the term at which every
    relevant point has been hit, and an atom hits S with probability
    theta(S)/theta(E), so E[N] = 1 + sum over nonempty S in R of
    (-1)^(|S|+1) theta(E)/theta(S).  The sum is exact for |R| <= 12; the
    O(d) bounds hold for any R.
    """
    total = float(table[-1])
    rel = [i for i in range(d) if table[1 << i] > 0]
    ratios = [total / float(table[1 << i]) for i in rel]
    out = {"relevant_points": len(rel),
           "terms_lower": 1.0 + max(ratios),
           "terms_upper": 1.0 + math.fsum(ratios)}
    if len(rel) <= 12:
        terms = []
        for sub in range(1, 1 << len(rel)):
            mask = 0
            for j, i in enumerate(rel):
                if sub >> j & 1:
                    mask |= 1 << i
            sign = 1.0 if bin(sub).count("1") % 2 else -1.0
            terms.append(sign * total / float(table[mask]))
        out["terms_exact"] = 1.0 + math.fsum(terms)
    return out


def _choquet_of_spikes(theta, pairs) -> float:
    """exp(-ell(h)) with h = max_i 1_{K_i}/a_i, through ChoquetTDF.eval."""
    import numpy as np
    from crsm.tdf import ChoquetTDF
    carrier = theta.carrier
    h = np.zeros(carrier.size)
    for pair in pairs:
        for lb in pair["set"]:
            i = carrier.index_of(lb)
            h[i] = max(h[i], 1.0 / pair["level"])
    return math.exp(-ChoquetTDF(theta).eval(h))


def cmd_oracle(plan_path: str, out_path: str) -> int:
    import hashlib
    import os

    import numpy as np
    import crsm
    from crsm.io import load_json_file, parse_model
    from crsm.integrals import choquet_integral
    from crsm.setfun import Capacity, mobius_inverse
    from crsm.carrier import as_values

    with open(plan_path) as fh:
        plan = json.load(fh)
    models = {}

    def model(name):
        if name not in models:
            models[name] = parse_model(load_json_file(name))
        return models[name]

    ops = {}
    for op in (op for job in plan["jobs"].values() for op in job):
        p = op["params"]
        if op["check"] in ("estimate", "dual"):
            theta = model(p["model"])
            f = as_values(theta.carrier, load_json_file(p["f"]))
            ops[op["name"]] = {"value": choquet_integral(f, theta), "total": theta.total}
        elif op["check"] == "cdf":
            theta = model(p["model"])
            ops[op["name"]] = {"value": _choquet_of_spikes(theta, load_json_file(p["pairs"]))}
        elif op["check"] == "materialize":
            theta = model(p["model"])
            table = np.ascontiguousarray(theta.table, dtype="<f8")
            ops[op["name"]] = {"table_sha256": hashlib.sha256(table.tobytes()).hexdigest(),
                               "total": theta.total}
        elif op["check"] == "mobius":
            theta = model(p["model"])
            nu = mobius_inverse(theta)
            ops[op["name"]] = {"total": theta.total,
                               "nonzero_weights": int(np.count_nonzero(nu.weights[1:]))}

    counts = {}
    for name in plan["models"]:
        m = model(name)
        role = name[:-len(".json")]
        if isinstance(m, Capacity):
            nu = mobius_inverse(m)
            c = {"positive_mobius_atoms": int(np.count_nonzero(nu.weights > 0))}
            if name in plan["sampled"]:
                c.update(expected_terms(m.table, m.carrier.size))
        else:
            c = {"spectral_atoms": int(m.atoms.shape[0])}
        c["input_bytes"] = os.path.getsize(name)
        counts[role] = c
        models.pop(name, None)   # the d = 24 table is 128 MB; keep one at a time

    src = os.path.dirname(os.path.dirname(os.path.abspath(crsm.__file__)))
    result = {"ops": ops, "counts": counts, "numpy": np.__version__,
              "crsm_src": src, "crsm_version": crsm.__version__}
    with open(out_path, "w") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    cmd, rest = argv[0], argv[1:]
    if cmd == "setup":
        return cmd_setup(rest)
    if cmd == "check-stationary" and len(rest) == 1:
        return cmd_check_stationary(rest[0])
    if cmd == "import":
        return cmd_import()
    if cmd == "calibrate":
        return cmd_calibrate()
    if cmd == "oracle" and len(rest) == 2:
        return cmd_oracle(*rest)
    print(f"unknown probe command {argv!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
