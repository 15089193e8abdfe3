"""Command-line front end.

Every subcommand reads a model JSON via --model and emits either a bare
number (choquet, extremal, cdf) or a JSON/CSV artifact.  Artifacts embed
a provenance block {tool, version, seed, model_sha256, generated_at},
plus the random stream version `stream` when a seed is given;
--deterministic drops the timestamp so repeated runs are byte-identical.
`simulate` writes the mean, p50, p99 and max of its LePage term counts to
stderr.

Simulation CSV: a `# provenance:` line, the header `sample_index,<labels>`,
then one row per sample, each value in Python's shortest round-trip
`repr`, so `estimate` reads back bit-equal values.  The reader ignores `#`
lines and blank lines anywhere and never parses the index column.

Exit codes: 0 success, 1 failed verification-style checks or stdout
closed early by its reader (a broken pipe, as in `| head`), 2 malformed
input (with a JSONPath-precise message on stderr), 3 refused carrier
size.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from itertools import islice
from typing import Optional, TextIO

import numpy as np

from . import __version__
from .carrier import Carrier, CarrierSizeError, iter_bits
from .integrals import choquet_integral, extremal_integral
from .io import (
    SchemaError,
    capacity_to_json,
    load_json_file,
    mobius_to_json,
    model_hash,
    parse_capacity,
    parse_label_set,
    parse_model,
    parse_pairs,
    _parse_point_values,
)
from .setfun import (
    DEFAULT_TOL,
    Capacity,
    certified_mobius,
    check_complete_alternation_direct,
    classify,
    mobius_inverse,
)
from .simulate import (
    STREAM_VERSION,
    SampleBatch,
    SimConfig,
    argmax_independence_test,
    couple,
    frechet_scale_estimate,
    simulate_model,
)
from .tdf import ChoquetTDF, dual_greedy, dual_oracle, joint_cdf
from .verify import coupling_violations, verify_model


# Commands that always draw random numbers.  `dual --oracle sampled` and
# `check --direct` on d > 3 are randomized too; those validate their own
# seed because the need depends on other flags.
RANDOMIZED_COMMANDS = frozenset({"simulate", "couple", "argmax-test", "verify"})


def _provenance(seed: Optional[int], obj, deterministic: bool) -> dict:
    prov = {
        "tool": "crsm",
        "version": __version__,
        "seed": seed,
        "model_sha256": model_hash(obj) if obj is not None else None,
    }
    if seed is not None:
        prov["stream"] = STREAM_VERSION
    if not deterministic:
        prov["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return prov


def _emit_json(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _inline_json(arg: str, what: str):
    """Inline JSON, or @path to read it from a file."""
    if arg.startswith("@"):
        return load_json_file(arg[1:])
    try:
        return json.loads(arg)
    except json.JSONDecodeError as e:
        raise SchemaError("$", f"invalid JSON for {what}: {e}") from None


def _load_model(path: str):
    obj = load_json_file(path)
    return parse_model(obj), obj


def _require_capacity(model, what: str) -> Capacity:
    if isinstance(model, Capacity):
        return model
    if isinstance(model, ChoquetTDF):
        return model.theta
    raise SchemaError("$.kind", f"{what} needs a capacity model, not a "
                                f"{type(model).__name__}")


def _parse_mode(mode: str) -> tuple[str, Optional[int]]:
    if mode == "exact":
        return "exact", None
    if mode.startswith("truncated:"):
        try:
            k = int(mode.split(":", 1)[1])
        except ValueError:
            raise SchemaError("$", f"bad truncation length in mode {mode!r}") from None
        return "truncated", k
    raise SchemaError("$", f"mode must be 'exact' or 'truncated:K', got {mode!r}")


def cmd_check(args) -> int:
    model, obj = _load_model(args.model)
    payload: dict = {"provenance": _provenance(args.seed, obj, args.deterministic)}
    if isinstance(model, Capacity) or isinstance(model, ChoquetTDF):
        theta = model if isinstance(model, Capacity) else model.theta
        cls = classify(theta, tol=args.tolerance)
        payload["classification"] = cls.summary(theta.carrier)
        if args.direct:
            rep = check_complete_alternation_direct(
                theta, max_order=args.order, trials=args.trials,
                seed=args.seed if theta.carrier.size > 3 else None,
                tol=args.tolerance)
            payload["direct_search"] = {
                "alternating": rep.alternating,
                "worst_value": rep.worst_value,
                "witness_base": sorted(theta.carrier.labels_of(rep.witness_base))
                if rep.witness_base is not None else None,
                "witness_increments": [sorted(theta.carrier.labels_of(m))
                                       for m in rep.witness_increments]
                if rep.witness_increments is not None else None,
                "families_checked": rep.families_checked,
            }
    else:
        from .tdf import check_max_complete_alternation
        if args.seed is None:
            raise ValueError("probing a functional draws random test families: "
                             "--seed is required (no implicit entropy)")
        rep = check_max_complete_alternation(model, order=args.order,
                                             trials=args.trials, seed=args.seed)
        payload["max_alternation"] = {
            "alternating": rep.alternating,
            "worst_value": rep.worst_value,
            "trials": rep.trials,
        }
    _emit_json(payload, args.out)
    return 0


def cmd_mobius(args) -> int:
    model, obj = _load_model(args.model)
    theta = _require_capacity(model, "mobius")
    payload = mobius_to_json(mobius_inverse(theta))
    payload["provenance"] = _provenance(None, obj, args.deterministic)
    _emit_json(payload, args.out)
    return 0


def _integral_command(args, fn) -> int:
    model, obj = _load_model(args.model)
    theta = _require_capacity(model, "integration")
    f = _parse_point_values(theta.carrier, _inline_json(args.f, "--f"), "$.f")
    value = fn(f, theta)
    print(json.dumps(value))
    if args.out:
        _emit_json({"value": value,
                    "provenance": _provenance(None, obj, args.deterministic)},
                   args.out)
    return 0


def cmd_choquet(args) -> int:
    return _integral_command(args, choquet_integral)


def cmd_extremal(args) -> int:
    return _integral_command(args, extremal_integral)


def cmd_dual(args) -> int:
    model, obj = _load_model(args.model)
    theta = _require_capacity(model, "dual")
    f = _parse_point_values(theta.carrier, _inline_json(args.f, "--f"), "$.f")
    mu, value = dual_greedy(theta, f, tol=args.tolerance)
    oracle_value = None
    if args.oracle != "none":
        if args.oracle == "sampled" and args.seed is None:
            raise ValueError("the sampled oracle draws randomly: --seed is "
                             "required (no implicit entropy)")
        oracle_value, _ = dual_oracle(theta, f, method=args.oracle,
                                      trials=args.trials, seed=args.seed,
                                      tol=args.tolerance)
    payload = {
        "greedy": value,
        "oracle": oracle_value,
        "measure": mu.to_json(),
        "provenance": _provenance(args.seed, obj, args.deterministic),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_cdf(args) -> int:
    model, obj = _load_model(args.model)
    ell = ChoquetTDF(model) if isinstance(model, Capacity) else model
    if isinstance(ell, ChoquetTDF):
        # spectral and Lebesgue models are always laws; a capacity only if CA
        certified_mobius(ell.theta, DEFAULT_TOL)
    pairs = parse_pairs(_inline_json(args.pairs, "--pairs"), ell.carrier, "$.pairs")
    value = joint_cdf(ell, pairs)
    print(json.dumps(value))
    if args.out:
        _emit_json({"value": value,
                    "provenance": _provenance(None, obj, args.deterministic)},
                   args.out)
    return 0


def _config_from_args(args) -> SimConfig:
    mode, n_terms = _parse_mode(args.mode)
    return SimConfig(seed=args.seed, samples=args.samples, mode=mode,
                     n_terms=n_terms, max_terms=args.max_terms)


# Values per block that the CSV writer formats, or the reader parses, at once.
# Their temporary Python objects take about 100 bytes per value, so a block
# stays under 1 MB whatever N and d are.
_CSV_BLOCK_VALUES = 8192


def _csv_block_rows(d: int) -> int:
    return max(1, _CSV_BLOCK_VALUES // max(d, 1))


def _write_batch_csv(out: TextIO, batch: SampleBatch, prov: dict) -> None:
    out.write("# provenance: " + json.dumps(prov, sort_keys=True) + "\n")
    out.write("sample_index," + ",".join(batch.carrier.labels) + "\n")
    d = batch.carrier.size
    step = _csv_block_rows(d)
    for start in range(0, batch.n, step):
        block = batch.values[start:start + step]
        cells = map(repr, block.ravel().tolist())
        # zip takes d cells from the one iterator per row, after the index.
        rows = zip(map(str, range(start, start + len(block))), *[cells] * d)
        out.write("\n".join(map(",".join, rows)) + "\n")


def cmd_simulate(args) -> int:
    model, obj = _load_model(args.model)
    config = _config_from_args(args)
    batch = simulate_model(model, config)
    prov = _provenance(args.seed, obj, args.deterministic)
    if args.format == "csv":
        if args.out:
            with open(args.out, "w") as fh:
                _write_batch_csv(fh, batch, prov)
        else:
            _write_batch_csv(sys.stdout, batch, prov)
    else:
        payload = {
            "carrier": batch.carrier.to_json(),
            "mode": batch.mode,
            "samples": batch.values.tolist(),
            "provenance": prov,
        }
        _emit_json(payload, args.out)
    p50, p99 = np.percentile(batch.terms, [50, 99])
    print(f"terms per sample: mean {batch.terms.mean():.6g}, p50 {p50:g}, "
          f"p99 {p99:g}, max {batch.terms.max()}", file=sys.stderr)
    return 0


def _read_batch_csv(path: str) -> tuple[Carrier, np.ndarray]:
    labels: Optional[list[str]] = None
    blocks = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if line and line[0] != "#":
                    cells = [c.strip() for c in line.split(",")]
                    if cells[0] != "sample_index":
                        raise SchemaError("$", f"{path} is not a simulation CSV "
                                               f"(header starts with {cells[0]!r})")
                    labels = cells[1:]
                    break
            d = len(labels or ())
            step = _csv_block_rows(d)
            while lines := list(map(str.strip, islice(fh, step))):
                rows = [s for s in lines if s and s[0] != "#"]
                commas = [s.count(",") for s in rows]
                if commas.count(d) != len(rows):
                    k = next(k for k, c in enumerate(commas) if c != d)
                    _csv_values(rows[:k], d)  # a bad cell before it is reported first
                    linenos = [i for i, s in enumerate(lines, lineno + 1)
                               if s and s[0] != "#"]
                    raise ValueError(f"line {linenos[k]} has {commas[k]} values "
                                     f"for {d} carrier points")
                if rows:
                    blocks.append(_csv_values(rows, d))
                lineno += len(lines)
    except FileNotFoundError:
        raise SchemaError("$", f"cannot read {path}: no such file") from None
    except SchemaError:
        raise
    except ValueError as e:
        raise SchemaError("$", f"bad CSV row in {path}: {e}") from None
    if labels is None or not blocks:
        raise SchemaError("$", f"{path} contains no samples")
    return Carrier(tuple(labels)), np.concatenate(blocks)


def _csv_values(rows: list[str], d: int) -> np.ndarray:
    """The (len(rows), d) values of data rows of d + 1 cells each."""
    cells = ",".join(rows).split(",")
    del cells[::d + 1]  # the sample index is never parsed
    return np.fromiter(map(float, cells), float, len(cells)).reshape(len(rows), d)


def cmd_estimate(args) -> int:
    carrier, values = _read_batch_csv(args.batch)
    if (args.f is None) == (args.set is None):
        raise SchemaError("$", "estimate needs exactly one of --f or --set")
    if args.f is not None:
        f = _parse_point_values(carrier, _inline_json(args.f, "--f"), "$.f")
        z = (values * f[None, :]).max(axis=1)
        stat = "extremal"
    else:
        mask = parse_label_set(_inline_json(args.set, "--set"), carrier, "$.set")
        z = values[:, list(iter_bits(mask))].max(axis=1)
        stat = "sup"
    est = frechet_scale_estimate(z)
    payload = {
        "statistic": stat,
        "scale": est.scale,
        "half_width": est.half_width,
        "n": est.n,
        "provenance": _provenance(None, None, args.deterministic),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_couple(args) -> int:
    model, obj = _load_model(args.model)
    cpl = couple(model, _config_from_args(args))
    summary = coupling_violations(cpl)
    ok = (summary["lower_violations"] == 0 and summary["upper_violations"] == 0
          and summary["sup_mismatches"] == 0)
    summary["passed"] = ok
    summary["provenance"] = _provenance(args.seed, obj, args.deterministic)
    _emit_json(summary, args.out)
    return 0 if ok else 1


def cmd_argmax_test(args) -> int:
    model, obj = _load_model(args.model)
    theta = _require_capacity(model, "argmax-test")
    region = parse_label_set(_inline_json(args.set, "--set"), theta.carrier, "$.set")
    config = _config_from_args(args)
    rep = argmax_independence_test(theta, region, config,
                                   negative_control=args.negative_control)
    payload = {
        "z": rep.z,
        "passed": rep.passed,
        "n": rep.n,
        "hit_rate": rep.hit_rate,
        "negative_control": rep.negative_control,
        "provenance": _provenance(args.seed, obj, args.deterministic),
    }
    _emit_json(payload, args.out)
    return 0 if rep.passed else 1


def cmd_verify(args) -> int:
    model, obj = _load_model(args.model)
    checks = verify_model(model, samples=args.samples, seed=args.seed,
                          tol=args.tolerance)
    for c in checks:
        print(c.line())
    ok = all(c.passed for c in checks)
    if args.out:
        payload = {
            "passed": ok,
            "checks": [{"name": c.name, "statistic": c.statistic,
                        "threshold": c.threshold, "passed": c.passed,
                        "detail": c.detail} for c in checks],
            "provenance": _provenance(args.seed, obj, args.deterministic),
        }
        _emit_json(payload, args.out)
    return 0 if ok else 1


def cmd_materialize(args) -> int:
    obj = load_json_file(args.model)
    theta = parse_capacity(obj)
    payload = capacity_to_json(theta)
    payload["provenance"] = _provenance(None, obj, args.deterministic)
    _emit_json(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="crsm",
        description="Choquet random sup-measures on finite carriers")
    p.add_argument("--version", action="version", version=f"crsm {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, model=True, sim=False, checks=False):
        if model:
            sp.add_argument("--model", required=True, help="model JSON path")
        sp.add_argument("--out", help="write the artifact to this path")
        if checks:
            sp.add_argument("--tolerance", type=float, default=1e-9,
                            help="relative lattice comparison tolerance: exact "
                                 "checks allow tol * max(1, theta(E))")
        sp.add_argument("--deterministic", action="store_true",
                        help="suppress timestamps for byte-stable output")
        if sim:
            sp.add_argument("--samples", type=int, default=10000)
            sp.add_argument("--mode", default="exact",
                            help="'exact' or 'truncated:K'")
            sp.add_argument("--max-terms", type=int, default=1_000_000,
                            dest="max_terms")
        if sim or checks:
            sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("check", help="classify a capacity / probe a functional")
    common(sp, checks=True)
    sp.add_argument("--direct", action="store_true",
                    help="also run the successive-difference search")
    sp.add_argument("--order", type=int, default=3)
    sp.add_argument("--trials", type=int, default=10000)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("mobius", help="Mobius measure of a capacity")
    common(sp)
    sp.set_defaults(fn=cmd_mobius)

    sp = sub.add_parser("choquet", help="Choquet integral of --f")
    common(sp)
    sp.add_argument("--f", required=True, help="point values (JSON or @file)")
    sp.set_defaults(fn=cmd_choquet)

    sp = sub.add_parser("extremal", help="extremal integral of --f")
    common(sp)
    sp.add_argument("--f", required=True, help="point values (JSON or @file)")
    sp.set_defaults(fn=cmd_extremal)

    sp = sub.add_parser("dual", help="greedy dual measure and oracle value")
    common(sp, checks=True)
    sp.add_argument("--f", required=True, help="point values (JSON or @file)")
    sp.add_argument("--oracle", choices=["exact", "sampled", "none"],
                    default="none")
    sp.add_argument("--trials", type=int, default=10000)
    sp.set_defaults(fn=cmd_dual)

    sp = sub.add_parser("cdf", help="joint CDF P(X(K_i) <= a_i)")
    common(sp)
    sp.add_argument("--pairs", required=True,
                    help='[{"set": [..], "level": a}, ..] (JSON or @file)')
    sp.set_defaults(fn=cmd_cdf)

    sp = sub.add_parser("simulate", help="draw exact samples")
    common(sp, sim=True)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("estimate", help="Frechet scale from a simulation CSV")
    common(sp, model=False)
    sp.add_argument("--batch", required=True, help="simulation CSV path")
    sp.add_argument("--f", help="estimate the scale of the extremal integral of f")
    sp.add_argument("--set", help="estimate the scale of X(K) for this label list")
    sp.set_defaults(fn=cmd_estimate)

    sp = sub.add_parser("couple", help="pathwise lower/exact/upper sandwich")
    common(sp, sim=True)
    sp.set_defaults(fn=cmd_couple)

    sp = sub.add_parser("argmax-test", help="argmax/magnitude independence test")
    common(sp, sim=True)
    sp.add_argument("--set", required=True, help="region label list (JSON)")
    sp.add_argument("--negative-control", action="store_true",
                    dest="negative_control")
    sp.set_defaults(fn=cmd_argmax_test)

    sp = sub.add_parser("verify", help="run the self-verification battery")
    common(sp, checks=True)
    sp.add_argument("--samples", type=int, default=20000)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("materialize", help="expand a constructor to a table")
    common(sp)
    sp.set_defaults(fn=cmd_materialize)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in RANDOMIZED_COMMANDS and args.seed is None:
            raise ValueError(f"{args.command} is randomized: --seed is required "
                             f"(no implicit entropy)")
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone; silence the final flush of the exit handlers
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CarrierSizeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
