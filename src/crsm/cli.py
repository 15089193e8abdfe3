"""Command-line front end.

Every subcommand evaluates one parsed model and emits either a bare
number (choquet, extremal, cdf) or a JSON/CSV artifact.  One runner owns
the protocol: it parses --model, hashes it only when the command writes
an artifact, drops the parsed document before the command runs, and
writes the payload the command returns.  Artifacts embed a provenance
block {tool, version, seed, model_sha256, generated_at}, plus the random
stream version `stream` when a seed is given, and the sampling `method`
("lepage" or "max-linear") for `simulate`; --deterministic drops the
timestamp so repeated runs are byte-identical.  `verify`'s statistics
reduce the samples column by column and hold no N x d temporary.
Each command loads only what it runs: `crsm.simulate` and `crsm.verify`
inside `simulate`, `couple`, `argmax-test`, `verify` and `estimate` (the
stream version is `crsm.STREAM_VERSION`, so a seeded `check` or `dual`
loads no sampler); `crsm.integrals` and `crsm.tdf` inside `choquet`,
`extremal`, `dual`, `cdf` and `verify`, or when a `spectral` or
`distortion` model is parsed, so `check`, `mobius` and `materialize` of a
capacity load neither, nor of a `choquet` or `lebesgue` model, read as
its capacity.  `model_hash` runs on CPython's own SHA-256 (`_sha2`,
`_sha256` before 3.12), so no command maps OpenSSL to hash its model; it
is a little slower per byte than OpenSSL's.
`simulate` writes the mean, p50, p99 and max of its term counts to stderr
(with the exact E[N] beside the mean on an exact LePage run of a capacity
held by size), then the method it chose, the atom count m and LePage's
lower bound LB on E[N].  `materialize` and `mobius` on 22 or more points
first warn on stderr that the artifact holds 2^d entries, and what that
cost before: on an exchangeable capacity, about 5 s and 250 MB at d = 20
and 27 s and 0.9 GB at d = 22 (2 cores); `mobius` skips it for few
entries, such as a storm's atoms.  Every JSON artifact is written in
blocks of entries, as json.dumps(payload, indent=2, sort_keys=True) would
write it, so the writer holds one block of text besides the payload dict.
A table of str keys and float values (a capacity or Mobius table, and the
hashed model document's) formats each distinct value of a block once: a
by-size or parametric table has few, 16 in the 65535 entries of an
exchangeable d = 16 table.  0.0 and -0.0 are one dict key, so a block that
holds a zero formats every value.

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
import dataclasses
import datetime
import json
import math
import os
import sys
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Optional, TextIO

import numpy as np

from . import STREAM_VERSION, __version__
from .carrier import Carrier, CarrierSizeError, _indicator, _weighted_max
from .io import (
    SchemaError,
    capacity_to_json,
    load_json_file,
    mobius_to_json,
    parse_label_set,
    parse_model,
    parse_pairs,
    _few_keys,
    _parse_point_values,
    _unreadable,
)
from .setfun import (
    DEFAULT_TOL,
    MAX_ALTERNATION_ORDER,
    Capacity,
    _Owned,
    certified_mobius,
    check_complete_alternation_direct,
    classify,
    mobius_inverse,
)

if TYPE_CHECKING:
    from .simulate import SampleBatch, SimConfig


# Commands that always draw random numbers.  `dual --oracle sampled` and
# `check --direct` on d > 3 are randomized too; those validate their own
# seed because the need depends on other flags.
RANDOMIZED_COMMANDS = frozenset({"simulate", "couple", "argmax-test", "verify"})


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


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


# Scalars (a dict entry counts two) per block that the JSON and CSV writers
# format, or the CSV reader parses, at once: about 120 bytes of temporary
# Python objects each, so a block stays near 0.25 MB whatever N and d are.
_BLOCK_VALUES = 2048

_CONTAINERS = (dict, list, tuple)


def _emit_json(payload: dict, out: Optional[str]) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True) + "\n" to out, or
    to stdout, in pieces, without ever holding the whole text.

    The bytes are the same: json's indent=2 encoder writes a nonempty
    container as its opening bracket, then its members (dicts by sorted key,
    "key": value) each after ",\n" plus two more spaces than the container's
    own line ("\n" and those spaces before the first), then "\n", the
    container's indent and its closing bracket; an empty one is {} or [].
    A container whose members are all scalars is encoded in blocks of
    _BLOCK_VALUES scalars by the C encoder, whose separators are set to that
    same ",\n" plus indent, and which encodes scalars and coerces keys as the
    indent encoder does; each block's brackets are dropped.  A dict whose
    keys are all str and whose values are all float is written in blocks of
    _BLOCK_VALUES // 2 entries from its escaped keys and the text of each
    distinct value of the block, one C-encoder call per block; a block
    whose values all differ, or that holds 0.0 or -0.0 (one dict key, two
    texts), encodes every value.  Any other container recurses member by
    member, its keys coerced as json does."""
    if out:
        with open(out, "w") as fh:
            _write_json(fh.write, payload, "\n")
            fh.write("\n")
    else:
        _write_json(sys.stdout.write, payload, "\n")
        sys.stdout.write("\n")


def _sha256():
    """A new sha256 from CPython's own module (_sha2 from 3.12, _sha256
    before), which maps no OpenSSL; hashlib's only on a build without it."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256()


def model_hash(obj) -> str:
    """sha256 of json.dumps(obj, sort_keys=True, separators=(",", ":")),
    streamed by the compact writer."""
    h = _sha256()
    _write_json(lambda text: h.update(text.encode()), obj, "", ":")
    return h.hexdigest()


def _write_json(write, obj, newline: str, colon: str = ": ") -> None:
    """The indent=2, sort_keys=True text of obj, on a line that starts with
    newline, passed to write in pieces; compact with newline "", colon ":"."""
    if not isinstance(obj, _CONTAINERS):
        write(json.dumps(obj))
        return
    is_dict = isinstance(obj, dict)
    opening, closing = "{}" if is_dict else "[]"
    if not obj:
        write(opening + closing)
        return
    keys = sorted(obj) if is_dict else range(len(obj))
    inner = newline + "  " if newline else ""
    write(opening)
    if is_dict and {*map(type, obj)} == {str} and {*map(type, obj.values())} == {float}:
        _write_float_entries(write, obj, keys, "," + inner, colon)
    elif not any(isinstance(v, _CONTAINERS) for v in (obj.values() if is_dict else obj)):
        encoder = json.JSONEncoder(separators=("," + inner, colon))
        step = _BLOCK_VALUES // 2 if is_dict else _BLOCK_VALUES
        for start in range(0, len(obj), step):
            stop = start + step
            block = {k: obj[k] for k in keys[start:stop]} if is_dict else obj[start:stop]
            write(("," if start else "") + inner + encoder.encode(block)[1:-1])
    else:
        for i, key in enumerate(keys):
            write(("," if i else "") + inner)
            if is_dict:
                write(_json_key(key) + colon)
            _write_json(write, obj[key], inner, colon)
    write(newline + closing)


# The one encoder of a float table's values: a list of floats encodes as
# "[a, b, ...]", each value as the indent and compact encoders write it.
_FLOATS = json.JSONEncoder()


def _write_float_entries(write, obj: dict, keys: list, sep: str, colon: str) -> None:
    """The members of a dict of str keys and float values, each after sep,
    as _emit_json describes: each distinct value of a block encoded once."""
    step = _BLOCK_VALUES // 2
    for start in range(0, len(keys), step):
        names = keys[start:start + step]
        values = list(map(obj.__getitem__, names))
        distinct = dict.fromkeys(values)
        if len(distinct) == len(values) or 0.0 in distinct:
            texts = _FLOATS.encode(values)[1:-1].split(", ")
        else:
            text_of = dict(zip(distinct, _FLOATS.encode(list(distinct))[1:-1].split(", ")))
            texts = map(text_of.__getitem__, values)
        text = "".join(chain.from_iterable(zip(
            repeat(sep), map(encode_basestring_ascii, names), repeat(colon), texts)))
        write(text if start else text[1:])  # the first entry follows no ","


def _json_key(key) -> str:
    """A dict key as json writes it: a str as is, an int, float, bool or None
    as its JSON text."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = json.dumps(key)
    return json.dumps(key)


# From this carrier size up a whole-lattice JSON artifact costs half a minute
# and about a gigabyte, measured on an exchangeable capacity as the warning
# quotes (wall time and max RSS).
_HUGE_ARTIFACT_D = 22


def _warn_if_huge(command: str, carrier: Carrier, entries: int) -> None:
    d = carrier.size
    if d >= _HUGE_ARTIFACT_D and not _few_keys(carrier, entries):
        print(f"warning: {command} writes JSON over all 2^{d} = {1 << d} subsets; "
              f"at d = 22 materialize took about 27 s and 0.88 GB, mobius about 27 s "
              f"and 0.91 GB (2 cores, 8 GB)", file=sys.stderr)


def _inline_json(arg: str, what: str):
    """Inline JSON, or @path to read it from a file."""
    if arg.startswith("@"):
        return load_json_file(arg[1:])
    try:
        return json.loads(arg)
    except json.JSONDecodeError as e:
        raise SchemaError("$", f"invalid JSON for {what}: {e}") from None


def _require_capacity(model, what: str) -> Capacity:
    if not isinstance(model, Capacity):
        raise SchemaError("$.kind", f"{what} needs a capacity model, not a "
                                    f"{type(model).__name__}")
    return model


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


# Commands that print their result and write an artifact only with --out.
_PRINTING = frozenset({"choquet", "extremal", "cdf", "verify"})


def _run(args) -> int:
    """Load and parse --model, hash it only if an artifact will carry the
    hash, drop the parsed document, run the command, and write the payload
    it returns, with the provenance block, to --out or stdout.

    A command is cmd(args, model, prov) -> (payload or None, exit code);
    `simulate` writes its CSV itself, with prov, and `estimate` reads no
    model."""
    obj = model = prov = None
    if getattr(args, "model", None) is not None:
        obj = load_json_file(args.model)
        model = parse_model(obj)
    if args.out or args.command not in _PRINTING:
        prov = _provenance(getattr(args, "seed", None), obj, args.deterministic)
    del obj  # the parsed document is not held while the command runs
    payload, code = args.fn(args, model, prov)
    if payload is not None:
        payload["provenance"] = prov
        _emit_json(payload, args.out)
    return code


def _print_value(args, value: float):
    """Print a bare number; its artifact is written only with --out."""
    print(json.dumps(value))
    return ({"value": value} if args.out else None), 0


def cmd_check(args, model, prov):
    payload: dict = {}
    # the functional probe has a fixed slack and no direct search
    if args.direct:
        _require_capacity(model, "check --direct")
    if args.tolerance is not None:
        _require_capacity(model, "check --tolerance")
    if isinstance(model, Capacity):
        theta = model
        tol = DEFAULT_TOL if args.tolerance is None else args.tolerance
        cls = classify(theta, tol=tol)
        payload["classification"] = cls.summary(theta.carrier)
        if args.direct:
            rep = check_complete_alternation_direct(
                theta, max_order=args.order, trials=args.trials,
                seed=args.seed if theta.carrier.size > 3 else None,
                tol=tol)
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
    return payload, 0


def cmd_mobius(args, model, prov):
    theta = _require_capacity(model, "mobius")
    # nothing reads theta again, so nu is swept in theta's own table
    nu = mobius_inverse(_Owned(theta))
    _warn_if_huge("mobius", nu.carrier, nu.support_size())
    return mobius_to_json(nu), 0


def _integral_command(args, model, fn):
    theta = _require_capacity(model, "integration")
    f = _parse_point_values(theta.carrier, _inline_json(args.f, "--f"), "$.f")
    return _print_value(args, fn(f, theta))


def cmd_choquet(args, model, prov):
    from .integrals import choquet_integral
    return _integral_command(args, model, choquet_integral)


def cmd_extremal(args, model, prov):
    from .integrals import extremal_integral
    return _integral_command(args, model, extremal_integral)


def cmd_dual(args, model, prov):
    from .tdf import dual_greedy, dual_oracle
    theta = _require_capacity(model, "dual")
    f = _parse_point_values(theta.carrier, _inline_json(args.f, "--f"), "$.f")
    tol = DEFAULT_TOL if args.tolerance is None else args.tolerance
    mu, value = dual_greedy(theta, f, tol=tol)
    oracle_value = None
    if args.oracle != "none":
        if args.oracle == "sampled" and args.seed is None:
            raise ValueError("the sampled oracle draws randomly: --seed is "
                             "required (no implicit entropy)")
        oracle_value, _ = dual_oracle(theta, f, method=args.oracle,
                                      trials=args.trials, seed=args.seed, tol=tol)
    return {"greedy": value, "oracle": oracle_value, "measure": mu.to_json()}, 0


def cmd_cdf(args, model, prov):
    from .tdf import joint_cdf
    pairs = parse_pairs(_inline_json(args.pairs, "--pairs"), model.carrier, "$.pairs")
    value = joint_cdf(model, pairs)
    if isinstance(model, Capacity):
        # a spectral model is always a law; a capacity only if CA.  The
        # certificate sweeps the capacity's own table: nothing reads model
        # after it, and nothing is printed unless it passes.
        certified_mobius(_Owned(model), DEFAULT_TOL)
    return _print_value(args, value)


def _config_from_args(args) -> SimConfig:
    from .simulate import SimConfig
    mode, n_terms = _parse_mode(args.mode)
    return SimConfig(seed=args.seed, samples=args.samples, mode=mode,
                     n_terms=n_terms, max_terms=args.max_terms)


def _csv_block_rows(d: int) -> int:
    return max(1, _BLOCK_VALUES // max(d, 1))


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


def _percentiles(values: np.ndarray, qs) -> list:
    """np.percentile(values, qs) by its default linear rule, bit-equal, from
    the sorted order statistics; np.percentile imports numpy.ma, which
    costs a simulate process 12-15 ms.  Integers are sorted in the narrowest
    type that holds their min and max (uint8 for most term counts), not in a
    copy of their own width."""
    kind = values.dtype
    if kind.kind in "iu":
        kind = np.result_type(np.min_scalar_type(values.min()),
                              np.min_scalar_type(values.max()))
    a = values.astype(kind)
    a.sort()
    n = a.size
    cast = values.dtype.type  # the arithmetic below runs in values' own type
    out = []
    for q in qs:
        h = (n - 1) * (q / 100)
        lo = min(math.floor(h), n - 1)
        prev, nxt = cast(a[lo]), cast(a[min(lo + 1, n - 1)])
        diff, g = nxt - prev, h - lo
        # numpy interpolates from the nearer of the two order statistics
        out.append(prev + diff * g if g < 0.5 else nxt - diff * (1 - g))
    return out


def cmd_simulate(args, model, prov):
    from .simulate import simulate_model
    batch = simulate_model(model, _config_from_args(args))
    prov["method"] = batch.method
    payload = None
    if args.format == "csv":
        if args.out:
            with open(args.out, "w") as fh:
                _write_batch_csv(fh, batch, prov)
        else:
            _write_batch_csv(sys.stdout, batch, prov)
    else:
        payload = {"carrier": batch.carrier.to_json(), "mode": batch.mode,
                   "samples": batch.values.tolist()}
    p50, p99 = _percentiles(batch.terms, (50, 99))
    exact = ("" if batch.expected_terms is None
             else f" (exact E[N] {batch.expected_terms:.6g})")
    print(f"terms per sample: mean {batch.terms.mean():.6g}{exact}, p50 {p50:g}, "
          f"p99 {p99:g}, max {batch.terms.max()}", file=sys.stderr)
    if batch.method == "max-linear":
        print(f"method max-linear: {batch.atoms} atoms per sample; LePage needs "
              f"E[N] >= {batch.lepage_floor:.6g} terms", file=sys.stderr)
    else:
        print(f"method lepage: E[N] >= {batch.lepage_floor:.6g} terms per sample; "
              f"max-linear needs {batch.atoms} atoms", file=sys.stderr)
    return payload, 0


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
    except OSError as e:
        raise _unreadable(path, e) from None
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


def cmd_estimate(args, model, prov):
    if (args.f is None) == (args.set is None):
        raise SchemaError("$", "estimate needs exactly one of --f or --set")
    from .verify import frechet_scale_estimate
    carrier, values = _read_batch_csv(args.batch)
    if args.f is not None:
        v = _parse_point_values(carrier, _inline_json(args.f, "--f"), "$.f")
        stat = "extremal"
    else:
        mask = parse_label_set(_inline_json(args.set, "--set"), carrier, "$.set")
        v = _indicator(mask, carrier.size)
        stat = "sup"
    est = frechet_scale_estimate(_weighted_max(values, v))
    return {"statistic": stat, **dataclasses.asdict(est)}, 0


def cmd_couple(args, model, prov):
    from .simulate import couple
    from .verify import coupling_violations
    summary = coupling_violations(couple(model, _config_from_args(args)))
    return summary, 0 if summary["passed"] else 1


def cmd_argmax_test(args, model, prov):
    theta = _require_capacity(model, "argmax-test")
    region = parse_label_set(_inline_json(args.set, "--set"), theta.carrier, "$.set")
    from .simulate import simulate_model
    from .verify import argmax_independence_test
    batch = simulate_model(theta, _config_from_args(args))
    rep = argmax_independence_test(theta, region, batch,
                                   negative_control=args.negative_control)
    return dataclasses.asdict(rep), 0 if rep.passed else 1


def cmd_verify(args, model, prov):
    # a spectral model has no exact lattice rows for a tolerance to loosen
    if args.tolerance is not None and not isinstance(model, Capacity):
        raise SchemaError("$.kind", f"verify --tolerance needs a CRSM model, not a "
                                    f"{type(model).__name__}")
    tol = DEFAULT_TOL if args.tolerance is None else args.tolerance
    from .verify import verify_model
    checks = verify_model(model, samples=args.samples, seed=args.seed, tol=tol)
    for c in checks:
        print(c.line())
    ok = all(c.passed for c in checks)
    payload = None
    if args.out:
        payload = {"passed": ok, "checks": [dataclasses.asdict(c) for c in checks]}
    return payload, 0 if ok else 1


def cmd_materialize(args, model, prov):
    theta = _require_capacity(model, "materialize")
    _warn_if_huge("materialize", theta.carrier, 1 << theta.carrier.size)
    return capacity_to_json(theta), 0


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
            # None, the default, tells an explicit --tolerance from none
            sp.add_argument("--tolerance", type=float, default=None,
                            help="relative lattice comparison tolerance: exact "
                                 f"checks allow tol * theta(E) (default {DEFAULT_TOL:g})")
        sp.add_argument("--deterministic", action="store_true",
                        help="suppress timestamps for byte-stable output")
        if sim:
            sp.add_argument("--samples", type=_positive_int, default=10000)
            sp.add_argument("--mode", default="exact",
                            help="'exact' or 'truncated:K'")
            sp.add_argument("--max-terms", type=_positive_int, default=1_000_000,
                            dest="max_terms",
                            help="exact LePage runs fail past this many terms "
                                 "per sample; max-linear runs draw one number "
                                 "per atom and ignore it")
        if sim or checks:
            sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("check", help="classify a capacity / probe a functional")
    common(sp, checks=True)
    sp.add_argument("--direct", action="store_true",
                    help="also run the successive-difference search")
    sp.add_argument("--order", type=int, choices=range(2, MAX_ALTERNATION_ORDER + 1),
                    default=3)
    sp.add_argument("--trials", type=_positive_int, default=10000)
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
    sp.add_argument("--trials", type=_positive_int, default=10000)
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
        code = _run(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone; silence the final flush of the exit handlers
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as e:  # reads fail as SchemaError, so this is a write
        print(f"error: cannot write {e.filename or 'output'}: {e.strerror}",
              file=sys.stderr)
        return 2
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
