"""Output checks, one per operation kind.

Each check takes the operation, what the process produced and the
expected values the oracle computed, and returns None when the output is
correct or a one-line reason when it is not.  A failed check counts the
operation in `ops_failed`.

Statistical bands keep a healthy program's chance of failing an
operation below 1e-6 on any seed.  The `estimate` check is one statistic
at 5 sigma (two-sided tail 5.7e-7).  `verify` judges its own rows at
3 sigma (Frechet scales) and 4 sigma (CDF and correlation statistics);
with up to ten Monte Carlo rows per run, each is re-judged here at
5.5 sigma (tail 3.8e-8), and an exit code of 1 is accepted only when
every failed row passes that wider band.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ESTIMATE_SIGMA = 5.0
VERIFY_SIGMA = 5.5
VERIFY_ROW_SIGMA = {            # row name prefix -> sigmas in verify's own threshold
    "frechet-scale": 3.0,
    "joint-cdf": 4.0,
    "argmax-independence": 4.0,
}
CAPACITY_VERIFY_ROWS = 13       # roundtrip, alternation, 5 scales, 3 cdfs, 3 sample rows
LATTICE_TOL = 1e-9              # relative to theta(E)


@dataclass(frozen=True)
class OpOutput:
    exit_code: int
    stdout: str
    stderr: str = ""


def _json(out: OpOutput):
    try:
        return json.loads(out.stdout)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"stdout is not JSON: {e}") from None


def _load(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CheckFailed(f"cannot read {path.name}: {e}") from None


class CheckFailed(Exception):
    pass


def table_digest(values) -> str:
    """sha256 of a float64 little-endian table in mask order."""
    arr = array("d", values)
    if sys.byteorder == "big":
        arr.byteswap()
    return hashlib.sha256(arr.tobytes()).hexdigest()


def table_from_json(obj) -> list[float]:
    """Mask-ordered values of a table-capacity JSON (empty set = 0)."""
    labels = obj["carrier"]
    if isinstance(labels, dict):
        labels = labels["labels"]
    bit = {lb: 1 << i for i, lb in enumerate(labels)}
    values = [0.0] * (1 << len(labels))
    for key, v in obj["table"].items():
        mask = 0
        for lb in key.split(","):
            mask |= bit[lb]
        values[mask] = float(v)
    return values


def check_csv_rows(op, out, workdir, expected) -> None:
    rows = op.params["rows"]
    points = op.params["points"]
    n = 0
    header = None
    with open(workdir / op.out) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            cells = line.rstrip("\n").split(",")
            if header is None:
                header = cells
                if cells[0] != "sample_index" or len(cells) != points + 1:
                    raise CheckFailed(f"bad header {line.strip()!r}")
                continue
            if len(cells) != points + 1 or cells[0] != str(n):
                raise CheckFailed(f"row {n} malformed: {line.strip()[:60]!r}")
            try:
                vals = [float(c) for c in cells[1:]]
            except ValueError:
                raise CheckFailed(f"row {n} has a non-number: {line.strip()[:60]!r}") from None
            if not all(v > 0.0 and math.isfinite(v) for v in vals):
                raise CheckFailed(f"row {n} is not positive and finite")
            n += 1
    if n != rows:
        raise CheckFailed(f"{n} rows, expected {rows}")


def check_estimate(op, out, workdir, expected) -> None:
    res = _json(out)
    exact = expected["value"]
    if res.get("n") != op.params["n"]:
        raise CheckFailed(f"estimate used {res.get('n')} rows, expected {op.params['n']}")
    # half_width is 3 sigma of the scale estimate
    band = ESTIMATE_SIGMA / 3.0 * res["half_width"]
    if not abs(res["scale"] - exact) <= band:
        raise CheckFailed(f"scale {res['scale']:.6g} outside {exact:.6g} +- {band:.3g}")


def check_couple(op, out, workdir, expected) -> None:
    res = _json(out)
    bad = {k: res.get(k) for k in ("lower_violations", "upper_violations", "sup_mismatches")}
    if any(v != 0 for v in bad.values()) or res.get("passed") is not True:
        raise CheckFailed(f"coupling violations {bad}")
    if res.get("samples") != op.params["n"]:
        raise CheckFailed(f"{res.get('samples')} coupled samples, expected {op.params['n']}")


def _verify_row_ok(line: str) -> bool:
    """A FAIL row passes when its Monte Carlo statistic is inside 5.5 sigma."""
    head, _, rest = line[len("FAIL "):].partition(": statistic ")
    stat_text, _, tail = rest.partition(" vs threshold ")
    try:
        stat = float(stat_text)
        threshold = float(tail.split(" ", 1)[0])
    except ValueError:
        return False
    if head == "disjoint-parts":
        # only the independence side has a band to widen
        return "(independent)" in tail and stat <= VERIFY_SIGMA
    for prefix, sigmas in VERIFY_ROW_SIGMA.items():
        if head.startswith(prefix):
            return stat <= threshold * VERIFY_SIGMA / sigmas
    return False


def check_verify(op, out, workdir, expected) -> None:
    lines = [ln for ln in out.stdout.splitlines() if ln.strip()]
    if len(lines) != CAPACITY_VERIFY_ROWS:
        raise CheckFailed(f"{len(lines)} verify rows, expected {CAPACITY_VERIFY_ROWS}")
    failed = [ln for ln in lines if not ln.startswith("PASS ")]
    if (out.exit_code == 0) != (not failed):
        raise CheckFailed(f"exit code {out.exit_code} disagrees with {len(failed)} FAIL rows")
    for ln in failed:
        if not ln.startswith("FAIL ") or not _verify_row_ok(ln):
            raise CheckFailed(f"row outside {VERIFY_SIGMA} sigma: {ln[:120]}")


def check_ca(op, out, workdir, expected) -> None:
    cls = _json(out).get("classification", {})
    if cls.get("completely_alternating") is not True or cls.get("monotone") is not True:
        raise CheckFailed(f"not reported completely alternating and monotone: {cls}")


def check_dual(op, out, workdir, expected) -> None:
    greedy = _json(out)["greedy"]
    tol = LATTICE_TOL * max(1.0, expected["total"])
    if not abs(greedy - expected["value"]) <= tol:
        raise CheckFailed(f"greedy {greedy!r} != choquet {expected['value']!r}")


def check_cdf(op, out, workdir, expected) -> None:
    try:
        value = float(out.stdout.strip())
    except ValueError:
        raise CheckFailed(f"cdf printed {out.stdout.strip()[:60]!r}") from None
    if not abs(value - expected["value"]) <= LATTICE_TOL:
        raise CheckFailed(f"cdf {value!r} != exp(-ell(h)) {expected['value']!r}")


def check_stationary(op, out, workdir, expected) -> None:
    if _json(out).get("stationary") is not True:
        raise CheckFailed("check_stationary did not return True")


def check_materialize(op, out, workdir, expected) -> None:
    obj = _load(workdir / op.out)
    if obj.get("kind") != "table":
        raise CheckFailed(f"materialized kind {obj.get('kind')!r}")
    try:
        digest = table_digest(table_from_json(obj))
    except (KeyError, TypeError, ValueError) as e:
        raise CheckFailed(f"unreadable table: {e}") from None
    if digest != expected["table_sha256"]:
        raise CheckFailed("materialized table differs from the constructor's table")


def check_mobius(op, out, workdir, expected) -> None:
    weights = _load(workdir / op.out).get("weights", {})
    total = expected["total"]
    tol = LATTICE_TOL * max(1.0, total)
    if len(weights) != expected["nonzero_weights"]:
        raise CheckFailed(f"{len(weights)} weights, expected {expected['nonzero_weights']}")
    mass = math.fsum(weights.values())
    if not abs(mass - total) <= tol:
        raise CheckFailed(f"mobius mass {mass!r} != theta(E) {total!r}")
    if weights and min(weights.values()) < -tol:
        raise CheckFailed(f"negative mobius weight {min(weights.values())!r}")


def check_setup(op, out, workdir, expected) -> None:
    if _json(out).get("parsed") != op.params["models"]:
        raise CheckFailed("set-up did not parse every model")


CHECKS = {
    "csv_rows": check_csv_rows,
    "estimate": check_estimate,
    "couple": check_couple,
    "verify": check_verify,
    "check_ca": check_ca,
    "dual": check_dual,
    "cdf": check_cdf,
    "stationary": check_stationary,
    "materialize": check_materialize,
    "mobius": check_mobius,
    "setup": check_setup,
}

# checks whose op must exit 0; verify decides its own exit code
_EXIT_ZERO = set(CHECKS) - {"verify"}


def judge(op, out: OpOutput, workdir: Path, expected: Optional[dict]) -> Optional[str]:
    """None when the operation's output is correct, else the reason."""
    if op.check in _EXIT_ZERO and out.exit_code != 0:
        return f"exit code {out.exit_code}: {out.stderr.strip()[-200:]}"
    try:
        CHECKS[op.check](op, out, workdir, expected or {})
    except CheckFailed as e:
        return str(e)
    except (OSError, KeyError, TypeError, ValueError) as e:
        return f"{type(e).__name__}: {e}"
    return None
