"""JSON schemas for models and path-precise parse errors.

Capacities travel as one of six kinds:

* table:             explicit value for every nonempty subset, keyed by
                     comma-joined sorted labels; the empty set is implied 0
                     and missing nonempty subsets are an error,
* exchangeable:      {"zeta": [[value, prob], ..], "scale": c},
* subset_size:       {"p": [p_0..p_d], "scale": c},
* distortion:        {"mu": {label: w}, "distortion": "power"|"avar",
                     "alpha": a},
* torus_storm:       {"n": n, "dim": 1|2, "shapes": [{"points": [..],
                     "p": q}, ..], "scale": c}; a point is a list of
                     dim ints, or an int if dim is 1,
* bernstein_compose: {"base": <capacity>, "bernstein": {"drift": b,
                     "atoms": [[rate, weight], ..]} or {"power": a}}.

Tail dependence functionals use kinds "choquet" ({"theta": <capacity>}),
"spectral" ({"atoms": [{"p": q, "y": {label: val}}, ..]}) and "lebesgue"
({"mu": {label: w}}).  A Choquet functional is the law of its capacity, so
parse_model reads a "choquet" document as its theta and a "lebesgue" one,
the completely random case, as the additive capacity held by its
singletons of positive mass; only "spectral" is read as a functional.

Every parse failure raises SchemaError carrying a JSONPath-style location
($.table["a,b"] and friends); oversized carriers raise CarrierSizeError
instead so callers can distinguish malformed input (CLI exit 2) from a
refused size (CLI exit 3).
"""

from __future__ import annotations

import json
import math
import sys
from itertools import repeat
from typing import TYPE_CHECKING, Union

import numpy as np

from .carrier import Carrier, CarrierSizeError, TorusTag
from .setfun import Capacity, MobiusMeasure, _Owned
from .transforms import (
    BernsteinFunction,
    compose_capacity,
    distortion_capacity,
    exchangeable_capacity,
    subset_size_capacity,
    torus_storm_capacity,
)

if TYPE_CHECKING:
    from .tdf import SpectralTDF

CAPACITY_KINDS = ("table", "exchangeable", "subset_size", "distortion",
                  "torus_storm", "bernstein_compose")
TDF_KINDS = ("choquet", "spectral", "lebesgue")


class SchemaError(ValueError):
    """Malformed model JSON, with the JSONPath of the offending node."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"at {path}: {message}")


def _need(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(path, f"missing required key {key!r}")
    return obj[key]


def _number(val, path: str, nonneg: bool = False, positive: bool = False) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(path, f"expected a number, got {val!r}")
    try:
        x = float(val)
    except OverflowError:  # an int beyond the float range
        raise SchemaError(path, "number must be finite, got an integer beyond "
                                "the float range") from None
    if not math.isfinite(x):
        raise SchemaError(path, f"number must be finite, got {x}")
    if nonneg and x < 0:
        raise SchemaError(path, f"number must be nonnegative, got {x}")
    if positive and x <= 0:
        raise SchemaError(path, f"number must be positive, got {x}")
    return x


def _parse_carrier(obj, path: str) -> Carrier:
    spec = _need(obj, "carrier", path)
    if isinstance(spec, dict):
        labels = spec.get("labels")
        torus = spec.get("torus")
    else:
        labels, torus = spec, None
    if not isinstance(labels, list) or not all(isinstance(lb, str) for lb in labels):
        raise SchemaError(f"{path}.carrier", "carrier must be a list of strings "
                                             "(or {labels, torus})")
    if torus is not None and (not isinstance(torus, dict)
                              or not isinstance(torus.get("n"), int)
                              or torus.get("dim") not in (1, 2)):
        raise SchemaError(f"{path}.carrier.torus", 'expected {"n": int, "dim": 1|2}')
    try:
        tag = None if torus is None else TorusTag(n=torus["n"], dim=torus["dim"])
        return Carrier(tuple(labels), torus=tag)
    except CarrierSizeError:
        raise
    except ValueError as e:
        raise SchemaError(f"{path}.carrier", str(e)) from None


def _few_keys(carrier: Carrier, count: int) -> bool:
    """Whether count subset keys cost less one by one than all 2**d at once."""
    return count * carrier.size < 1 << carrier.size


def _leading_numbers(vals) -> tuple[np.ndarray, int]:
    """The values (a list or a dict's values) as floats, in one pass, and how
    many of them come before the first that _number(val, loc, nonneg=True)
    refuses; only the floats before it are meaningful."""
    n = len(vals)
    if not set(map(type, vals)) <= {int, float}:
        n = next((i for i, v in enumerate(vals)
                  if isinstance(v, bool) or not isinstance(v, (int, float))), n)
    try:
        arr = np.fromiter(vals, float, n)
    except OverflowError:  # an int beyond the float range, as in _number
        n = next(i for i, v in enumerate(vals) if abs(v) > sys.float_info.max)
        arr = np.fromiter(vals, float, n)
    bad = ~np.isfinite(arr)
    bad |= arr < 0
    return arr, int(np.argmax(bad)) if bad.any() else n


def _parse_subset_table(carrier: Carrier, table_obj, path: str) -> np.ndarray:
    if not isinstance(table_obj, dict):
        raise SchemaError(path, "expected an object mapping subsets to numbers")
    size = 1 << carrier.size
    good = _leading_numbers(table_obj.values())[1]
    given = None
    if good == len(table_obj) and not _few_keys(carrier, good):
        # every value is accepted, so nan marks a subset whose canonical key
        # the document lacks; each key is looked up in the document's dict
        arr = np.empty(size)
        get = table_obj.get
        for masks, keys in carrier.subset_key_blocks():
            arr[masks] = np.fromiter(map(get, keys, repeat(math.nan)), float, masks.size)
        arr[0] = 0.0
        absent = np.isnan(arr)
        if size - 1 - np.count_nonzero(absent) == good:
            # so every key is canonical and nonempty
            arr[absent] = 0.0
            given = ~absent
    if given is None:
        # the first offending entry, in entry order, names the error
        values = _leading_numbers(table_obj.values())[0]
        arr = np.zeros(size)
        given = np.zeros(size, dtype=bool)
        for i, (key, val) in enumerate(table_obj.items()):
            loc = f'{path}["{key}"]'
            if key == "":
                if _number(val, loc) != 0.0:
                    raise SchemaError(loc, "the empty set must map to 0 (or be omitted)")
                continue
            try:
                mask = carrier.mask_from_key(key)
            except KeyError as e:
                raise SchemaError(loc, e.args[0]) from None
            if given[mask]:
                raise SchemaError(loc, f"subset {carrier.subset_key(mask)!r} given twice")
            given[mask] = True
            if i >= good:
                _number(val, loc, nonneg=True)  # raises, naming this value
            arr[mask] = values[i]
    if np.count_nonzero(given[1:]) < size - 1:
        missing = np.flatnonzero(~given[1:]) + 1
        shown = ", ".join(repr(carrier.subset_key(int(m))) for m in missing[:5])
        more = "" if len(missing) <= 5 else f" (+{len(missing) - 5} more)"
        raise SchemaError(path, f"missing subsets: {shown}{more}")
    return arr


def _parse_point_values(carrier: Carrier, obj, path: str) -> np.ndarray:
    """Label->value dict, or a plain list in carrier order."""
    if isinstance(obj, list):
        if len(obj) != carrier.size:
            raise SchemaError(path, f"expected {carrier.size} values, got {len(obj)}")
        return np.array([_number(v, f"{path}[{i}]", nonneg=True)
                         for i, v in enumerate(obj)])
    if isinstance(obj, dict):
        arr = np.zeros(carrier.size)
        for lb, v in obj.items():
            loc = f'{path}["{lb}"]'
            try:
                idx = carrier.index_of(lb)
            except KeyError as e:
                raise SchemaError(loc, e.args[0]) from None
            arr[idx] = _number(v, loc, nonneg=True)
        return arr
    raise SchemaError(path, "expected an object or a list of numbers")


def parse_capacity(obj, path: str = "$") -> Capacity:
    kind = _need(obj, "kind", path)
    if kind == "table":
        carrier = _parse_carrier(obj, path)
        table = _parse_subset_table(carrier, _need(obj, "table", path), f"{path}.table")
        return Capacity(carrier, _Owned(table))
    if kind == "exchangeable":
        carrier = _parse_carrier(obj, path)
        zeta_obj = _need(obj, "zeta", path)
        if not isinstance(zeta_obj, list) or not zeta_obj:
            raise SchemaError(f"{path}.zeta", "expected a nonempty list of [value, prob] pairs")
        zeta = []
        for i, pair in enumerate(zeta_obj):
            loc = f"{path}.zeta[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(loc, "expected a [value, prob] pair")
            zeta.append((_number(pair[0], loc), _number(pair[1], loc, nonneg=True)))
        scale = _number(obj.get("scale", 1.0), f"{path}.scale", positive=True)
        return _construct(exchangeable_capacity, path, carrier, zeta, scale)
    if kind == "subset_size":
        carrier = _parse_carrier(obj, path)
        p_obj = _need(obj, "p", path)
        if not isinstance(p_obj, list):
            raise SchemaError(f"{path}.p", "expected a list of probabilities")
        p = [_number(v, f"{path}.p[{i}]", nonneg=True) for i, v in enumerate(p_obj)]
        scale = _number(obj.get("scale", 1.0), f"{path}.scale", positive=True)
        return _construct(subset_size_capacity, path, carrier, p, scale)
    if kind == "distortion":
        carrier = _parse_carrier(obj, path)
        mu = _parse_point_values(carrier, _need(obj, "mu", path), f"{path}.mu")
        dkind = _need(obj, "distortion", path)
        if dkind not in ("power", "avar"):
            raise SchemaError(f"{path}.distortion",
                              f"expected 'power' or 'avar', got {dkind!r}")
        alpha = _number(_need(obj, "alpha", path), f"{path}.alpha", positive=True)
        from .tdf import DiscreteMeasure
        mu = DiscreteMeasure(carrier, mu)  # _parse_point_values checked the values
        return _construct(distortion_capacity, path, mu, dkind, alpha)
    if kind == "torus_storm":
        n = _need(obj, "n", path)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise SchemaError(f"{path}.n", f"expected a positive int, got {n!r}")
        dim = obj.get("dim", 1)
        if type(dim) is not int or dim not in (1, 2):
            raise SchemaError(f"{path}.dim", f"expected 1 or 2, got {dim!r}")
        tag = TorusTag(n, dim)
        shapes_obj = _need(obj, "shapes", path)
        if not isinstance(shapes_obj, list) or not shapes_obj:
            raise SchemaError(f"{path}.shapes", "expected a nonempty list of shapes")
        shapes = []
        for i, sh in enumerate(shapes_obj):
            loc = f"{path}.shapes[{i}]"
            pts = _need(sh, "points", loc)
            if not isinstance(pts, list) or not pts:
                raise SchemaError(f"{loc}.points", "expected a nonempty list of points")
            for j, pt in enumerate(pts):
                _construct(tag.coords, f"{loc}.points[{j}]", pt)
            prob = _number(_need(sh, "p", loc), f"{loc}.p", nonneg=True)
            shapes.append((pts, prob))
        scale = _number(obj.get("scale", 1.0), f"{path}.scale", positive=True)
        return _construct(torus_storm_capacity, path, n, shapes, dim, scale)
    if kind == "bernstein_compose":
        base = parse_capacity(_need(obj, "base", path), f"{path}.base")
        g = parse_bernstein(_need(obj, "bernstein", path), f"{path}.bernstein")
        return compose_capacity(g, _Owned(base))
    raise SchemaError(f"{path}.kind",
                      f"unknown capacity kind {kind!r}; expected one of {CAPACITY_KINDS}")


def _construct(fn, path: str, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CarrierSizeError:
        raise
    except ValueError as e:
        raise SchemaError(path, str(e)) from None


def parse_bernstein(obj, path: str = "$") -> BernsteinFunction:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if "power" in obj:
        alpha = _number(obj["power"], f"{path}.power", positive=True)
        return _construct(BernsteinFunction, path, 0.0, (), alpha)
    drift = _number(obj.get("drift", 0.0), f"{path}.drift", nonneg=True)
    atoms_obj = obj.get("atoms", [])
    if not isinstance(atoms_obj, list):
        raise SchemaError(f"{path}.atoms", "expected a list of [rate, weight] pairs")
    atoms = []
    for i, pair in enumerate(atoms_obj):
        loc = f"{path}.atoms[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(loc, "expected a [rate, weight] pair")
        atoms.append((_number(pair[0], loc, positive=True),
                      _number(pair[1], loc, positive=True)))
    return _construct(BernsteinFunction, path, drift, tuple(atoms), None)


def parse_model(obj, path: str = "$") -> Union[Capacity, SpectralTDF]:
    """The law a model document describes: a capacity kind, or a `choquet`
    or `lebesgue` document, as its Capacity; a `spectral` one as a
    SpectralTDF.  Only `spectral` and `distortion` load crsm.tdf."""
    kind = _need(obj, "kind", path)
    if kind in CAPACITY_KINDS:
        return parse_capacity(obj, path)
    if kind == "choquet":
        return parse_capacity(_need(obj, "theta", path), f"{path}.theta")
    if kind == "spectral":
        from .tdf import SpectralTDF
        carrier = _parse_carrier(obj, path)
        atoms_obj = _need(obj, "atoms", path)
        if not isinstance(atoms_obj, list) or not atoms_obj:
            raise SchemaError(f"{path}.atoms", "expected a nonempty list of atoms")
        probs = []
        rows = []
        for i, atom in enumerate(atoms_obj):
            loc = f"{path}.atoms[{i}]"
            probs.append(_number(_need(atom, "p", loc), f"{loc}.p", positive=True))
            rows.append(_parse_point_values(carrier, _need(atom, "y", loc), f"{loc}.y"))
        return _construct(SpectralTDF, path, carrier, np.array(probs), np.array(rows))
    if kind == "lebesgue":
        carrier = _parse_carrier(obj, path)
        mu = _parse_point_values(carrier, _need(obj, "mu", path), f"{path}.mu")
        points = np.flatnonzero(mu > 0)
        atoms = (np.left_shift(1, points), mu[points])
        return _construct(Capacity, path, carrier, atoms=atoms)
    raise SchemaError(f"{path}.kind",
                      f"unknown model kind {kind!r}; expected one of "
                      f"{CAPACITY_KINDS + TDF_KINDS}")


def capacity_to_json(theta: Capacity) -> dict:
    keys = theta.carrier.subset_keys()
    table = dict(zip(keys[1:].tolist(), theta.table[1:].tolist()))
    return {"kind": "table", "carrier": theta.carrier.to_json(), "table": table}


def mobius_to_json(nu: MobiusMeasure) -> dict:
    """The nonzero weights of nu, keyed by subset key in mask order; few
    keys are built one by one, so a measure held by atoms spreads nothing."""
    c = nu.carrier
    masks, weights = nu.support()
    keys = ([c.subset_key(m) for m in masks.tolist()] if _few_keys(c, masks.size)
            else c.subset_keys()[masks].tolist())
    weights = dict(zip(keys, weights.tolist()))
    return {"kind": "mobius", "carrier": c.to_json(), "weights": weights}


def parse_label_set(obj, carrier: Carrier, path: str = "$") -> int:
    """Subset mask of a nonempty JSON list of carrier labels."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(path, "expected a nonempty list of labels")
    for i, label in enumerate(obj):
        if not isinstance(label, str):
            raise SchemaError(f"{path}[{i}]", f"expected a label string, got {label!r}")
    try:
        return carrier.mask_of(obj)
    except KeyError as e:
        raise SchemaError(path, e.args[0]) from None


def parse_pairs(obj, carrier: Carrier, path: str = "$") -> list[tuple[int, float]]:
    """CDF query: [{"set": [labels], "level": a}, ..]."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(path, "expected a nonempty list of {set, level} pairs")
    pairs = []
    for i, entry in enumerate(obj):
        loc = f"{path}[{i}]"
        mask = parse_label_set(_need(entry, "set", loc), carrier, f"{loc}.set")
        level = _number(_need(entry, "level", loc), f"{loc}.level", positive=True)
        pairs.append((mask, level))
    return pairs


def _unreadable(path: str, e: OSError) -> SchemaError:
    """The SchemaError of a file that cannot be read, for any OSError."""
    why = "no such file" if isinstance(e, FileNotFoundError) else e.strerror
    return SchemaError("$", f"cannot read {path}: {why}")


def load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise _unreadable(path, e) from None
    except json.JSONDecodeError as e:
        raise SchemaError("$", f"invalid JSON in {path}: {e}") from None
