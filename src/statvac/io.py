"""File formats for the command line: coefficient JSON, jets, CSV rows.

Scalar coefficient blocks follow one schema everywhere: an object
{"lmax": n, "coeffs": [{"l": l, "m": m, "value": r}, ...]} where "lmax"
is optional and omitted entries are zero; a bare entry list is accepted
as shorthand.  Boundary data files combine four such blocks, curvature
jets are nested arrays validated by the jet constructor, and sweep
tables use one fixed CSV column set.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from operator import itemgetter

import numpy as np

from .boundary import BartnikPerturbation
from .curvature import CurvatureJet
from .spherical import harmonics
from .spherical.fields import ScalarField, SymTensorField
from .spherical.grid import SphereGrid

__all__ = [
    "SchemaError",
    "load_json",
    "dump_json",
    "coeff_vector",
    "data_from_dict",
    "jet_from_dict",
    "CSV_COLUMNS",
    "rows_to_csv",
]

CSV_COLUMNS = ("tau", "m1", "m2", "total", "tau_scaled_total",
               "hawking_ref", "by_ref", "static_ref")


class SchemaError(ValueError):
    """Input does not match the documented file schema."""


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc


def dump_json(obj) -> str:
    """Deterministic JSON serialization for reproducible runs."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _entry_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: value must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(f"{where}: value must be finite")
    return value


def coeff_vector(block, lmax: int, where: str, min_l: int = 0) -> np.ndarray:
    """Dense coefficient vector from a coefficient block.

    The block is either {"lmax": n, "coeffs": [...]} or a bare entry
    list; entries are {"l", "m", "value"} objects.  Entries must stay
    within the block's own lmax (if given, itself at most the run band
    limit) and above ``min_l``, and no (l, m) pair may repeat.
    """
    if block is None:
        return np.zeros(harmonics.num_modes(lmax))
    entry_lmax = lmax
    if isinstance(block, dict):
        extra = set(block) - {"lmax", "coeffs"}
        if extra:
            raise SchemaError(f"{where}: unknown keys {sorted(extra)}")
        blk_lmax = block.get("lmax")
        if blk_lmax is not None:
            if (not isinstance(blk_lmax, int) or isinstance(blk_lmax, bool)
                    or blk_lmax < 0):
                raise SchemaError(f"{where}.lmax: must be a nonnegative integer")
            if blk_lmax > lmax:
                raise SchemaError(f"{where}.lmax: {blk_lmax} exceeds the run "
                                  f"band limit {lmax}")
            entry_lmax = blk_lmax
        entries = block.get("coeffs", [])
    else:
        entries = block
    if not isinstance(entries, list):
        raise SchemaError(f"{where}: expected a coefficient list")

    out = _bulk_vector(entries, lmax, entry_lmax, min_l)
    if out is not None:
        return out
    # a rejected block is checked again entry by entry: this loop defines
    # the entry schema and names the first bad entry
    out = np.zeros(harmonics.num_modes(lmax))
    seen = set()
    for pos, entry in enumerate(entries):
        spot = f"{where}.coeffs[{pos}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{spot}: expected an object with l, m, value")
        extra = set(entry) - {"l", "m", "value"}
        if extra:
            raise SchemaError(f"{spot}: unknown keys {sorted(extra)}")
        try:
            l, m = entry["l"], entry["m"]
        except KeyError as exc:
            raise SchemaError(f"{spot}: missing key {exc}") from exc
        if not isinstance(l, int) or isinstance(l, bool):
            raise SchemaError(f"{spot}: l must be an integer")
        if not isinstance(m, int) or isinstance(m, bool):
            raise SchemaError(f"{spot}: m must be an integer")
        if l < min_l:
            raise SchemaError(f"{spot}: degree {l} below the minimum {min_l} "
                              "for this block")
        if l > entry_lmax:
            raise SchemaError(f"{spot}: degree {l} exceeds the band limit "
                              f"{entry_lmax}")
        if abs(m) > l:
            raise SchemaError(f"{spot}: order {m} outside [-{l}, {l}]")
        if (l, m) in seen:
            raise SchemaError(f"{spot}: duplicate mode (l={l}, m={m})")
        seen.add((l, m))
        out[harmonics.index_of(l, m)] = _entry_number(entry.get("value"), spot)
    return out


def _bulk_vector(entries: list, lmax: int, entry_lmax: int, min_l: int):
    """Dense vector of a valid entry list of plain JSON types, or None.

    Checks the whole list at once and returns None for any list it does
    not accept, so that the per-entry loop of ``coeff_vector`` then names
    the first bad entry.  Only exact dict, int and float types pass:
    bools, numpy scalars and integers beyond the int64 or float range
    take the per-entry loop.
    """
    if (set(map(type, entries)) != {dict}
            or set(map(len, entries)) != {3}):
        return None
    try:
        ls, ms, values = (list(map(itemgetter(key), entries))
                          for key in ("l", "m", "value"))
    except KeyError:
        return None
    if (set(map(type, ls)) != {int} or set(map(type, ms)) != {int}
            or not set(map(type, values)) <= {int, float}):
        return None
    try:
        ls = np.array(ls, dtype=np.int64)
        ms = np.array(ms, dtype=np.int64)
        values = np.array(values, dtype=float)
    except OverflowError:
        return None
    if (ls.min() < min_l or ls.max() > entry_lmax or np.any(ms < -ls)
            or np.any(ms > ls) or not np.all(np.isfinite(values))):
        return None
    k = ls * ls + ls + ms
    if np.bincount(k).max() > 1:
        return None
    out = np.zeros(harmonics.num_modes(lmax))
    out[k] = values
    return out


def data_from_dict(obj, grid: SphereGrid, where: str = "input") -> BartnikPerturbation:
    """Boundary data from a JSON object with gamma1 and H1 blocks.

    Schema: {"gamma1": {"trace": block, "p": block, "q": block},
    "H1": block}; every part is optional and missing parts are zero, so
    {} is valid all-zero data.  The p and q potentials start at degree 2.
    """
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    extra = set(obj) - {"gamma1", "H1", "tau"}
    if extra:
        raise SchemaError(f"{where}: unknown keys {sorted(extra)}")
    gamma_obj = obj.get("gamma1")
    if gamma_obj is None:
        gamma_obj = {}
    if not isinstance(gamma_obj, dict):
        raise SchemaError(f"{where}.gamma1: expected a JSON object")
    extra = set(gamma_obj) - {"trace", "p", "q"}
    if extra:
        raise SchemaError(f"{where}.gamma1: unknown keys {sorted(extra)}")
    lmax = grid.lmax
    trace = coeff_vector(gamma_obj.get("trace"), lmax, f"{where}.gamma1.trace")
    p = coeff_vector(gamma_obj.get("p"), lmax, f"{where}.gamma1.p", min_l=2)
    q = coeff_vector(gamma_obj.get("q"), lmax, f"{where}.gamma1.q", min_l=2)
    h1 = coeff_vector(obj.get("H1"), lmax, f"{where}.H1")
    gamma = SymTensorField(grid, ScalarField.from_coeffs(grid, trace), p, q)
    return BartnikPerturbation(gamma1=gamma, H1=ScalarField.from_coeffs(grid, h1))


def case_tau(obj, where: str):
    """Optional per-case tau attached to a data object."""
    if obj is None or "tau" not in obj:
        return None
    tau = obj["tau"]
    if isinstance(tau, bool) or not isinstance(tau, (int, float)):
        raise SchemaError(f"{where}.tau: must be a number")
    try:
        tau = float(tau)
    except OverflowError:  # an integer beyond the float range
        tau = math.inf
    if not (tau > 0.0 and math.isfinite(tau)):
        raise SchemaError(f"{where}.tau: must be positive and finite")
    return tau


def _all_numbers(value) -> bool:
    """True for a number or a nested list whose leaves are all numbers."""
    if isinstance(value, list):
        return all(_all_numbers(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _block_array(obj, key: str, shape, where: str) -> np.ndarray:
    if key not in obj or obj[key] is None:
        return np.zeros(shape)
    if not _all_numbers(obj[key]):
        raise SchemaError(f"{where}.{key}: not a numeric array")
    try:
        arr = np.asarray(obj[key], dtype=float)
    except ValueError as exc:  # ragged nesting
        raise SchemaError(f"{where}.{key}: not a numeric array") from exc
    except OverflowError as exc:  # an integer beyond the float range
        raise SchemaError(f"{where}.{key}: entries must be finite") from exc
    if arr.shape != shape:
        raise SchemaError(f"{where}.{key}: expected shape {shape}, "
                          f"got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{where}.{key}: entries must be finite")
    return arr


def jet_from_dict(obj, where: str = "input") -> CurvatureJet:
    """Curvature jet from nested arrays; missing blocks are zero.

    Schema: {"ric": 3x3, "dric": 3x3x3, "d2ric": 3x3x3x3}.  The jet
    constructor's symmetry and differential-identity validation runs on
    the result, and violations surface as schema errors.
    """
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    extra = set(obj) - {"ric", "dric", "d2ric"}
    if extra:
        raise SchemaError(f"{where}: unknown keys {sorted(extra)}")
    ric = _block_array(obj, "ric", (3, 3), where)
    dric = _block_array(obj, "dric", (3, 3, 3), where)
    d2ric = _block_array(obj, "d2ric", (3, 3, 3, 3), where)
    try:
        return CurvatureJet(ric, dric, d2ric)
    except ValueError as exc:
        raise SchemaError(f"{where}: invalid curvature jet: {exc}") from exc


def rows_to_csv(rows) -> str:
    """Fixed-column CSV text; None fields render as empty cells."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(["" if row.get(col) is None else repr(float(row[col]))
                         for col in CSV_COLUMNS])
    return buf.getvalue()
