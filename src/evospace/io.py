"""File formats: JSON-lines traces, CSV summaries, JSON configs and reports.

Every writer replaces its file atomically, so an interrupted run leaves
each output whole or absent.  The trace and path writers format a block of
rows at a time straight from the ``Trace`` columns or the path, with one
row template per format, byte for byte what ``json_text`` of each of
``Trace.rows`` and the ``csv`` module would write.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
from contextlib import contextmanager
from typing import Optional

import numpy as np

from .engine import Trace
from .errors import ConfigError, ModelError

_BLOCK_ROWS = 4096


@contextmanager
def _replacing(path: str, mode: str, **kwargs):
    """Open a new file beside ``path`` that replaces it once the block completes.

    A write that raises leaves the old file (or none) and removes the
    unfinished one, so no reader ever sees a truncated output.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def json_text(obj, indent=None) -> str:
    """``obj`` as strict JSON with sorted keys: JSON has no NaN or infinity,
    so a ModelError names the first key, in that order, whose value is one."""
    try:
        return json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError:   # json's only ValueError for a tree of plain values
        raise ModelError(f"{_nonfinite_key(obj)} is not finite, so it has no "
                         f"JSON form") from None


def _nonfinite_key(obj, key=""):
    """The dotted key of the first NaN or infinity under ``obj``, or None."""
    if isinstance(obj, dict):
        children = [(f"{key}.{k}" if key else str(k), v) for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        children = [(f"{key}[{i}]", v) for i, v in enumerate(obj)]
    else:
        return key if isinstance(obj, float) and not math.isfinite(obj) else None
    found = (_nonfinite_key(value, child) for child, value in children)
    return next((k for k in found if k is not None), None)


# json.dumps(row, sort_keys=True) and the csv module's rows as templates; "%s"
# writes a float as float.__repr__, as both of them do
_JSON_KEYS = sorted(Trace.FIELDS)
_JSON_ROW = "{" + ", ".join(f'"{k}": %s' for k in _JSON_KEYS) + "}\n"
_CSV_ROW = ",".join(["%s"] * len(Trace.FIELDS)) + "\r\n"


def _finite_or_raise(trace: Trace, start: int, stop: int) -> None:
    """json_text's ModelError for the first NaN or infinity in rows start..stop-1."""
    floats = ("perf_after", "perf_before", "perf_true")   # in key order
    bad = ~np.isfinite([getattr(trace, k)[start:stop] for k in floats])
    bad[2, trace.moves - start:] = False   # a halted row's perf_true is written null
    rows = np.flatnonzero(bad.any(axis=0))
    if rows.size:
        key = floats[int(np.argmax(bad[:, rows[0]]))]
        raise ModelError(f"{key} is not finite, so it has no JSON form")


def write_trace_jsonl(path: str, trace: Trace) -> None:
    with _replacing(path, "xb") as fh:
        for start in range(0, len(trace), _BLOCK_ROWS):
            _finite_or_raise(trace, start, start + _BLOCK_ROWS)
            columns = trace.columns(start, start + _BLOCK_ROWS, ("false", "true", "null"))
            rows = zip(*(columns[k] for k in _JSON_KEYS))
            fh.write("".join(map(_JSON_ROW.__mod__, rows)).encode())


def write_trace_csv(path: str, trace: Trace) -> None:
    with _replacing(path, "x", newline="") as fh:
        fh.write(",".join(trace.FIELDS) + "\r\n")
        for start in range(0, len(trace), _BLOCK_ROWS):
            columns = trace.columns(start, start + _BLOCK_ROWS, (False, True, ""))
            fh.write("".join(map(_CSV_ROW.__mod__, zip(*columns.values()))))


def write_path_csv(path: str, coords_path: np.ndarray) -> None:
    """Organism coordinate trajectory, one row per step."""
    arr = np.asarray(coords_path, dtype=float)
    row = "%s" + ",%s" * arr.shape[1] + "\r\n"
    with _replacing(path, "x", newline="") as fh:
        fh.write(",".join(["step"] + [f"c{i}" for i in range(arr.shape[1])]) + "\r\n")
        for start in range(0, arr.shape[0], _BLOCK_ROWS):
            block = arr[start:start + _BLOCK_ROWS]
            rows = zip(range(start, start + len(block)), *block.T.tolist())
            fh.write("".join(map(row.__mod__, rows)))


def write_json_report(path: str, report: dict) -> None:
    with _replacing(path, "x") as fh:
        fh.write(json_text(report, indent=2) + "\n")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


_EXPECTED = {"int": "an integer", "number": "numeric", "bool": "true or false",
             "str": "a string", "object": "an object", "ints": "a list of integers",
             "vector": "a list of numbers",
             "matrix": "numeric: a nonempty list of equal-length lists",
             "knobs": "three finite numbers [z_tau, z_alpha, z_tol]"}


def read_config(cfg, table: dict, where: str = "") -> dict:
    """Typed copy of the config object ``cfg``, read against ``table``.

    ``table`` maps each allowed key to a nested table (a section; absent
    reads as empty) or to ``(kind, default[, extra])``.  An absent key, or a
    null one whose default is None, reads as its default; a key whose
    default is ``...`` must be given.  Kinds: "int" (int64) and "number"
    (finite), each with optional bounds ``extra`` such as ">= 1" or
    ">= 1, <= 10" (operators >, >= and <=); "bool",
    "str", "object" (kept as given) and "ints"; a tuple of choices, strings
    or nested tables; "vector" and "matrix" (float arrays; ``extra`` is the
    vector's or each row's length); "knobs" (three floats).  Bools are never
    numbers.  A ConfigError names the dotted key, the value and what was
    expected.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"config section '{where}' must be an object, got {cfg!r}")
    prefix = f"{where}." if where else ""
    unknown = sorted(set(cfg) - set(table), key=str)
    if unknown:
        raise ConfigError(f"unknown config key {prefix}{unknown[0]}; "
                          f"{repr(where) if where else 'the top level'} "
                          f"allows {', '.join(table)}")
    out = {}
    for name, spec in table.items():
        if isinstance(spec, dict):
            out[name] = read_config(cfg.get(name, {}), spec, prefix + name)
            continue
        kind, default, *extra = spec
        if name in cfg and not (cfg[name] is None and default is None):
            out[name] = _leaf(prefix + name, cfg[name], kind, *extra)
        elif default is ...:
            raise ConfigError(f"config key {prefix}{name} is required")
        else:
            out[name] = default
    return out


def _floats(value) -> Optional[np.ndarray]:
    """A list or tuple of finite numbers as a float array, else None."""
    if not (isinstance(value, (list, tuple)) and all(
            isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) for v in value)):
        return None
    try:
        arr = np.array(value, dtype=float)
    except OverflowError:   # an int beyond the float range
        return None
    return arr if np.isfinite(arr).all() else None


_BOUNDS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _leaf(key: str, value, kind, extra=None):
    """``value`` of the dotted config ``key`` read as ``kind`` (see read_config)."""
    if isinstance(kind, tuple):
        for choice in kind:
            if isinstance(choice, dict) and isinstance(value, dict):
                return read_config(value, choice, key)
            if isinstance(value, str) and value == choice:
                return value
        raise ConfigError(f"{key} must be one of " + ", ".join(
            repr(c) if isinstance(c, str) else "{" + ", ".join(c) + "}"
            for c in kind) + f", got {value!r}")
    expected = _EXPECTED[kind]
    if kind in ("int", "number"):
        out = _floats([value])
        out = None if out is None else float(out[0])
        if kind == "int" and out is not None:
            out = int(value) if out.is_integer() and -2**63 <= int(value) < 2**63 \
                else None
        if extra:
            expected = ("an integer " if kind == "int" else "a number ") + extra
            for clause in extra.split(", "):
                op, limit = clause.split()
                if out is not None and not _BOUNDS[op](out, float(limit)):
                    out = None
    elif kind == "ints":
        out = [_leaf(key, v, "int") for v in value] if isinstance(value, list) else None
    elif kind in ("vector", "knobs"):
        out = _floats(value)
        if kind == "knobs":
            out = tuple(out.tolist()) if out is not None and out.shape == (3,) else None
        elif out is not None and extra is not None and out.shape != (extra,):
            raise ConfigError(f"{key} must have dimension {extra}, got shape {out.shape}")
    elif kind == "matrix":
        rows = [_floats(v) for v in value] if isinstance(value, list) and value else [None]
        out = None if any(row is None for row in rows) else rows
        lengths = sorted({row.size for row in out or ()})
        if out and extra is not None and lengths != [extra]:
            raise ConfigError(f"{key} rows must all have dimension {extra}, "
                              f"got lengths {lengths}")
        out = np.array(out) if out and len(lengths) == 1 and lengths[0] else None
    else:
        out = value if isinstance(value, {"bool": bool, "str": str}.get(kind, dict)) else None
    if out is None:
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    return out


def load_dataset_csv(path: str, dim_x: Optional[int] = None) -> tuple:
    """Read a dataset with a header row: condition columns then targets.

    Columns whose names start with ``x`` are conditions and columns starting
    with ``y`` are target outputs; alternatively ``dim_x`` splits the columns
    positionally.  Returns (X, Y) with Y possibly None.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader]
    except FileNotFoundError:
        raise ConfigError(f"dataset file not found: {path}")
    if len(rows) < 2:
        raise ConfigError("dataset needs a header row and at least one data row")
    header = [h.strip() for h in rows[0][1]]
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise ConfigError(f"dataset {path} line {line} has {len(row)} columns, "
                              f"expected {len(header)}")
    if dim_x is None:
        x_cols = [i for i, h in enumerate(header) if h.lower().startswith("x")]
        y_cols = [i for i, h in enumerate(header) if h.lower().startswith("y")]
        if not x_cols:
            raise ConfigError("dataset header has no condition columns (x...)")
    elif dim_x > len(header):
        raise ConfigError(f"model.dim {dim_x} exceeds the {len(header)} dataset columns")
    else:
        x_cols = list(range(dim_x))
        y_cols = list(range(dim_x, len(header)))
    try:
        data = np.array([[float(v) for v in row] for _, row in rows[1:]])
    except ValueError as e:
        raise ConfigError(f"dataset has a non-numeric entry: {e}")
    if not np.all(np.isfinite(data)):
        raise ModelError("dataset has non-finite entries")
    X = data[:, x_cols]
    Y = data[:, y_cols] if y_cols else None
    return X, Y


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
