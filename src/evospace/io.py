"""File formats: JSON-lines traces, CSV summaries, JSON configs and reports.

Every writer replaces its file atomically, so an interrupted run leaves
each output whole or absent.  The trace and path writers stream a run's
``Trace`` or path into the new file a block of rows at a time.
"""

from __future__ import annotations

import csv
import json
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


def write_trace_jsonl(path: str, trace: Trace) -> None:
    with _replacing(path, "xb") as fh:
        for start in range(0, len(trace), _BLOCK_ROWS):
            rows = trace.rows(start, start + _BLOCK_ROWS)
            fh.write("".join(json.dumps(row, sort_keys=True) + "\n"
                             for row in rows).encode())


def write_trace_csv(path: str, trace: Trace) -> None:
    with _replacing(path, "x", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=trace.FIELDS)
        w.writeheader()
        for start in range(0, len(trace), _BLOCK_ROWS):
            w.writerows(trace.rows(start, start + _BLOCK_ROWS))


def write_path_csv(path: str, coords_path: np.ndarray) -> None:
    """Organism coordinate trajectory, one row per step."""
    arr = np.asarray(coords_path, dtype=float)
    with _replacing(path, "x", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step"] + [f"c{i}" for i in range(arr.shape[1])])
        for start in range(0, arr.shape[0], _BLOCK_ROWS):
            block = arr[start:start + _BLOCK_ROWS].tolist()
            w.writerows([i, *map(repr, row)] for i, row in enumerate(block, start))


def write_json_report(path: str, report: dict) -> None:
    with _replacing(path, "x") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def dump_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True)


def load_dataset_csv(path: str, dim_x: Optional[int] = None) -> tuple:
    """Read a dataset with a header row: condition columns then targets.

    Columns whose names start with ``x`` are conditions and columns starting
    with ``y`` are target outputs; alternatively ``dim_x`` splits the columns
    positionally.  Returns (X, Y) with Y possibly None.
    """
    try:
        with open(path, newline="") as fh:
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
