"""Fuzzed configs: no command exits other than 0 or 2, and none with a traceback.

Each example starts from a small valid config, replaces one node (a
section, a list, or one scalar, list entries included) with a malformed
value or renames one key, and runs ``cli.main`` in-process.
"""

import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evospace.cli import main
from evospace.model import rng_for

BAD_VALUES = ("x", [1.0], [[1.0]], None, True, math.nan, 0, -1, 10**30, 1e308)
KNOBS = [1 / 9, 1 / 3, 2 / 27]


def evolve_configs(mean_csv, labels_csv) -> dict:
    # c_t, c_m and m_cap keep even the schedule's own m and T small, so a
    # nulled override runs a short evolution
    schedule = {"epsilon": 0.25, "c_t": 0.001, "c_m": 0.001, "m_cap": 50}
    return {
        "mean": {
            "model": {"dataset": mean_csv, "target": "mean",
                      "generator": "squared_euclidean", "dim": 2},
            "mutations": {"source": "explicit",
                          "vectors": [[1.0, 0.0], [0.5, 1.0]]},
            "schedule": {**schedule, "knobs": KNOBS},
            "run": {"seed": 3, "f0": [0.1, -0.2], "m_override": 20,
                    "t_override": 5, "failure_policy": "forced_uniform",
                    "renewal_period": None, "record_path": True}},
        "labels": {
            "model": {"dataset": labels_csv, "target": "labels",
                      "generator": {"kind": "mahalanobis", "matrix": [[2.0]]}},
            "mutations": {"source": "data_pairs", "det_min": 0.05,
                          "norm_min": 0.2},
            "schedule": {**schedule, "d_hint": 1},
            "run": {"seed": 1, "m_override": 20, "t_override": 5,
                    "failure_policy": "forced_uniform", "renewal_period": 2}},
    }


FRONTIER = {"gamma": [[2.0, 0.5], [0.5, 1.0]], "delta": [1.0, -1.0],
            "n": 1.0, "alpha": 1.0, "premium": 1.0}

SIZING = {"m_override": 20, "t_override": 20, "trace_limit": 1}
EXPERIMENTS = {
    "unsupervised_mean": SIZING,
    "agnostic": {**SIZING, "check_samples": 100},
    "supervised_linear": SIZING,
    "stability": {**SIZING, "dwell": 5, "comparison_t_override": 20},
    "drift": {**SIZING, "m_override": 5, "multipliers": [0.0, 1.0],
              "extended_multipliers": [100.0], "extended_seed_count": 1},
}


def nodes(obj, path=()):
    """Paths of every node under ``obj``: sections, lists and their entries."""
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return []
    return [p for key, value in children
            for p in [path + (key,)] + nodes(value, path + (key,))]


def edits(cfg) -> list:
    """Every one-node edit of ``cfg``: a malformed value, or a renamed key."""
    out = [(path, value) for path in nodes(cfg) for value in BAD_VALUES]
    return out + [(path, "rename") for path in nodes(cfg)
                  if isinstance(path[-1], str)]


def edited(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value == "rename":
        parent[path[-1] + "_x"] = parent.pop(path[-1])
    else:
        parent[path[-1]] = value
    return cfg


def no_constant(name):
    raise ValueError(f"stdout holds {name}, which is not strict JSON")


def run_main(tmp, command, cfg):
    """Exit code and stderr of one command; a run that exits 0 prints strict JSON."""
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--config", str(path)])
    if code == 0:
        json.loads(out.getvalue(), parse_constant=no_constant)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = rng_for(("fuzz-data", 0))
    pts = rng.normal([0.45, 0.25], 0.18, (60, 2))
    pts /= max(1.0, float(np.linalg.norm(pts, axis=1).max()))
    np.savetxt(root / "mean.csv", pts, delimiter=",", header="x1,x2", comments="")
    X = rng.normal(0.0, 0.4, (60, 2))
    X /= max(1.0, float(np.linalg.norm(X, axis=1).max()))
    y = X @ np.array([0.8, -0.5]) + 0.05 * rng.standard_normal(60)
    np.savetxt(root / "labels.csv", np.column_stack([X, y]), delimiter=",",
               header="x1,x2,y", comments="")
    return root, evolve_configs(str(root / "mean.csv"), str(root / "labels.csv"))


def fuzz(root, command, cfg):
    assert run_main(root, command, cfg)[0] == 0
    space = edits(cfg)

    # more examples than edits: hypothesis stops once it has tried them all
    @settings(max_examples=len(space) + 50, deadline=None)
    @given(st.sampled_from(space))
    def run_edit(edit):
        code, err = run_main(root, command, edited(cfg, *edit))
        assert code in (0, 2), (edit, code, err)
        assert "Traceback" not in err, (edit, err)

    run_edit()


@pytest.mark.parametrize("target, command", [
    ("mean", ["evolve"]), ("labels", ["evolve"]), ("mean", ["diagnose", "exen"])])
def test_evolve_configs(data, target, command):
    root, configs = data
    fuzz(root, command, configs[target])


def test_frontier_config(data):
    fuzz(data[0], ["frontier"], FRONTIER)


@pytest.mark.parametrize("scenario", sorted(EXPERIMENTS))
def test_experiment_configs(data, scenario):
    # stability starts 0.36 from the target, outside the target set below
    # epsilon = 0.1296
    fuzz(data[0], ["experiment"], {"scenario": scenario, "seeds": [0],
                                   "epsilon": 0.1,
                                   "overrides": EXPERIMENTS[scenario]})
