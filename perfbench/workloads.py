"""The four benchmark workloads: inputs from the workload seed, one operation, checks.

A workload is built once per benchmark run from ``(seed, smoke)``; its
``op()`` performs one operation (a scenario sweep, or a batch of ``evolve``
calls) and returns a JSON-able report, ``check(report)`` lists what is
wrong with it, and ``notes(report)`` lists what is right but worth telling
(a stale seed table).  Every operation of one run works on the same inputs, so its
reports must be byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# The acceptance fixture's drift overrides (tests/test_acceptance.py).
DRIFT_OVERRIDES = {"multipliers": (1.0, 10.0),
                   "extended_multipliers": (1e5, 2.5e5),
                   "extended_seed_count": 10}

# Dataset draws asked of each scenario seed, one seed per entry: the
# benchmark picks, for every entry, a seed from seed_table.json that needs
# exactly that many draws.  In the drift pools every draw runs the
# perceptron once to its full 4,000-update budget, so equal draws mean equal
# dataset work.  A supervised step reduces over every dataset row, so those
# seeds are also held to a band of row counts.  Every workload seed then
# costs the same and only the datasets differ.  Over the table's 600 seeds
# the drift draws have median 13 and mean 19, the supervised ones median 4
# and mean 6.
DRIFT_TRIES = (10, 20)
SUPERVISED_TRIES = (1, 4, 10)
SUPERVISED_ROWS = (300, 400)
STABILITY_SEEDS = 4

EVOLVE_CALLS = 3
EVOLVE_STEPS = 6000
EVOLVE_ROWS = 300


def digest(obj) -> str:
    """sha256 of a report, with numpy scalars written as Python numbers."""
    text = json.dumps(obj, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _numbers(obj, path=""):
    """(path, value) for every number in a nested report."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _numbers(value, f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _numbers(value, f"{path}[{i}]")
    elif isinstance(obj, (bool, np.bool_)) or obj is None or isinstance(obj, str):
        return
    elif isinstance(obj, (int, float, np.number)):
        yield path, float(obj)


def check_numbers(report) -> list:
    """Every number is finite and every ``*fraction`` lies in [0, 1]."""
    problems = []
    for path, value in _numbers(report):
        if not math.isfinite(value):
            problems.append(f"{path} is not finite: {value}")
        elif path.endswith("fraction") and not 0.0 <= value <= 1.0:
            problems.append(f"{path} = {value} lies outside [0, 1]")
    return problems


def _rows_match(rows, seeds, where) -> list:
    got = [row.get("seed") for row in rows]
    if got != list(seeds):
        return [f"{where}: rows for seeds {got}, expected one per seed {list(seeds)}"]
    return []


def _seed_table() -> dict:
    with open(os.path.join(HERE, "seed_table.json")) as fh:
        return json.load(fh)


def matched_seeds(scenario: str, seed: int, tries, rows=(0, float("inf"))) -> list:
    """One scenario seed per entry of ``tries``, needing exactly that many draws.

    Only seeds whose accepted dataset has between ``rows[0]`` and
    ``rows[1]`` rows are taken.
    """
    table = _seed_table()
    draws, sizes = table[scenario], table[f"{scenario}_rows"]
    rng = np.random.default_rng([seed, len(tries)])
    out = []
    for want in tries:
        pool = [s for s, k in enumerate(draws)
                if k == want and rows[0] <= sizes[s] <= rows[1] and s not in out]
        if not pool:
            raise ValueError(f"seed_table.json has no {scenario} seed with {want} "
                             f"draws and {rows[0]}-{rows[1]} rows")
        out.append(int(pool[rng.integers(len(pool))]))
    return out


def table_tries(scenario: str, seeds: list) -> dict:
    """seed -> the dataset draws that seed_table.json lists for it."""
    draws = _seed_table()[scenario]
    return {s: draws[s] for s in seeds}


# ---------------------------------------------------------------------------
# scenario sweeps


class Sweep:
    """One ``run_scenario`` call at epsilon 0.1 over the workload's seed list."""

    def __init__(self, scenario: str, seeds: list, overrides: dict, tries=None):
        self.scenario = scenario
        self.seeds = seeds
        self.overrides = overrides
        self.tries = tries  # seed -> draws listed in seed_table.json

    def describe(self) -> dict:
        return {"scenario": self.scenario, "seeds": self.seeds,
                "overrides": self.overrides}

    def op(self) -> dict:
        from evospace.experiments import ScenarioConfig, run_scenario
        return run_scenario(ScenarioConfig(self.scenario, seeds=list(self.seeds),
                                           epsilon=0.1,
                                           overrides=dict(self.overrides)))

    def check(self, report: dict) -> list:
        problems = check_numbers(report)
        seeds = self.seeds
        if self.scenario == "drift":
            ext = seeds[: int(self.overrides.get("extended_seed_count", 10))]
            for key, arm_seeds in (("arms", seeds), ("extended_arms", ext)):
                for arm in report.get(key, []):
                    problems += _rows_match(arm["rows"], arm_seeds,
                                            f"{key} x{arm['multiplier']:g}")
            want = (len(self.overrides.get("multipliers", ())),
                    len(self.overrides.get("extended_multipliers", ())))
            got = (len(report.get("arms", [])), len(report.get("extended_arms", [])))
            if got != want:
                problems.append(f"drift report has {got} arms, expected {want}")
        elif self.scenario == "stability":
            for key in ("stable_arm", "default_arm"):
                problems += _rows_match(report[key]["rows"], seeds, key)
        else:
            problems += _rows_match(report["per_seed"], seeds, "per_seed")
        return problems

    def notes(self, report: dict) -> list:
        """Seeds whose ``data_tries`` differ from seed_table.json's.

        A change to the dataset streams is a behaviour change that must be
        announced, not a wrong output, so it is not a failure.  But the
        seeds were picked for their draw counts, so once the table is stale
        the workload seeds no longer cost alike.
        """
        if not self.tries:
            return []
        rows = [row for key in ("arms", "extended_arms")
                for arm in report.get(key, []) for row in arm["rows"]]
        rows += report.get("per_seed", [])
        stale = {row.get("seed"): row.get("data_tries") for row in rows
                 if row.get("data_tries") != self.tries.get(row.get("seed"))}
        return [f"seed_table.json is stale: {self.scenario} seed {seed} needed "
                f"{got} dataset draws, the table lists {self.tries.get(seed)}; "
                "regenerate it with perfbench/make_seed_table.py"
                for seed, got in sorted(stale.items())]


def drift_sweep(seed: int, smoke: bool, workdir: str) -> Sweep:
    tries = DRIFT_TRIES[:1] if smoke else DRIFT_TRIES
    overrides = dict(DRIFT_OVERRIDES)
    if smoke:
        overrides["t_override"] = 200
    seeds = matched_seeds("drift", seed, tries)
    return Sweep("drift", seeds, overrides, table_tries("drift", seeds))


def supervised_sweep(seed: int, smoke: bool, workdir: str) -> Sweep:
    tries = SUPERVISED_TRIES[:1] if smoke else SUPERVISED_TRIES
    overrides = {"t_override": 200} if smoke else {}
    seeds = matched_seeds("supervised_linear", seed, tries, SUPERVISED_ROWS)
    return Sweep("supervised_linear", seeds, overrides,
                 table_tries("supervised_linear", seeds))


def stability_sweep(seed: int, smoke: bool, workdir: str) -> Sweep:
    # stability datasets have no acceptance window, so any seeds cost alike
    rng = np.random.default_rng([seed, STABILITY_SEEDS])
    count = 1 if smoke else STABILITY_SEEDS
    seeds = sorted(int(s) for s in rng.choice(1 << 30, count, replace=False))
    overrides = {"t_override": 200, "comparison_t_override": 100} if smoke else {}
    return Sweep("stability", seeds, overrides)


# ---------------------------------------------------------------------------
# the CLI `evolve` path


def write_labels_csv(path: str, rng: np.random.Generator, rows: int) -> None:
    """Points in the unit annulus 0.2 <= r <= 1, labels from a noisy half-plane."""
    radius = np.sqrt(rng.uniform(0.04, 1.0, rows))
    angle = rng.uniform(0.0, 2.0 * math.pi, rows)
    X = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    normal = rng.standard_normal(2)
    y = np.where(X @ normal + 0.3 * rng.standard_normal(rows) >= 0.0, 1.0, -1.0)
    with open(path, "w") as fh:
        fh.write("x0,x1,y\n")
        for (a, b), label in zip(X.tolist(), y.tolist()):
            fh.write(f"{a!r},{b!r},{label!r}\n")


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _line_count(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


class EvolveCli:
    """Sequential ``evospace.cli.main(["evolve", ...])`` calls writing with --out.

    Each call has its own ``run.seed`` in its config; ``--seed`` is not
    passed, so this workload does not depend on how the CLI reconciles the
    two.
    """

    OUTPUTS = ("trace.jsonl", "path.csv", "schedule.json", "organism.json")

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = np.random.default_rng([seed, EVOLVE_ROWS])
        self.steps = 200 if smoke else EVOLVE_STEPS
        calls = 1 if smoke else EVOLVE_CALLS
        dataset = os.path.join(workdir, "labels.csv")
        write_labels_csv(dataset, rng, EVOLVE_ROWS)
        self.calls = []
        for i in range(calls):
            run_seed = int(rng.integers(1 << 30))
            config = {
                "model": {"dataset": dataset, "target": "labels"},
                "mutations": {"source": "data_pairs"},
                "schedule": {"epsilon": 0.1},
                "run": {"seed": run_seed, "t_override": self.steps,
                        "failure_policy": "forced_uniform",
                        "renewal_period": 1000, "record_path": True},
            }
            path = os.path.join(workdir, f"config-{i}.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            self.calls.append((run_seed, path, os.path.join(workdir, f"out-{i}")))

    def describe(self) -> dict:
        return {"calls": len(self.calls), "steps": self.steps,
                "rows": EVOLVE_ROWS, "run_seeds": [c[0] for c in self.calls]}

    def op(self) -> dict:
        import evospace.cli
        entries = []
        for run_seed, config, out in self.calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = evospace.cli.main(["evolve", "--config", config, "--out", out])
            files = {name: _sha256_file(os.path.join(out, name))
                     for name in self.OUTPUTS
                     if os.path.exists(os.path.join(out, name))}
            lines = buf.getvalue().strip().splitlines()
            entries.append({
                "run_seed": run_seed, "exit": code,
                "summary": json.loads(lines[-1]) if lines else None,
                "files": files,
                "trace_lines": _line_count(os.path.join(out, "trace.jsonl"))
                if "trace.jsonl" in files else None,
                "path_lines": _line_count(os.path.join(out, "path.csv"))
                if "path.csv" in files else None,
                "schedule": self._schedule(out) if "schedule.json" in files else None,
            })
        return {"calls": entries}

    @staticmethod
    def _schedule(out: str) -> dict:
        with open(os.path.join(out, "schedule.json")) as fh:
            sched = json.load(fh)
        return {"t_steps": sched.get("t_steps"), "m": sched.get("m")}

    def check(self, report: dict) -> list:
        problems = check_numbers(report)
        for entry in report["calls"]:
            tag = f"evolve run.seed={entry['run_seed']}"
            summary = entry["summary"] or {}
            if entry["exit"] != 0:
                problems.append(f"{tag}: exit code {entry['exit']}, expected 0")
            missing = [n for n in self.OUTPUTS if n not in entry["files"]]
            if missing:
                problems.append(f"{tag}: missing outputs {missing}")
            if summary.get("steps") != self.steps:
                problems.append(f"{tag}: {summary.get('steps')} steps, "
                                f"expected {self.steps}")
            if entry["trace_lines"] != summary.get("steps"):
                problems.append(f"{tag}: trace.jsonl has {entry['trace_lines']} "
                                f"lines for {summary.get('steps')} steps")
            if entry["path_lines"] is not None and \
                    entry["path_lines"] != (summary.get("steps") or 0) + 2:
                problems.append(f"{tag}: path.csv has {entry['path_lines']} lines "
                                f"for {summary.get('steps')} steps")
        return problems

    def notes(self, report: dict) -> list:
        return []


WORKLOADS = {
    "drift_sweep": drift_sweep,
    "stability_sweep": stability_sweep,
    "supervised_sweep": supervised_sweep,
    "evolve_cli": EvolveCli,
}
