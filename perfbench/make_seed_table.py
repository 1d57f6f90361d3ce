"""Regenerate ``seed_table.json``: dataset draws and rows per scenario seed.

The drift and supervised scenarios redraw a seed's dataset until it passes
their acceptance test, so the dataset cost of a scenario seed is set by how
many draws it needs (the ``data_tries`` that each report row carries).  A
supervised step reduces over every dataset row, so its engine cost also
grows with the accepted dataset's row count.  The benchmark samples its
scenario seeds from this table so that every workload seed costs the same;
see README.md.

Run from the repository root:

    python3 perfbench/make_seed_table.py
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import evospace.experiments as experiments  # noqa: E402
from evospace.experiments import ScenarioConfig, run_scenario  # noqa: E402

SEEDS = 600

# one cheap arm and a one-step run: only the dataset draws cost anything
PROBES = {
    "drift": {"multipliers": (1.0,), "extended_multipliers": (),
              "t_override": 1},
    "supervised_linear": {"t_override": 1},
}


def probe(scenario: str, seeds: list) -> tuple:
    """(draws, rows) of each seed's accepted dataset, in seed order.

    The rows are read by wrapping the dataset builder for the duration of
    the sweep, as the benchmark's tracer does.
    """
    rows = {}
    original = experiments._mixture_for

    def record(seed, *args, **kwargs):
        points, labels, tries = original(seed, *args, **kwargs)
        rows[seed] = int(points.shape[0])
        return points, labels, tries

    experiments._mixture_for = record
    try:
        report = run_scenario(ScenarioConfig(scenario, seeds=seeds, epsilon=0.1,
                                             overrides=PROBES[scenario]))
    finally:
        experiments._mixture_for = original
    per_seed = report["arms"][0]["rows"] if scenario == "drift" else report["per_seed"]
    return [row["data_tries"] for row in per_seed], [rows[s] for s in seeds]


def main() -> None:
    seeds = list(range(SEEDS))
    table = {"seeds": SEEDS}
    for scenario in PROBES:
        table[scenario], table[f"{scenario}_rows"] = probe(scenario, seeds)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "seed_table.json")
    with open(path, "w") as fh:
        json.dump(table, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
