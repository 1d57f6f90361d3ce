"""Golden digests: every scenario's report, and one scenario's output files.

Each case is a fixed small config whose seed list is deliberately out of
order, so these digests also pin that rows, traces and aggregates follow
the given seed order.  A change that alters any report or output byte fails
here; one that means to must say so and update the digests.
"""

import hashlib
import json

import pytest

from evospace.experiments import ScenarioConfig, run_scenario

CASES = {
    "unsupervised_mean": (
        [3, 0, 1], {"m_override": 40, "t_override": 300, "trace_limit": 2},
        "a666f39ddc29de3389363a16d4f00bee363c37936e3fbbfe9d7e98098f959d39"),
    "supervised_linear": (
        [3, 1], {"t_override": 300},
        "e7ab3d3eff4cc34d0a18264dbaec573fca5c83ad9e9d455053d0d80196e1f8b0"),
    "drift": (
        [1, 0], {"multipliers": (0.0, 1.0), "extended_multipliers": (1e5,),
                 "extended_seed_count": 1, "t_override": 300},
        "1f90c59d87a7188783f4c9efac6f598a9126221115497ea09ab5dc3fecab1004"),
    "stability": (
        [1, 0], {"dwell": 5, "t_override": 300, "comparison_t_override": 200},
        "0a686e3769b163ce27b0fbac5baefe652c45b9292aab7e545c94ee5a19bbe703"),
    "agnostic": (
        [5, 2], {"m_override": 200, "t_override": 300, "check_samples": 1000},
        "11fc8922f25521e7d65d96749ea013f9c59b313cf06409f4bb48948c3b06b77e"),
}

# files written by the unsupervised_mean case with out_dir set: the first
# two seeds in list order (3, then 0) write traces
UNSUP_FILES = {
    "path-0.csv": "043e3df3c824f946e5740fdb302a9abfff5c104026ee71a1f2a08e5903b19dd4",
    "path-3.csv": "c2810d81b9f93cabaf17108d71ccbf14b221cbecd0f49a7344f2103653409926",
    "perf-0.csv": "7e377c8445d82a21df019de8e330f6e29e1c8b8ac1258bcd5984a3e760f8be6e",
    "perf-3.csv": "88f9cb3117967961316b96073bc4095fb05691d83f6af4bf25f6fc1c842ddaca",
    "report.json": "1e74e0c0e9297ff9d555a058a816bc055576a3cfde7a89a987ed56bc854e67cb",
    "trace-0.jsonl": "996a222c6739fce197cd77886355e672094b0bf9a23b4601cf7e15119109d96c",
    "trace-3.jsonl": "bfed07ba8d30c2b3b1fc983eb1cca46db44b1621b345220c2f0eee869d0aab1e",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name, out_dir=None) -> dict:
    seeds, overrides, _ = CASES[name]
    return run_scenario(ScenarioConfig(name, seeds=list(seeds), epsilon=0.1,
                                       overrides=dict(overrides),
                                       out_dir=out_dir))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name):
    report = run_case(name)
    assert sha256(json.dumps(report, sort_keys=True).encode()) == CASES[name][2]


def test_unsupervised_output_files(tmp_path):
    out = tmp_path / "out"
    run_case("unsupervised_mean", str(out))
    got = {p.name: sha256(p.read_bytes()) for p in out.iterdir()}
    assert got == UNSUP_FILES
