"""Golden digests: every scenario's report and output files, and `evolve` outputs.

Each case is a fixed small config whose seed list is deliberately out of
order, so these digests also pin that rows, traces and aggregates follow
the given seed order.  The output-file pins also pin the file set, so a
stray temporary file fails them too.  A change that alters any report or
output byte fails here; one that means to must say so and update the
digests.
"""

import hashlib
import json

import numpy as np
import pytest

from evospace import (BregmanGenerator, ConditionSampler, EvolutionConfig,
                      IdentityPanel, MutationSet, QuadraticPerfModel,
                      quadratic_stats_for, run_evolution)
from evospace.cli import main
from evospace.experiments import ScenarioConfig, run_scenario
from evospace.io import write_trace_csv, write_trace_jsonl
from evospace.model import rng_for

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

# files written by the other cases with out_dir set; drift and stability
# record no path, so they write no path-*.csv
CASE_FILES = {
    "supervised_linear": {
        "path-1.csv": "abe8eced1edd1f100637ae78cbbf1e01cf778f4326b5a7aaec87312d6eb41fb0",
        "path-3.csv": "8c54bfe7a3e4209a37cfe99d711566a44aabaa1ef437621629e63766fbd07d36",
        "perf-1.csv": "f60eb04ed04bb43760faf9923a49ba23d15b41994384e476ac9c501b92443931",
        "perf-3.csv": "e2e210015b9c237a5fa52629acd2f03dbbb1a3b30a5d4cef3ede3ddcbfd7b882",
        "report.json": "d29cb9a36cb4785d5df9b7103449947b86892f78dfb0820927988eaeea069823",
        "trace-1.jsonl": "361724fc2caf29c71f070e6d97b471c8cf3318ae6d6a5717f649228591464672",
        "trace-3.jsonl": "a6e8cebe6e9b57abc0440ad58c64c3c6dd630e0b7d022c6d5cc85f4cb80f49df",
    },
    "drift": {
        "perf-x0-0.csv": "da360de47c0a18e2e45d1eda5933cd076e5ee427074e4242f4874acc67a60729",
        "perf-x0-1.csv": "e89d47fc548f2425e3b12143b21049a613c4beb637621438adbf8b7c017e2ebd",
        "perf-x1-0.csv": "aaaa5331498f02c4dfae25c2761e594e30a3e8e04db9a14086663c30ab5263ab",
        "perf-x1-1.csv": "db817fa77457bc8ffc4844f0774c86489ca66e65ca27f48ffa995a327b4cde1d",
        "report.json": "8b3c194495d7f6f2fc361cd62fe7d10c43f22162ed4798a0614a1e13a5db6a01",
        "trace-x0-0.jsonl": "53e42a1c53a94da9ac59fbfb71ebbd2f934ec025230a9f1907f2c6f5e96e4846",
        "trace-x0-1.jsonl": "69590d527fbc31f8a5397850aa865ae820153b30c88170562c629f77bd644fa9",
        "trace-x1-0.jsonl": "4cb9c85372b97857b31224e8825d5dbba95e03fbbd14a6f4f43127772fe4a213",
        "trace-x1-1.jsonl": "8587997abf28cf51fe1696b7db2971d7c405f2d82309fe1bf3505c8e3fee082f",
    },
    "stability": {
        "perf-default-0.csv": "e355b6aeb74480108e03a60e82a0ac2f58aa971659742be4988057bc299145ab",
        "perf-default-1.csv": "ee3a052191dccd9dedee57b44bc95ed27064bd06d38177e192558a6a831950d1",
        "perf-stable-0.csv": "d76b64fdde3c2d97aaeffcabbdc702659b76e120f5bcf0abcc996207ea285665",
        "perf-stable-1.csv": "0488554a018b2db7fb6df0784734419b887974cb4a9b1d4da133a1ffee5a45d7",
        "report.json": "29e8568a7034c317fa867f03dc896924e588acc7fa5a189ac8ae4065176fd179",
        "trace-default-0.jsonl": "48a7c95cafe550def4d652448387e6febc0c568e95da0d6f029406695c0849c5",
        "trace-default-1.jsonl": "c92d1b9bcd9fe04e536a12be0b02803222c9aaa6cbe5d47a6bc1f4f0847bad7a",
        "trace-stable-0.jsonl": "3e866c23bbd75bbd00b7436dadcbb2be3afb7e1c704aafa98c0e641871e3ee88",
        "trace-stable-1.jsonl": "1c0bbd88d8ea58d8df52affd9415060ec96f58893dab41d560d71ef7ba92b57a",
    },
    "agnostic": {
        "path-2.csv": "15fbce7b6a6f9188d96b0121861a549a9e82adb3e31cfa487c0d693057c7a034",
        "path-5.csv": "2904c87c07ad128e83c828f0962e4b44f143403c78b17bcbf553c3c3fd39eaff",
        "perf-2.csv": "2f0ff21b791c7eb5d09abb46342290cb79a369536d6f80a5eb7cd556ffe653f2",
        "perf-5.csv": "f71cb467efc7a72be1e9a9aaa0cd05edee7301b53f56a1174d5b774dc0f05af5",
        "report.json": "2b7f0f672ea4e46c1fecb770549986f55ec71e65a71071a924bc7a84c0aceea4",
        "trace-2.jsonl": "99ad6d91c108d9a888fdd7ce417fa05321c1a581389ff4aa497f4c1adb9cc608",
        "trace-5.jsonl": "66a933c7b4ad3f5c55d022662f0ec773b6085058a3809799d5a1037ad72740a9",
    },
}

# `evolve --out` outputs: one mean run with orthonormal mutations and CSV
# traces, one labels run with data-pair mutations, renewal and a forced step,
# one mean run whose m = 150 <= 4n takes its rows from blocks of 436 steps,
# so its 1,000 steps cross two block edges, and one mean run whose
# m = 400 > 4n draws multinomial weights in blocks of 2**14 // 50 = 327
# steps, so its 800 steps cross two block edges
EVOLVE_CASES = {
    "mean": (
        {"model": {"target": "mean"},
         "schedule": {"epsilon": 0.25},
         "run": {"seed": 4, "m_override": 30, "t_override": 200,
                 "failure_policy": "forced_uniform", "record_path": True}},
        ["--format", "csv"],
        {
            "organism.json": "8c9943ff814d708fa08ef8e2bea9b9bab07e9fb0140d971401d5dfd33c275354",
            "path.csv": "ff4c123b03188110c4e9581c769e7fff57db9d04590563ee48e7b07da447bd90",
            "schedule.json": "afe19f4cf6199b92f728541cf6e834b58ccf3c94cff9667ebb77ad8ac0e07085",
            "trace.csv": "465271fa117904a71285bd04ae92c8a16198cb02ef3a7bbbfed830d41f29a200",
        }),
    "mean_blocks": (
        {"model": {"target": "mean"},
         "schedule": {"epsilon": 0.1},
         "run": {"seed": 12, "m_override": 150, "t_override": 1000,
                 "failure_policy": "forced_uniform", "record_path": True}},
        [],
        {
            "organism.json": "1f570076153ba1b0c3850eb3a6207ecd551daed187f09e3e5784874abe70fd78",
            "path.csv": "48d1e35ca1f9612b7b52a0538a7c66d29f67358e467155baac0de639b82e8505",
            "schedule.json": "22f5e1f96b59ab2f4ac1e1588335262e4213b9eb541dfac2ef153b9df358ae0a",
            "trace.jsonl": "b198fe8583a9ada302cfaa27997f8c96291e862455e747c8b56748595566efa1",
        }),
    "mean_multinomial": (
        {"model": {"target": "mean"},
         "schedule": {"epsilon": 0.1},
         "run": {"seed": 7, "m_override": 400, "t_override": 800,
                 "failure_policy": "forced_uniform", "record_path": True}},
        [],
        {
            "organism.json": "459362a3eea97f7ed9115c32d2043b693294683ae5d7f814ee389a839ca035a2",
            "path.csv": "5d5cb1fc8f36c984c4a141195920c91ccfda10501050492716920a8103c8d3a0",
            "schedule.json": "327a1f3b0c0192ead960c16aad9aec28fcf00e2ab7208c917f26d7ceddb70f8a",
            "trace.jsonl": "708ce321d8ebffd1ff925527370faa723946eb98c90bd4f89df5c004682ee5b8",
        }),
    "labels": (
        {"model": {"target": "labels"},
         "mutations": {"source": "data_pairs"},
         "schedule": {"epsilon": 0.25, "knobs": [0.02, 0.94, 0.02]},
         "run": {"seed": 9, "f0": [0.8, -0.5], "m_override": 40,
                 "t_override": 150, "failure_policy": "forced_uniform",
                 "renewal_period": 50, "record_path": True}},
        [],
        {
            "organism.json": "3b56ee0c503763ca4e96fee47c26da53590a429b3893114216afb799370f705d",
            "path.csv": "d8ad05b168e732c4f52196ee7a11492d3e3860e9fbe3cf05a9aa78f3f6e36aa2",
            "schedule.json": "27b2caf4a236f6f0ce451e77287699d946394cc331a781065a9bccbaf86bbacd",
            "trace.jsonl": "63050b8f9c763d04dd9a16ec7872344240f1add9319d80cc6b111d0040a17092",
        }),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(out) -> dict:
    return {p.name: sha256(p.read_bytes()) for p in out.iterdir()}


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
    assert file_digests(out) == UNSUP_FILES


@pytest.mark.parametrize("name", sorted(CASE_FILES))
def test_scenario_output_files(name, tmp_path):
    out = tmp_path / "out"
    run_case(name, str(out))
    assert file_digests(out) == CASE_FILES[name]


def write_dataset(path, target: str) -> None:
    # values written with repr, so the CSV round-trips every float exactly
    rng = rng_for(("golden-data", target))
    X = rng.normal(0.0, 0.4, (50, 2))
    X /= max(1.0, float(np.linalg.norm(X, axis=1).max()))
    if target == "mean":
        X = 0.5 * X + np.array([0.4, 0.2])
        header, rows = "x1,x2", X
    else:
        y = X @ np.array([0.8, -0.5]) + 0.05 * rng.standard_normal(50)
        header, rows = "x1,x2,y", np.column_stack([X, y])
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(EVOLVE_CASES))
def test_evolve_output_files(name, tmp_path, capsys):
    cfg, argv, expected = EVOLVE_CASES[name]
    cfg = json.loads(json.dumps(cfg))
    dataset = tmp_path / f"{name}.csv"
    write_dataset(dataset, cfg["model"]["target"])
    cfg["model"]["dataset"] = str(dataset)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out),
                 *argv]) == 0
    capsys.readouterr()
    assert file_digests(out) == expected


# trace files whose rows carry nulls: a strict run that halts at step 33 (its
# last row has null chosen_*/perf_true/in_target_set and failed true), a
# model with no oracle (null perf_true and in_target_set on every row), and
# a run with epsilon=None (null in_target_set on every row)
NULL_FIELD_CASES = {
    "halted": (
        {"oracle": True, "alpha": 0.1, "tol": 0.005, "seed": 2,
         "epsilon": 0.02, "failure_policy": "strict"},
        {"trace.jsonl": "c726e0a0ab4133653352542e0ec0130e4eff2ddc680565766e8f87848a1f9154",
         "trace.csv": "feb44163091da748e417ded66de1a6b9dd06c2a2bc8ff5ab338c09eaf869a821"}),
    "no_oracle": (
        {"oracle": False, "alpha": 0.15, "tol": 0.01, "seed": 1,
         "epsilon": 0.02, "failure_policy": "forced_uniform"},
        {"trace.jsonl": "999d8bbb18abe2030f58a4811de2911096c1e41d87d70a66f92c2bcee1fc8d84",
         "trace.csv": "33a84153e9f30271bb686aaac554362be3a39cb518163db97984942ea3d7636a"}),
    "no_epsilon": (
        {"oracle": True, "alpha": 0.15, "tol": 0.01, "seed": 3,
         "epsilon": None, "failure_policy": "forced_uniform"},
        {"trace.jsonl": "fd03c21b80b6a81e2ed030aa44cdc4d8d2ec9ff1b3c629e2f3c23683685f1586",
         "trace.csv": "b861388272f329234f6cdf8440767d4f9dae33b10d3ac07023950e435b43c3bc"}),
}


def null_field_run(oracle, alpha, tol, seed, epsilon, failure_policy):
    data = rng_for(("golden-null", 0)).normal(0.0, 0.3, (40, 2))
    data += np.array([0.3, -0.2])
    mu = data.mean(axis=0)
    stats_fn = quadratic_stats_for(IdentityPanel(2),
                                   BregmanGenerator.squared_euclidean(),
                                   lambda pts: pts)
    model = QuadraticPerfModel(ConditionSampler.empirical(data, seed=seed),
                               stats_fn,
                               true_stats=(np.eye(2), mu, float(mu @ mu))
                               if oracle else None)
    return run_evolution(model, EvolutionConfig(
        mutations=MutationSet.orthonormal(2), alpha=alpha, tol=tol, m=20,
        t_steps=40, seed=seed, epsilon=epsilon, failure_policy=failure_policy,
        f0=np.array([-0.2, 0.3])))


@pytest.mark.parametrize("name", sorted(NULL_FIELD_CASES))
def test_null_field_trace_files(name, tmp_path):
    params, expected = NULL_FIELD_CASES[name]
    result = null_field_run(**params)
    assert result.failed == (name == "halted")
    write_trace_jsonl(str(tmp_path / "trace.jsonl"), result.trace)
    write_trace_csv(str(tmp_path / "trace.csv"), result.trace)
    assert file_digests(tmp_path) == expected
