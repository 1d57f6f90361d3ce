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
from evospace.kernels import dot, matvec
from evospace.model import rng_for

CASES = {
    "unsupervised_mean": (
        [3, 0, 1], {"m_override": 40, "t_override": 300, "trace_limit": 2},
        "939c4d699baff15754c034458f69b5217fc2189eff5d502bada25f5022d72c4e"),
    "supervised_linear": (
        [3, 1], {"t_override": 300},
        "321742ac5fcea49c417a031f81662eb654a72248f7306d4b93799e8036f2a666"),
    "drift": (
        [1, 0], {"multipliers": (0.0, 1.0), "extended_multipliers": (1e5,),
                 "extended_seed_count": 1, "t_override": 300},
        "3b56452372e3bd52cd61b6cdf71b5c3c5527ed8a580cca2f8396538a6155c5ae"),
    "stability": (
        [1, 0], {"dwell": 5, "t_override": 300, "comparison_t_override": 200},
        "a4f9fa805a332896deb5af73d87a3d085adc9231a2280a81c50db94a3acdc8c0"),
    "agnostic": (
        [5, 2], {"m_override": 200, "t_override": 300, "check_samples": 1000},
        "d87ce7572ea6ff06c22a5c2f3f41ea602d51ea21188030fc3f23d352655fb3e5"),
}

# files written by the unsupervised_mean case with out_dir set: the first
# two seeds in list order (3, then 0) write traces
UNSUP_FILES = {
    "path-0.csv": "043e3df3c824f946e5740fdb302a9abfff5c104026ee71a1f2a08e5903b19dd4",
    "path-3.csv": "c2810d81b9f93cabaf17108d71ccbf14b221cbecd0f49a7344f2103653409926",
    "perf-0.csv": "21095bffb89551ca3e49505a7fdbafeee87131f4eb8fb36186908a4a34cba93b",
    "perf-3.csv": "516f645552d191dba4b9c8f00c420bdc88366152971f64b1045276bb7e0b2bc5",
    "report.json": "d3af92be2bbf30d8124cf1eac75323c5545101cd9b70eb60b76a02f061f54745",
    "trace-0.jsonl": "8ddfc8aaf0330529919827ac8ee61ed7a878f8298aad40fa8b00fd6387c5b0c7",
    "trace-3.jsonl": "61c9ad41e4e72352ead2be470e5788e96ffed85bc63ffd3574ea700d19326931",
}

# files written by the other cases with out_dir set; drift and stability
# record no path, so they write no path-*.csv
CASE_FILES = {
    "supervised_linear": {
        "path-1.csv": "abe8eced1edd1f100637ae78cbbf1e01cf778f4326b5a7aaec87312d6eb41fb0",
        "path-3.csv": "8c54bfe7a3e4209a37cfe99d711566a44aabaa1ef437621629e63766fbd07d36",
        "perf-1.csv": "9eb66edcdf37577aa7a18cb7afbd651e165f801cda9ec2c2e1dbfbdb4885df50",
        "perf-3.csv": "1f6bc5454f82f304178a920b0c2da71d6b4b498a39489ee97618a023af872f90",
        "report.json": "4d535e578aedc56a4562ed60b9b942e38b618888e1a4a95c38cb58eb19ae7f43",
        "trace-1.jsonl": "095c6ed52def82e7804324836f89f330c71181b54bce78a8e1a2e2de09666574",
        "trace-3.jsonl": "21b98d2ef945eab3909d9db640649054288b3c9a4ac5cb1b0d28521347f6f132",
    },
    "drift": {
        "perf-x0-0.csv": "c0b6bad8107ba7f32a0a20e34c9c40ce675ef0d0057fd0cea8e95e24b751b510",
        "perf-x0-1.csv": "d0d90b87fb60cd2c7fe38cba715694e3f827a1842d2e01379eafbdfa333ca017",
        "perf-x1-0.csv": "bb8701c642314145f99da510b35b93a81baecd505fa9420d097fdc96b175b0ca",
        "perf-x1-1.csv": "0568f457f51ff7f07ad15e7b2e16ac3df32af06eec7f0f80dc4b344149f50271",
        "report.json": "9e71a980ac11b84c9902f11f7a66b935477dd187bad333defb11f697cb973d85",
        "trace-x0-0.jsonl": "f08484dc2230c2a62a78e4b5739badda62dba319f6bd0ea2d3fc0cdbbb63033d",
        "trace-x0-1.jsonl": "fba2b8671920e0b5ccae8cb13eb79f46d2b4660c6b89b7a6c33f36d480673acd",
        "trace-x1-0.jsonl": "97667f37543900b53ed8ef3b39f30abbbc59154cbde461552a2f5aa3e1fdce79",
        "trace-x1-1.jsonl": "8f9eec789791a6bccff9243cdcc8e306fe3c564348ef179db23e3020a3f4b761",
    },
    "stability": {
        "perf-default-0.csv": "d13ac6b15b924d5216eae67ab02ada424ec51bad3f84f1565a1499d7cb02c51a",
        "perf-default-1.csv": "5876dbec20880fb515821c8d2d552864fd9fe3b4a8e1a7259c52ea424ec08092",
        "perf-stable-0.csv": "f9cb28e75be6dea83c8a078418dd23450bb1ca568fef2281e51e099bc07462f6",
        "perf-stable-1.csv": "6d251b4904c8c025a12233d927540d669499f7a74cc8c46e81bcb005dd57b6a4",
        "report.json": "84cfedae4d1b8c9b9b99f5f4ebe4c5780c82ca42fa1e6b20c24ee2eabfacea17",
        "trace-default-0.jsonl": "d8534cddb4feb6e2a50f7b05e8fda28b31f2d3aec4d1002c3dd16328841175c4",
        "trace-default-1.jsonl": "ae4d9a1720b716c536b0544e31ea76234343330e0b5e06bf6edf7333e0788516",
        "trace-stable-0.jsonl": "4b561e08e36996362c2389944ac435e10abeccb36846f64fb1465eca591b60cd",
        "trace-stable-1.jsonl": "9d00fd8b4e9de9c807ddbbbc8f804d77547f5773a7621b96e8f22a0407e14fbc",
    },
    "agnostic": {
        "path-2.csv": "12ac7aea905e4b7fdee4d5b75cebb04452b761f535ec8e2f298127e06fbf099d",
        "path-5.csv": "3eafa8a7e3c38634fc11e1d097ef7a4f153e96423d8c504beacd273f6014a282",
        "perf-2.csv": "c70af60b7a162733d81f283dbc2d26441c6d2675ae7f9e32fad4c8d5424758c5",
        "perf-5.csv": "3b8d1f8341cb0ca1e2db071ea32ece5f9a3a802447f766cc4ef7fc6c8a542cee",
        "report.json": "e4b34ab0d75aa2630fbbd0f00afc5691b067b404900a82623b20ab2996fbb83b",
        "trace-2.jsonl": "8f33d19e1cc6adcd15fd47ddaee627d58ea701ef6e3b948551cccda3dcdff3a2",
        "trace-5.jsonl": "a3f0b3bdd7c559824f8a9957732a28d6d3c5ae2612bffe7d6b47245ddcfebf33",
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
            "trace.csv": "9aa7b19c268c32b844284545431464dc1e0812c80fe4d652487bffc489c28e4b",
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
            "trace.jsonl": "49d77270e0f069f1619dc77bf5e38d38cae1ce03c4ab1f0dfba558f986a82f7a",
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
            "trace.jsonl": "46b260a531ee8da80623d2c1c7e0609d0fb3c9be20ccec7a3c30a32ee0174e30",
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
            "organism.json": "63459d23ecb33f4ae93d5fd52611bff8629cc248f1e7688fc664034145835f15",
            "path.csv": "d8ad05b168e732c4f52196ee7a11492d3e3860e9fbe3cf05a9aa78f3f6e36aa2",
            "schedule.json": "67b9e4fcabd679c6c7f98e5aa129f33f6e6d4e9a1bf9cb268f5decc40d57a5b2",
            "trace.jsonl": "a33669c6a8ced384982635dd7b332b85a52764a67d338f7f3ddc96a5116b3a79",
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
        # a kernels product: `X @ w` rounds by the CPU's BLAS kernel
        y = matvec(X, [0.8, -0.5]) + 0.05 * rng.standard_normal(50)
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
# last row has null chosen_*/perf_true/in_target_set and failed true)
NULL_FIELD_CASES = {
    "halted": (
        {"alpha": 0.1, "tol": 0.005, "seed": 2,
         "epsilon": 0.02, "failure_policy": "strict"},
        {"trace.jsonl": "e1323415042edec580cd02865de4c3135da1818fbc3a3c9fbf6f125b3f7b1d80",
         "trace.csv": "d425a4ae5e7722df94dd530ef1e93400ad936fa04644d13084eace22195349a8"}),
}


def null_field_run(alpha, tol, seed, epsilon, failure_policy):
    data = rng_for(("golden-null", 0)).normal(0.0, 0.3, (40, 2))
    data += np.array([0.3, -0.2])
    mu = data.mean(axis=0)
    stats_fn = quadratic_stats_for(IdentityPanel(2),
                                   BregmanGenerator.squared_euclidean(),
                                   lambda pts: pts)
    model = QuadraticPerfModel(ConditionSampler.empirical(data, seed=seed),
                               stats_fn,
                               true_stats=(np.eye(2), mu, float(dot(mu, mu))))
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
