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
        "12190206e56a99ead43d29282ad7af62296529afb443958a42dc18444f595c04"),
    "supervised_linear": (
        [3, 1], {"t_override": 300},
        "b47d3d4b10000ccf1c6bd3ff73760a97be016a94b27eca1ff825142a745d144d"),
    "drift": (
        [1, 0], {"multipliers": (0.0, 1.0), "extended_multipliers": (1e5,),
                 "extended_seed_count": 1, "t_override": 300},
        "74d89bb0135803f3db3eb55ab6f81bdf291963d88fdc06c214f8674bc1aa2f0a"),
    "stability": (
        [1, 0], {"dwell": 5, "t_override": 300, "comparison_t_override": 200},
        "ba78ac75070ccb085799b638cf86bc22014dcb62896711185ec9da3ca9ee255e"),
    "agnostic": (
        [5, 2], {"m_override": 200, "t_override": 300, "check_samples": 1000},
        "00b5ab6830ead9b29a8b872b8ac9df5e609309223cf020925f9d1b3ff31bf9f6"),
}

# files written by the unsupervised_mean case with out_dir set: the first
# two seeds in list order (3, then 0) write traces
UNSUP_FILES = {
    "path-0.csv": "88ab984fc80bb0109f01ad4f16722ac6135e194dd98b17108123456c741565b8",
    "path-3.csv": "d2db9483ce2bd7a4e219b1ad6ce4252d451df576c8d0ebbc8f67e509c7c98a98",
    "perf-0.csv": "fc6b5dcbf85c5f1b072abd71441e053662f4e8ae041dc5d1ea11eb5da4c430ed",
    "perf-3.csv": "b532ba892a06c4fe619d83dffe9bacf899957085968771766248122aa6442e39",
    "report.json": "4658eacaee0024755014c48a006bf9aaf7b9b4746772d05667a4e76b905c303f",
    "trace-0.jsonl": "7603921b4133f8b6a84d45218731236dd0f5d2605db911e0a0381464b81ba618",
    "trace-3.jsonl": "08f573166c1d83714a9070f11b3488ec9940774cffaf047c8585eed6d32c3710",
}

# files written by the other cases with out_dir set; drift and stability
# record no path, so they write no path-*.csv
CASE_FILES = {
    "supervised_linear": {
        "path-1.csv": "abe8eced1edd1f100637ae78cbbf1e01cf778f4326b5a7aaec87312d6eb41fb0",
        "path-3.csv": "f58072f2190979106ced73ebcb2455a52cc278df6cbdc99e5f78c10b9b9b76c0",
        "perf-1.csv": "cca337a7ded83143d5314cdf0aefbf65fa9f3a2c1f949f508ba665578681ceb9",
        "perf-3.csv": "ea7421411cc2d985a887437b8fd53cb2edef3cb22b4fec4c6f6615ed5216f48b",
        "report.json": "4fec516f368012f99ae1768a6513fefe3cd2a84707cdc536e18f66824ed9ea1f",
        "trace-1.jsonl": "42fce9bfa87d8a285e4137bc93776f4a4c5cbaffac54e5c1ba4bf96512e10a1d",
        "trace-3.jsonl": "27c7d00db155c0089dc1af6670375dda62d6d3075a023778b25f787068b893ae",
    },
    "drift": {
        "perf-x0-0.csv": "cbcb7a943a411b0b3f02e89336ac50d882d8f27d4bf14478b9dd6afff86d62dc",
        "perf-x0-1.csv": "6d94f9b5d844d1167771efccfe5d7e7d1c6b9289d82405051afc3a6e05346bbd",
        "perf-x1-0.csv": "a0e5ab76080d079cdeb9fcf74f22ab18650d403e08f99541ebf4015feca29e21",
        "perf-x1-1.csv": "e57ee1d1729496a09792a907ad8708aeda288b76fcb36a3e08496b98a09b4c36",
        "report.json": "c36d1b5ae9dfe6427cbbaf23c6d5f8510d655298b44e203747cf06a67ddb0aae",
        "trace-x0-0.jsonl": "b483627fe1381f8918bda31bcaef2aaca5fb047b1009f4107f96217a2fbd7755",
        "trace-x0-1.jsonl": "96ec19a4456f199d5535961acdb5ea86f1f83c659e840aa5b825264cae07591b",
        "trace-x1-0.jsonl": "27417550951e3a1ff760041d39103a57b03659ddb31b78b2c63475fe09209c38",
        "trace-x1-1.jsonl": "4a94cef4c253ef932257696c82c09be4efea5f8e6768c58c06f988b10d484140",
    },
    "stability": {
        "perf-default-0.csv": "ad4626f0348edc4e3fbf63a83f67416540c1e985046b986c32df8c60f322dee6",
        "perf-default-1.csv": "03eca309738ff2c682b22ee5d275ec67b1e76eae4b4d4bd314beb3228468c08d",
        "perf-stable-0.csv": "70c8bf12992dc09cf49ef3035f17216c4804a946e70adb4a2e10ef1de5bc44a2",
        "perf-stable-1.csv": "fba472dace03e40c4878d8a9b62bd272928cea1e9a3edbe51cf7835d94b55318",
        "report.json": "c68346dc306fd8c151c1200bb6940e014f1bb0891149046e4290d82dfeddc7e0",
        "trace-default-0.jsonl": "876cfea2ef8c187d8ca5361919e3950c1e74cac15ca93490cb710ba08150e5c6",
        "trace-default-1.jsonl": "84a005e504185b1d020f31467bdb3d1a8d7e56e20f982f419f14bef565bc759a",
        "trace-stable-0.jsonl": "fa4324a42562b8132f654f0801074d99705fff13eed3cdcdea24a540d41bfcd7",
        "trace-stable-1.jsonl": "664352df36f9261c9b9178491d5365a0027f3c1be5b3576d6396ae8ca534cbb0",
    },
    "agnostic": {
        "path-2.csv": "bae7fa00374d6396a0fd05bd93f78656479a74ea1c73b6e6767391a4723f83e3",
        "path-5.csv": "8e669b5fbdf1894b13382973af2b9cd281f669d2dd8a8bea868a15083b581fea",
        "perf-2.csv": "029ced87e437f54229c6f170cebc91acfb56001822ddad4a9333141b23ca14e3",
        "perf-5.csv": "ad06b15ae4481bfaf90aed8206a37c4ab3386b179c93c3e42b1fed3a01bb784a",
        "report.json": "2389082b79e040ffee108aafb33ea25a7a3ab54b23f88f0c6a6f373f2da67e7b",
        "trace-2.jsonl": "9a810a4f4c472994e22360af38a6ae577d7bf511c93904bde77a90eb266ee6fe",
        "trace-5.jsonl": "328655bef6a7cbd5d81eb3089c55171a79547f01415bc8e9998bad22486508dc",
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
            "path.csv": "17815fa040ed3ee11f3a8bac50e3e876bf14d9c696b081bcb32a18e4d6f1dcd4",
            "schedule.json": "afe19f4cf6199b92f728541cf6e834b58ccf3c94cff9667ebb77ad8ac0e07085",
            "trace.csv": "c5cab8312e9090808bcadf19e0195b3ede6a3441d09e0c6700eb32b9b68422e7",
        }),
    "mean_blocks": (
        {"model": {"target": "mean"},
         "schedule": {"epsilon": 0.1},
         "run": {"seed": 12, "m_override": 150, "t_override": 1000,
                 "failure_policy": "forced_uniform", "record_path": True}},
        [],
        {
            "organism.json": "118baf0080b11697495080209d99ead82b725eb28fc334f321a67851c522f62a",
            "path.csv": "8d1d730f869b46c5fb2cb3e86bc013273242134a14397b534c21c0abdfc00bef",
            "schedule.json": "22f5e1f96b59ab2f4ac1e1588335262e4213b9eb541dfac2ef153b9df358ae0a",
            "trace.jsonl": "f76fde2013ad0b308d5fbda98755bd07577a7d4ca64dbb443f295a3c78c16aaa",
        }),
    "mean_multinomial": (
        {"model": {"target": "mean"},
         "schedule": {"epsilon": 0.1},
         "run": {"seed": 7, "m_override": 400, "t_override": 800,
                 "failure_policy": "forced_uniform", "record_path": True}},
        [],
        {
            "organism.json": "3a18ca299e3288e6dbc1ca0c104223d1c5f6150d75d9394457b9ffa44ffc87a3",
            "path.csv": "f66505bee4de56e2c5eacc6ef45a7181b0b2566d30afe708a25169bb72849a64",
            "schedule.json": "327a1f3b0c0192ead960c16aad9aec28fcf00e2ab7208c917f26d7ceddb70f8a",
            "trace.jsonl": "0b2b78fc55de69b319079bd93edb3d606d7704b25bfde8f42ea08151f1b91295",
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
            "organism.json": "73c92e56ff3fa6d5ed6664207b86359b71ef33614478ff00466f90d2e5ee8f77",
            "path.csv": "ccbb05dc6c6de015afa6abb239ed108536481c7e241779e26c26b93100eeff9d",
            "schedule.json": "67b9e4fcabd679c6c7f98e5aa129f33f6e6d4e9a1bf9cb268f5decc40d57a5b2",
            "trace.jsonl": "6409d69a9aa7b9b4b406ce3b2e419d7d15a51c7eda3a5ebf01465733c792e982",
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
        {"trace.jsonl": "81ce51b27e2fb2e95de68baf976b70f596023a63f1e8f6c9c393fb05f3675cf7",
         "trace.csv": "0c7bdcd17a0e8305547af2f021afafe35c3eca7d1bc4b6e749153cefaa090f35"}),
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
