"""End-to-end command-line tests driven through main(argv)."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from evospace.cli import _evolve_table, main
from evospace.engine import MAX_STEPS
from evospace.model import rng_for

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


@pytest.fixture(scope="module")
def mean_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    rng = rng_for(("cli-data", 0))
    pts = rng.normal([0.45, 0.25], 0.18, (60, 2))
    pts /= max(1.0, float(np.linalg.norm(pts, axis=1).max()))
    path = root / "mean.csv"
    np.savetxt(path, pts, delimiter=",", header="x1,x2", comments="")
    return str(path)


@pytest.fixture(scope="module")
def labels_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-labels")
    rng = rng_for(("cli-data", 1))
    X = rng.normal(0.0, 0.4, (60, 2))
    X /= max(1.0, float(np.linalg.norm(X, axis=1).max()))
    y = X @ np.array([0.8, -0.5]) + 0.05 * rng.standard_normal(60)
    path = root / "labels.csv"
    np.savetxt(path, np.column_stack([X, y]), delimiter=",",
               header="x1,x2,y", comments="")
    return str(path)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


def cli_error(capsys, *argv):
    """Exit code and stderr of a run that fails before printing a result."""
    code = main(list(argv))
    return code, capsys.readouterr().err


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def mean_config(csv, **run_extra):
    run = {"m_override": 30, "t_override": 200,
           "failure_policy": "forced_uniform", "record_path": True}
    run.update(run_extra)
    return {"model": {"dataset": csv, "target": "mean"},
            "schedule": {"epsilon": 0.25}, "run": run}


class TestEvolve:
    def test_run_writes_outputs(self, tmp_path, capsys, mean_csv):
        cfg = write_cfg(tmp_path, mean_config(mean_csv))
        out = tmp_path / "out"
        code, summary = run_cli(capsys, "evolve", "--config", cfg,
                                "--out", str(out))
        assert code == 0
        assert summary["steps"] == 200
        assert summary["failed"] is False
        assert summary["failure_step"] is None
        assert isinstance(summary["in_target_set"], bool)
        assert (out / "trace.jsonl").exists()
        assert (out / "path.csv").exists()
        schedule = json.loads((out / "schedule.json").read_text())
        assert schedule["alpha"] > 0 and schedule["tol"] > 0
        organism = json.loads((out / "organism.json").read_text())
        assert len(organism["coords"]) == 2
        assert len(organism["counts"]) == 2
        assert organism["alpha"] == schedule["alpha"]

    def test_reruns_are_byte_identical(self, tmp_path, capsys, mean_csv):
        cfg = write_cfg(tmp_path, mean_config(mean_csv))
        traces, summaries = [], []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code, summary = run_cli(capsys, "evolve", "--config", cfg,
                                    "--out", str(out))
            assert code == 0
            traces.append((out / "trace.jsonl").read_bytes())
            summaries.append(summary)
        assert traces[0] == traces[1] and len(traces[0]) > 0
        assert summaries[0] == summaries[1]

    def test_seed_flag_changes_the_draws(self, tmp_path, capsys, mean_csv):
        cfg = write_cfg(tmp_path, mean_config(mean_csv))
        traces = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            code, _ = run_cli(capsys, "evolve", "--config", cfg,
                              "--seed", seed, "--out", str(out))
            assert code == 0
            traces.append((out / "trace.jsonl").read_bytes())
        assert traces[0] != traces[1]

    def test_seed_flag_equals_config_seed(self, tmp_path, capsys, labels_csv):
        # data_pairs draws its first basis and the model constants from the
        # run seed, so --seed must take effect before the run is set up
        def config(seed):
            return {"model": {"dataset": labels_csv, "target": "labels"},
                    "mutations": {"source": "data_pairs"},
                    "schedule": {"epsilon": 0.25},
                    "run": {"seed": seed, "m_override": 40, "t_override": 60,
                            "failure_policy": "forced_uniform",
                            "renewal_period": 25, "record_path": True}}

        runs = []
        for tag, seed, argv in (("flag", 0, ["--seed", "7"]),
                                ("config", 7, [])):
            cfg = write_cfg(tmp_path, config(seed), name=f"{tag}.json")
            out = tmp_path / tag
            code, summary = run_cli(capsys, "evolve", "--config", cfg,
                                    *argv, "--out", str(out))
            assert code == 0
            runs.append((summary, {p.name: p.read_bytes()
                                   for p in sorted(out.iterdir())}))
        assert sorted(runs[0][1]) == ["organism.json", "path.csv",
                                      "schedule.json", "trace.jsonl"]
        assert runs[0] == runs[1]

    def test_csv_format(self, tmp_path, capsys, mean_csv):
        cfg = write_cfg(tmp_path, mean_config(mean_csv))
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "evolve", "--config", cfg,
                          "--out", str(out), "--format", "csv")
        assert code == 0
        assert (out / "trace.csv").exists()
        assert not (out / "trace.jsonl").exists()

    def test_strict_halt_exits_3(self, tmp_path, capsys, mean_csv):
        # start exactly on the optimum with a large step knob: every mutant
        # strictly loses, so the strict policy halts mid-run
        mu = np.loadtxt(mean_csv, delimiter=",", skiprows=1).mean(axis=0)
        cfg = write_cfg(tmp_path, {
            "model": {"dataset": mean_csv, "target": "mean"},
            "schedule": {"epsilon": 0.25, "knobs": [0.02, 0.94, 0.02]},
            "run": {"f0": [float(mu[0]), float(mu[1])], "m_override": 25,
                    "t_override": 80, "failure_policy": "strict"},
        })
        code, summary = run_cli(capsys, "evolve", "--config", cfg)
        assert code == 3
        assert summary["failed"] is True
        assert summary["steps"] == summary["failure_step"] + 1

    def test_labels_target(self, tmp_path, capsys, labels_csv):
        cfg = write_cfg(tmp_path, {
            "model": {"dataset": labels_csv, "target": "labels"},
            "schedule": {"epsilon": 0.25},
            "run": {"m_override": 40, "t_override": 120,
                    "failure_policy": "forced_uniform"},
        })
        code, summary = run_cli(capsys, "evolve", "--config", cfg)
        assert code == 0
        assert summary["steps"] == 120
        # scores are relative to the least-squares optimum, which is behind
        # the start at the origin, so the initial score is nonpositive
        assert summary["initial_true_perf"] <= 0.0

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, mean_config(str(tmp_path / "nope.csv")))
        code, _ = run_cli(capsys, "evolve", "--config", cfg)
        assert code == 2

    def test_bad_config_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run_cli(capsys, "evolve", "--config", str(path))
        assert code == 2

    def test_labels_target_needs_y_column(self, tmp_path, capsys, mean_csv):
        cfg = mean_config(mean_csv)
        cfg["model"]["target"] = "labels"
        code, _ = run_cli(capsys, "evolve", "--config",
                          write_cfg(tmp_path, cfg))
        assert code == 2

    def test_unknown_mutation_source_exits_2(self, tmp_path, capsys,
                                             mean_csv):
        cfg = mean_config(mean_csv)
        cfg["mutations"] = {"source": "telepathy"}
        code, _ = run_cli(capsys, "evolve", "--config",
                          write_cfg(tmp_path, cfg))
        assert code == 2

    @pytest.mark.parametrize("target", ["mean", "labels"])
    def test_data_pairs_need_two_condition_columns(self, tmp_path, capsys,
                                                   target):
        rng = rng_for(("cli-data", 2))
        data = rng.normal(0.0, 0.3, (40, 4))
        path = tmp_path / "wide.csv"
        np.savetxt(path, data, delimiter=",", header="x1,x2,x3,y",
                   comments="")
        cfg = {"model": {"dataset": str(path), "target": target},
               "mutations": {"source": "data_pairs"},
               "run": {"m_override": 20, "t_override": 10}}
        if target == "mean":
            cfg["model"]["dim"] = 4     # all four columns are conditions
        code, err = cli_error(capsys, "evolve", "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        assert ("2 condition columns" if target == "labels"
                else "labels target") in err

    def test_explicit_mutations_need_vectors(self, tmp_path, capsys,
                                             mean_csv):
        cfg = mean_config(mean_csv)
        cfg["mutations"] = {"source": "explicit"}
        code, err = cli_error(capsys, "evolve", "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        assert "vectors" in err

    @pytest.mark.parametrize("vectors, lengths", [
        ([[1, 0], [0, 1, 0]], "[2, 3]"),      # ragged
        ([[1, 0, 0]], "[3]"),                 # wrong dimension
    ])
    def test_mutation_vectors_need_the_data_dimension(
            self, tmp_path, capsys, mean_csv, vectors, lengths):
        cfg = mean_config(mean_csv)
        cfg["mutations"] = {"source": "explicit", "vectors": vectors}
        code, err = cli_error(capsys, "evolve", "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        assert "mutations.vectors" in err
        assert "dimension 2" in err and lengths in err

    def test_f0_needs_the_data_dimension(self, tmp_path, capsys, mean_csv):
        cfg = mean_config(mean_csv, f0=[0.0, 0.0, 0.0])
        code, err = cli_error(capsys, "evolve", "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        assert "run.f0" in err
        assert "dimension 2" in err and "(3,)" in err

    @pytest.mark.parametrize("knobs", [[0.1, 0.2], "abc"])
    def test_malformed_knobs_exit_2(self, tmp_path, capsys, mean_csv, knobs):
        cfg = mean_config(mean_csv)
        cfg["schedule"]["knobs"] = knobs
        code, err = cli_error(capsys, "evolve", "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        assert "knobs must be three finite numbers" in err

    @pytest.mark.parametrize("section, key, value, shown", [
        ("schedule", "epsilon", "abc", "'abc'"),
        ("run", "m_override", "x", "'x'"),
        ("run", "f0", [[0], [0, 1]], "[[0], [0, 1]]"),
        ("mutations", "vectors", [[1, 0], ["a", 1]], "'a'"),
    ])
    def test_malformed_values_name_their_key(self, tmp_path, capsys, mean_csv,
                                             section, key, value, shown):
        cfg = mean_config(mean_csv)
        if section == "mutations":
            cfg["mutations"] = {"source": "explicit"}
        cfg.setdefault(section, {})[key] = value
        code, err = cli_error(capsys, "evolve", "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        assert f"{section}.{key}" in err and shown in err

    @pytest.mark.parametrize("section, key", [
        ("model", "targte"), ("mutations", "sorce"), ("schedule", "epsilom"),
        ("run", "t_overide")])
    def test_unknown_keys_are_named(self, tmp_path, capsys, mean_csv,
                                    section, key):
        cfg = mean_config(mean_csv)
        cfg.setdefault(section, {})[key] = 50
        code, err = cli_error(capsys, "evolve", "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        assert f"unknown config key {section}.{key}" in err
        assert "allows" in err and "Traceback" not in err

    @pytest.mark.parametrize("section, key, value", [
        ("model", "dim", "x"), ("schedule", "d_hint", "x"),
        ("model", "generator", {"kind": "mahalanobis"}),
        ("model", "generator", {"kind": "mahalanobis", "matrix": "abc"}),
        ("run", "renewal_period", "x"), ("run", "renewal_period", -3),
        ("run", "renewal_period", 0), ("run", "m_override", 10**30),
        ("schedule", "c_t", 1e308), ("schedule", "c_m", 1e308),
        ("run", "t_override", 0), ("run", "record_path", "no"),
        ("run", "t_override", 2**62), ("run", "t_override", MAX_STEPS + 1),
        ("run", "seed", 1.5), ("model", "dataset", True),
        # keys that the mean config's orthonormal source would ignore
        ("run", "renewal_period", 5), ("mutations", "vectors", [[1, 0], [0, 1]]),
        ("mutations", "det_min", 0.1), ("mutations", "norm_min", 0.3)])
    def test_out_of_range_values_name_their_key(self, tmp_path, capsys,
                                                mean_csv, section, key, value):
        cfg = mean_config(mean_csv)
        cfg.setdefault(section, {})[key] = value
        code, err = cli_error(capsys, "evolve", "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [["evolve"], ["diagnose", "schedule"]])
    def test_unknown_top_level_key_is_named(self, tmp_path, capsys, mean_csv,
                                            command):
        # a misspelt section must not run with the defaults it would replace
        cfg = mean_config(mean_csv)
        cfg["shedule"] = {"epsilon": 0.5}
        code, err = cli_error(capsys, *command, "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        assert "unknown config key shedule" in err and "allows" in err

    def test_seed_flag_with_a_non_object_run_exits_2(self, tmp_path, capsys,
                                                     mean_csv):
        cfg = mean_config(mean_csv)
        cfg["run"] = [1]
        code, err = cli_error(capsys, "evolve", "--seed", "3", "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        assert "section 'run' must be an object" in err

    def test_labels_generator_scales_the_oracle(self, tmp_path, capsys,
                                                labels_csv):
        # the empirical scores use M = 4, so the oracle's must too: same
        # start, four times the squared-Euclidean relative performance
        def initial_perf(generator):
            cfg = {"model": {"dataset": labels_csv, "target": "labels"},
                   "schedule": {"epsilon": 0.25},
                   "run": {"m_override": 40, "t_override": 5,
                           "failure_policy": "forced_uniform"}}
            if generator is not None:
                cfg["model"]["generator"] = generator
            code, summary = run_cli(capsys, "evolve", "--config",
                                    write_cfg(tmp_path, cfg))
            assert code == 0
            return summary["initial_true_perf"]

        plain = initial_perf(None)
        scaled = initial_perf({"kind": "mahalanobis", "matrix": [[4.0]]})
        assert plain < 0.0
        assert scaled == pytest.approx(4.0 * plain, rel=1e-12)

    def test_mean_target_rejects_other_generators(self, tmp_path, capsys,
                                                  mean_csv):
        cfg = mean_config(mean_csv)
        cfg["model"]["generator"] = {"kind": "mahalanobis",
                                     "matrix": [[4.0, 0.0], [0.0, 1.0]]}
        code, err = cli_error(capsys, "evolve", "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        assert "squared_euclidean" in err

    def test_labels_generator_of_the_wrong_size_names_both(self, tmp_path,
                                                           capsys, labels_csv):
        # a labels target scores one output, so its matrix must be 1 x 1
        cfg = {"model": {"dataset": labels_csv, "target": "labels",
                         "generator": {"kind": "mahalanobis",
                                       "matrix": [[4.0, 0.0], [0.0, 1.0]]}},
               "schedule": {"epsilon": 0.25},
               "run": {"m_override": 40, "t_override": 5}}
        code, err = cli_error(capsys, "evolve", "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        assert "matrix is 2 x 2" in err and "dimension 1" in err

    @pytest.mark.parametrize("command", [["evolve"], ["diagnose", "schedule"]])
    def test_dim_wider_than_the_dataset_exits_2_with_one_line(
            self, tmp_path, capsys, mean_csv, command):
        cfg = mean_config(mean_csv)
        cfg["model"]["dim"] = 5
        code, err = cli_error(capsys, *command, "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        [line] = err.splitlines()
        assert "model.dim 5 exceeds the 2 dataset columns" in line

    def test_usage_errors_exit_64(self, tmp_path, capsys):
        assert run_cli(capsys, "no-such-command")[0] == 64
        assert run_cli(capsys, "evolve")[0] == 64          # --config required
        assert run_cli(capsys, "diagnose", "everything",
                       "--config", "x.json")[0] == 64
        assert run_cli(capsys)[0] == 64                    # no subcommand


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random loads with the first draw, not with the package
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    probe = ("import sys, evospace.cli\n"
             "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, text=True,
                         capture_output=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_readme_run_config_lists_the_read_keys():
    with open(README) as fh:
        text = fh.read()
    block = text.split("### Run config")[1].split("```json")[1].split("```")[0]
    documented = json.loads(block)
    table = _evolve_table()
    assert list(documented) == list(table)
    for section, keys in table.items():
        assert sorted(documented[section]) == sorted(keys), section


@pytest.mark.parametrize("argv, flag", [
    (["diagnose", "exen", "--coords", "a,b"], "--coords"),
    (["diagnose", "exen", "--coords", "0.1,0.2,0.3"], "--coords"),
    (["frontier", "--scan", "--dim", "0"], "--dim"),
    (["frontier", "--scan", "--dim", "-2"], "--dim"),
    (["oracle", "pdg", "--dg", "4", "--z", "abc"], "--z"),
    (["oracle", "pdg", "--dg", "4", "--z", "1/0"], "--z"),
    (["frontier", "--scan", "--dim", "1"], "--dim"),
    (["oracle", "pdg", "--dg", "4", "--z", "1e400"], "--z"),
])
def test_malformed_flag_values_name_their_flag(tmp_path, capsys, mean_csv,
                                               argv, flag):
    if argv[0] == "diagnose":
        argv = argv + ["--config", write_cfg(tmp_path, mean_config(mean_csv))]
    code, err = cli_error(capsys, *argv)
    assert code == 2
    assert flag in err and "Traceback" not in err


# peak RSS bound (KB) for a 50,000-step run with --out and record_path.
# Measured on x86-64 Linux, Python 3.11, numpy 2.4: about 50 MB with the
# trace in numpy columns, 99 MB with one Python record object and one path
# array per step; a 1,000-step run peaks at about 41 MB either way.
EVOLVE_RSS_BOUND_KB = 75_000


def test_long_evolve_run_memory_is_bounded(tmp_path):
    rng = rng_for(("cli-rss", 0))
    pts = rng.normal([0.45, 0.25], 0.18, (200, 2))
    pts /= max(1.0, float(np.linalg.norm(pts, axis=1).max()))
    data = tmp_path / "mean.csv"
    np.savetxt(data, pts, delimiter=",", header="x1,x2", comments="")
    cfg = write_cfg(tmp_path, {
        "model": {"dataset": str(data), "target": "mean"},
        "schedule": {"epsilon": 0.1},
        "run": {"m_override": 20, "t_override": 50000,
                "failure_policy": "forced_uniform", "record_path": True}})
    code = ("import resource, sys\n"
            "from evospace.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(rc)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    # Linux charges a process's ru_maxrss with the peak of the process it
    # was started from, so the run starts from a small launcher, not pytest
    launcher = ("import subprocess, sys\n"
                "sys.exit(subprocess.run(sys.argv[1:]).returncode)\n")
    proc = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-c", code, "evolve",
         "--config", cfg, "--out", str(tmp_path / "out")],
        env=env, text=True, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary, rss_kb = proc.stdout.strip().splitlines()
    assert json.loads(summary)["steps"] == 50000
    assert (tmp_path / "out" / "trace.jsonl").stat().st_size > 0
    assert int(rss_kb) < EVOLVE_RSS_BOUND_KB, f"peak RSS {int(rss_kb)} KB"


def overflow_configs(mean_csv, labels_csv) -> dict:
    """Inputs whose arithmetic overflows floats: command, config, message."""
    return {
        "mutation_vectors": (["evolve"], {
            **mean_config(mean_csv),
            "mutations": {"source": "explicit",
                          "vectors": [[1e308, 0.0], [0.0, 1.0]]}},
            "the mutation vectors overflow the float range"),
        "c_t": (["evolve"], {
            "model": {"dataset": labels_csv, "target": "labels",
                      "generator": {"kind": "mahalanobis", "matrix": [[2.0]]}},
            "mutations": {"source": "data_pairs"},
            "schedule": {"epsilon": 0.25, "c_t": 1e308}},
            r"c_t \* t_exact = 1e\+308 \* .* is not finite"),
        "frontier_delta": (["frontier"], {
            "gamma": [[2.0, 0.3], [0.3, 1.0]], "delta": [1e308, -0.5],
            "n": 1.0, "alpha": 0.1, "premium": 1.0},
            "frontier problem data overflow the float range"),
        "drift_multiplier": (["experiment"], {
            "scenario": "drift", "seeds": [0], "epsilon": 0.1,
            "overrides": {"t_override": 20, "multipliers": [1e308],
                          "extended_multipliers": []}},
            r"drift multiplier 1e\+308 moves the target"),
    }


@pytest.mark.parametrize("case", ["mutation_vectors", "c_t", "frontier_delta",
                                  "drift_multiplier"])
def test_overflowing_inputs_exit_2_with_one_line(tmp_path, capsys, mean_csv,
                                                 labels_csv, case):
    # each overflow is named before numpy can warn of it
    command, cfg, message = overflow_configs(mean_csv, labels_csv)[case]
    code, err = cli_error(capsys, *command, "--config", write_cfg(tmp_path, cfg))
    assert code == 2
    [line] = err.splitlines()
    assert re.match(f"error: {message}", line), line


class TestDiagnose:
    def test_schedule_payload(self, tmp_path, capsys, mean_csv):
        cfg = write_cfg(tmp_path, mean_config(mean_csv))
        code, payload = run_cli(capsys, "diagnose", "schedule",
                                "--config", cfg)
        assert code == 0
        assert payload["alpha"] > 0 and payload["tol"] > 0
        assert payload["t_steps"] >= 1 and payload["m"] >= 1
        assert payload["drift_plan"]["paper_compliant"] is True

    def test_basis_payload(self, tmp_path, capsys, mean_csv):
        cfg = write_cfg(tmp_path, mean_config(mean_csv))
        code, payload = run_cli(capsys, "diagnose", "basis", "--config", cfg)
        assert code == 0
        quality = payload["quality"]
        assert quality["b_bar"] == pytest.approx(1.0)
        assert quality["kappa_a"] == pytest.approx(0.0)
        assert payload["bstar_indices"] == [0, 1]
        assert payload["exhaustive"] is True

    def test_exen_payload(self, tmp_path, capsys, mean_csv):
        cfg = write_cfg(tmp_path, mean_config(mean_csv))
        code, payload = run_cli(capsys, "diagnose", "exen", "--config", cfg,
                                "--coords", "0.3,0.4")
        assert code == 0
        # identity expression of a constant genome: ratio equals its norm
        assert payload["rho"] == pytest.approx(0.5, abs=1e-9)
        assert payload["var_expression"] == pytest.approx(0.0, abs=1e-12)
        assert payload["encoding_norm"] == pytest.approx(0.5)

    @pytest.mark.parametrize("coords", [None, "0,0"])
    def test_exen_of_a_zero_vector_names_coords_and_f0(self, tmp_path, capsys,
                                                       mean_csv, coords):
        # run.f0 defaults to the zero vector, whose ratio is undefined
        argv = ["diagnose", "exen", "--config",
                write_cfg(tmp_path, mean_config(mean_csv))]
        if coords:
            argv += ["--coords", coords]
        code, err = cli_error(capsys, *argv)
        assert code == 2
        assert "--coords" in err and "run.f0" in err


class TestFrontier:
    def test_scan_slopes(self, tmp_path, capsys):
        out = tmp_path / "scan"
        code, payload = run_cli(capsys, "frontier", "--scan",
                                "--out", str(out))
        assert code == 0
        assert payload["slope_generic"] == pytest.approx(1.0, abs=1e-6)
        assert payload["slope_zero_sum"] == pytest.approx(1.0, abs=1e-6)
        assert (out / "frontier_scan.json").exists()

    @pytest.mark.parametrize("dim", [2, 3, 4, 7])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_every_scan_prints_json(self, capsys, dim, seed):
        # json.loads accepts NaN and Infinity, which are not JSON
        assert main(["frontier", "--scan", "--dim", str(dim),
                     "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(
            f"--scan --dim {dim} printed {name}: {out}"))
        assert all(math.isfinite(v) for v in (payload["slope_generic"],
                                               payload["slope_zero_sum"]))

    def test_single_level_hand_instance(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "gamma": [[1.0, 0.0], [0.0, 1.0]], "delta": [1.0, -1.0],
            "n": 1.0, "alpha": 1.0, "premium": 1.0,
        })
        code, payload = run_cli(capsys, "frontier", "--config", cfg)
        assert code == 0
        root3 = 3.0 ** 0.5
        assert payload["r_high"] == pytest.approx(root3, rel=1e-12)
        assert payload["r_low"] == pytest.approx(-root3, rel=1e-12)
        assert payload["min_premium"] == pytest.approx(0.25, rel=1e-12)
        assert payload["degenerate"] is False
        for tag in ("high", "low"):
            point = payload[tag]
            assert point["premium"] == pytest.approx(1.0, rel=1e-9)
            assert sum(point["budget"]) == pytest.approx(1.0, rel=1e-9)
            assert "lambda_r" in point and "lambda_n" in point

    def test_config_missing_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"gamma": [[1.0]], "delta": [1.0]})
        assert run_cli(capsys, "frontier", "--config", cfg)[0] == 2

    @pytest.mark.parametrize("key, value, shown", [
        ("n", "x", "'x'"), ("gamma", "abc", "'abc'")])
    def test_malformed_values_name_their_key(self, tmp_path, capsys, key,
                                             value, shown):
        cfg = {"gamma": [[1.0, 0.0], [0.0, 1.0]], "delta": [1.0, -1.0],
               "n": 1.0, "alpha": 1.0, "premium": 1.0}
        cfg[key] = value
        code, err = cli_error(capsys, "frontier", "--config",
                              write_cfg(tmp_path, cfg))
        assert code == 2
        assert f"{key} must be numeric" in err and shown in err

    def test_needs_config_or_scan(self, capsys):
        assert run_cli(capsys, "frontier")[0] == 2

    @pytest.mark.parametrize("flag, value", [("--out", "out"), ("--dim", "7"),
                                             ("--seed", "3")])
    def test_scan_flags_without_scan_are_usage_errors(self, tmp_path, capsys,
                                                      flag, value):
        cfg = write_cfg(tmp_path, {"gamma": [[2.0, 0.5], [0.5, 1.0]],
                                   "delta": [1.0, -1.0], "n": 1.0,
                                   "alpha": 1.0, "premium": 1.0})
        if flag == "--out":
            value = str(tmp_path / value)
        with pytest.raises(SystemExit) as exc:
            main(["frontier", "--config", cfg, flag, value])
        assert exc.value.code == 64
        assert f"{flag} only apply with --scan" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_nonfinite_result_exits_2_naming_its_key(self, tmp_path, capsys):
        # the frontier overflows at this premium: strict JSON has no value for it
        cfg = write_cfg(tmp_path, {"gamma": [[2.0, 0.3], [0.3, 1.0]],
                                   "delta": [1.0, -0.5], "n": 1.0,
                                   "alpha": 0.1, "premium": 1e308})
        code = main(["frontier", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "frontier point at return inf is not finite" in captured.err

    def test_scan_with_config_is_a_usage_error(self, tmp_path, capsys):
        # the scan reads no config, so a missing file must not pass unnoticed
        with pytest.raises(SystemExit) as exc:
            main(["frontier", "--scan", "--config", str(tmp_path / "missing.json")])
        assert exc.value.code == 64
        assert "not allowed with" in capsys.readouterr().err


class TestOracle:
    def test_pdg_rational(self, capsys):
        code, payload = run_cli(capsys, "oracle", "pdg",
                                "--dg", "4", "--z", "1/3")
        assert code == 0
        assert payload["equal"] is True
        assert payload["closed"] == "1/9"
        assert payload["closed_float"] == pytest.approx(1.0 / 9.0)

    def test_pdg_decimal(self, capsys):
        code, payload = run_cli(capsys, "oracle", "pdg",
                                "--dg", "4", "--z", "0.25")
        assert code == 0
        assert payload["equal"] is True
        assert payload["closed"] == "13/256"

    def test_pdg_needs_args(self, capsys):
        assert run_cli(capsys, "oracle", "pdg", "--dg", "4")[0] == 2

    def test_pdg_brute_size_limit(self, capsys):
        assert run_cli(capsys, "oracle", "pdg",
                       "--dg", "9", "--z", "1/2")[0] == 2

    def test_derangement(self, capsys):
        code, payload = run_cli(capsys, "oracle", "derangement", "--j", "5")
        assert code == 0
        assert payload["det"] == 4
        assert payload["equal"] is True
        code, payload = run_cli(capsys, "oracle", "derangement", "--j", "2")
        assert payload["det"] == -1

    def test_derangement_needs_j(self, capsys):
        assert run_cli(capsys, "oracle", "derangement")[0] == 2

    def test_unknown_kind_exits_64(self, capsys):
        assert run_cli(capsys, "oracle", "entropy")[0] == 64

    @pytest.mark.parametrize("argv, flag", [
        (["pdg", "--dg", "4", "--z", "1/3", "--j", "4"], "--j"),
        (["derangement", "--j", "5", "--dg", "3"], "--dg")])
    def test_the_other_kinds_flag_is_a_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", *argv])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err


class TestExperiment:
    def test_flags_with_override_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "overrides": {"m_override": 30, "t_override": 120}})
        code, summary = run_cli(
            capsys, "experiment", "--scenario", "unsupervised_mean",
            "--seeds", "0,1", "--epsilon", "0.25", "--config", cfg)
        assert code == 0
        assert summary["scenario"] == "unsupervised_mean"
        assert summary["seeds"] == 2
        assert summary["epsilon"] == 0.25
        assert 0.0 <= summary["success_fraction"] <= 1.0

    def test_seed_count_form(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "overrides": {"m_override": 30, "t_override": 80}})
        code, summary = run_cli(
            capsys, "experiment", "--scenario", "unsupervised_mean",
            "--seeds", "3", "--epsilon", "0.25", "--config", cfg)
        assert code == 0
        assert summary["seeds"] == 3

    def test_config_file_driven_drift(self, tmp_path, capsys):
        out = tmp_path / "drift-out"
        cfg = write_cfg(tmp_path, {
            "scenario": "drift", "seeds": [0], "epsilon": 0.25,
            "overrides": {"t_override": 100, "multipliers": [1.0],
                          "extended_multipliers": []}})
        code, summary = run_cli(capsys, "experiment", "--config", cfg,
                                "--out", str(out))
        assert code == 0
        assert summary["drift_bound"] > 0.0
        assert "1.0" in summary["success_by_multiplier"]
        assert (out / "report.json").exists()

    def test_scenario_required(self, capsys):
        assert run_cli(capsys, "experiment", "--seeds", "2")[0] == 2

    @pytest.mark.parametrize("seeds", ["1,x", "ten"])
    def test_malformed_seeds_rejected(self, capsys, seeds):
        code, err = cli_error(capsys, "experiment", "--scenario",
                              "unsupervised_mean", "--seeds", seeds)
        assert code == 2
        assert "--seeds" in err

    def test_zero_seed_count_rejected(self, capsys):
        code, _ = run_cli(capsys, "experiment", "--scenario",
                          "unsupervised_mean", "--seeds", "0")
        assert code == 2

    @pytest.mark.parametrize("extra, shown", [
        ({"overrides": {"t_override": "x"}}, "overrides.t_override must be an integer"),
        # f0_distance is a constant now, so an override of it is named
        # as an unknown key
        ({"overrides": {"f0_distance": [1]}},
         "overrides.f0_distance; 'overrides' allows dwell"),
        ({"epsilon": "abc"}, "epsilon must be numeric, got 'abc'"),
        ({"seeds": "ab"}, "seeds must be a list of integers, got 'ab'"),
        ({"overides": {"t_override": 5}}, "unknown config key overides"),
        ({"overrides": {"dwell": [1]}}, "overrides.dwell must be an integer"),
    ])
    def test_malformed_config_file_names_its_key(self, tmp_path, capsys,
                                                 extra, shown):
        cfg = write_cfg(tmp_path, {"scenario": "stability", **extra})
        code, err = cli_error(capsys, "experiment", "--config", cfg)
        assert code == 2
        assert shown in err and "Traceback" not in err

    # mean_window and policy are constants now, so these name them as
    # unknown keys
    @pytest.mark.parametrize("scenario, key, value", [
        ("drift", "mean_window", [0.4, 0.8, 0.9]), ("drift", "mean_window", [0.4]),
        ("drift", "extended_seed_count", 0), ("stability", "t_override", 10**30),
        ("stability", "t_override", 2**62),
        ("unsupervised_mean", "t_override", MAX_STEPS + 1),
        ("stability", "m_override", 1e300), ("stability", "dwell", 2.5),
        ("unsupervised_mean", "t_override", 0), ("drift", "policy", 3)])
    def test_out_of_range_overrides_name_their_key(self, tmp_path, capsys,
                                                   scenario, key, value):
        cfg = write_cfg(tmp_path, {"scenario": scenario, "seeds": [0],
                                   "overrides": {key: value}})
        code, err = cli_error(capsys, "experiment", "--config", cfg)
        assert code == 2
        assert f"overrides.{key}" in err and "Traceback" not in err
