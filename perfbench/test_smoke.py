"""Smoke test of the benchmark: every workload at minimal size, both modes.

    python3 -m pytest -q perfbench/test_smoke.py

Each run must exit 0, pass its output checks, and emit exactly the metric
names and units that BENCHMARK.json declares for its mode.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace, section):
    context, result = _run("--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, context["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert context["report_sha256"]
    assert context["notes"] == []


def test_stale_seed_table_is_noted():
    sys.path.insert(0, HERE)
    from workloads import Sweep
    sweep = Sweep("supervised_linear", [5, 7], {}, tries={5: 1, 7: 4})
    report = {"per_seed": [{"seed": 5, "data_tries": 1},
                           {"seed": 7, "data_tries": 3}]}
    notes = sweep.notes(report)
    assert len(notes) == 1 and "seed 7 needed 3 dataset draws" in notes[0]


def test_missing_sources_exit_nonzero(tmp_path):
    # a directory holding only the benchmark: no result line, nonzero exit
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           WORKLOADS[0], "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
