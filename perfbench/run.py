"""evospace benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # summary of all four

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the workload's operation is repeated, with
tracing off, until ``--seconds`` have passed, and the end-to-end metrics are
reported.  With ``--trace 1`` the operation runs once untraced and once
traced, and the per-layer metrics are reported.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries the run context.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from tracer import Tracer, install
from workloads import WORKLOADS, digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "experiments.dataset.draws": "count",
    "experiments.dataset.accepted": "count",
    "experiments.dataset.accept_ratio": "ratio",
    "experiments.dataset.s": "s",
    "experiments.perceptron.calls": "count",
    "experiments.perceptron.s": "s",
    "experiments.workers": "count",
    "model.rng_for_us": "us",
    "model.draw_us": "us",
    "model.rows_per_step": "count",
    "engine.score_us": "us",
    "engine.classify_us": "us",
    "engine.oracle_us": "us",
    "engine.drift_us": "us",
    "engine.select_us": "us",
    "engine.reduce_us": "us",
    "engine.step_us": "us",
    "engine.runs": "count",
    "engine.steps": "count",
    "engine.halted_runs": "count",
    "engine.forced_steps": "count",
    "engine.bene_frac": "ratio",
    "schedule.constants.calls": "count",
    "schedule.constants.s": "s",
    "schedule.compute.calls": "count",
    "schedule.compute.s": "s",
    "io.write_calls": "count",
    "io.write_bytes": "bytes",
    "io.write_s": "s",
    "io.load_s": "s",
    "cli.self_s": "s",
    "process.cpu_s": "s",
    "process.cpu_per_wall": "ratio",
    "tracing.overhead_frac": "ratio",
    "host.calib_s": "s",
}

# layer groups for the self-time shares printed with a traced run
SHARE_GROUPS = {
    "dataset": ("experiments.dataset", "experiments.draw", "experiments.perceptron"),
    "schedule": ("schedule.constants", "schedule.compute"),
    "engine": ("engine.run", "engine.step", "engine.classify", "engine.score",
               "engine.oracle", "engine.drift"),
    "sampler_and_reduce": ("model.draw", "model.rng_for", "engine.reduce"),
    "io": ("io.write", "io.load"),
    "cli": ("cli.main",),
}


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running ``import evospace.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-c", "import evospace.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_calibration() -> float:
    """Seconds for a fixed mix of interpreter and numpy work (best of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        a = np.arange(200.0)
        for _ in range(10_000):
            a = np.sqrt(a * a + 1.0)
        best = min(best, time.perf_counter() - t0)
    return best


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_context() -> dict:
    try:
        from evospace.experiments import _thread_count
        workers = _thread_count()
    except ImportError:
        workers = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workers": workers,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "evospace_threads_env": os.environ.get("EVOSPACE_THREADS"),
    }


class Runner:
    """Runs one workload's operations and keeps the outcome of each."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []
        self.reference = None

    def run_op(self, op=None):
        """(wall seconds, process CPU seconds) of one operation."""
        self.attempted += 1
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            report = (op or self.workload.op)()
        except Exception as exc:  # a failed operation is counted, not fatal
            wall = time.perf_counter() - t0
            self.fail(f"operation raised {type(exc).__name__}: {exc}")
            return wall, time.process_time() - c0
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        problems = self.workload.check(report)
        sha = digest(report)
        if self.reference is None:
            self.reference = sha
            self.notes = self.workload.notes(report)
            for note in self.notes:
                print(f"perfbench: note: {note}", file=sys.stderr)
        elif sha != self.reference:
            problems.append(f"report digest {sha[:12]} differs from the first "
                            f"operation's {self.reference[:12]}")
        if problems:
            self.fail("; ".join(problems[:5]))
        return wall, cpu

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        if self.failed <= 3:
            print(f"perfbench: failed operation: {message}", file=sys.stderr)


def untraced(runner: Runner, seconds: float) -> dict:
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu = runner.run_op()
        walls.append(wall)
        cpus.append(cpu)
    return {"wall_s": statistics.median(walls), "walls": walls, "cpus": cpus}


def traced(runner: Runner) -> tuple:
    """Per-layer metrics from one untraced and one traced operation."""
    plain_wall, plain_cpu = runner.run_op()

    tracer = Tracer()
    install(tracer)
    op = tracer.span("op", runner.workload.op)
    try:
        # run_op compares this report with the untraced one: a wrapper that
        # changed behaviour fails the operation
        traced_wall, traced_cpu = runner.run_op(op)
    finally:
        tracer.restore()
    if tracer.missing:
        print(f"perfbench: not traced (absent): {', '.join(tracer.missing)}",
              file=sys.stderr)

    totals = tracer.totals()
    c = tracer.counters

    def count(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    steps = c["engine.steps"]

    def per_step_us(*names):
        return self_s(*names) / steps * 1e6 if steps else 0.0

    draws = count("experiments.draw")
    metrics = {
        "experiments.dataset.draws": draws,
        "experiments.dataset.accepted": c["experiments.dataset.accepted"],
        "experiments.dataset.accept_ratio":
            c["experiments.dataset.accepted"] / draws if draws else 0.0,
        "experiments.dataset.s": total("experiments.dataset"),
        "experiments.perceptron.calls": count("experiments.perceptron"),
        "experiments.perceptron.s": total("experiments.perceptron"),
        "experiments.workers": tracer.workers,
        "model.rng_for_us": per_step_us("model.rng_for"),
        "model.draw_us": per_step_us("model.draw"),
        "model.rows_per_step":
            c["model.rows"] / c["model.sampler_draws"] if c["model.sampler_draws"] else 0.0,
        "engine.score_us": per_step_us("engine.score"),
        "engine.classify_us": per_step_us("engine.classify"),
        "engine.oracle_us": per_step_us("engine.oracle"),
        "engine.drift_us": per_step_us("engine.drift"),
        "engine.select_us": per_step_us("engine.step"),
        "engine.reduce_us": per_step_us("engine.reduce"),
        "engine.step_us": total("engine.step") / steps * 1e6 if steps else 0.0,
        "engine.runs": c["engine.runs"],
        "engine.steps": steps,
        "engine.halted_runs": c["engine.halted_runs"],
        "engine.forced_steps": c["engine.forced_steps"],
        "engine.bene_frac": c["engine.bene_steps"] / steps if steps else 0.0,
        "schedule.constants.calls": count("schedule.constants"),
        "schedule.constants.s": total("schedule.constants"),
        "schedule.compute.calls": count("schedule.compute"),
        "schedule.compute.s": total("schedule.compute"),
        "io.write_calls": c["io.write_calls"],
        "io.write_bytes": c["io.write_bytes"],
        "io.write_s": total("io.write"),
        "io.load_s": total("io.load"),
        "cli.self_s": self_s("cli.main"),
        "process.cpu_s": plain_cpu,
        "process.cpu_per_wall": plain_cpu / plain_wall,
        "tracing.overhead_frac": traced_wall / plain_wall - 1.0,
    }
    # shares of the traced operation's process CPU time; "other" is what no
    # span covers (pool bookkeeping, report assembly, the tracer itself)
    shares = {group: self_s(*names) / traced_cpu for group, names in SHARE_GROUPS.items()}
    shares["other"] = 1.0 - sum(shares.values())
    shares = {group: round(value, 4) for group, value in shares.items()}
    info = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
            "self_time_shares": shares, "not_traced": tracer.missing}
    return metrics, info


def run_one(args) -> int:
    calib = host_calibration()
    context = run_context()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        runner = Runner(workload)
        context.update(workload=args.workload, seed=args.seed, trace=args.trace,
                       inputs=workload.describe(), **{"host.calib_s": calib})
        if args.trace:
            values, info = traced(runner)
            values["host.calib_s"] = calib
            metrics = {k: _metric(values[k], unit) for k, unit in PER_LAYER.items()}
            context.update(info)
        else:
            setup_s = measure_setup()
            result = untraced(runner, args.seconds)
            values = {"wall_s": result["wall_s"], "setup_s": setup_s,
                      "peak_rss_mb": peak_rss_mb()}
            metrics = {k: _metric(values[k], unit) for k, unit in END_TO_END.items()}
            context["op_walls_s"] = result["walls"]
            context["op_cpu_s"] = result["cpus"]
    context["report_sha256"] = runner.reference
    context["failed_frac"] = runner.failed / runner.attempted
    context["problems"] = runner.problems[:10]
    context["notes"] = runner.notes[:10]
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one summary line per workload."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}, no result")
            ok = False
            continue
        result = json.loads(lines[-1])
        fields = [f"{k}={m['value']:.4g} {m['unit']}"
                  for k, m in result["metrics"].items()]
        fields.append(f"failed_frac={result['failed'] / result['attempted']:g} "
                      f"({result['failed']}/{result['attempted']} operations)")
        print(f"{name:17s} " + "  ".join(fields)
              + ("" if result["correct"] else "  OUTPUT CHECKS FAILED"))
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "evospace", "__init__.py")):
        print(f"perfbench: no evospace sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all'")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
