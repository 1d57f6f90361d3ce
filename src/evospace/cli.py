"""Command-line front end: runs, experiments, diagnostics, and oracles.

Exit codes: 0 on success, 2 on configuration or model errors, 3 when a
strict-policy run halts on mutation-set failure, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from .analysis import derangement_sign_det, exen_ratio, pdg_bruteforce, pdg_closed
from .basis import basis_quality, select_bstar
from .engine import FAILURE_POLICIES, MAX_STEPS
from .errors import ConfigError, ModelError
from .experiments import (SCENARIOS, MeanEstimationModel, ScenarioConfig,
                          labels_problem, run_frontier_scaling, run_scenario,
                          run_seed)
from .frontier import FrontierProblem, efficient_frontier, kkt_oracle
from .io import (ensure_dir, json_text, load_config, load_dataset_csv,
                 read_config, write_json_report, write_path_csv,
                 write_trace_csv, write_trace_jsonl)
from .model import BregmanGenerator, ConditionSampler, IdentityPanel, MutationSet
from .schedule import (DEFAULT_KNOBS, KnobTriple, compute_schedule,
                       estimate_model_constants, make_drift_plan)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAILED_RUN = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # usage problems (unknown flags/subcommands, bad literals) exit 64
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(obj) -> None:
    print(json_text(obj))


def _evolve_table(dim=None) -> dict:
    """The `evolve`/`diagnose` config, whose vectors and f0 have the data's ``dim``."""
    return {
        "model": {
            "dataset": ("str", ...),
            "target": (("mean", "labels"), "mean"),
            "generator": (("squared_euclidean", {"kind": (("mahalanobis",), ...),
                                                 "matrix": ("matrix", ...)}), None),
            "dim": ("int", None, ">= 1"),
        },
        "mutations": {
            "source": (("orthonormal", "explicit", "data_pairs"), "orthonormal"),
            "vectors": ("matrix", None, dim),
            "det_min": ("number", 0.05, ">= 0"),
            "norm_min": ("number", 0.2, ">= 0"),
        },
        "schedule": {
            "epsilon": ("number", 0.1),
            "knobs": ("knobs", None),
            "c_t": ("number", 1.0, "> 0"),
            "c_m": ("number", 1.0, "> 0"),
            "m_cap": ("int", 50000, ">= 1"),
            "d_hint": ("int", None, ">= 1"),
        },
        "run": {
            "seed": ("int", 0),
            "f0": ("vector", None, dim),
            "m_override": ("int", None, ">= 1"),
            "t_override": ("int", None, f">= 1, <= {MAX_STEPS}"),
            "failure_policy": (FAILURE_POLICIES, "strict"),
            "renewal_period": ("int", None, ">= 1"),
            "record_path": ("bool", False),
        },
    }


class _RunSetup:
    """Everything `evolve` and the diagnostics need, built from one config."""

    def __init__(self, raw: dict, seed=None):
        # the model section locates the data, which fixes the dimension
        model = read_config(raw.get("model", {}), _evolve_table()["model"], "model")
        X, Y = load_dataset_csv(model["dataset"], dim_x=model["dim"])
        self.dim = X.shape[1]
        cfg = read_config(raw, _evolve_table(self.dim))
        mut_cfg, sched_cfg, self.run_cfg = cfg["mutations"], cfg["schedule"], cfg["run"]
        spec = model["generator"]
        self.gen = BregmanGenerator.mahalanobis(spec["matrix"]) \
            if isinstance(spec, dict) else BregmanGenerator.squared_euclidean()
        self.seed = self.run_cfg["seed"] if seed is None else seed
        source = mut_cfg["source"]
        # keys that only one mutation source reads
        for section, key, needs in (("mutations", "vectors", "explicit"),
                                    ("mutations", "det_min", "data_pairs"),
                                    ("mutations", "norm_min", "data_pairs"),
                                    ("run", "renewal_period", "data_pairs")):
            if source != needs and raw.get(section, {}).get(key) is not None:
                raise ConfigError(f"{section}.{key} is used only with "
                                  f"mutations.source {needs!r}, got {source!r}")
        self.renewal_fn = None

        if model["target"] == "mean":
            if self.gen.kind != "squared_euclidean":
                raise ConfigError("the mean target scores squared Euclidean "
                                  "distance; model.generator must be "
                                  "squared_euclidean")
            if source == "data_pairs":
                raise ConfigError("data_pairs mutations need a labels target")
            self.panel = IdentityPanel(self.dim)
            self.sampler = ConditionSampler.empirical(X, seed=self.seed)
            self.t_coords = X.mean(axis=0)
            self.model = MeanEstimationModel(self.sampler, self.t_coords)
        else:
            if Y is None:
                raise ConfigError("labels target needs a y column in the CSV")
            if Y.shape[1] != 1:
                raise ConfigError("labels target needs exactly one y column")
            pairs = (mut_cfg["det_min"], mut_cfg["norm_min"]) \
                if source == "data_pairs" else None
            problem = labels_problem(X, Y[:, 0], self.seed, self.gen, pairs)
            self.panel, self.sampler = problem.panel, problem.sampler
            self.model, self.t_coords = problem.model, problem.w_star
            self.renewal_fn, self.mutations = problem.renew, problem.first_basis

        if source == "orthonormal":
            self.mutations = MutationSet.orthonormal(self.dim)
        elif source == "explicit":
            if mut_cfg["vectors"] is None:
                raise ConfigError("explicit mutations need mutations.vectors")
            self.mutations = MutationSet(np.column_stack(list(mut_cfg["vectors"])))

        self.epsilon = sched_cfg["epsilon"]
        self.knobs = KnobTriple(*(sched_cfg["knobs"] or DEFAULT_KNOBS))
        self.f0 = np.zeros(self.dim) if self.run_cfg["f0"] is None else self.run_cfg["f0"]
        self.constants = estimate_model_constants(
            self.panel, self.mutations, self.sampler, self.gen)
        self.schedule = compute_schedule(
            self.epsilon, self.knobs, self.constants,
            horizon=sched_cfg["d_hint"], f0=self.f0, t_coords=self.t_coords,
            c_t=sched_cfg["c_t"], c_m=sched_cfg["c_m"], m_cap=sched_cfg["m_cap"])


def _cmd_evolve(args) -> int:
    setup = _RunSetup(load_config(args.config), seed=args.seed)
    rc = setup.run_cfg
    period = rc["renewal_period"]
    result, config = run_seed(
        setup.model, setup.mutations, setup.schedule, setup.seed,
        setup.epsilon, m_override=rc["m_override"],
        t_override=rc["t_override"], f0=setup.f0,
        failure_policy=rc["failure_policy"],
        renewal=(period, setup.renewal_fn if period else None),
        record_path=rc["record_path"])

    out = ensure_dir(args.out) if args.out else None
    if out:
        if args.format == "csv":
            write_trace_csv(os.path.join(out, "trace.csv"), result.trace)
        else:
            write_trace_jsonl(os.path.join(out, "trace.jsonl"), result.trace)
        if result.path is not None:
            write_path_csv(os.path.join(out, "path.csv"), result.path)
        write_json_report(os.path.join(out, "schedule.json"),
                          setup.schedule.to_dict())
        write_json_report(os.path.join(out, "organism.json"), {
            "coords": [float(v) for v in result.organism.coords],
            "counts": [int(v) for v in result.organism.counts],
            "base": [float(v) for v in result.organism.base],
            "alpha": result.organism.alpha,
        })
    _emit({
        "steps": len(result.trace), "failed": result.failed,
        "failure_step": result.failure_step,
        "forced_steps": result.forced_steps,
        "initial_true_perf": result.initial_true_perf,
        "final_true_perf": result.final_true_perf,
        "in_target_set": bool(result.final_true_perf >= -setup.epsilon),
    })
    if result.failed and config.failure_policy == "strict":
        return EXIT_FAILED_RUN
    return EXIT_OK


def _parse_seeds(text: str) -> list:
    try:
        if "," in text:
            return [int(tok) for tok in text.split(",") if tok.strip() != ""]
        count = int(text)
    except ValueError:
        raise ConfigError(f"--seeds must be a count or a comma list of "
                          f"integers, got {text!r}")
    if count <= 0:
        raise ConfigError("--seeds as a count must be positive")
    return list(range(count))


_EXPERIMENT = {"scenario": (SCENARIOS, None), "seeds": ("ints", None),
               "epsilon": ("number", 0.1), "overrides": ("object", {})}


def _cmd_experiment(args) -> int:
    file_cfg = read_config(load_config(args.config) if args.config else {}, _EXPERIMENT)
    scenario = args.scenario or file_cfg["scenario"]
    if not scenario:
        raise ConfigError("a scenario is required (--scenario or config)")
    seeds = _parse_seeds(args.seeds) if args.seeds else file_cfg["seeds"]
    if seeds is None:
        seeds = list(range(10))
    epsilon = file_cfg["epsilon"] if args.epsilon is None else args.epsilon
    cfg = ScenarioConfig(scenario=scenario, seeds=seeds, epsilon=epsilon,
                         overrides=file_cfg["overrides"], out_dir=args.out)
    report = run_scenario(cfg)
    summary = {"scenario": scenario, "seeds": len(cfg.seeds),
               "epsilon": cfg.epsilon}
    for key in ("success_fraction", "monotonic_fraction", "drift_bound"):
        if key in report:
            summary[key] = report[key]
    if "stable_arm" in report:
        summary["stable_dwell_fraction"] = report["stable_arm"]["dwell_fraction"]
        summary["default_dwell_fraction"] = \
            report["default_arm"]["dwell_fraction"]
    if "arms" in report:
        summary["success_by_multiplier"] = {
            str(arm["multiplier"]): arm["success_fraction"]
            for arm in report["arms"]}
    _emit(summary)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    setup = _RunSetup(load_config(args.config))
    if args.what == "basis":
        quality = basis_quality(setup.mutations.vectors)
        selection = select_bstar(setup.mutations)
        _emit({"quality": vars(quality),
               "bstar_indices": [int(i) for i in selection.indices],
               "exhaustive": selection.exhaustive})
        return EXIT_OK
    if args.what == "exen":
        try:
            coords = np.array([float(v) for v in args.coords.split(",")]) \
                if args.coords else setup.f0
        except ValueError:
            coords = None
        if coords is None or coords.shape != (setup.dim,) or not np.isfinite(coords).all():
            raise ConfigError(f"--coords must be {setup.dim} comma-separated "
                              f"finite numbers, got {args.coords!r}")
        if not coords.any():
            raise ConfigError("the expression ratio of a zero vector is undefined: "
                              "pass nonzero --coords or set a nonzero run.f0")
        rep = exen_ratio(coords, setup.panel, setup.sampler)
        _emit(vars(rep))
        return EXIT_OK
    payload = setup.schedule.to_dict()
    payload["drift_plan"] = make_drift_plan(setup.schedule)
    _emit(payload)
    return EXIT_OK


_FRONTIER = {"gamma": ("matrix", ...), "delta": ("vector", ...),
             "n": ("number", ...), "alpha": ("number", ...),
             "premium": ("number", ...)}


def _cmd_frontier(args) -> int:
    if args.scan:
        if args.dim is not None and args.dim < 2:
            raise ConfigError(f"--dim must be >= 2 (a zero-sum residual "
                              f"needs two dimensions), got {args.dim}")
        report = run_frontier_scaling(seed=args.seed or 0, dim=args.dim or 4)
        if args.out:
            write_json_report(os.path.join(ensure_dir(args.out),
                                           "frontier_scan.json"), report)
        _emit({"slope_generic": report["generic"]["slope_max_abs"],
               "slope_zero_sum": report["zero_sum"]["slope_max_abs"],
               "eps_list": report["eps_list"]})
        return EXIT_OK
    if not args.config:
        raise ConfigError("frontier needs --config or --scan")
    unread = [f"--{k}" for k in ("out", "dim", "seed") if getattr(args, k) is not None]
    if unread:
        args.usage_error(f"{', '.join(unread)} only apply with --scan")
    cfg = read_config(load_config(args.config), _FRONTIER)
    problem = FrontierProblem(cfg["gamma"], cfg["delta"], n=cfg["n"],
                              alpha=cfg["alpha"])
    premium = cfg["premium"]
    hi, lo = efficient_frontier(problem, premium)
    out = {"r_high": hi.r, "r_low": lo.r, "premium": premium,
           "min_premium": problem.min_premium,
           "degenerate": problem.is_degenerate}
    for tag, point in (("high", hi), ("low", lo)):
        kkt = kkt_oracle(problem, point.r)
        out[tag] = {"r": point.r, "premium": kkt.premium,
                    "lambda_r": kkt.lambda_r, "lambda_n": kkt.lambda_n,
                    "budget": [float(v) for v in kkt.b]}
    _emit(out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.kind == "pdg":
        if args.dg is None or args.z is None:
            raise ConfigError("oracle pdg needs --dg and --z")
        try:
            z = Fraction(args.z)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"--z must be a fraction such as 1/3 or 0.25, "
                              f"got {args.z!r}") from None
        closed = pdg_closed(args.dg, z)
        brute = pdg_bruteforce(args.dg, z)
        try:
            closed_float = float(closed)
        except OverflowError:
            raise ConfigError(f"--z {args.z} puts the closed form beyond the "
                              f"float range") from None
        _emit({"dg": args.dg, "z": str(z), "closed": str(closed),
               "bruteforce": str(brute), "closed_float": closed_float,
               "equal": closed == brute})
        return EXIT_OK
    if args.j is None:
        raise ConfigError("oracle derangement needs --j")
    value = derangement_sign_det(args.j)
    expected = (-1) ** (args.j - 1) * (args.j - 1)
    _emit({"j": args.j, "det": value, "closed_form": expected,
           "equal": value == expected})
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="evospace",
                     description="evolution runs, diagnostics, and oracles")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_evolve = sub.add_parser("evolve", help="single run from a JSON config")
    p_evolve.add_argument("--config", required=True)
    p_evolve.add_argument("--seed", type=int, default=None)
    p_evolve.add_argument("--out", default=None)
    p_evolve.add_argument("--format", choices=("json", "csv"), default="json")
    p_evolve.set_defaults(fn=_cmd_evolve)

    p_exp = sub.add_parser("experiment", help="seeded scenario sweep")
    p_exp.add_argument("--scenario", choices=SCENARIOS, default=None)
    p_exp.add_argument("--config", default=None)
    p_exp.add_argument("--seeds", default=None,
                       help="count (e.g. 100) or comma list (e.g. 0,3,7)")
    p_exp.add_argument("--epsilon", type=float, default=None)
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(fn=_cmd_experiment)

    p_diag = sub.add_parser("diagnose", help="basis/exen/schedule diagnostics")
    p_diag.add_argument("what", choices=("basis", "exen", "schedule"))
    p_diag.add_argument("--config", required=True)
    p_diag.add_argument("--coords", default=None)
    p_diag.set_defaults(fn=_cmd_diagnose)

    p_front = sub.add_parser("frontier", help="efficient-frontier analytics")
    source = p_front.add_mutually_exclusive_group()
    source.add_argument("--config", default=None)
    source.add_argument("--scan", action="store_true",
                        help="accuracy-scaling sweep instead of one level")
    p_front.add_argument("--seed", type=int, default=None, help="with --scan; default 0")
    p_front.add_argument("--dim", type=int, default=None, help="with --scan; default 4")
    p_front.add_argument("--out", default=None, help="with --scan")
    p_front.set_defaults(fn=_cmd_frontier, usage_error=p_front.error)

    p_oracle = sub.add_parser("oracle", help="closed-form combinatorial checks")
    kinds = p_oracle.add_subparsers(dest="kind", required=True)
    p_pdg = kinds.add_parser("pdg")
    p_pdg.add_argument("--dg", type=int, default=None)
    p_pdg.add_argument("--z", default=None)
    kinds.add_parser("derangement").add_argument("--j", type=int, default=None)
    p_oracle.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (ConfigError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
