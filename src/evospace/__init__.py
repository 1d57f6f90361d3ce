"""Evolution of linear organisms in normed spaces, with schedule theory.

The package splits into the core model (generators, gene panels, samplers,
organisms), the mutator loop, parameter-schedule derivation, basis and
theory diagnostics, efficient-frontier analytics, and seeded experiment
scenarios.  A CLI front end lives in :mod:`evospace.cli`.
"""

from .errors import ConfigError, ModelError
from .model import (BregmanGenerator, ConditionSampler, DataColumnPanel,
                    GenePanel, IdentityPanel, MutationSet, Organism, Sample,
                    empirical_performance, rng_for)
from .engine import (FAILURE_POLICIES, EvolutionConfig, EvolutionResult,
                     PerformanceModel, QuadraticPerfModel, Trace,
                     quadratic_stats_for, run_evolution)
from .schedule import (DEFAULT_KNOBS, DriftPlan, KnobTriple, ModelConstants,
                       Schedule, compute_schedule, conditioning_scale,
                       drift_bound, estimate_model_constants,
                       knob_region_check, make_drift_plan,
                       stable_knob_example)
from .basis import BasisQuality, BStarSelection, basis_quality, select_bstar
from .analysis import (ExenReport, agnostic_projection_oracle,
                       derangement_sign_det, exen_ratio, pdg_bruteforce,
                       pdg_closed, projection_from_moments,
                       return_and_premium)
from .frontier import (FrontierPoint, FrontierProblem, efficient_frontier,
                       kkt_oracle, xi)
from .experiments import (SCENARIOS, MeanEstimationModel, ScenarioConfig,
                          gen_gaussian_mixture, run_agnostic, run_drift,
                          run_frontier_scaling, run_scenario, run_stability,
                          run_supervised_linear, run_unsupervised_mean)

__version__ = "0.1.0"

__all__ = [
    "BStarSelection", "BasisQuality", "BregmanGenerator", "ConditionSampler",
    "ConfigError", "DEFAULT_KNOBS", "DataColumnPanel", "DriftPlan",
    "EvolutionConfig", "EvolutionResult", "ExenReport", "FAILURE_POLICIES",
    "FrontierPoint", "FrontierProblem", "GenePanel", "IdentityPanel",
    "KnobTriple", "MeanEstimationModel", "ModelConstants", "ModelError",
    "MutationSet", "Organism", "PerformanceModel", "QuadraticPerfModel",
    "SCENARIOS", "Sample", "Schedule", "ScenarioConfig", "Trace",
    "agnostic_projection_oracle", "basis_quality", "compute_schedule",
    "conditioning_scale", "derangement_sign_det", "drift_bound",
    "efficient_frontier", "empirical_performance", "estimate_model_constants",
    "exen_ratio", "gen_gaussian_mixture", "kkt_oracle", "knob_region_check",
    "make_drift_plan", "pdg_bruteforce", "pdg_closed", "projection_from_moments",
    "quadratic_stats_for", "return_and_premium", "rng_for", "run_agnostic",
    "run_drift", "run_evolution", "run_frontier_scaling", "run_scenario",
    "run_stability", "run_supervised_linear", "run_unsupervised_mean",
    "select_bstar", "stable_knob_example", "xi",
]
