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
                     QuadraticPerfModel, Trace, quadratic_stats_for,
                     run_evolution)
from .schedule import (DEFAULT_KNOBS, KnobTriple, ModelConstants, Schedule,
                       compute_schedule, conditioning_scale, drift_bound,
                       estimate_model_constants, knob_region_check,
                       make_drift_plan, stable_knob_example)
from .basis import basis_quality, select_bstar
from .analysis import (agnostic_projection_oracle, derangement_sign_det,
                       exen_ratio, pdg_bruteforce, pdg_closed,
                       projection_from_moments, return_and_premium)
from .frontier import FrontierProblem, efficient_frontier, kkt_oracle
from .experiments import (SCENARIOS, MeanEstimationModel, ScenarioConfig,
                          run_frontier_scaling, run_scenario)

__version__ = "0.1.0"

__all__ = [
    "BregmanGenerator", "ConditionSampler", "ConfigError", "DEFAULT_KNOBS",
    "DataColumnPanel", "EvolutionConfig", "EvolutionResult", "FAILURE_POLICIES",
    "FrontierProblem", "GenePanel", "IdentityPanel",
    "KnobTriple", "MeanEstimationModel", "ModelConstants", "ModelError",
    "MutationSet", "Organism", "QuadraticPerfModel",
    "SCENARIOS", "Sample", "Schedule", "ScenarioConfig", "Trace",
    "agnostic_projection_oracle", "basis_quality", "compute_schedule",
    "conditioning_scale", "derangement_sign_det", "drift_bound",
    "efficient_frontier", "empirical_performance", "estimate_model_constants",
    "exen_ratio", "kkt_oracle", "knob_region_check", "make_drift_plan",
    "pdg_bruteforce", "pdg_closed", "projection_from_moments",
    "quadratic_stats_for", "return_and_premium", "rng_for", "run_evolution",
    "run_frontier_scaling", "run_scenario", "select_bstar", "stable_knob_example",
]
