"""Acceptance gates: one test per criterion, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -s` to see every line; without ``-s``
the lines still appear for failing criteria in the captured output.  Exact
clauses use independent oracles (fractions, permutation enumeration, KKT
residuals); statistical clauses use frozen seed lists and thresholds.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from evospace import (BregmanGenerator, ConditionSampler, DataColumnPanel,
                      FrontierProblem, IdentityPanel, MutationSet,
                      agnostic_projection_oracle, basis_quality,
                      derangement_sign_det, efficient_frontier,
                      empirical_performance, kkt_oracle, pdg_bruteforce,
                      pdg_closed, return_and_premium, rng_for, select_bstar)
from evospace.errors import ModelError
from evospace.experiments import (ScenarioConfig, run_frontier_scaling,
                                  run_scenario)
from evospace.model import Sample
from evospace.schedule import (DEFAULT_KNOBS, KnobTriple, conditioning_scale,
                               estimate_model_constants, knob_region_check,
                               stable_knob_example)

SEEDS_100 = list(range(100))


def _line(n: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {n}: {status} - {detail} "
          f"[{time.perf_counter() - t0:.1f}s]")
    assert ok, f"criterion {n}: {detail}"


# --------------------------------------------------------------------------
# shared statistical runs (materialized only by the criteria that need them)


@pytest.fixture(scope="module")
def unsup_report():
    return run_scenario(
        ScenarioConfig("unsupervised_mean", seeds=SEEDS_100, epsilon=0.1))


@pytest.fixture(scope="module")
def agnostic_report():
    return run_scenario(
        ScenarioConfig("agnostic", seeds=SEEDS_100, epsilon=0.1))


@pytest.fixture(scope="module")
def supervised_report():
    return run_scenario(
        ScenarioConfig("supervised_linear", seeds=SEEDS_100, epsilon=0.1))


@pytest.fixture(scope="module")
def stability_report():
    return run_scenario(
        ScenarioConfig("stability", seeds=SEEDS_100, epsilon=0.1))


@pytest.fixture(scope="module")
def drift_report():
    # 1x and 10x the admissible bound on the full seed set, plus reduced
    # far-out arms bracketing where convergence actually degrades
    return run_scenario(ScenarioConfig(
        "drift", seeds=SEEDS_100, epsilon=0.1,
        overrides={"multipliers": (1.0, 10.0),
                   "extended_multipliers": (1e5, 2.5e5),
                   "extended_seed_count": 10}))


# --------------------------------------------------------------------------
# exact clauses


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _derangement_enumeration(j: int) -> int:
    return sum(_perm_sign(p) for p in itertools.permutations(range(j))
               if all(p[i] != i for i in range(j)))


def test_criterion_01_combinatorial_oracles():
    t0 = time.perf_counter()
    rng = rng_for(("accept", 1))
    checked = 0
    for dg in range(1, 8):
        for _ in range(20):
            z = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 29)))
            assert pdg_closed(dg, z) == pdg_bruteforce(dg, z)
            checked += 1
    for j in range(1, 9):
        closed = (-1) ** (j - 1) * (j - 1)
        assert derangement_sign_det(j) == closed
        assert _derangement_enumeration(j) == closed
    _line(1, True, f"pdg closed==bruteforce on {checked} rational points "
                   "(dG 1..7); signed derangement determinant == enumeration "
                   "== (-1)^(j-1)(j-1) for j 1..8", t0)


def test_criterion_02_gain_decomposition():
    t0 = time.perf_counter()
    kinds = {
        "squared_euclidean":
            (BregmanGenerator.squared_euclidean(), IdentityPanel(2), 2),
        "mahalanobis":
            (BregmanGenerator.mahalanobis(np.array([[2.0, 0.3], [0.3, 1.0]])),
             IdentityPanel(2), 2),
        "quartic":
            (BregmanGenerator.custom(
                value=lambda u: float(np.sum(u ** 4 + u ** 2)),
                gradient=lambda u: 4.0 * u ** 3 + 2.0 * u,
                h_min=2.0, h_max=50.0), DataColumnPanel(2), 1),
    }
    worst = 0.0
    for kind in sorted(kinds):
        gen, panel, out_dim = kinds[kind]
        rng = rng_for(("accept", 2, kind))
        for _ in range(1000):
            B = MutationSet(rng.uniform(-0.5, 0.5, (2, 3)))
            f = rng.uniform(-0.5, 0.5, 2)
            alpha = float(rng.uniform(0.01, 0.4))
            pts = rng.uniform(-1.0, 1.0, (10, 2))
            sample = Sample(points=pts, weights=np.full(10, 0.1), size=10)
            targets = rng.uniform(-0.8, 0.8, (10, out_dim))
            i = int(rng.integers(0, 3))
            pol = 1 if rng.uniform() < 0.5 else -1
            r, p = return_and_premium(f, i, pol, alpha, B, panel, sample,
                                      targets, gen)
            mutant = f + alpha * pol * B.column(i)
            gain = empirical_performance(mutant, targets, panel, sample, gen) \
                - empirical_performance(f, targets, panel, sample, gen)
            gap = abs(gain - alpha * (r - p)) / max(1e-12, abs(gain))
            worst = max(worst, gap)
            assert gap <= 1e-9 or abs(gain) < 1e-12
    _line(2, True, "gain == alpha*(return - premium) on 3x1000 instances; "
                   f"worst relative gap {worst:.2e}", t0)


def _stationarity(problem, point) -> float:
    res = problem.alpha * (problem.gamma @ point.b) \
        - point.lambda_r * (problem.gamma @ problem.delta) \
        - point.lambda_n * np.ones(problem.delta.shape[0])
    return float(np.linalg.norm(res))


def test_criterion_03_frontier_matches_kkt():
    t0 = time.perf_counter()
    rng = rng_for(("accept", 3))
    counts = {"generic": 0, "zero_sum": 0, "degenerate": 0}
    worst = 0.0
    while sum(counts.values()) < 100:
        d = int(rng.integers(2, 7))
        R = rng.standard_normal((d, d))
        G = R @ R.T + 0.5 * np.eye(d)
        n = float(rng.uniform(0.2, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
        alpha = float(rng.uniform(0.05, 1.5))
        branch = ("generic", "zero_sum", "degenerate")[
            sum(counts.values()) % 3]
        if branch == "generic":
            delta = rng.standard_normal(d)
        elif branch == "zero_sum":
            delta = rng.standard_normal(d)
            delta = delta - delta.mean()
        else:
            delta = float(rng.uniform(0.3, 2.0)) * \
                np.linalg.solve(G, np.ones(d))
        problem = FrontierProblem(G, delta, n, alpha)
        if branch != "degenerate" and problem.is_degenerate:
            continue
        level = problem.min_premium * float(rng.uniform(1.2, 5.0))
        hi, lo = efficient_frontier(problem, level)
        for point in (hi, lo):
            kkt = kkt_oracle(problem, point.r)
            gap = abs(kkt.premium - point.premium) / max(1.0, level)
            worst = max(worst, gap)
            assert gap <= 1e-8
            assert float(np.sum(kkt.b)) == pytest.approx(n, rel=1e-8)
            assert _stationarity(problem, kkt) <= 1e-8 * max(
                1.0, abs(kkt.lambda_r), abs(kkt.lambda_n))
        if branch == "degenerate":
            assert hi.r == pytest.approx(lo.r, abs=1e-12)
            assert hi.lambda_r == pytest.approx(0.0, abs=1e-10)
        counts[branch] += 1
    _line(3, True, f"closed-form extremes reproduce the KKT oracle on "
                   f"{counts['generic']} generic / {counts['zero_sum']} "
                   f"zero-sum / {counts['degenerate']} degenerate instances "
                   f"(dims 2..6); worst premium gap {worst:.2e}", t0)


def test_criterion_04_projection_pythagoras():
    t0 = time.perf_counter()
    rng = rng_for(("accept", 4))
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(3, 7))
        k = int(rng.integers(1, d))
        R = rng.standard_normal((d, d))
        G = R @ R.T + 0.3 * np.eye(d)
        S = rng.standard_normal((d, k))
        t = rng.standard_normal(d)
        t_in, opt = agnostic_projection_oracle(t, S, G)
        resid0 = t_in - t
        assert opt == pytest.approx(-float(resid0 @ G @ resid0), rel=1e-10)
        for _ in range(10):
            f = S @ rng.standard_normal(k)
            q_tot = float((f - t) @ G @ (f - t))
            q_in = float((f - t_in) @ G @ (f - t_in))
            q_out = float((t_in - t) @ G @ (t_in - t))
            gap = abs(q_tot - q_in - q_out) / max(1.0, q_tot)
            worst = max(worst, gap)
            assert gap <= 1e-8
    _line(4, True, "orthogonal split of the span distance holds on 100 "
                   f"instances x 10 points; worst residual {worst:.2e}", t0)


def test_criterion_05_basis_quality_and_volume_bound():
    t0 = time.perf_counter()
    for d in range(2, 7):
        q = basis_quality(np.eye(d))
        assert q.b_h == 1.0 and q.b_bar == 1.0

    rng = rng_for(("accept", 5))
    positive = volume_ok = total = 0
    worst_gap = 0.0
    worst_case = None
    while total < 1000:
        d = int(rng.integers(2, 6))
        extra = int(rng.integers(0, 4))
        B = rng.standard_normal((d, d + extra))
        try:
            selection = select_bstar(MutationSet(B))
        except ModelError:
            continue
        total += 1
        q = basis_quality(B[:, list(selection.indices)])
        if q.b_h > 0.0:
            positive += 1
        if q.tilde_volume >= q.b_h - 1e-12:
            volume_ok += 1
        elif q.b_h - q.tilde_volume > worst_gap:
            worst_gap = q.b_h - q.tilde_volume
            worst_case = (d, d + extra, q.tilde_volume, q.b_h)

    heuristic_ok = 0
    rng2 = rng_for(("accept", 5, "heuristic"))
    for _ in range(100):
        B = rng2.standard_normal((3, 7))
        ex = select_bstar(MutationSet(B))
        he = select_bstar(MutationSet(B), force_heuristic=True, restarts=20)
        if ex.quality.b_bar >= he.quality.b_bar - 1e-12:
            heuristic_ok += 1

    ok = positive == 1000 and volume_ok == 1000 and heuristic_ok == 100
    detail = (f"orthonormal quality exactly 1 (dims 2..6); positivity "
              f"{positive}/1000; volume>=quality {volume_ok}/1000; "
              f"exhaustive>=heuristic {heuristic_ok}/100")
    if volume_ok < 1000:
        detail += (f"; worst violation: dims {worst_case[0]}x{worst_case[1]}"
                   f" volume {worst_case[2]:.4f} < quality {worst_case[3]:.4f}"
                   " (the claimed Gram-volume lower bound is not a theorem "
                   "for three or more vectors; see notes ledger)")
    _line(5, ok, detail, t0)


def _region_recheck(zt: float, za: float, zl: float) -> bool:
    if min(zt, za, zl) <= 0.0:
        return False
    if zl - zt * za <= 0.0:
        return False
    return za * za - za * (1.0 - zt) + zl <= 0.0


def _stable_recheck(zt, za, zl, dwell, u, h_min, h_max) -> bool:
    if min(zt, za, zl) <= 0.0 or zl - zt * za <= 0.0:
        return False
    a = dwell / u
    b = 2.0 * h_max / h_min
    return (a + b) * za * za - za * (1.0 - b * zt) + b * zl <= 0.0


def test_criterion_06_knob_regions():
    t0 = time.perf_counter()
    assert knob_region_check(DEFAULT_KNOBS)
    data = np.array([[0.3, 0.1], [0.2, 0.4], [-0.1, 0.2], [0.5, -0.3]])
    constants = estimate_model_constants(
        IdentityPanel(2), MutationSet.orthonormal(2),
        ConditionSampler.empirical(data, seed=0),
        BregmanGenerator.squared_euclidean())
    u = conditioning_scale(constants, 1)
    h_min, h_max = constants.h_min, constants.h_max
    dwell = 50
    example = stable_knob_example(dwell, u, h_min, h_max)
    assert knob_region_check(example, stable=True, dwell=dwell, u=u,
                             h_min=h_min, h_max=h_max)

    rng = rng_for(("accept", 6))
    accepted = stable_accepted = 0
    for _ in range(10000):
        zt, za, zl = (float(v) for v in rng.uniform(1e-4, 1.2, 3))
        knobs = KnobTriple(z_tau=zt, z_alpha=za, z_tol=zl)
        got = knob_region_check(knobs)
        assert got == _region_recheck(zt, za, zl)
        accepted += got
        got_stable = knob_region_check(knobs, stable=True, dwell=dwell, u=u,
                                       h_min=h_min, h_max=h_max)
        assert got_stable == _stable_recheck(zt, za, zl, dwell, u,
                                             h_min, h_max)
        stable_accepted += got_stable
        if got_stable:
            assert got, "stable region must imply the standard region"
    _line(6, True, f"default triple accepted; dwell-aware example accepted; "
                   f"10000 random triples match the straight-line recheck "
                   f"({accepted} standard / {stable_accepted} stable, subset "
                   "holds)", t0)


# --------------------------------------------------------------------------
# statistical clauses


def test_criterion_07_convergence(unsup_report):
    t0 = time.perf_counter()
    frac = unsup_report["success_fraction"]
    ok = frac >= 0.95
    _line(7, ok, f"final true performance >= -0.1 for {frac:.0%} of 100 "
                 f"seeds (threshold 95%; T={unsup_report['t_steps']} via "
                 f"c_T=0.02, m={unsup_report['m']})", t0)


def test_criterion_08_far_regime_monotonicity(unsup_report):
    t0 = time.perf_counter()
    steps = unsup_report["far_bene_steps"]
    frac = unsup_report["monotonic_fraction"]
    ok = steps > 0 and frac is not None and frac >= 0.95
    _line(8, ok, f"beneficial far-regime steps gained >= tol - alpha*tau in "
                 f"{frac:.1%} of {steps} pooled steps (threshold 95%, margin "
                 f"{unsup_report['margin']:.3e})", t0)


def test_criterion_09_agnostic_convergence(agnostic_report,
                                           supervised_report):
    t0 = time.perf_counter()
    line_frac = agnostic_report["success_fraction"]
    sup_frac = supervised_report["success_fraction"]
    ok = line_frac >= 0.90 and sup_frac >= 0.90
    _line(9, ok, "within epsilon of the projection optimum for "
                 f"{line_frac:.0%} (off-span line) and {sup_frac:.0%} "
                 "(supervised labels) of 100 seeds (threshold 90%)", t0)


def test_criterion_10_stability(stability_report):
    t0 = time.perf_counter()
    stable = stability_report["stable_arm"]
    default = stability_report["default_arm"]
    ok = stable["dwell_fraction"] >= 0.90
    _line(10, ok, f"dwell >= {stability_report['dwell']} after first hit for "
                  f"{stable['dwell_fraction']:.0%} of seeds with dwell-aware "
                  f"knobs (threshold 90%); plain knobs comparative: "
                  f"{default['dwell_fraction']:.0%} "
                  f"(gap {stability_report['dwell_fraction_gap']:+.2f})", t0)


def test_criterion_11_drift(drift_report):
    t0 = time.perf_counter()
    by_mult = {arm["multiplier"]: arm for arm in drift_report["arms"]}
    at_bound = by_mult[1.0]["success_fraction"]
    at_10x = by_mult[10.0]["success_fraction"]
    ok = at_bound >= 0.90 and at_10x < at_bound
    detail = (f"success at the drift bound {at_bound:.0%} (threshold 90%); "
              f"at 10x the bound {at_10x:.0%}")
    if at_10x >= at_bound:
        edge = ", ".join(
            f"{arm['multiplier']:.1e}x -> {arm['success_fraction']:.0%}"
            for arm in drift_report["extended_arms"])
        detail += (", NOT strictly lower: the bound is conservative enough "
                   "that 10x is still harmless; tracking breaks only once "
                   "the per-step drift nears the step size alpha "
                   f"({edge} on 10 seeds; see notes ledger)")
    _line(11, ok, detail, t0)


def test_criterion_12_frontier_scaling():
    t0 = time.perf_counter()
    report = run_frontier_scaling(eps_list=(0.2, 0.1, 0.05, 0.025))
    slopes = {branch: report[branch]["slope_max_abs"]
              for branch in ("generic", "zero_sum")}
    ok = all(abs(s - 1.0) <= 0.1 for s in slopes.values())
    _line(12, ok, "log-log slope of max frontier return vs accuracy: "
                  f"generic {slopes['generic']:.4f}, zero-sum "
                  f"{slopes['zero_sum']:.4f} (required 1.0 +/- 0.1)", t0)


def test_criterion_13_determinism(tmp_path):
    t0 = time.perf_counter()
    scenario_specs = [
        ("unsupervised_mean", {"m_override": 40, "t_override": 300,
                               "trace_limit": 2}),
        ("agnostic", {"m_override": 200, "t_override": 150,
                      "check_samples": 2000, "trace_limit": 2}),
        ("supervised_linear", {"t_override": 500, "trace_limit": 2}),
        ("stability", {"dwell": 5, "t_override": 400,
                       "comparison_t_override": 200, "trace_limit": 2}),
        ("drift", {"multipliers": (0.0, 1.0), "extended_multipliers": (),
                   "t_override": 300, "trace_limit": 2}),
    ]
    files_checked = traces_checked = 0
    for scenario, overrides in scenario_specs:
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / scenario / tag
            run_scenario(ScenarioConfig(scenario, seeds=[0, 1], epsilon=0.1,
                                        overrides=dict(overrides),
                                        out_dir=str(out)))
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes(), f"{scenario}/{name} differs"
            files_checked += 1
            traces_checked += name.endswith(".jsonl")
        assert any(name.endswith(".jsonl") for name in names)
    _line(13, True, f"reruns of all five scenarios byte-identical across "
                    f"{files_checked} output files "
                    f"({traces_checked} trace files)", t0)
