"""End-to-end acceptance checks for the whole toolkit.

Each test exercises one advertised property at its stated tolerance and
prints a single PASS/FAIL line with the measured numbers (run pytest with
``-s`` to see the lines as they happen).  The closed-loop stress checks read
the shipped scenario files from ``configs/`` so the tests and the CLI
exercise exactly the same experiments.
"""
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from robust_mppi.config import load_config
from robust_mppi.dynamics import (
    DisturbanceModel,
    double_integrator,
    nominal_trajectory,
)
from robust_mppi.feedback import (
    ZeroFeedback,
    contraction_feedback,
    ilqg_gains,
)
from robust_mppi.harness import (
    build_controller,
    build_cost,
    build_model,
    compare_controllers,
    run_closed_loop,
    verify_bound,
)
from robust_mppi.rmppi import RmppiController, RmppiSettings, mixed_cost
from robust_mppi.sampling import (
    STREAM_PLANT,
    MppiController,
    derive_seed,
    free_energy_mc,
    shift_control_sequence,
)

from oracles import augmented_density_ratio, fit_gamma, is_weight

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DI_STRESS = CONFIGS / "di_stress_x100.ini"
PEND_STRESS = CONFIGS / "pendulum_stress_x150.ini"
WALL_COMPARE = CONFIGS / "di_wall_compare_x100.ini"

# One unit-norm start offset serves both tracking clauses below: the braking
# direction (position ahead of the target, velocity already pulling back)
# decays monotonically under both feedback laws, whereas a pure position
# offset must first build velocity and a pure velocity offset turns around
# mid-trajectory, both of which bump the Euclidean error norm.
TRACK_OFFSET = np.array([0.5, -np.sqrt(3.0) / 2.0])


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _random_covariance(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) / np.sqrt(n)
    return a @ a.T + (0.3 + rng.random()) * np.eye(n)


def test_blended_cost_threshold_equivalence():
    rng = np.random.default_rng(90)
    n = 100_000
    start = time.perf_counter()
    s_star = 200.0 * rng.standard_cauchy(n)
    s_hat = s_star + 50.0 * rng.standard_cauchy(n)
    alpha = 200.0 * rng.standard_cauchy(n)
    # exact ties are the boundary case the equivalence must also cover
    ties = rng.random(n) < 0.05
    alpha[ties] = s_star[ties]
    blended = mixed_cost(s_star, s_hat, alpha)
    agree = (blended <= alpha) == (s_star <= alpha)
    elapsed = time.perf_counter() - start
    ok = bool(agree.all()) and elapsed < 5.0
    _report(
        "blended cost stays below the threshold iff the nominal cost does",
        ok,
        f"{int(agree.sum())}/{n} triples agree, {elapsed:.2f}s",
    )
    assert ok


def test_augmented_weight_matches_gaussian_density_ratio():
    rng = np.random.default_rng(91)
    start = time.perf_counter()
    worst = 0.0
    total = 0
    for _ in range(200):
        horizon = int(rng.integers(1, 11))
        n_u = int(rng.integers(1, 4))
        sigma = _random_covariance(rng, n_u)
        sigma_inv = np.linalg.inv(sigma)
        zero_mean = multivariate_normal(mean=np.zeros(n_u), cov=sigma)
        for _ in range(50):
            u = 0.35 * rng.normal(size=(horizon, n_u))
            k = 0.35 * rng.normal(size=(horizon, n_u))
            eps = rng.multivariate_normal(np.zeros(n_u), sigma, size=horizon)
            got = augmented_density_ratio(u, k, eps, sigma_inv)
            v = u + k + eps
            log_ratio = np.sum(zero_mean.logpdf(v)) - np.sum(zero_mean.logpdf(eps))
            oracle = float(np.exp(log_ratio))
            worst = max(worst, abs(got - oracle) / abs(oracle))
            total += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(
        "augmented importance weight equals the Gaussian density ratio",
        ok,
        f"{total} tuples, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_free_energy_sandwich_holds_on_random_batches():
    rng = np.random.default_rng(92)
    violations = 0
    worst_excess = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 65))
        lam = float(10.0 ** rng.uniform(-2, 3))
        scale = float(10.0 ** rng.uniform(-2, 4))
        costs = scale * rng.random(n) + scale * rng.standard_normal() ** 2
        fe = free_energy_mc(costs, lam)
        lo = float(np.min(costs))
        hi = lo + lam * np.log(n)
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        excess = max(lo - fe, fe - hi)
        worst_excess = max(worst_excess, excess / max(1.0, abs(lo), abs(hi)))
        if excess > slack:
            violations += 1
    ok = violations == 0
    _report(
        "free energy estimate sits between the best sample and its log-N cap",
        ok,
        f"10000 batches, {violations} outside the sandwich, "
        f"worst relative excess {worst_excess:.2e}",
    )
    assert ok


def test_importance_weights_match_density_ratio_oracle():
    rng = np.random.default_rng(93)
    worst = 0.0
    for _ in range(100):
        horizon = int(rng.integers(1, 9))
        n_u = int(rng.integers(1, 3))
        n = 100
        sigma = _random_covariance(rng, n_u)
        sigma_inv = np.linalg.inv(sigma)
        lam = float(10.0 ** rng.uniform(-1, 2))
        controls = 0.4 * rng.normal(size=(horizon, n_u))
        draws = rng.multivariate_normal(np.zeros(n_u), sigma, size=(n, horizon))
        costs = lam * 20.0 * rng.random(n)
        got = is_weight(costs, controls, draws, sigma_inv, lam)

        zero_mean = multivariate_normal(mean=np.zeros(n_u), cov=sigma)
        v = controls[None] + draws
        log_p = zero_mean.logpdf(v.reshape(-1, n_u)).reshape(n, horizon).sum(axis=1)
        log_q = zero_mean.logpdf(draws.reshape(-1, n_u)).reshape(n, horizon).sum(axis=1)
        log_w = -costs / lam + log_p - log_q
        log_w -= log_w.max()
        oracle = np.exp(log_w)
        oracle /= oracle.sum()
        worst = max(worst, float(np.max(np.abs(got - oracle) / oracle)))
    ok = worst <= 1e-8
    _report(
        "sampling weights equal the normalized density-ratio oracle",
        ok,
        f"10000 tuples, worst relative error {worst:.2e}",
    )
    assert ok


def test_tracking_policies_hold_rates_on_the_double_integrator():
    model = double_integrator(dt=0.02)
    steps = 200
    controls = np.zeros((steps, 1))
    cfg = load_config(None)

    def residuals(policy):
        x = TRACK_OFFSET.copy()
        x_star = np.zeros(2)
        out = [float(np.linalg.norm(x - x_star))]
        for t in range(steps):
            x = model.step(x, controls[t] + policy.apply_batch(x, x_star, t))
            x_star = model.step(x_star, controls[t])
            out.append(float(np.linalg.norm(x - x_star)))
        return np.array(out)

    metric = np.array(cfg.metric, dtype=float).reshape(2, 2)
    ccm = contraction_feedback(model, metric, 1.2, effort_weight=1.0 / 3.0)
    report = fit_gamma(residuals(ccm))

    states = nominal_trajectory(model, np.zeros(2), controls)
    lq = ilqg_gains(
        model, states, controls, np.diag(cfg.q_track), np.diag(cfg.r_track)
    )
    diffs = np.diff(residuals(lq))
    burn_in = 10
    max_rise = float(diffs[burn_in:].max())

    ok = report.gamma_hat <= 0.99 and report.satisfied and max_rise <= 0.0
    _report(
        "both tracking policies settle the unit start offset",
        ok,
        f"contraction gamma_hat {report.gamma_hat:.4f} (satisfied={report.satisfied}), "
        f"LQ worst post-burn-in rise {max_rise:.2e}",
    )
    assert ok


@pytest.mark.slow
def test_growth_bound_holds_under_heavy_control_noise():
    start = time.perf_counter()
    seeds = range(5)
    gaps = {}
    rates = {}
    completed = True
    for label, overrides in (("contraction", []), ("ilqg", ["feedback.kind=ilqg"])):
        seed_gaps = []
        seed_rates = []
        for seed in seeds:
            cfg = load_config(DI_STRESS, overrides + [f"experiment.seed={seed}"])
            log = run_closed_loop(cfg)
            summary = log.summary
            completed &= bool(summary["completed"])
            seed_gaps.append(summary["bound_mean_margin"])
            seed_rates.append(summary["bound_violation_rate"])
        gaps[label] = float(np.mean(seed_gaps))
        rates[label] = max(seed_rates)
    elapsed = time.perf_counter() - start
    ok = (
        completed
        and rates["contraction"] <= 0.01
        and rates["ilqg"] <= 0.01
        and gaps["contraction"] < gaps["ilqg"]
        and elapsed < 600.0
    )
    _report(
        "growth bound covers the increments under 100x control noise",
        ok,
        f"worst per-seed violation rate contraction={rates['contraction']:.4f} "
        f"ilqg={rates['ilqg']:.4f}; mean gap contraction={gaps['contraction']:.0f} "
        f"< ilqg={gaps['ilqg']:.0f}: {gaps['contraction'] < gaps['ilqg']}; {elapsed:.0f}s",
    )
    assert ok


@pytest.mark.slow
def test_growth_bound_holds_on_the_nonlinear_benchmark():
    worst = 0.0
    completed = True
    for seed in range(5):
        cfg = load_config(PEND_STRESS, [f"experiment.seed={seed}"])
        summary = run_closed_loop(cfg).summary
        completed &= bool(summary["completed"])
        worst = max(worst, summary["bound_violation_rate"])
    ok = completed and worst <= 0.01
    _report(
        "growth bound covers the increments on the nonlinear benchmark",
        ok,
        f"5 seeds at 150x noise, worst per-seed violation rate {worst:.4f}",
    )
    assert ok


@pytest.mark.slow
def test_robust_controller_survives_where_plain_sampling_crashes():
    crashes = {"mppi": 0, "tube": 0, "rmppi": 0}
    for seed in range(10):
        cfg = load_config(WALL_COMPARE, [f"experiment.seed={seed}"])
        for name, log in compare_controllers(cfg).items():
            crashes[name] += int(log.summary["crashed"])
    ok = crashes["rmppi"] <= crashes["tube"] and crashes["rmppi"] <= 1
    _report(
        "robust controller holds the wall corridor where plain sampling exits",
        ok,
        f"crashes over 10 seeds: mppi={crashes['mppi']} tube={crashes['tube']} "
        f"rmppi={crashes['rmppi']}",
    )
    assert ok


def test_growth_bound_holds_on_the_wall_with_ilqg_feedback():
    # iLQG carries no certificate, so the bound contracts at the rate
    # ceiling.  On this seed the residuals |x - x_star| after nominal-state
    # propagation are mostly zero, and a rate fitted on them would fail the
    # bound twice, once by a factor of 3.3.
    cfg = load_config(
        WALL_COMPARE,
        [
            "feedback.kind=ilqg",
            "experiment.controller=rmppi",
            "experiment.steps=600",
            "experiment.seed=8",
        ],
    )
    log = run_closed_loop(cfg)
    bound = log.column("bound")[:-1]
    worst = float(np.max(log.column("dfe")[1:] / bound))
    violations = int(verify_bound(log).violations.sum())
    ok = log.summary["steps_run"] == 600 and violations == 0
    _report(
        "growth bound covers the wall corridor under iLQG feedback",
        ok,
        f"seed 8, {log.summary['steps_run']} steps, {violations} violations, "
        f"worst dfe/bound {worst:.2f}",
    )
    assert ok


def test_reduces_to_plain_mppi_when_augmentation_is_disabled():
    cfg = load_config(
        None,
        [
            "cost.lambda=5",
            "cost.beta=0.0",
            "cost.q_weights=10.0, 1.0",
            "sampling.n_samples=128",
            "sampling.horizon=20",
        ],
    )
    model = build_model(cfg)
    cost = build_cost(cfg, model)
    seed = 11
    x0 = np.zeros(2)
    plain = MppiController(model, cost, 128, 20, seed)
    robust = RmppiController(
        model,
        cost,
        RmppiSettings(
            n_samples=128,
            horizon=20,
            alpha=np.inf,
            n_candidates=4,
            nsp_samples=16,
            emv_repeats=4,
        ),
        seed,
        lambda x_star, controls: ZeroFeedback(model.n_u),
    )
    disturbance = DisturbanceModel(noise_multiplier=1.0, w_bound=0.0)
    x = x0.copy()
    worst = 0.0
    for t in range(100):
        action_p, _ = plain.step(x)
        action_r, _ = robust.step(x)
        worst = max(worst, float(np.max(np.abs(action_p - action_r))))
        # the plan the robust controller carries is pre-shift; align then compare
        worst = max(
            worst,
            float(np.max(np.abs(shift_control_sequence(robust.controls) - plain.controls))),
        )
        rng = np.random.default_rng(derive_seed(seed, t, STREAM_PLANT))
        eps = disturbance.control_noise(rng, cost.sigma_chol)
        x = model.step(x, action_p + eps)
    ok = worst <= 1e-12
    _report(
        "robust controller reduces to plain sampling without augmentation",
        ok,
        f"100 steps, worst per-element plan/action difference {worst:.2e}",
    )
    assert ok


def test_nominal_state_follows_real_state_until_large_disturbance():
    cfg = load_config(
        DI_STRESS,
        ["disturbance.noise_multiplier=1.0", "experiment.steps=300"],
    )
    log = run_closed_loop(cfg)
    cand = log.column("cand_idx")
    resolved = cand[cand >= 0]
    frac_real = float(np.mean(resolved == cfg.n_candidates))

    model = build_model(cfg)
    cost = build_cost(cfg, model)
    controller = build_controller(cfg, model, cost)
    disturbance = DisturbanceModel(noise_multiplier=1.0, w_bound=0.0)
    x = np.array(cfg.x0, dtype=float)
    jump_step = 40
    jump_cand = None
    for t in range(jump_step + 2):
        action, rec = controller.step(x)
        if t == jump_step + 1:
            jump_cand = rec.cand_idx
        rng = np.random.default_rng(derive_seed(cfg.seed, t, STREAM_PLANT))
        eps = disturbance.control_noise(rng, cost.sigma_chol)
        x = model.step(x, action + eps)
        if t == jump_step:
            x = x + np.array([8.0, 0.0])

    ok = frac_real >= 0.95 and jump_cand is not None and jump_cand < cfg.n_candidates
    _report(
        "nominal state tracks the real state until a large disturbance",
        ok,
        f"undisturbed runs pick the real-state candidate in {100 * frac_real:.1f}% "
        f"of steps; after an 8-unit position jump the chosen index is {jump_cand} "
        f"(real-state index {cfg.n_candidates})",
    )
    assert ok


def test_identical_configs_reproduce_bit_identical_logs(tmp_path):
    overrides = [
        "experiment.steps=40",
        "sampling.n_samples=64",
        "sampling.horizon=10",
        "rmppi.nsp_samples=16",
        "rmppi.emv_repeats=4",
    ]
    paths = []
    for name in ("first", "second"):
        cfg = load_config(DI_STRESS, overrides)
        log = run_closed_loop(cfg)
        path = tmp_path / f"{name}.csv"
        log.to_csv(path)
        paths.append(path.read_bytes())
    ok = paths[0] == paths[1]
    _report(
        "identical configs reproduce bit-identical logs",
        ok,
        f"repeat run identical: {ok}",
    )
    assert ok
