"""Noise plans, free energy, weights, and batched rollouts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from robust_mppi.costs import (
    CostFunction,
    control_penalty_batch,
    control_penalty_coef,
    quadratic_wall_cost,
)
from robust_mppi.dynamics import SystemModel, double_integrator
from robust_mppi.sampling import (
    DegenerateSamplingError,
    MppiController,
    NoisePlan,
    derive_seed,
    free_energy_mc,
    mppi_update,
    rollout_batch,
    shift_control_sequence,
    softmax_weights,
    weighted_noise,
)

from oracles import is_weight, path_cost


def simple_cost(lam=2.0, beta=0.5, sigma=None, crash_cost=1e4):
    return CostFunction(
        state_cost=lambda x: np.sum(x * x, axis=-1),
        terminal_cost=lambda x: 2.0 * np.sum(x * x, axis=-1),
        sigma=np.eye(1) * 0.25 if sigma is None else sigma,
        lam=lam,
        beta=beta,
        crash_cost=crash_cost,
    )


def blowup_model():
    """Cubing the position overflows within one step from large starts."""

    def deriv(x, u):
        with np.errstate(over="ignore"):
            return np.stack([x[..., 0] ** 3, u[..., 0]], axis=-1)

    return SystemModel(name="blowup", n_x=2, n_u=1, dt=1.0, deriv=deriv)


def test_derive_seed_is_deterministic_and_path_sensitive():
    assert derive_seed(7, 3, 1) == derive_seed(7, 3, 1)
    seen = {derive_seed(7, step, stream) for step in range(10) for stream in range(4)}
    assert len(seen) == 40


def test_noise_plan_reproducible_from_seed():
    chol = np.linalg.cholesky(np.array([[0.25]]))
    a = NoisePlan.sample(5, 64, 10, chol)
    b = NoisePlan.sample(5, 64, 10, chol)
    c = NoisePlan.sample(6, 64, 10, chol)
    assert np.array_equal(a.draws, b.draws)
    assert not np.array_equal(a.draws, c.draws)
    assert a.draws.shape == (64, 10, 1)


def test_noise_plan_matches_requested_covariance():
    sigma = np.array([[0.5, 0.2], [0.2, 0.4]])
    plan = NoisePlan.sample(0, 4000, 50, np.linalg.cholesky(sigma))
    flat = plan.draws.reshape(-1, 2)
    emp = np.cov(flat.T)
    n = flat.shape[0]
    assert np.abs(flat.mean(axis=0)).max() < 5.0 / np.sqrt(n)
    assert np.abs(emp - sigma).max() < 0.01


def test_noise_plan_rejects_empty_requests():
    with pytest.raises(ValueError):
        NoisePlan.sample(0, 0, 5, np.eye(1))
    with pytest.raises(ValueError):
        NoisePlan.sample(0, 5, 0, np.eye(1))


def test_free_energy_equal_costs_is_exact():
    assert free_energy_mc(np.array([3.0, 3.0, 3.0]), lam=2.0) == 3.0


def test_free_energy_frozen_two_point_example():
    # lam=1, costs (0, ln 4): F = -log((1 + 1/4)/2) = log(8/5)
    fe = free_energy_mc(np.array([0.0, np.log(4.0)]), lam=1.0)
    assert np.isclose(fe, np.log(8.0 / 5.0), rtol=0, atol=1e-15)


def test_free_energy_sandwich_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        lam = rng.uniform(0.1, 30.0)
        costs = rng.uniform(-10.0, 100.0, size=rng.integers(1, 400))
        fe = free_energy_mc(costs, lam)
        assert costs.min() <= fe <= costs.min() + lam * np.log(costs.size) + 1e-10


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 9),
    st.integers(1, 4096),
    st.floats(0.01, 100.0),
    st.floats(1e-3, 1e4),
    st.integers(0, 2**32 - 1),
)
def test_batched_free_energy_rows_equal_solo_calls_and_obey_the_sandwich(
    groups, n, lam, scale, seed
):
    costs = np.random.default_rng(seed).uniform(-scale, scale, size=(groups, n))
    batched = free_energy_mc(costs, lam)
    assert batched.shape == (groups,)
    for row, value in zip(costs, batched):
        solo = free_energy_mc(row, lam)
        assert isinstance(solo, float)
        assert value == solo  # bit for bit
        lo = row.min()
        hi = lo + lam * np.log(n)
        assert lo <= value <= hi + 1e-12 * (abs(hi) + 1.0)


def test_free_energy_input_validation():
    with pytest.raises(ValueError, match="empty"):
        free_energy_mc(np.array([]), 1.0)
    with pytest.raises(ValueError, match="finite"):
        free_energy_mc(np.array([1.0, np.inf]), 1.0)
    with pytest.raises(ValueError, match="lam"):
        free_energy_mc(np.array([1.0]), 0.0)


def test_softmax_weights_uniform_for_equal_costs():
    w = softmax_weights(np.full(8, 2.5), lam=1.0)
    assert np.allclose(w, 0.125, rtol=0, atol=1e-15)
    assert np.isclose(w.sum(), 1.0, rtol=0, atol=1e-15)


def test_softmax_weights_shift_invariant():
    rng = np.random.default_rng(1)
    costs = rng.uniform(0, 50, size=64)
    a = softmax_weights(costs, lam=5.0)
    b = softmax_weights(costs + 123.0, lam=5.0)
    assert np.allclose(a, b, rtol=1e-12, atol=0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 256),
    st.floats(0.1, 100.0),
    st.floats(0.0, 1e3),
    st.floats(-1e3, 1e3),
    st.integers(0, 2**32 - 1),
)
def test_softmax_weights_shift_invariance_holds_on_random_batches(n, lam, scale, shift, seed):
    costs = np.random.default_rng(seed).uniform(-scale, scale, size=n)
    a = softmax_weights(costs, lam)
    b = softmax_weights(costs + shift, lam)
    # shifting moves each exponent by at most a few ulps of |cost| + |shift|,
    # about 1e-11 relative at these ranges
    assert np.allclose(a, b, rtol=1e-9, atol=1e-300)
    assert np.argmax(a) == np.argmax(b)
    assert np.isclose(np.sum(b), 1.0, rtol=0, atol=1e-12)


def test_softmax_weights_rejects_non_finite():
    with pytest.raises(DegenerateSamplingError):
        softmax_weights(np.array([1.0, np.nan]), 1.0)


def test_is_weight_matches_gaussian_density_ratio_oracle():
    rng = np.random.default_rng(2)
    sigma = np.array([[0.3, 0.05], [0.05, 0.2]])
    sigma_inv = np.linalg.inv(sigma)
    horizon, n = 6, 40
    controls = rng.normal(size=(horizon, 2))
    plan = NoisePlan.sample(3, n, horizon, np.linalg.cholesky(sigma))
    costs = rng.uniform(0, 20, size=n)
    lam = 4.0

    w = is_weight(costs, controls, plan.draws, sigma_inv, lam)

    # independent route: explicit density ratio of the realized controls
    log_raw = np.empty(n)
    for i in range(n):
        log_ratio = 0.0
        for t in range(horizon):
            v = controls[t] + plan.draws[i, t]
            log_ratio += multivariate_normal.logpdf(v, mean=np.zeros(2), cov=sigma)
            log_ratio -= multivariate_normal.logpdf(v, mean=controls[t], cov=sigma)
        log_raw[i] = -costs[i] / lam + log_ratio
    expected = np.exp(log_raw - log_raw.max())
    expected /= expected.sum()
    assert np.allclose(w, expected, rtol=1e-8, atol=1e-12)


def test_softmax_of_plain_rollout_costs_equals_the_importance_weights():
    # The plain control penalty is the proposal correction of is_weight, so
    # the weights the controllers use are the density-ratio weights.
    from robust_mppi.dynamics import nonlinear_benchmark

    model = nonlinear_benchmark()
    horizon, n = 30, 256
    task = quadratic_wall_cost(np.array([1.0, 0.5]), np.zeros(2))
    for seed, lam in enumerate(np.geomspace(0.3, 30.0, 20)):
        rng = np.random.default_rng(seed)
        cost = CostFunction(
            task.state_cost, task.terminal_cost, np.eye(1) * 0.6**2, lam=lam, beta=0.5
        )
        controls = rng.normal(size=(horizon, 1))
        x0 = rng.uniform(-1.0, 1.0, size=2)
        draws = NoisePlan.sample(seed, n, horizon, cost.sigma_chol).draws
        res = rollout_batch(model, cost, x0, controls, draws, control_term="plain")
        got = softmax_weights(res.costs, lam)
        want = is_weight(res.state_costs, controls, draws, cost.sigma_inv, lam)
        assert np.allclose(got, want, rtol=1e-10, atol=0)


def test_weighted_noise_hand_example():
    draws = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
    out = weighted_noise(np.array([0.25, 0.75]), draws)
    assert np.array_equal(out, np.array([[2.5], [3.5]]))


def test_shift_control_sequence():
    controls = np.array([[1.0], [2.0], [3.0]])
    assert np.array_equal(shift_control_sequence(controls), np.array([[2.0], [3.0], [0.0]]))


def test_mppi_update_one_hot_weight_copies_that_draw():
    rng = np.random.default_rng(3)
    controls = rng.normal(size=(5, 1))
    draws = rng.normal(size=(4, 5, 1))
    w = np.array([0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(mppi_update(controls, w, draws), controls + draws[2])


def test_mppi_update_rejects_degenerate_weights():
    controls = np.zeros((3, 1))
    draws = np.zeros((2, 3, 1))
    with pytest.raises(DegenerateSamplingError):
        mppi_update(controls, np.array([0.0, 0.0]), draws)
    with pytest.raises(DegenerateSamplingError):
        mppi_update(controls, np.array([np.nan, 1.0]), draws)


def test_mppi_update_smoothing_matches_scipy_filter():
    from scipy.signal import savgol_filter

    rng = np.random.default_rng(4)
    controls = rng.normal(size=(12, 1))
    draws = rng.normal(size=(3, 12, 1))
    w = softmax_weights(rng.uniform(0, 1, size=3), 1.0)
    raw = mppi_update(controls, w, draws)
    smoothed = mppi_update(controls, w, draws, smoothing_window=5)
    assert np.array_equal(smoothed, savgol_filter(raw, 5, 3, axis=0))


def test_rollout_batch_is_pure():
    model = double_integrator()
    cost = simple_cost()
    plan = NoisePlan.sample(7, 16, 8, cost.sigma_chol)
    controls = np.ones((8, 1)) * 0.1
    x0 = np.array([0.5, -0.2])
    a = rollout_batch(model, cost, x0, controls, plan.draws)
    b = rollout_batch(model, cost, x0, controls, plan.draws)
    assert np.array_equal(a.costs, b.costs)


def test_rollout_state_cost_identity_with_path_cost():
    # the rollout prices states after each step plus the terminal state, so it
    # equals the start-inclusive path cost minus q(start) plus q(end)
    from robust_mppi.dynamics import nominal_trajectory

    model = double_integrator()
    cost = simple_cost()
    controls = np.array([[0.3], [0.1], [-0.2], [0.4]])
    x0 = np.array([0.7, -0.1])
    res = rollout_batch(model, cost, x0, controls, np.zeros((1, 4, 1)))
    traj = nominal_trajectory(model, x0, controls)
    expected = (
        path_cost(cost, traj)
        - float(cost.state_cost(traj[0]))
        + float(cost.state_cost(traj[-1]))
    )
    assert np.isclose(res.state_costs[0], expected, rtol=1e-12, atol=0)


def test_rollout_control_term_variants_differ_by_penalty():
    model = double_integrator()
    cost = simple_cost(lam=3.0, beta=0.5)
    plan = NoisePlan.sample(9, 10, 5, cost.sigma_chol)
    controls = np.full((5, 1), 0.2)
    x0 = np.zeros(2)
    plain = rollout_batch(model, cost, x0, controls, plan.draws, control_term="plain")
    beta = rollout_batch(model, cost, x0, controls, plan.draws, control_term="beta")
    pen_plain = control_penalty_batch(
        controls, plan.draws, cost.sigma_inv, control_penalty_coef(cost.lam, cost.beta, False)
    )
    pen_beta = control_penalty_batch(
        controls, plan.draws, cost.sigma_inv, control_penalty_coef(cost.lam, cost.beta, True)
    )
    assert np.array_equal(plain.state_costs, beta.state_costs)
    assert np.array_equal(plain.costs, plain.state_costs + pen_plain)
    assert np.array_equal(beta.costs, beta.state_costs + pen_beta)
    with pytest.raises(ValueError, match="control_term"):
        rollout_batch(model, cost, x0, controls, plan.draws, control_term="squared")


def test_rollout_batch_flags_and_prices_crashes():
    model = blowup_model()
    cost = simple_cost(crash_cost=999.0)
    starts = np.array([[0.1, 0.0], [1e130, 0.0]])
    controls = np.zeros((3, 1))
    res = rollout_batch(model, cost, starts, controls, np.zeros((2, 3, 1)))
    assert list(res.crashed) == [False, True]
    assert res.costs[1] == 999.0
    assert np.isfinite(res.costs[0]) and res.costs[0] != 999.0


def test_rollout_batch_validates_shapes():
    model = double_integrator()
    cost = simple_cost()
    with pytest.raises(ValueError, match="draws"):
        rollout_batch(model, cost, np.zeros(2), np.zeros((4, 1)), np.zeros((3, 5, 1)))
    with pytest.raises(ValueError, match="per-sample starts"):
        rollout_batch(model, cost, np.zeros((2, 2)), np.zeros((4, 1)), np.zeros((3, 4, 1)))


def test_controller_is_deterministic_across_instances():
    model = double_integrator()
    cost = simple_cost()
    a = MppiController(model, cost, n_samples=32, horizon=6, seed=12)
    b = MppiController(model, cost, n_samples=32, horizon=6, seed=12)
    x = np.array([1.0, 0.0])
    for _ in range(4):
        ua, ra = a.step(x)
        ub, rb = b.step(x)
        assert np.array_equal(ua, ub)
        assert ra.fe_real == rb.fe_real


def test_controller_step_advances_plan_and_counts():
    model = double_integrator()
    cost = simple_cost()
    ctl = MppiController(model, cost, n_samples=32, horizon=6, seed=1)
    before = ctl.controls.copy()
    action, rec = ctl.step(np.array([2.0, 0.0]))
    assert ctl.step_index == 1
    assert not np.array_equal(ctl.controls, before)
    assert rec.cand_idx == -1 and np.isinf(rec.bound)


def test_controller_degenerate_batch_falls_back_to_plan_head():
    model = blowup_model()
    cost = simple_cost()
    ctl = MppiController(model, cost, n_samples=8, horizon=3, seed=2)
    action, rec = ctl.step(np.array([1e130, 0.0]))
    assert rec.degen is True
    assert rec.fe_real == cost.crash_cost
    assert np.array_equal(action, np.zeros(1))
