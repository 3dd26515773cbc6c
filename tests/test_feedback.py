"""Tracking feedback: LQ gains, contraction policy, the oracle decay-rate fit."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_discrete_are

from robust_mppi.dynamics import (
    SystemModel,
    double_integrator,
    nominal_trajectory,
    nonlinear_benchmark,
)
from robust_mppi.feedback import (
    ContractionPolicy,
    LinearGainsPolicy,
    RiccatiDivergenceError,
    ZeroFeedback,
    contraction_feedback,
    ilqg_gains,
)

from oracles import fit_gamma, riccati_gains_per_point
from test_column_kernels import same_bits
from test_rollout_properties import two_input_model

DI_METRIC = np.array([[6.0, 3.0], [3.0, 2.0]])
DI_RATE = 1.2
DI_EFFORT = 1.0 / 3.0

PEND_METRIC = np.array([[4.0, 2.25], [2.25, 3.0]])
PEND_RATE = 0.35


def test_zero_feedback_returns_zeros_in_both_shapes():
    policy = ZeroFeedback(2)
    for lead in ((), (5,), (2, 5)):
        x = np.ones(lead + (3,))
        assert same_bits(policy.apply_batch(x, np.zeros(lead + (3,)), 4), np.zeros(lead + (2,)))


def test_linear_gains_policy_is_linear_before_clamping():
    gains = np.array([[[2.0, -1.0]], [[0.5, 0.0]]])
    policy = LinearGainsPolicy(gains)
    e = np.array([0.3, -0.2])
    x_star = np.array([1.0, 1.0])
    one = policy.apply_batch(x_star + e, x_star, 0)
    two = policy.apply_batch(x_star + 2 * e, x_star, 0)
    assert np.allclose(two, 2.0 * one, rtol=1e-15, atol=0)


def test_linear_gains_policy_holds_last_gain_beyond_horizon():
    gains = np.array([[[1.0, 0.0]], [[5.0, 0.0]]])
    policy = LinearGainsPolicy(gains)
    x, xs = np.array([1.0, 0.0]), np.zeros(2)
    assert np.array_equal(policy.apply_batch(x, xs, 99), policy.apply_batch(x, xs, 1))


def test_linear_gains_policy_clamps():
    gains = np.array([[[10.0, 0.0]]])
    policy = LinearGainsPolicy(gains, control_low=np.array([-1.0]), control_high=np.array([1.0]))
    assert policy.apply_batch(np.array([5.0, 0.0]), np.zeros(2), 0) == pytest.approx(1.0)


def test_linear_gains_batch_matches_single_application():
    rng = np.random.default_rng(0)
    for n_x, n_u in [(2, 1), (1, 1), (3, 2), (4, 3)]:
        gains = rng.normal(size=(3, n_u, n_x))
        policy = LinearGainsPolicy(gains)
        xs = rng.normal(size=(6, n_x))
        x_star = rng.normal(size=(6, n_x))
        batch = policy.apply_batch(xs, x_star, 1)
        for i in range(6):
            single = policy.apply_batch(xs[i], x_star[i], 1)
            # one state gives the bits of the single-state formula gains[t] @ e
            assert same_bits(single, gains[1] @ (xs[i] - x_star[i]))
            assert np.allclose(batch[i], single, rtol=1e-14)


def test_ilqg_gains_match_infinite_horizon_riccati_solution():
    # on a time-invariant linearization the backward pass converges to the
    # algebraic solution, so the first gain matches the textbook solver
    model = double_integrator(dt=0.02)
    horizon = 400
    controls = np.zeros((horizon, 1))
    states = nominal_trajectory(model, np.zeros(2), controls)
    q = np.diag([10.0, 2.0])
    r = np.array([[1.0]])
    policy = ilqg_gains(model, states, controls, q, r)
    ad, bd = model.discrete_jacobians(np.zeros(2), np.zeros(1))
    p = solve_discrete_are(ad, bd, q, r)
    k = np.linalg.solve(r + bd.T @ p @ bd, bd.T @ p @ ad)
    assert np.allclose(policy.gains[0], -k, atol=1e-6, rtol=0)


def test_ilqg_gains_vanish_as_control_gets_expensive():
    model = double_integrator(dt=0.02)
    controls = np.zeros((50, 1))
    states = nominal_trajectory(model, np.zeros(2), controls)
    q = np.eye(2)
    small = ilqg_gains(model, states, controls, q, np.array([[1.0]]))
    large = ilqg_gains(model, states, controls, q, np.array([[1e9]]))
    assert np.abs(large.gains).max() < 1e-4
    assert np.abs(small.gains).max() > 0.1


def test_ilqg_gains_drive_toward_the_nominal():
    model = double_integrator(dt=0.02)
    controls = np.zeros((300, 1))
    states = nominal_trajectory(model, np.zeros(2), controls)
    policy = ilqg_gains(model, states, controls, np.diag([10.0, 2.0]), np.array([[1.0]]))
    x = np.array([0.0, 1.0])
    xs = np.zeros(2)
    r0 = np.linalg.norm(x - xs)
    for t in range(300):
        x = model.step(x, controls[t] + policy.apply_batch(x, xs, t))
        xs = model.step(xs, controls[t])
    assert np.linalg.norm(x - xs) < 0.05 * r0


def test_ilqg_gains_validate_trajectory_shape():
    model = double_integrator()
    with pytest.raises(ValueError, match="nominal states"):
        ilqg_gains(model, np.zeros((3, 2)), np.zeros((5, 1)), np.eye(2), np.eye(1))


def test_riccati_divergence_reports_timestep():
    # an explosive linearization with huge dt overflows the value recursion
    model = double_integrator(dt=1e8, control_limit=None)
    controls = np.zeros((4, 1))
    states = np.zeros((5, 2))
    with pytest.raises(RiccatiDivergenceError) as err:
        ilqg_gains(model, states, controls, 1e8 * np.eye(2), np.array([[1e-12]]))
    assert 0 <= err.value.timestep < 4


# The two-input model keeps the np.linalg.solve branch of ilqg_gains pinned
# to the oracle; the bundled systems have one input and take the reciprocal.
RICCATI_MODELS = {
    "double_integrator": double_integrator,
    "nonlinear_benchmark": nonlinear_benchmark,
    "two_input": two_input_model,
}


@st.composite
def riccati_problems(draw):
    model = RICCATI_MODELS[draw(st.sampled_from(sorted(RICCATI_MODELS)))](
        dt=draw(st.floats(1e-3, 0.2)), control_limit=draw(st.sampled_from([None, 8.0]))
    )
    horizon = draw(st.integers(1, 40))
    x0 = draw(hnp.arrays(float, 2, elements=st.floats(-4.0, 4.0)))
    controls = draw(hnp.arrays(float, (horizon, model.n_u), elements=st.floats(-12.0, 12.0)))
    q = np.diag(draw(hnp.arrays(float, 2, elements=st.floats(1e-3, 1e3))))
    r = np.diag(draw(hnp.arrays(float, model.n_u, elements=st.floats(1e-4, 1e3))))
    return model, nominal_trajectory(model, x0, controls), controls, q, r


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(riccati_problems())
def test_ilqg_gains_equal_the_per_point_riccati_pass_bit_for_bit(problem):
    model, states, controls, q, r = problem
    policy = ilqg_gains(model, states, controls, q, r)
    expect = riccati_gains_per_point(model, states, controls, q, r)
    assert policy.gains.shape == expect.shape
    assert np.array_equal(policy.gains.view(np.uint64), expect.view(np.uint64))


def _nan_state_problem():
    model = nonlinear_benchmark(control_limit=None)
    controls = np.zeros((6, 1))
    states = nominal_trajectory(model, np.array([0.5, 0.0]), controls)
    states[3, 0] = np.nan
    return model, states, controls, np.eye(2), np.eye(1)


DIVERGING_PROBLEMS = {
    "double_integrator-dt1e8": (
        double_integrator(dt=1e8, control_limit=None), np.zeros((5, 2)), np.zeros((4, 1)),
        1e8 * np.eye(2), np.array([[1e-12]]),
    ),
    "nonlinear_benchmark-dt1e8": (
        nonlinear_benchmark(dt=1e8, control_limit=None), np.full((9, 2), 0.3),
        np.zeros((8, 1)), np.eye(2), np.eye(1),
    ),
    "nan-state": _nan_state_problem(),
}


@pytest.mark.parametrize("name", sorted(DIVERGING_PROBLEMS))
def test_diverging_riccati_passes_raise_at_the_same_timestep(name):
    problem = DIVERGING_PROBLEMS[name]
    with pytest.raises(RiccatiDivergenceError) as ours:
        ilqg_gains(*problem)
    with pytest.raises(RiccatiDivergenceError) as reference:
        riccati_gains_per_point(*problem)
    assert ours.value.timestep == reference.value.timestep


def _infinite_jacobian_problem():
    base = double_integrator(control_limit=None)

    def jac(x, u):
        lead = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
        return np.full(lead + (2, 2), np.inf), np.full(lead + (2, 1), np.inf)

    model = SystemModel("infinite_jacobian", 2, 1, base.dt, base.deriv, jac)
    return model, np.zeros((6, 2)), np.zeros((5, 1)), np.eye(2), np.eye(1)


@pytest.mark.parametrize("name", [*sorted(DIVERGING_PROBLEMS), "infinite-jacobian"])
def test_a_diverging_riccati_pass_raises_without_a_numpy_warning(name):
    # the divergence error is the one report; numpy's invalid-value warnings
    # on the way there (inf * 0 in the matmuls) would reach stderr before it
    problem = DIVERGING_PROBLEMS.get(name) or _infinite_jacobian_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RiccatiDivergenceError):
            ilqg_gains(*problem)


def test_singular_one_input_riccati_step_raises_divergence_not_linalg_error():
    # r + B'PB is exactly 0 at the last timestep: 0.25 - 0.25 with dt = 0.5 and
    # P = Q = I.  The solve refused the singular system; the reciprocal of 0
    # is infinite, the value matrix stops being finite and the pass diverges.
    model = double_integrator(dt=0.5, control_limit=None)
    controls = np.zeros((3, 1))
    states = nominal_trajectory(model, np.zeros(2), controls)
    problem = (model, states, controls, np.eye(2), np.array([[-0.25]]))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(RiccatiDivergenceError) as err:
            ilqg_gains(*problem)
        with pytest.raises(np.linalg.LinAlgError):
            riccati_gains_per_point(*problem)
    assert err.value.timestep == 2


def test_contraction_policy_validates_inputs():
    b = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        ContractionPolicy(metric=np.array([[1.0, 2.0], [2.0, 1.0]]), rate=1.0, b_matrix=b)
    # the Cholesky test reads one triangle, so this one passed it and gave a
    # negative metric distance, -3, at e = (1, -1)
    with pytest.raises(ValueError, match="symmetric"):
        ContractionPolicy(metric=np.array([[1.0, 5.0], [0.0, 1.0]]), rate=1.0, b_matrix=b)
    with pytest.raises(ValueError, match="rate"):
        ContractionPolicy(metric=np.eye(2), rate=0.0, b_matrix=b)
    with pytest.raises(ValueError, match="effort"):
        ContractionPolicy(metric=np.eye(2), rate=1.0, b_matrix=b, effort_weight=0.0)


def test_contraction_policy_gain_formula():
    policy = contraction_feedback(
        double_integrator(control_limit=None), DI_METRIC, DI_RATE, effort_weight=DI_EFFORT
    )
    # K = B^T M / r = [3, 2] / (1/3) = [9, 6]
    e = np.array([0.1, -0.2])
    assert np.allclose(policy.apply_batch(e, np.zeros(2), 0), -np.array([[9.0, 6.0]]) @ e)
    # one state gives the bits of the single-state formula -K @ e
    rng = np.random.default_rng(3)
    for n_x, n_u in [(1, 1), (2, 1), (3, 2), (4, 3)]:
        a = rng.normal(size=(n_x, n_x))
        metric = a @ a.T + n_x * np.eye(n_x)
        metric = 0.5 * (metric + metric.T)
        b = rng.normal(size=(n_x, n_u))
        policy = ContractionPolicy(metric, rate=1.0, b_matrix=b, effort_weight=0.7)
        k = (b.T @ metric) / 0.7
        for _ in range(20):
            x, xs = rng.normal(size=n_x), rng.normal(size=n_x)
            assert same_bits(policy.apply_batch(x, xs, 0), -k @ (x - xs))


def test_contraction_metric_distance_decreases_at_certified_rate_di():
    model = double_integrator(control_limit=None)
    policy = contraction_feedback(model, DI_METRIC, DI_RATE, effort_weight=DI_EFFORT)
    rng = np.random.default_rng(5)
    decay = np.exp(-2.0 * DI_RATE * model.dt)
    for _ in range(50):
        x = rng.uniform(-3, 3, size=2)
        xs = rng.uniform(-3, 3, size=2)
        u = rng.uniform(-2, 2, size=1)
        v0 = policy.metric_distance(x, xs)
        x1 = model.step(x, u + policy.apply_batch(x, xs, 0))
        xs1 = model.step(xs, u)
        assert policy.metric_distance(x1, xs1) <= v0 * decay * (1 + 1e-12)
        assert policy.contraction_step_ok(model, x, xs, u)


def test_contraction_metric_distance_decreases_at_certified_rate_pendulum():
    # the state jacobian is affine in cos(theta) in [-1, 1], so certifying the
    # two extremes certifies every point; spot-check across the state space
    model = nonlinear_benchmark(control_limit=None, damping=0.5)
    policy = contraction_feedback(model, PEND_METRIC, PEND_RATE, effort_weight=1.0)
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = rng.uniform(-np.pi, np.pi, size=2)
        xs = x + rng.uniform(-0.2, 0.2, size=2)  # local: differential certificate
        u = rng.uniform(-2, 2, size=1)
        assert policy.contraction_step_ok(model, x, xs, u, tol=1e-6)


def test_contraction_step_ok_detects_wrong_rate():
    model = double_integrator(control_limit=None)
    greedy = contraction_feedback(model, DI_METRIC, rate=50.0, effort_weight=DI_EFFORT)
    assert not greedy.contraction_step_ok(model, np.array([1.0, 0.0]), np.zeros(2), np.zeros(1))


def test_contraction_step_ok_trivial_when_already_on_nominal():
    model = double_integrator()
    policy = contraction_feedback(model, DI_METRIC, DI_RATE, effort_weight=DI_EFFORT)
    assert policy.contraction_step_ok(model, np.ones(2), np.ones(2), np.zeros(1))


def test_fit_gamma_geometric_series_recovers_ratio():
    report = fit_gamma(np.array([1.0, 0.5, 0.25, 0.125]))
    assert report.gamma_hat == pytest.approx(0.5, abs=1e-12)
    assert report.satisfied and not report.boundary and not report.perfect


def test_fit_gamma_envelopes_irregular_decay():
    rng = np.random.default_rng(7)
    for _ in range(50):
        gamma = rng.uniform(0.3, 0.95)
        t = np.arange(12)
        residuals = gamma**t * rng.uniform(0.2, 1.0, size=12)
        residuals[0] = 1.0
        report = fit_gamma(residuals)
        assert report.satisfied
        assert np.all(residuals <= report.gamma_hat ** t * residuals[0] * (1 + 1e-9))


def test_fit_gamma_flat_series_hits_the_boundary():
    report = fit_gamma(np.array([1.0, 1.0, 1.0]))
    assert report.gamma_hat == 1.0
    assert report.boundary and report.satisfied


def test_fit_gamma_growth_clamps_and_reports_unsatisfied():
    report = fit_gamma(np.array([1.0, 2.0]))
    assert report.gamma_hat == 1.0
    assert report.boundary and not report.satisfied


def test_fit_gamma_immediate_zero_tail():
    report = fit_gamma(np.array([1.0, 0.0, 0.0]))
    assert report.gamma_hat == 0.0
    assert report.satisfied


def test_fit_gamma_all_zero_is_perfect():
    report = fit_gamma(np.zeros(4))
    assert report.perfect and report.gamma_hat == 0.0


def test_fit_gamma_input_validation():
    with pytest.raises(ValueError):
        fit_gamma(np.array([]))
    with pytest.raises(ValueError):
        fit_gamma(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        fit_gamma(np.array([0.0, 1.0]))
