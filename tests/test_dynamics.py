"""System models: Euler stepping, jacobians, disturbances, the real-plant map."""

import numpy as np
import pytest

from robust_mppi.dynamics import (
    DisturbanceModel,
    SystemModel,
    double_integrator,
    make_system,
    nominal_trajectory,
    nonlinear_benchmark,
    propagate_real,
    register_system,
)


def test_double_integrator_step_matches_hand_euler():
    model = double_integrator(dt=0.5, control_limit=None)
    x = np.array([1.0, 2.0])
    u = np.array([3.0])
    # deriv = (2, 3), so x' = (1, 2) + 0.5*(2, 3) = (2, 3.5)
    assert np.array_equal(model.step(x, u), np.array([2.0, 3.5]))


def test_double_integrator_rest_step_moves_velocity_only():
    model = double_integrator(dt=0.02)
    out = model.step(np.zeros(2), np.array([1.0]))
    assert np.array_equal(out, np.array([0.0, 0.02]))


def test_step_clamps_control_at_limits():
    model = double_integrator(dt=1.0, control_limit=2.0)
    hard = model.step(np.zeros(2), np.array([100.0]))
    at_limit = model.step(np.zeros(2), np.array([2.0]))
    assert np.array_equal(hard, at_limit)


def test_step_broadcasts_over_batches():
    model = double_integrator(dt=0.1)
    xs = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.0]])
    us = np.array([[1.0], [0.0], [-2.0]])
    batch = model.step(xs, us)
    single = np.stack([model.step(xs[i], us[i]) for i in range(3)])
    assert np.array_equal(batch, single)


def test_nonlinear_benchmark_origin_is_equilibrium():
    model = nonlinear_benchmark()
    out = model.step(np.zeros(2), np.zeros(1))
    assert np.array_equal(out, np.zeros(2))


def test_nonlinear_benchmark_damping_enters_derivative():
    model = nonlinear_benchmark(dt=1.0, control_limit=None, damping=0.25)
    # theta = 0, omega = 2: omega_dot = -sin(0) - 0.25*2 + 0 = -0.5
    out = model.step(np.array([0.0, 2.0]), np.zeros(1))
    assert np.allclose(out, np.array([2.0, 1.5]), rtol=0, atol=1e-15)


@pytest.mark.parametrize("factory", [double_integrator, nonlinear_benchmark])
def test_analytic_jacobians_match_finite_differences(factory):
    model = factory(dt=0.02, control_limit=None)
    stripped = SystemModel(
        name="fd",
        n_x=model.n_x,
        n_u=model.n_u,
        dt=model.dt,
        deriv=model.deriv,
    )
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=model.n_x)
        u = rng.uniform(-3.0, 3.0, size=model.n_u)
        a_ref, b_ref = model.jacobians(x, u)
        a_fd, b_fd = stripped.jacobians(x, u)
        assert np.allclose(a_fd, a_ref, atol=1e-5, rtol=0)
        assert np.allclose(b_fd, b_ref, atol=1e-5, rtol=0)


def test_discrete_jacobians_are_step_jacobians():
    model = double_integrator(dt=0.02)
    ad, bd = model.discrete_jacobians(np.zeros(2), np.zeros(1))
    assert np.array_equal(ad, np.array([[1.0, 0.02], [0.0, 1.0]]))
    assert np.array_equal(bd, np.array([[0.0], [0.02]]))


def test_nominal_trajectory_shape_and_recursion():
    model = double_integrator(dt=0.1)
    controls = np.array([[1.0], [0.0], [-1.0]])
    states = nominal_trajectory(model, np.array([0.0, 0.0]), controls)
    assert states.shape == (4, 2)
    for t in range(3):
        assert np.array_equal(states[t + 1], model.step(states[t], controls[t]))


def test_make_system_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown system"):
        make_system("helicopter")


def test_register_system_round_trip():
    register_system("di_slow", lambda: double_integrator(dt=0.5))
    model = make_system("di_slow")
    assert model.dt == 0.5


def test_disturbance_validation():
    with pytest.raises(ValueError):
        DisturbanceModel(noise_multiplier=-1.0)
    with pytest.raises(ValueError):
        DisturbanceModel(w_bound=-0.1)


def test_control_noise_variance_scales_with_multiplier():
    sigma_chol = np.linalg.cholesky(np.array([[0.25]]))
    rng = np.random.default_rng(0)
    draws = np.array(
        [DisturbanceModel(noise_multiplier=4.0).control_noise(rng, sigma_chol)[0]
         for _ in range(20000)]
    )
    # variance should be 4 * 0.25 = 1.0
    assert abs(np.var(draws) - 1.0) < 0.05


def test_state_disturbance_stays_inside_ball():
    dist = DisturbanceModel(w_bound=0.3)
    rng = np.random.default_rng(1)
    draws = np.stack([dist.state_disturbance(rng, 2) for _ in range(100000)])
    norms = np.linalg.norm(draws, axis=1)
    assert norms.max() <= 0.3 + 1e-12
    # the ball is filled, not just its surface
    assert norms.min() < 0.05
    assert abs(draws.mean(axis=0)).max() < 0.01


def test_state_disturbance_zero_bound_is_exactly_zero():
    dist = DisturbanceModel(w_bound=0.0)
    rng = np.random.default_rng(2)
    assert np.array_equal(dist.state_disturbance(rng, 2), np.zeros(2))


def test_propagate_real_noise_free_matches_step():
    model = double_integrator(dt=0.02)
    dist = DisturbanceModel(noise_multiplier=1.0, w_bound=0.0)
    rng = np.random.default_rng(3)
    out = propagate_real(model, dist, np.zeros(2), np.array([1.0]), np.zeros(1), rng)
    assert np.array_equal(out, np.array([0.0, 0.02]))


def test_propagate_real_applies_control_and_noise_through_one_channel():
    model = double_integrator(dt=0.02, control_limit=None)
    dist = DisturbanceModel(w_bound=0.0)
    rng = np.random.default_rng(4)
    out = propagate_real(model, dist, np.zeros(2), np.array([1.0]), np.array([0.5]), rng)
    assert np.array_equal(out, model.step(np.zeros(2), np.array([1.5])))
    # the sum is clamped once, so noise cannot add authority past the limit
    limited = double_integrator(dt=0.02, control_limit=1.2)
    out = propagate_real(limited, dist, np.zeros(2), np.array([1.0]), np.array([0.5]), rng)
    assert np.array_equal(out, limited.step(np.zeros(2), np.array([1.2])))


def test_propagate_real_validates_shapes():
    model = double_integrator()
    dist = DisturbanceModel()
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="state shape"):
        propagate_real(model, dist, np.zeros(3), np.zeros(1), np.zeros(1), rng)
    with pytest.raises(ValueError, match="eps shape"):
        propagate_real(model, dist, np.zeros(2), np.zeros(1), np.zeros(2), rng)
    with pytest.raises(ValueError, match="u shape"):
        propagate_real(model, dist, np.zeros(2), np.zeros(2), np.zeros(1), rng)


def test_disturbance_stream_is_deterministic_given_seed():
    dist = DisturbanceModel(noise_multiplier=2.0, w_bound=0.1)
    chol = np.eye(1)
    a = np.random.default_rng(9)
    b = np.random.default_rng(9)
    for _ in range(5):
        assert np.array_equal(dist.control_noise(a, chol), dist.control_noise(b, chol))
        assert np.array_equal(dist.state_disturbance(a, 2), dist.state_disturbance(b, 2))
