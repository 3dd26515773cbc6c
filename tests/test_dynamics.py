"""System models: Euler stepping, jacobians, disturbances, the real-plant map."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

from test_rollout_properties import two_input_model


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


@pytest.mark.parametrize(
    "low, high, field",
    [
        ([0.5], None, "control_low"),
        ([-1.0, 0.1], [1.0, 1.0], "control_low"),
        (None, [-0.5], "control_high"),
        ([-1.0, -1.0], [1.0, -0.1], "control_high"),
    ],
)
def test_control_limits_must_keep_zero_admissible(low, high, field):
    # a zero tracking correction must stay zero after the clamp
    n_u = len(low if low is not None else high)
    limits = {
        "control_low": None if low is None else np.array(low),
        "control_high": None if high is None else np.array(high),
    }
    with pytest.raises(ValueError, match=f"^{field} must keep zero inside"):
        SystemModel("limits", 2, n_u, 0.1, lambda x, u: x, **limits)


@pytest.mark.parametrize("dt", [0.0, -0.02, np.inf, np.nan])
def test_a_step_that_is_not_finite_and_positive_is_refused(dt):
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        SystemModel("bad_dt", 2, 1, dt, lambda x, u: x)


def test_control_limits_that_touch_zero_are_accepted():
    for low, high in (([0.0], [1.0]), ([-1.0], [0.0]), ([0.0], [0.0]), ([-0.0], None)):
        model = SystemModel("limits", 2, 1, 0.1, lambda x, u: x,
                            control_low=None if low is None else np.array(low),
                            control_high=None if high is None else np.array(high))
        assert np.array_equal(model.clamp(np.zeros(1)), np.zeros(1))


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


def finite_difference_only(model):
    """The same system with its analytic jacobians removed."""
    return SystemModel(name="fd", n_x=model.n_x, n_u=model.n_u, dt=model.dt, deriv=model.deriv)


@pytest.mark.parametrize("factory", [double_integrator, nonlinear_benchmark])
def test_analytic_jacobians_match_finite_differences(factory):
    model = factory(dt=0.02, control_limit=None)
    stripped = finite_difference_only(model)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=model.n_x)
        u = rng.uniform(-3.0, 3.0, size=model.n_u)
        a_ref, b_ref = model.jacobians(x, u)
        a_fd, b_fd = stripped.jacobians(x, u)
        assert np.allclose(a_fd, a_ref, atol=1e-5, rtol=0)
        assert np.allclose(b_fd, b_ref, atol=1e-5, rtol=0)


JACOBIAN_MODELS = {
    "double_integrator": double_integrator(dt=0.05),
    "nonlinear_benchmark": nonlinear_benchmark(),
    "double_integrator-fd": finite_difference_only(double_integrator(dt=0.05)),
    "nonlinear_benchmark-fd": finite_difference_only(nonlinear_benchmark()),
}


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(JACOBIAN_MODELS)),
    lead=hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4),
    shared_control=st.booleans(),
    data=st.data(),
)
def test_batched_jacobians_equal_per_point_calls_bit_for_bit(name, lead, shared_control, data):
    model = JACOBIAN_MODELS[name]
    values = st.floats(-1e3, 1e3)
    x = data.draw(hnp.arrays(float, lead + (model.n_x,), elements=values))
    u_shape = (model.n_u,) if shared_control else lead + (model.n_u,)
    u = data.draw(hnp.arrays(float, u_shape, elements=values))
    u_full = np.broadcast_to(u, lead + (model.n_u,))
    for method in (model.jacobians, model.discrete_jacobians):
        a, b = method(x, u)
        assert a.shape == lead + (model.n_x, model.n_x)
        assert b.shape == lead + (model.n_x, model.n_u)
        for idx in np.ndindex(lead):
            a_pt, b_pt = method(x[idx], u_full[idx])
            assert same_bits(a[idx], a_pt) and same_bits(b[idx], b_pt)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    factory=st.sampled_from([double_integrator, nonlinear_benchmark]),
    lead=hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4),
    into_x=st.booleans(),
    data=st.data(),
)
def test_a_step_into_out_returns_it_with_the_bits_of_a_fresh_step(factory, lead, into_x, data):
    # controls reach past the limits so that the clamp does real work; the
    # rollouts clamp ahead and step into a buffer with euler, the plant with step
    model = factory()
    x = data.draw(hnp.arrays(float, lead + (model.n_x,), elements=st.floats(-1e3, 1e3)))
    u = data.draw(hnp.arrays(float, lead + (model.n_u,), elements=st.floats(-20.0, 20.0)))
    expect = model.step(x, u)
    buf = x if into_x else np.full_like(x, np.nan)
    assert model.euler(x, model.clamp(u), out=buf) is buf
    assert same_bits(buf, expect)


@pytest.mark.parametrize("name", ["double_integrator-fd", "nonlinear_benchmark-fd"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_finite_differences_at_non_finite_points_warn_nothing(name, bad):
    # the NaN entries are refused downstream (Riccati divergence, constant-B check)
    model = JACOBIAN_MODELS[name]
    x = np.array([[0.3, bad], [bad, 0.2], [0.1, 0.4], [0.1, 0.4]])
    u = np.array([[0.5], [0.5], [bad], [0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = model.jacobians(x, u)
    assert np.isnan(a).any() and np.isnan(b).any()
    assert np.isfinite(a[3]).all() and np.isfinite(b[3]).all()


def test_finite_differences_of_an_infinite_derivative_warn_nothing():
    def deriv(x, u):
        return np.full(np.broadcast_shapes(x.shape, u.shape[:-1] + (2,)), np.inf)

    model = SystemModel("infinite_deriv", 2, 1, 0.02, deriv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = model.jacobians(np.zeros((4, 2)), np.zeros(1))
    assert np.isnan(a).all() and np.isnan(b).all()


def test_finite_differences_call_deriv_a_fixed_number_of_times():
    calls = []
    base = nonlinear_benchmark()

    def counting_deriv(x, u):
        calls.append(np.shape(x))
        return base.deriv(x, u)

    model = SystemModel("counted", 2, 1, base.dt, counting_deriv)
    model.jacobians(np.zeros((30, 2)), np.zeros((30, 1)))
    assert calls == [(30, 2)] * (2 * (model.n_x + model.n_u))


def test_jacobians_name_the_shapes_they_refuse():
    model = double_integrator()
    with pytest.raises(ValueError, match=r"\(\.\.\., 2\).*\(\.\.\., 1\).*\(4, 3\)/\(4, 1\)"):
        model.jacobians(np.zeros((4, 3)), np.zeros((4, 1)))
    single_point = SystemModel(
        "single_point", 2, 1, 0.1, model.deriv,
        jac=lambda x, u: (np.eye(2), np.ones((2, 1))),
    )
    assert single_point.jacobians(np.zeros(2), np.zeros(1))[0].shape == (2, 2)
    shapes = r"single_point.*\(2, 2\)/\(2, 1\).*\(5, 2, 2\)/\(5, 2, 1\)"
    with pytest.raises(ValueError, match=shapes):
        single_point.jacobians(np.zeros((5, 2)), np.zeros((5, 1)))


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


TRAJECTORY_MODELS = {
    "double_integrator": double_integrator,
    "nonlinear_benchmark": nonlinear_benchmark,
    "two_input": two_input_model,
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(TRAJECTORY_MODELS)),
    st.sampled_from([None, 2.0]),
    st.floats(1e-3, 0.2),
    st.integers(1, 30),
    st.data(),
)
def test_nominal_trajectory_equals_the_step_loop_bit_for_bit(name, limit, dt, horizon, data):
    # nominal_trajectory clamps the plan once; controls reach well past the
    # limit so that the clamp does real work
    model = TRAJECTORY_MODELS[name](dt=dt, control_limit=limit)
    x0 = data.draw(hnp.arrays(float, 2, elements=st.floats(-4.0, 4.0)))
    controls = data.draw(
        hnp.arrays(float, (horizon, model.n_u), elements=st.floats(-12.0, 12.0))
    )
    expect = [x0]
    for t in range(horizon):
        expect.append(model.step(expect[-1], controls[t]))
    states = nominal_trajectory(model, x0, controls)
    assert np.array_equal(states.view(np.uint64), np.array(expect).view(np.uint64))


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
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="noise_multiplier must be finite"):
            DisturbanceModel(noise_multiplier=bad)
    with pytest.raises(ValueError):
        DisturbanceModel(w_bound=-0.1)
    # a non-finite radius would make every state disturbance nan or inf
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="w_bound must be finite"):
            DisturbanceModel(w_bound=bad)


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
