"""Properties of the shared rollout kernel over random batches.

Every path (plain rollouts, grouped candidates, the augmented real+nominal
batch) runs through one kernel, so these check bit for bit that the batch
layout never changes a sample's numbers, and that rows whose dynamics go
non-finite are priced as crashes while the rest of the batch is untouched.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from robust_mppi.costs import CostFunction, quadratic_wall_cost
from robust_mppi.dynamics import SystemModel, double_integrator, nonlinear_benchmark
from robust_mppi.feedback import LinearGainsPolicy, ZeroFeedback, contraction_feedback
from robust_mppi.rmppi import augmented_rollouts, mixed_cost
from robust_mppi.sampling import NoisePlan, propagate, rollout_batch

from oracles import augmented_rollouts_two_copies, control_cost_term
from test_rmppi import control_blowup_model

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

MODELS = {
    "double_integrator": double_integrator(dt=0.05),
    "nonlinear_benchmark": nonlinear_benchmark(),
}

COST = CostFunction(
    state_cost=lambda x: np.sum(x * x, axis=-1),
    terminal_cost=lambda x: 2.0 * np.sum(x * x, axis=-1),
    sigma=np.eye(1) * 0.5,
    lam=3.0,
    beta=0.25,
)

values = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def batches(draw, groups=1):
    n = draw(st.integers(1, 24))
    horizon = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    # fill=nothing() draws every element instead of repeating one fill value
    starts = draw(hnp.arrays(np.float64, (groups, 2), elements=values, fill=st.nothing()))
    controls = draw(
        hnp.arrays(np.float64, (groups, horizon, 1), elements=values, fill=st.nothing())
    )
    draws = NoisePlan.sample(seed, n, horizon, COST.sigma_chol).draws
    model = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    return model, starts, controls, draws


@PROPERTY_SETTINGS
@given(batches())
def test_zero_feedback_augmented_channels_equal_plain_rollouts(batch):
    model, starts, controls, draws = batch
    x0, u = starts[0], controls[0]
    roll = augmented_rollouts(model, COST, x0, x0, u, ZeroFeedback(1), draws, alpha=np.inf)
    plain = rollout_batch(model, COST, x0, u, draws, control_term="plain")
    beta = rollout_batch(model, COST, x0, u, draws, control_term="beta")
    assert np.array_equal(roll.real, beta.costs)
    assert np.array_equal(roll.nominal_eval, beta.costs)
    assert np.array_equal(roll.mixed, plain.costs)
    assert np.array_equal(roll.crashed, plain.crashed)


@PROPERTY_SETTINGS
@given(
    st.integers(1, 4).flatmap(lambda g: batches(groups=g)),
    st.sampled_from(["plain", "beta"]),
)
def test_one_grouped_rollout_equals_separate_rollouts(batch, control_term):
    model, starts, controls, draws = batch
    grouped = rollout_batch(model, COST, starts[:, None], controls, draws, control_term)
    grouped_state, _ = propagate(model, COST, starts[:, None], controls, draws)
    for g in range(starts.shape[0]):
        alone = rollout_batch(model, COST, starts[g], controls[g], draws, control_term)
        alone_state, _ = propagate(model, COST, starts[g], controls[g], draws)
        assert np.array_equal(grouped.costs[g], alone.costs)
        assert np.array_equal(grouped_state[g], alone_state[0])
        assert np.array_equal(grouped.crashed[g], alone.crashed)


# -- crash pricing under non-finite dynamics ----------------------------------

CRASH_COST = CostFunction(
    *quadratic_wall_cost(
        np.array([10.0, 1.0]), np.zeros(2), np.array([1.0, np.inf]), 100.0, 500.0, 2.0
    )[:2],
    sigma=np.eye(1) * 0.5,
    lam=3.0,
    beta=0.25,
    crash_cost=1.0e4,
)


def fuse_model(radius):
    """Double integrator whose rows go non-finite once ``|position|`` passes ``radius``.

    Past ``+radius`` the position becomes NaN, past ``-radius`` the velocity
    becomes infinite, so a crash shows in either coordinate alone.
    """

    def deriv(x, u):
        pos, vel = x[..., 0], x[..., 1]
        return np.stack(
            [np.where(pos > radius, np.nan, vel), np.where(pos < -radius, np.inf, u[..., 0])],
            axis=-1,
        )

    return SystemModel("fuse", 2, 1, 0.5, deriv)


class ColumnGain:
    """Elementwise tracking correction on position, so every row is independent."""

    def __init__(self, gain):
        self.gain = gain

    def apply_batch(self, x, x_star, t):
        return -self.gain * (x[..., :1] - x_star[..., :1])


def solo_state_cost(model, x0, controls, eps):
    """One row stepped alone: running cost up to its crash, or the full path cost."""
    x = x0[None]
    total = np.zeros(1)
    for t in range(controls.shape[0]):
        x = model.step(x, controls[t] + eps[None, t])
        if not np.isfinite(x).all():
            return total[0], True
        total = total + CRASH_COST.state_cost(x)
    return (total + CRASH_COST.terminal_cost(x))[0], False


@st.composite
def crashing_batches(draw, groups=1):
    _, starts, controls, draws = draw(batches(groups))
    return fuse_model(draw(st.floats(0.5, 8.0))), starts, controls, draws


def check_crash_pricing(model, x0, controls, draws, res):
    state, crashed = propagate(model, CRASH_COST, x0, controls, draws)
    assert np.array_equal(crashed[0], res.crashed)
    for i in range(draws.shape[0]):
        ref_cost, ref_crashed = solo_state_cost(model, x0, controls, draws[i])
        assert res.crashed[i] == ref_crashed
        # a crashed row keeps the finite running cost it had when it crashed
        assert np.isfinite(state[0, i]) and state[0, i] == ref_cost
        if ref_crashed:
            assert res.costs[i] == CRASH_COST.crash_cost
        alone = rollout_batch(model, CRASH_COST, x0, controls, draws[i : i + 1], "beta")
        alone_state, _ = propagate(model, CRASH_COST, x0, controls, draws[i : i + 1])
        assert np.array_equal(alone.costs, res.costs[i : i + 1])
        assert np.array_equal(alone_state[0], state[0, i : i + 1])
        assert np.array_equal(alone.crashed, res.crashed[i : i + 1])


@PROPERTY_SETTINGS
@given(st.integers(1, 3).flatmap(lambda g: crashing_batches(groups=g)))
def test_rollouts_price_exactly_the_crashed_rows(batch):
    model, starts, controls, draws = batch
    grouped = rollout_batch(model, CRASH_COST, starts[:, None], controls, draws, "beta")
    grouped_state, _ = propagate(model, CRASH_COST, starts[:, None], controls, draws)
    for g in range(starts.shape[0]):
        one = rollout_batch(model, CRASH_COST, starts[g], controls[g], draws, "beta")
        one_state, _ = propagate(model, CRASH_COST, starts[g], controls[g], draws)
        check_crash_pricing(model, starts[g], controls[g], draws, one)
        assert np.array_equal(grouped.costs[g], one.costs)
        assert np.array_equal(grouped_state[g], one_state[0])
        assert np.array_equal(grouped.crashed[g], one.crashed)


@PROPERTY_SETTINGS
@given(crashing_batches(groups=2), st.floats(0.0, 2.0))
def test_augmented_rollouts_price_a_crash_in_either_copy(batch, gain):
    model, starts, controls, draws = batch
    x0, x0_star, u = starts[0], starts[1], controls[0]
    policy = ColumnGain(gain)
    roll = augmented_rollouts(model, CRASH_COST, x0, x0_star, u, policy, draws, alpha=50.0)
    channels = ("real", "mixed", "nominal_eval")
    for i in range(draws.shape[0]):
        xr, xn = x0[None], x0_star[None]
        crashed = False
        for t in range(u.shape[0]):
            k = policy.apply_batch(xr, xn, t)
            xr = model.step(xr, u[t] + k + draws[None, i, t])
            xn = model.step(xn, u[t] + draws[None, i, t])
            if not (np.isfinite(xr).all() and np.isfinite(xn).all()):
                crashed = True
                break
        assert roll.crashed[i] == crashed
        alone = augmented_rollouts(
            model, CRASH_COST, x0, x0_star, u, policy, draws[i : i + 1], alpha=50.0
        )
        assert np.array_equal(alone.crashed, roll.crashed[i : i + 1])
        for name in channels:
            value = getattr(roll, name)[i]
            assert np.isfinite(value)
            if crashed:
                assert value == CRASH_COST.crash_cost
            assert np.array_equal(getattr(alone, name), getattr(roll, name)[i : i + 1])


# -- two inputs ----------------------------------------------------------------


def two_input_model(dt=0.05, control_limit=None):
    """Control-affine test system whose two inputs both reach both states.

    It has no ``jac``, so its jacobians come from finite differences.
    """

    def deriv(x, u):
        return np.stack(
            [
                x[..., 1] + 0.5 * u[..., 1],
                -np.sin(x[..., 0]) + u[..., 0] - 0.3 * u[..., 1],
            ],
            axis=-1,
        )

    lim = None if control_limit is None else np.full(2, float(control_limit))
    return SystemModel(
        "two_input", 2, 2, dt, deriv,
        control_low=None if lim is None else -lim, control_high=lim,
    )


class RecordingPolicy:
    """Passes corrections through from ``policy`` and keeps each one applied."""

    def __init__(self, policy):
        self.policy = policy
        self.applied = []

    def apply_batch(self, x, x_star, t):
        k = self.policy.apply_batch(x, x_star, t)
        self.applied.append(np.array(k))
        return k


nonzero_gains = st.one_of(st.floats(-1.5, -0.1), st.floats(0.1, 1.5))


@st.composite
def two_input_batches(draw):
    n = draw(st.integers(1, 12))
    horizon = draw(st.integers(1, 8))
    sd = draw(hnp.arrays(np.float64, 2, elements=st.floats(0.3, 1.5), fill=st.nothing()))
    rho = draw(st.floats(-0.8, 0.8))
    sigma = np.array([[sd[0] ** 2, rho * sd[0] * sd[1]], [rho * sd[0] * sd[1], sd[1] ** 2]])
    cost = CostFunction(
        state_cost=lambda x: 10.0 + x[..., 0] ** 2 + 0.5 * x[..., 1] ** 2,
        terminal_cost=lambda x: 20.0 + 3.0 * x[..., 0] ** 2 + x[..., 1] ** 2,
        sigma=sigma,
        lam=draw(st.floats(0.5, 10.0)),
        beta=draw(st.floats(0.0, 0.9)),
    )
    starts = draw(hnp.arrays(np.float64, (2, 2), elements=values, fill=st.nothing()))
    controls = draw(hnp.arrays(
        np.float64, (horizon, 2), elements=st.floats(-1.0, 1.0), fill=st.nothing()
    ))
    gains = draw(hnp.arrays(
        np.float64, (horizon, 2, 2), elements=nonzero_gains, fill=st.nothing()
    ))
    draws = NoisePlan.sample(draw(st.integers(0, 2**32 - 1)), n, horizon, cost.sigma_chol).draws
    alpha = draw(st.floats(1.0, 1000.0))
    return cost, starts, controls, LinearGainsPolicy(gains), draws, alpha


@PROPERTY_SETTINGS
@given(two_input_batches())
def test_two_input_augmented_channels_match_a_per_sample_oracle(batch):
    """Every channel at n_u = 2 with a full sigma, priced from the corrections applied."""
    cost, starts, controls, policy, draws, alpha = batch
    model = two_input_model()
    recorder = RecordingPolicy(policy)
    roll = augmented_rollouts(model, cost, starts[0], starts[1], controls, recorder, draws, alpha)
    assert not roll.crashed.any()
    if np.array_equal(starts[0], starts[1]):
        # only the nominal copy is rolled out, so nothing was recorded; the
        # corrections it stands for are zero
        for t in range(controls.shape[0]):
            assert np.array_equal(policy.apply_batch(starts[0], starts[1], t), np.zeros(2))
        corrections = np.zeros(draws.shape)
    else:
        corrections = np.stack(recorder.applied, axis=1)  # (N, T, 2)
    zero = np.zeros(2)
    for i in range(draws.shape[0]):
        xr, xn = starts[0], starts[1]
        state_real = state_nom = 0.0
        pen_k = pen_real = pen_plain = pen_beta = 0.0
        for t in range(controls.shape[0]):
            u, k, eps = controls[t], corrections[i, t], draws[i, t]
            pen_k += control_cost_term(cost, k, zero, beta_weighted=True)
            pen_real += control_cost_term(cost, u + k, eps, beta_weighted=True)
            pen_plain += control_cost_term(cost, u, eps, beta_weighted=False)
            pen_beta += control_cost_term(cost, u, eps, beta_weighted=True)
            xr = model.step(xr, u + k + eps)
            xn = model.step(xn, u + eps)
            state_real += float(cost.state_cost(xr))
            state_nom += float(cost.state_cost(xn))
        state_real += float(cost.terminal_cost(xr))
        state_nom += float(cost.terminal_cost(xn))
        penalized = state_real + pen_k
        expected = {
            "real": state_real + pen_real,
            "mixed": mixed_cost(state_nom, penalized, alpha) + pen_plain,
            "nominal_eval": state_nom + pen_beta,
        }
        for name, value in expected.items():
            assert np.isclose(getattr(roll, name)[i], value, rtol=1e-12, atol=0), name


# -- equal starts ----------------------------------------------------------------


def twin_policy(draw, kind, model, horizon):
    """One of the bundled policies, clamped to ``model``'s limits."""
    limits = {"control_low": model.control_low, "control_high": model.control_high}
    if kind == "zero":
        return ZeroFeedback(model.n_u)
    if kind == "gains":
        gains = draw(hnp.arrays(
            np.float64, (horizon, model.n_u, model.n_x), elements=values, fill=st.nothing()
        ))
        return LinearGainsPolicy(gains, **limits)
    off = draw(st.floats(-0.5, 0.5))
    metric = np.array([[1.0, off], [off, draw(st.floats(0.6, 3.0))]])
    return contraction_feedback(model, metric, draw(st.floats(0.1, 5.0)))


TWIN_MODELS = {
    **MODELS,
    "two_input": two_input_model(control_limit=2.0),
    "control_blowup": control_blowup_model(),
}


@st.composite
def twin_batches(draw, model, kind):
    n = draw(st.integers(1, 16))
    horizon = draw(st.integers(1, 10))
    sd = draw(st.floats(0.2, 1.5))
    cost = CostFunction(
        state_cost=lambda x: np.sum(x * x, axis=-1),
        terminal_cost=lambda x: 2.0 * np.sum(x * x, axis=-1),
        sigma=np.eye(model.n_u) * sd**2,
        lam=draw(st.floats(0.5, 10.0)),
        beta=draw(st.floats(0.0, 0.9)),
        crash_cost=1.0e4,
    )
    start = draw(hnp.arrays(np.float64, 2, elements=values, fill=st.nothing()))
    controls = draw(hnp.arrays(
        np.float64, (horizon, model.n_u), elements=values, fill=st.nothing()
    ))
    policy = twin_policy(draw, kind, model, horizon)
    draws = NoisePlan.sample(draw(st.integers(0, 2**32 - 1)), n, horizon, cost.sigma_chol).draws
    return cost, start, controls, policy, draws, draw(st.floats(1.0, 1000.0))


@pytest.mark.parametrize("kind", ["zero", "gains", "contraction"])
@pytest.mark.parametrize("model_name", sorted(TWIN_MODELS))
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_equal_starts_give_the_two_copy_channels_bit_for_bit(model_name, kind):
    """Rolling out the nominal copy alone changes no bit of any channel or crash flag."""
    model = TWIN_MODELS[model_name]

    @PROPERTY_SETTINGS
    @given(twin_batches(model, kind))
    def check(batch):
        cost, start, controls, policy, draws, alpha = batch
        args = (model, cost, start, start.copy(), controls, policy, draws, alpha)
        roll, both = augmented_rollouts(*args), augmented_rollouts_two_copies(*args)
        for name in ("real", "mixed", "nominal_eval", "crashed"):
            assert np.array_equal(getattr(roll, name), getattr(both, name)), name

    check()
