"""Properties of the shared rollout kernel over random batches.

Every path (plain rollouts, grouped candidates, the augmented real+nominal
batch) runs through one kernel, so these check bit for bit that the batch
layout never changes a sample's numbers, and that rows whose dynamics go
non-finite are priced as crashes while the rest of the batch is untouched.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from robust_mppi.costs import CostFunction, quadratic_wall_cost
from robust_mppi.dynamics import SystemModel, double_integrator, nonlinear_benchmark
from robust_mppi.feedback import ZeroFeedback
from robust_mppi.rmppi import augmented_rollouts
from robust_mppi.sampling import NoisePlan, rollout_batch

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
    assert np.array_equal(roll.nominal, plain.state_costs)
    assert np.array_equal(roll.penalized, plain.state_costs)
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
    for g in range(starts.shape[0]):
        alone = rollout_batch(model, COST, starts[g], controls[g], draws, control_term)
        assert np.array_equal(grouped.costs[g], alone.costs)
        assert np.array_equal(grouped.state_costs[g], alone.state_costs)
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
    for i in range(draws.shape[0]):
        ref_cost, ref_crashed = solo_state_cost(model, x0, controls, draws[i])
        assert res.crashed[i] == ref_crashed
        # a crashed row keeps the finite running cost it had when it crashed
        assert np.isfinite(res.state_costs[i]) and res.state_costs[i] == ref_cost
        if ref_crashed:
            assert res.costs[i] == CRASH_COST.crash_cost
        alone = rollout_batch(model, CRASH_COST, x0, controls, draws[i : i + 1], "beta")
        assert np.array_equal(alone.costs, res.costs[i : i + 1])
        assert np.array_equal(alone.state_costs, res.state_costs[i : i + 1])
        assert np.array_equal(alone.crashed, res.crashed[i : i + 1])


@PROPERTY_SETTINGS
@given(st.integers(1, 3).flatmap(lambda g: crashing_batches(groups=g)))
def test_rollouts_price_exactly_the_crashed_rows(batch):
    model, starts, controls, draws = batch
    grouped = rollout_batch(model, CRASH_COST, starts[:, None], controls, draws, "beta")
    for g in range(starts.shape[0]):
        one = rollout_batch(model, CRASH_COST, starts[g], controls[g], draws, "beta")
        check_crash_pricing(model, starts[g], controls[g], draws, one)
        assert np.array_equal(grouped.costs[g], one.costs)
        assert np.array_equal(grouped.state_costs[g], one.state_costs)
        assert np.array_equal(grouped.crashed[g], one.crashed)


@PROPERTY_SETTINGS
@given(crashing_batches(groups=2), st.floats(0.0, 2.0))
def test_augmented_rollouts_price_a_crash_in_either_copy(batch, gain):
    model, starts, controls, draws = batch
    x0, x0_star, u = starts[0], starts[1], controls[0]
    policy = ColumnGain(gain)
    roll = augmented_rollouts(model, CRASH_COST, x0, x0_star, u, policy, draws, alpha=50.0)
    channels = ("nominal", "penalized", "real", "mixed", "nominal_eval")
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
