"""Properties of the shared rollout kernel over random batches.

Every path (plain rollouts, grouped candidates, the augmented real+nominal
batch) runs through one kernel, so these check bit for bit that the batch
layout never changes a sample's numbers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from robust_mppi.costs import CostFunction
from robust_mppi.dynamics import double_integrator, nonlinear_benchmark
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
    st.sampled_from(["none", "plain", "beta"]),
)
def test_one_grouped_rollout_equals_separate_rollouts(batch, control_term):
    model, starts, controls, draws = batch
    grouped = rollout_batch(model, COST, starts[:, None], controls, draws, control_term)
    for g in range(starts.shape[0]):
        alone = rollout_batch(model, COST, starts[g], controls[g], draws, control_term)
        assert np.array_equal(grouped.costs[g], alone.costs)
        assert np.array_equal(grouped.state_costs[g], alone.state_costs)
        assert np.array_equal(grouped.crashed[g], alone.crashed)
