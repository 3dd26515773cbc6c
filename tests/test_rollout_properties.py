"""Properties of the shared rollout kernel over random batches.

Every path (plain rollouts, grouped candidates, the augmented real+nominal
batch) runs through one kernel, so these check bit for bit that the batch
layout never changes a sample's numbers, and that rows whose dynamics or
costs go non-finite are priced as crashes while the rest of the batch is
untouched.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from robust_mppi import sampling
from robust_mppi.costs import CostFunction, quadratic_wall_cost
from robust_mppi.dynamics import SystemModel, double_integrator, nonlinear_benchmark
from robust_mppi.feedback import LinearGainsPolicy, ZeroFeedback, contraction_feedback
from robust_mppi.rmppi import augmented_rollouts, mixed_cost
from robust_mppi.sampling import NoisePlan, propagate, rollout_batch

from oracles import augmented_rollouts_two_copies, control_cost_term
from test_rmppi import control_blowup_model, fuse_model

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
    draws = NoisePlan.sample(seed, n, horizon, COST.sigma_chol)
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


class ColumnGain:
    """Elementwise tracking correction on position, so every row is independent."""

    def __init__(self, gain):
        self.gain = gain

    def apply_batch(self, x, x_star, t):
        return -self.gain * (x[..., :1] - x_star[..., :1])


def solo_state_cost(model, x0, controls, eps, cost=CRASH_COST):
    """One row stepped alone: its path cost, and whether it crashed.

    The row crashed if its state left the finite range at any step or its
    path cost is not finite.
    """
    x = x0[None]
    total = np.zeros(1)
    crashed = False
    with np.errstate(all="ignore"):
        for t in range(controls.shape[0]):
            x = model.step(x, controls[t] + eps[None, t])
            crashed = crashed or not np.isfinite(x).all()
            total = total + cost.state_cost(x)
        total = total + cost.terminal_cost(x)
    return total[0], crashed or not np.isfinite(total[0])


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
        if ref_crashed:
            assert res.costs[i] == CRASH_COST.crash_cost
        else:
            assert state[0, i] == ref_cost
        alone = rollout_batch(model, CRASH_COST, x0, controls, draws[i : i + 1], "beta")
        alone_state, _ = propagate(model, CRASH_COST, x0, controls, draws[i : i + 1])
        assert np.array_equal(alone.costs, res.costs[i : i + 1])
        # a crashed row's raw state cost may be NaN
        assert np.array_equal(alone_state[0], state[0, i : i + 1], equal_nan=True)
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
        assert np.array_equal(grouped_state[g], one_state[0], equal_nan=True)
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


OVERFLOW_COST = CostFunction(
    state_cost=lambda x: np.exp(400.0 * x[..., 0]),
    terminal_cost=lambda x: np.exp(400.0 * x[..., 0]),
    sigma=np.eye(1) * 0.5,
    lam=3.0,
    beta=0.25,
    crash_cost=1.0e4,
)


@PROPERTY_SETTINGS
@given(batches(groups=2))
def test_a_row_whose_cost_overflows_on_a_finite_state_is_priced_as_a_crash(batch):
    """``exp(400 x0)`` overflows once ``x0`` passes about 1.77; the states stay finite."""
    model, starts, controls, draws = batch
    x0, x0_star, u = starts[0], starts[1], controls[0]
    plain = rollout_batch(model, OVERFLOW_COST, x0, u, draws, "beta")
    roll = augmented_rollouts(
        model, OVERFLOW_COST, x0, x0_star, u, ZeroFeedback(1), draws, alpha=50.0
    )
    for i in range(draws.shape[0]):
        real = solo_state_cost(model, x0, u, draws[i], OVERFLOW_COST)
        nominal = solo_state_cost(model, x0_star, u, draws[i], OVERFLOW_COST)
        for cost, crashed in (real, nominal):
            # the state stays finite, so only an overflow can crash the row
            assert crashed == (cost == np.inf)
        assert plain.crashed[i] == real[1]
        assert roll.crashed[i] == (real[1] or nominal[1])
        if real[1]:
            assert plain.costs[i] == OVERFLOW_COST.crash_cost
        for name in ("real", "mixed", "nominal_eval"):
            value = getattr(roll, name)[i]
            assert np.isfinite(value)
            if roll.crashed[i]:
                assert value == OVERFLOW_COST.crash_cost
        assert np.isfinite(plain.costs[i])


# -- blocks of horizon steps ------------------------------------------------------

# A rollout prices its states in blocks of steps sized to a byte budget; the
# batches above are too small to split a horizon under the default budget, so
# these tests set the budget so that the horizon is cut into blocks of one
# step, into equal blocks and a shorter tail, or into one block.
BLOCK_KINDS = ("one_step", "ragged", "whole_horizon")


@st.composite
def blocked_batches(draw, kind):
    """Two groups of rows, a shared plan, a gain, and a budget that cuts the horizon as ``kind`` says.

    Returns the model, the ``(2, n_x)`` starts, the plan, the draws, the
    gain, the budget and the block length it gives.
    """
    n = draw(st.integers(1, 24))
    horizon = draw(st.integers(3 if kind == "ragged" else 1, 12))
    starts = draw(hnp.arrays(np.float64, (2, 2), elements=values, fill=st.nothing()))
    controls = draw(hnp.arrays(np.float64, (horizon, 1), elements=values, fill=st.nothing()))
    draws = NoisePlan.sample(draw(st.integers(0, 2**32 - 1)), n, horizon, COST.sigma_chol)
    name = draw(st.sampled_from([*sorted(MODELS), "fuse"]))
    model = fuse_model(draw(st.floats(0.5, 8.0))) if name == "fuse" else MODELS[name]
    step_bytes = 2 * n * model.n_x * 8
    if kind == "one_step":
        block = 1
    elif kind == "ragged":
        block = draw(st.sampled_from([b for b in range(2, horizon) if horizon % b]))
    else:
        block = horizon
    # any budget from ``block`` steps' bytes up to the next step's gives ``block``
    budget = block * step_bytes + draw(st.integers(0, step_bytes - 1))
    if kind == "whole_horizon":
        budget = draw(st.sampled_from([budget, 2**40]))
    return model, starts, controls, draws, draw(st.floats(0.0, 2.0)), budget, block


def tracking_closure(gain, n):
    """A feedback closure like the augmented batch's: group 0 tracks group 1 through ColumnGain."""
    policy = ColumnGain(gain)
    correction = np.zeros((2, n, 1))

    def feedback(x, t):
        correction[0] = policy.apply_batch(x[0], x[1], t)
        return correction

    return feedback


def solo_tracked_state_costs(model, starts, controls, eps, gain):
    """One row of both groups stepped alone under :func:`tracking_closure`.

    Returns each group's path cost and whether it crashed: its final state
    or its path cost is not finite.
    """
    policy = ColumnGain(gain)
    x = starts[:, None]
    total = np.zeros((2, 1))
    with np.errstate(all="ignore"):
        for t in range(eps.shape[0]):
            k = np.zeros((2, 1, 1))
            k[0] = policy.apply_batch(x[0], x[1], t)
            # one plan, (T, n_u), or one per group, (2, T, n_u)
            x = model.step(x, controls[..., t, None, :] + k + eps[None, t])
            total = total + CRASH_COST.state_cost(x)
        total = total + CRASH_COST.terminal_cost(x)
    crashed = ~np.isfinite(total[:, 0]) | ~np.isfinite(x[:, 0]).all(axis=-1)
    return total[:, 0], crashed


@pytest.mark.parametrize("tracked", [False, True], ids=["no_feedback", "column_gain"])
@pytest.mark.parametrize("kind", BLOCK_KINDS)
def test_state_costs_do_not_depend_on_how_the_horizon_is_cut_into_blocks(kind, tracked):
    @PROPERTY_SETTINGS
    @given(blocked_batches(kind))
    def check(batch):
        model, starts, controls, draws, gain, budget, block = batch
        n, horizon = draws.shape[:2]
        lengths = []

        def state_cost(x):
            lengths.append(len(x))
            return CRASH_COST.state_cost(x)

        cost = dataclasses.replace(CRASH_COST, state_cost=state_cost)
        feedback = tracking_closure(gain, n) if tracked else None
        default = propagate(model, CRASH_COST, starts[:, None], controls, draws, feedback)
        with mock.patch.object(sampling, "_STATE_BLOCK_BYTES", budget):
            state, crashed = propagate(model, cost, starts[:, None], controls, draws, feedback)
        tail = horizon % block
        assert lengths == [block] * (horizon // block) + ([tail] if tail else [])
        assert np.array_equal(state, default[0], equal_nan=True)
        assert np.array_equal(crashed, default[1])
        for i in range(n):
            if tracked:
                ref = solo_tracked_state_costs(model, starts, controls, draws[i], gain)
            else:
                solo = [solo_state_cost(model, starts[g], controls, draws[i]) for g in range(2)]
                ref = tuple(np.array(column) for column in zip(*solo))
            assert np.array_equal(state[:, i], ref[0], equal_nan=True)
            assert np.array_equal(crashed[:, i], ref[1])

    check()


# -- draws of two streams in one buffer ------------------------------------------


SLICE_SIGMA_CHOLS = {
    "one_input": np.array([[0.7]]),
    "diagonal": np.diag([0.5, 2.0]),
    "full": np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 0.5]])),
}


@PROPERTY_SETTINGS
@given(
    st.sampled_from(sorted(SLICE_SIGMA_CHOLS)),
    st.integers(0, 2**32 - 1),
    st.integers(0, 20),
    st.integers(1, 20),
    st.integers(0, 20),
    st.integers(1, 12),
)
def test_a_plan_drawn_into_a_leading_axis_slice_has_the_bits_of_a_fresh_plan(
    kind, seed, before, n, after, horizon
):
    chol = SLICE_SIGMA_CHOLS[kind]
    buffer = np.full((before + n + after, horizon, chol.shape[0]), np.nan)
    draws = NoisePlan.sample(seed, n, horizon, chol, out=buffer[before : before + n])
    assert np.shares_memory(draws, buffer)
    assert np.array_equal(draws, NoisePlan.sample(seed, n, horizon, chol))
    # the rows around the slice are untouched
    assert np.isnan(buffer[:before]).all() and np.isnan(buffer[before + n :]).all()


@st.composite
def stacked_batches(draw, model_name):
    """A start, a plan and two streams' draws in leading-axis slices of one buffer."""
    sizes = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    horizon = draw(st.integers(1, 12))
    buffer = np.empty((sum(sizes), horizon, 1))
    parts = (buffer[: sizes[0]], buffer[sizes[0] :])
    for part in parts:
        NoisePlan.sample(draw(st.integers(0, 2**32 - 1)), len(part), horizon, COST.sigma_chol, part)
    start = draw(hnp.arrays(np.float64, 2, elements=values, fill=st.nothing()))
    controls = draw(hnp.arrays(np.float64, (horizon, 1), elements=values, fill=st.nothing()))
    if model_name == "fuse":
        model = fuse_model(draw(st.floats(0.5, 4.0)))
    else:
        model = MODELS[model_name]
    return model, start, controls, buffer, parts


# the fuse model's rows crash in either coordinate; nonlinear_benchmark is
# the pendulum
@pytest.mark.parametrize("model_name", [*sorted(MODELS), "fuse"])
def test_one_call_over_stacked_draws_gives_each_row_the_bits_of_its_own_call(model_name):
    @PROPERTY_SETTINGS
    @given(stacked_batches(model_name))
    def check(batch):
        model, start, controls, buffer, parts = batch
        state, crashed = propagate(model, CRASH_COST, start[None, None], controls + 0.0, buffer)
        rows = 0
        for part in parts:
            alone_state, alone_crashed = propagate(
                model, CRASH_COST, start[None, None], controls + 0.0, part.copy()
            )
            assert np.array_equal(
                state[:, rows : rows + len(part)], alone_state, equal_nan=True
            )
            assert np.array_equal(crashed[:, rows : rows + len(part)], alone_crashed)
            rows += len(part)

    check()


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
    draws = NoisePlan.sample(draw(st.integers(0, 2**32 - 1)), n, horizon, cost.sigma_chol)
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
    draws = NoisePlan.sample(draw(st.integers(0, 2**32 - 1)), n, horizon, cost.sigma_chol)
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


# -- controls past the actuation limits -------------------------------------------

# The batches above draw plans in [-3, 3], inside the bundled systems' limits
# of 8 and 10, so no control there is ever clipped.  Here the models get
# small, one-sided or no limits; a rollout without feedback builds and clamps
# a block of steps' controls at once, one with feedback fills and clamps each
# step's slice of the block, and each row must still get the bits of
# clamping its own controls step by step.
LIMIT_KINDS = ("both_sides", "low_only", "high_only", "none")
CLAMP_MODELS = (*sorted(MODELS), "two_input", "fuse")


@st.composite
def clamped_batches(draw, kind, groups=None):
    """1 to 4 groups of rows (or ``groups``) under a model limited as ``kind`` says, and a block budget.

    Returns the model, the ``(G, n_x)`` starts, the ``(G, T, n_u)`` plans,
    the draws and a budget that cuts the horizon into blocks of 1 to T steps.
    """
    name = draw(st.sampled_from(CLAMP_MODELS))
    if name == "fuse":
        base = fuse_model(draw(st.floats(0.5, 8.0)))
    elif name == "two_input":
        base = two_input_model()
    else:
        base = MODELS[name]
    limit = draw(hnp.arrays(
        np.float64, base.n_u, elements=st.floats(0.05, 1.0), fill=st.nothing()
    ))
    model = dataclasses.replace(
        base,
        control_low=-limit if kind in ("both_sides", "low_only") else None,
        control_high=limit if kind in ("both_sides", "high_only") else None,
    )
    groups = draw(st.integers(1, 4)) if groups is None else groups
    n, horizon = draw(st.integers(1, 24)), draw(st.integers(1, 12))
    starts = draw(hnp.arrays(np.float64, (groups, 2), elements=values, fill=st.nothing()))
    controls = draw(hnp.arrays(
        np.float64, (groups, horizon, model.n_u), elements=values, fill=st.nothing()
    ))
    chol = np.eye(model.n_u) * 0.7
    draws = NoisePlan.sample(draw(st.integers(0, 2**32 - 1)), n, horizon, chol)
    budget = draw(st.integers(1, horizon)) * groups * n * model.n_x * 8
    return model, starts, controls, draws, budget


@pytest.mark.parametrize("tracked", [False, True], ids=["no_feedback", "column_gain"])
@pytest.mark.parametrize("kind", LIMIT_KINDS)
def test_clamped_controls_give_each_row_the_bits_of_clamping_step_by_step(kind, tracked):
    # with feedback, group 0 tracks group 1 as in the augmented batch
    @PROPERTY_SETTINGS
    @given(clamped_batches(kind, groups=2 if tracked else None), st.floats(0.0, 2.0))
    def check(batch, gain):
        model, starts, controls, draws, budget = batch
        applied = controls[:, None] + draws  # (G, N, T, n_u)
        assume(kind == "none" or not np.array_equal(model.clamp(applied), applied))
        feedback = tracking_closure(gain, draws.shape[0]) if tracked else None
        with mock.patch.object(sampling, "_STATE_BLOCK_BYTES", budget):
            state, crashed = propagate(
                model, CRASH_COST, starts[:, None], controls, draws, feedback
            )
        for i in range(draws.shape[0]):
            if tracked:
                ref = solo_tracked_state_costs(model, starts, controls, draws[i], gain)
            else:
                solo = [
                    solo_state_cost(model, starts[g], controls[g], draws[i])
                    for g in range(starts.shape[0])
                ]
                ref = tuple(np.array(column) for column in zip(*solo))
            assert np.array_equal(state[:, i], ref[0], equal_nan=True)
            assert np.array_equal(crashed[:, i], ref[1])

    check()
