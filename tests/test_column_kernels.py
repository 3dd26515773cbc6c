"""The column-wise horizon-step pieces give the same bits as the formulas they replaced.

Each reference below is the earlier row-wise formula, written out here:
reductions over ``axis=-1``, broadcasts against ``(n_x,)`` vectors,
``np.clip`` (in the model and in both feedback policies), ``np.stack`` and
one stacked matmul per sample, which a diagonal noise factor now replaces
with an in-place scaling.
"""

import numpy as np
import pytest

from robust_mppi.costs import quadratic_wall_cost
from robust_mppi.dynamics import SystemModel, double_integrator, nonlinear_benchmark
from robust_mppi.feedback import ContractionPolicy, LinearGainsPolicy
from robust_mppi.sampling import NoisePlan

SHAPES = [(), (1,), (7,), (3, 5)]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def rowwise_quadratic_wall(x, w, t, offsets, wall_slope, wall_cap):
    d = np.asarray(x, dtype=float) - t
    val = np.sum(d * d * w, axis=-1)
    if offsets is not None and wall_slope > 0.0:
        over = np.abs(d) - offsets
        val = val + wall_slope * np.sum(np.clip(over, 0.0, wall_cap), axis=-1)
    return val


@pytest.mark.parametrize("n_x", range(1, 8))
@pytest.mark.parametrize("walls", ["off", "on", "inf_offsets"])
def test_columnwise_wall_cost_matches_rowwise_sums(n_x, walls):
    rng = np.random.default_rng(n_x)
    w = rng.uniform(0.0, 10.0, n_x)
    w[0] = 0.0  # a zero weight must still add its exact zero
    t = rng.normal(size=n_x)
    offsets, slope, cap = None, 0.0, np.inf
    if walls != "off":
        offsets = rng.uniform(0.0, 2.0, n_x)
        slope, cap = 1.0e3, 5.0e3
        if walls == "inf_offsets":
            offsets[::2] = np.inf
    task = quadratic_wall_cost(w, t, offsets, slope, cap, terminal_scale=3.5)
    for shape in SHAPES:
        x = rng.normal(scale=3.0, size=shape + (n_x,))
        expect = rowwise_quadratic_wall(x, w, t, offsets, slope, cap)
        assert same_bits(task.state_cost(x), expect)
        assert same_bits(task.terminal_cost(x), 3.5 * expect)
    # a strided column view, as the rollout kernel passes a (G, N, n_x) batch
    x = rng.normal(scale=3.0, size=(2, 9, n_x))[:, ::2]
    assert same_bits(task.state_cost(x), rowwise_quadratic_wall(x, w, t, offsets, slope, cap))


def test_scalar_wall_parameters_broadcast_over_every_coordinate():
    task = quadratic_wall_cost(2.0, 0.5, 1.0, wall_slope=10.0)
    x = np.random.default_rng(0).normal(scale=3.0, size=(6, 3))
    expect = rowwise_quadratic_wall(x, 2.0, 0.5, 1.0, 10.0, np.inf)
    assert same_bits(task.state_cost(x), expect)


def test_wall_parameters_of_the_wrong_width_are_refused():
    task = quadratic_wall_cost(np.ones(3), np.zeros(3))
    with pytest.raises(ValueError):
        task.state_cost(np.zeros((4, 2)))


SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 10.0, -10.0, 1e300, -1e300])


@pytest.mark.parametrize(
    "low, high",
    [(-10.0, 10.0), (-2.5, 7.0), (None, 3.0), (-3.0, None), (np.inf * -1, np.inf)],
)
def test_clamp_matches_np_clip(low, high):
    lo = None if low is None else np.array([low, low - 1.0])
    hi = None if high is None else np.array([high, high + 1.0])
    model = SystemModel("m", 2, 2, 0.1, lambda x, u: x, control_low=lo, control_high=hi)
    rng = np.random.default_rng(4)
    u = rng.normal(scale=12.0, size=(3, 40, 2))
    u.reshape(-1)[: SPECIALS.size] = SPECIALS
    u.reshape(-1)[-SPECIALS.size :] = SPECIALS
    for batch in (u, u[0, 0], u[1]):
        expect = np.clip(batch, lo, hi)
        assert same_bits(model.clamp(batch), expect)
        # into a separate buffer, and in place
        out = np.full_like(batch, 7.0)
        assert model.clamp(batch, out=out) is out and same_bits(out, expect)
        inplace = batch.copy()
        assert model.clamp(inplace, out=inplace) is inplace and same_bits(inplace, expect)
    # both feedback policies clamp their corrections the same way; identity
    # gains carry the specials into the corrections (inf * 0 adds NaNs).  A
    # single state takes the batch formula too: ``e @ K.T`` has the bits of
    # ``K @ e``, and ``-e @ K.T`` those of ``-K @ e`` except for a NaN's sign
    gains = LinearGainsPolicy(np.eye(2)[None], control_low=lo, control_high=hi)
    contraction = ContractionPolicy(
        np.eye(2), rate=1.0, b_matrix=np.eye(2), control_low=lo, control_high=hi
    )
    x = u.reshape(-1, 2)
    x_star = rng.normal(size=x.shape)
    eye = np.eye(2)
    with np.errstate(invalid="ignore"):
        for policy, batch, point in (
            (gains, (x - x_star) @ eye.T, lambda e: eye @ e),
            (contraction, -(x - x_star) @ eye.T, lambda e: -e @ eye.T),
        ):
            assert same_bits(policy.apply_batch(x, x_star, 0), np.clip(batch, lo, hi))
            for i in (0, 1, x.shape[0] - 1):
                expect = np.clip(point(x[i] - x_star[i]), lo, hi)
                assert same_bits(policy.apply_batch(x[i], x_star[i], 0), expect)


def test_clamp_without_limits_returns_its_input():
    model = SystemModel("m", 1, 1, 0.1, lambda x, u: x)
    u = np.array([np.nan, 1e9])
    assert model.clamp(u) is u
    out = np.zeros(2)
    assert model.clamp(u, out=out) is out and same_bits(out, u)
    assert model.clamp(u, out=u) is u


def rowwise_double_integrator(x, u):
    return np.stack([x[..., 1], u[..., 0]], axis=-1)


def rowwise_nonlinear_benchmark(x, u, c=0.5):
    return np.stack([x[..., 1], -np.sin(x[..., 0]) - c * x[..., 1] + u[..., 0]], axis=-1)


@pytest.mark.parametrize(
    "model, reference",
    [
        (double_integrator(), rowwise_double_integrator),
        (nonlinear_benchmark(), rowwise_nonlinear_benchmark),
    ],
)
def test_bundled_derivatives_match_stacked_columns(model, reference):
    rng = np.random.default_rng(11)
    for shape in SHAPES:
        x = rng.normal(scale=4.0, size=shape + (2,))
        u = rng.normal(scale=4.0, size=shape + (1,))
        assert same_bits(model.deriv(x, u), reference(x, u))
        assert same_bits(model.step(x, u), x + reference(x, model.clamp(u)) * model.dt)
    x = rng.normal(size=(2, 9, 2))[:, ::3]
    u = rng.normal(size=(2, 3, 1))
    assert same_bits(model.deriv(x, u), reference(x, u))


@pytest.mark.parametrize("n_u", [1, 2, 3, 5])
@pytest.mark.parametrize("n_samples, horizon", [(1, 1), (7, 3), (256, 30), (4096, 4)])
def test_noise_plan_matches_stacked_matmul(n_u, n_samples, horizon):
    rng = np.random.default_rng(n_u)
    a = rng.normal(size=(n_u, n_u))
    chol = np.linalg.cholesky(a @ a.T + n_u * np.eye(n_u))
    seed = 1000 + n_u
    z = np.random.default_rng(seed).standard_normal((n_samples, horizon, n_u))
    draws = NoisePlan.sample(seed, n_samples, horizon, chol)
    assert same_bits(draws, z @ chol.T)


@pytest.mark.parametrize("n_u", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_samples, horizon", [(1, 1), (7, 3), (256, 30), (4096, 4)])
def test_noise_plan_with_a_diagonal_factor_matches_the_matmul(n_u, n_samples, horizon):
    # built the way build_cost builds it, from per-input standard deviations
    sigma = np.random.default_rng(n_u).uniform(0.1, 3.0, n_u)
    chol = np.linalg.cholesky(np.diag(sigma**2))
    seed = 2000 + n_u
    z = np.random.default_rng(seed).standard_normal((n_samples, horizon, n_u))
    draws = NoisePlan.sample(seed, n_samples, horizon, chol)
    assert same_bits(draws, z @ chol.T)
