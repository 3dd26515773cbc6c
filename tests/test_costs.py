"""Cost channels: penalties, path costs, the wall task, Lipschitz bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from robust_mppi.costs import (
    CostFunction,
    control_penalty_batch,
    control_penalty_coef,
    penalty_step_terms,
    quadratic_wall_cost,
)

from oracles import (
    control_cost_term,
    lipschitz_estimate,
    path_cost,
    penalty_step_terms_einsum,
    wall_cost_every_operation,
)


def simple_cost(sigma=None, lam=2.0, beta=0.5):
    return CostFunction(
        state_cost=lambda x: np.sum(x * x, axis=-1),
        terminal_cost=lambda x: 2.0 * np.sum(x * x, axis=-1),
        sigma=np.eye(1) if sigma is None else sigma,
        lam=lam,
        beta=beta,
    )


def test_validation_rejects_bad_parameters():
    q = lambda x: np.sum(x * x, axis=-1)
    with pytest.raises(ValueError, match="square"):
        CostFunction(q, q, sigma=np.ones((1, 2)), lam=1.0)
    with pytest.raises(ValueError, match="symmetric"):
        CostFunction(q, q, sigma=np.array([[1.0, 0.5], [0.0, 1.0]]), lam=1.0)
    with pytest.raises(ValueError, match="positive definite"):
        CostFunction(q, q, sigma=np.array([[1.0, 2.0], [2.0, 1.0]]), lam=1.0)
    with pytest.raises(ValueError, match="lam"):
        CostFunction(q, q, sigma=np.eye(1), lam=0.0)
    with pytest.raises(ValueError, match="beta"):
        CostFunction(q, q, sigma=np.eye(1), lam=1.0, beta=1.0)
    with pytest.raises(ValueError, match="beta"):
        CostFunction(q, q, sigma=np.eye(1), lam=1.0, beta=-0.1)
    with pytest.raises(ValueError, match="crash_cost"):
        CostFunction(q, q, sigma=np.eye(1), lam=1.0, crash_cost=np.inf)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_lam_that_is_not_finite_and_positive_is_rejected(lam):
    q = lambda x: np.sum(x * x, axis=-1)
    with pytest.raises(ValueError, match="lam"):
        CostFunction(q, q, sigma=np.eye(1), lam=lam)


def test_beta_zero_is_allowed_and_collapses_the_discount():
    cost = simple_cost(beta=0.0)
    assert control_penalty_coef(cost.lam, cost.beta, True) == control_penalty_coef(
        cost.lam, cost.beta, False
    )


def test_sigma_factorizations_are_cached_and_consistent():
    sigma = np.array([[0.5, 0.1], [0.1, 0.4]])
    cost = CostFunction(
        lambda x: np.sum(x, axis=-1), lambda x: np.sum(x, axis=-1), sigma, lam=1.0
    )
    assert np.allclose(cost.sigma_chol @ cost.sigma_chol.T, sigma)
    assert np.allclose(cost.sigma_inv @ sigma, np.eye(2), atol=1e-12)
    # both are derived from sigma; passing either is refused, not ignored
    for name in ("sigma_chol", "sigma_inv"):
        with pytest.raises(TypeError, match=name):
            CostFunction(cost.state_cost, cost.terminal_cost, sigma, lam=1.0, **{name: 99 * sigma})


def test_path_cost_frozen_example():
    cost = simple_cost()
    traj = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    # q(1,0) + q(2,0) + phi(3,0) = 1 + 4 + 18
    assert path_cost(cost, traj) == 23.0


def test_path_cost_single_state_is_terminal_only():
    cost = simple_cost()
    assert path_cost(cost, np.array([[2.0, 0.0]])) == 8.0


def test_control_term_frozen_example():
    # Sigma = I, lam = 2: plain coef = 1, term = u*(u + 2*eps) = 1*(1+2) = 3
    cost = simple_cost(lam=2.0, beta=0.5)
    assert control_cost_term(cost, np.array([1.0]), np.array([1.0])) == 3.0
    # the beta-weighted variant halves it at beta = 0.5
    assert control_cost_term(cost, np.array([1.0]), np.array([1.0]), True) == 1.5


def test_control_term_scales_inversely_with_sigma():
    # Sigma = 4I makes Sigma^{-1} exactly 0.25, so the term is exactly 3/4
    cost = simple_cost(sigma=4.0 * np.eye(1), lam=2.0)
    assert control_cost_term(cost, np.array([1.0]), np.array([1.0])) == 0.75


def test_penalty_step_terms_matches_per_row_quadratic():
    rng = np.random.default_rng(0)
    sigma = np.array([[0.5, 0.1], [0.1, 0.4]])
    sigma_inv = np.linalg.inv(sigma)
    u = rng.normal(size=(16, 2))
    eps = rng.normal(size=(16, 2))
    terms = penalty_step_terms(u, eps, sigma_inv)
    for i in range(16):
        expected = u[i] @ sigma_inv @ (u[i] + 2.0 * eps[i])
        assert np.isclose(terms[i], expected, rtol=1e-12, atol=0)


def value_arrays(shape):
    """Finite entries, a share of them exact zeros (a zero correction, a zero draw)."""
    values = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))
    return hnp.arrays(np.float64, shape, elements=values, fill=st.nothing())


@st.composite
def sigma_inverses(draw, n_u):
    """An SPD ``sigma_inv``: full, or diagonal as every bundled scenario's is."""
    if draw(st.booleans()):
        diag = draw(hnp.arrays(np.float64, n_u, elements=st.floats(0.05, 20.0)))
        return np.linalg.inv(np.diag(diag))
    a = draw(hnp.arrays(np.float64, (n_u, n_u), elements=st.floats(-2.0, 2.0)))
    return np.linalg.inv(a @ a.T + 0.5 * np.eye(n_u))


@st.composite
def penalty_inputs(draw):
    """``u``, ``eps`` (the scalar 0.0 or an array) and ``sigma_inv``.

    The leading shapes have up to three axes and broadcast against each
    other, as a shared control sequence broadcasts against per-sample draws.
    """
    n_u = draw(st.integers(1, 4))
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=5))
    u_shape, eps_shape = (shape + (n_u,) for shape in shapes.input_shapes)
    u = draw(value_arrays(u_shape))
    eps = draw(st.one_of(st.just(0.0), value_arrays(eps_shape)))
    return u, eps, draw(sigma_inverses(n_u))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(penalty_inputs())
def test_penalty_step_terms_equal_the_einsum_formula(inputs):
    u, eps, sigma_inv = inputs
    assert np.array_equal(
        penalty_step_terms(u, eps, sigma_inv), penalty_step_terms_einsum(u, eps, sigma_inv)
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(penalty_inputs(), st.booleans())
def test_penalty_step_terms_in_place_equal_the_fresh_call(inputs, with_work):
    u, eps, sigma_inv = inputs
    # stale NaNs in the buffers would show in the result
    out = np.full(np.broadcast_shapes(u.shape[:-1], np.shape(eps)[:-1]), np.nan)
    work = np.full(u.shape[:-1], np.nan) if with_work else None
    terms = penalty_step_terms(u, eps, sigma_inv, out, work)
    assert terms is out
    assert np.array_equal(terms, penalty_step_terms(u, eps, sigma_inv))


@st.composite
def penalty_batches(draw):
    """Shared controls ``(T, n_u)`` or ``(G, T, n_u)``, draws ``(N, T, n_u)``, ``sigma_inv``."""
    n_u = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 6))
    groups = draw(st.sampled_from([(), (1,), (3,)]))
    controls = draw(value_arrays(groups + (horizon, n_u)))
    draws = draw(value_arrays((draw(st.integers(1, 5)), horizon, n_u)))
    return controls, draws, draw(sigma_inverses(n_u))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(penalty_batches(), st.floats(0.01, 10.0), st.floats(0.0, 0.99), st.booleans())
def test_scaled_control_penalty_batch_equals_the_scaled_einsum_sum(
    batch, lam, beta, beta_weighted
):
    controls, draws, sigma_inv = batch
    coef = control_penalty_coef(lam, beta, beta_weighted)
    terms = penalty_step_terms_einsum(np.expand_dims(controls, -3), draws, sigma_inv)
    expected = coef * terms.sum(axis=-1)
    assert np.array_equal(coef * control_penalty_batch(controls, draws, sigma_inv), expected)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(penalty_batches())
def test_control_penalty_batch_in_place_equals_the_fresh_call(batch):
    controls, draws, sigma_inv = batch
    out = np.full(controls.shape[:-2] + draws.shape[:-1], np.nan)
    assert np.array_equal(
        control_penalty_batch(controls, draws, sigma_inv, out),
        control_penalty_batch(controls, draws, sigma_inv),
    )


def test_control_penalty_batch_matches_stepwise_sum():
    rng = np.random.default_rng(1)
    cost = simple_cost(lam=3.0, beta=0.25)
    controls = rng.normal(size=(5, 1))
    draws = rng.normal(size=(7, 5, 1))
    coef = control_penalty_coef(cost.lam, cost.beta, True)
    batch = coef * control_penalty_batch(controls, draws, cost.sigma_inv)
    for i in range(7):
        expected = sum(
            control_cost_term(cost, controls[t], draws[i, t], beta_weighted=True)
            for t in range(5)
        )
        assert np.isclose(batch[i], expected, rtol=1e-12, atol=0)


def test_wall_cost_frozen_examples():
    task = quadratic_wall_cost(
        weights=np.array([1.0, 0.5]),
        target=np.zeros(2),
        wall_offsets=np.array([2.0, np.inf]),
        wall_slope=10.0,
        wall_cap=5.0,
    )
    # inside both walls: pure quadratic
    assert task.state_cost(np.array([1.0, 2.0])) == 3.0
    # beyond the first wall: 9 + 0.5 + 10*(3-2)
    assert task.state_cost(np.array([3.0, 1.0])) == 19.5
    # far out: the wall term caps at slope*cap
    assert task.state_cost(np.array([10.0, 0.0])) == 150.0
    # the infinite offset disables the second wall entirely
    assert task.state_cost(np.array([0.0, 100.0])) == 5000.0


def test_wall_cost_terminal_scale():
    task = quadratic_wall_cost(
        weights=np.array([1.0]), target=np.zeros(1), terminal_scale=3.0
    )
    x = np.array([2.0])
    assert task.terminal_cost(x) == 3.0 * task.state_cost(x)


def test_wall_cost_target_shifts_the_quadratic():
    task = quadratic_wall_cost(weights=np.array([2.0]), target=np.array([1.0]))
    assert task.state_cost(np.array([1.0])) == 0.0
    assert task.state_cost(np.array([3.0])) == 8.0


def some_of(*values):
    """One of ``values``, or a float from the strategy that follows them."""
    *fixed, other = values
    return st.one_of(st.sampled_from(fixed), other)


@st.composite
def wall_costs(draw):
    """``quadratic_wall_cost`` parameters, each often at a value that leaves the bits as they are.

    A target is often zero, a weight 0 or 1, an offset ``inf`` (or the
    walls off), the slope 0 or 1, the cap ``inf`` or small enough to bite,
    and the terminal scale 0 or 1.  A parameter is one value for every
    column or one per column.
    """
    n_x = draw(st.integers(1, 4))

    def per_column(elements):
        return draw(hnp.arrays(np.float64, draw(st.sampled_from([(), (n_x,)])), elements=elements))

    params = dict(
        target=per_column(some_of(0.0, -0.0, st.floats(-3.0, 3.0))),
        weights=per_column(some_of(0.0, 1.0, st.floats(0.0, 50.0))),
        wall_offsets=draw(st.none() | st.just(per_column(some_of(np.inf, st.floats(0.0, 5.0))))),
        wall_slope=draw(some_of(0.0, 1.0, st.floats(0.0, 2000.0))),
        # the shipped cap, or one that the excess past a wall often reaches
        wall_cap=draw(some_of(np.inf, 3000.0, st.floats(0.01, 10.0))),
        terminal_scale=draw(some_of(0.0, 1.0, st.floats(0.0, 10.0))),
    )
    return n_x, params


@st.composite
def wall_cost_states(draw, n_x):
    """One state ``(n_x,)`` up to a block of rollout states ``(block, G, N, n_x)``.

    Entries are finite, often at a wall, or ``+-0.0``, NaN or ``+-inf``.
    """
    lead = draw(st.sampled_from([(), (1,), (5,), (3, 4), (2, 1, 3), (3, 2, 4)]))
    specials = st.sampled_from([0.0, -0.0, 1.5, -1.5, np.nan, np.inf, -np.inf])
    elements = st.one_of(specials, st.floats(-10.0, 10.0))
    return draw(hnp.arrays(np.float64, lead + (n_x,), elements=elements))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_wall_cost_has_the_bits_of_every_operation_and_leaves_its_input_alone(data):
    n_x, params = data.draw(wall_costs())
    x = data.draw(wall_cost_states(n_x))
    before = x.copy()
    task = quadratic_wall_cost(**params)
    for ours, reference in zip(
        (task.state_cost, task.terminal_cost), wall_cost_every_operation(**params)
    ):
        with np.errstate(all="ignore"):
            got, expected = np.asarray(ours(x)), np.asarray(reference(x))
        assert got.shape == expected.shape == x.shape[:-1]
        finite = np.isfinite(expected)
        # a column whose wall is off skips the chain that turns an infinite
        # entry into NaN, so only whether a cost is finite must match there
        assert np.array_equal(np.isfinite(got), finite)
        assert got[finite].tobytes() == expected[finite].tobytes()
        assert x.tobytes() == before.tobytes()


def test_wall_cost_rejects_negative_weights():
    with pytest.raises(ValueError, match="nonnegative"):
        quadratic_wall_cost(weights=np.array([-1.0]), target=np.zeros(1))


def test_wall_cost_analytic_lipschitz_constants():
    task = quadratic_wall_cost(
        weights=np.array([1.0, 0.5]),
        target=np.zeros(2),
        wall_offsets=np.array([2.0, np.inf]),
        wall_slope=10.0,
        terminal_scale=2.0,
        domain_half_width=np.array([2.0, 3.0]),
    )
    # per-coordinate max gradient: (2*1*2 + 10, 2*0.5*3 + 0) = (14, 3)
    assert task.lipschitz_q == np.sqrt(14.0**2 + 3.0**2)
    assert task.lipschitz_phi == 2.0 * task.lipschitz_q


def test_analytic_lipschitz_dominates_sampled_estimate():
    half = np.array([2.0, 3.0])
    task = quadratic_wall_cost(
        weights=np.array([1.0, 0.5]),
        target=np.zeros(2),
        wall_offsets=np.array([1.5, np.inf]),
        wall_slope=8.0,
        terminal_scale=2.0,
        domain_half_width=half,
    )
    cost = CostFunction(task.state_cost, task.terminal_cost, np.eye(1), lam=1.0)

    def sampler(rng, n):
        return rng.uniform(-half, half, size=(n, 2))

    est = lipschitz_estimate(cost, sampler, n_pairs=20000, seed=3)
    assert est.lipschitz_q <= task.lipschitz_q
    assert est.lipschitz_phi <= task.lipschitz_phi
    # and the analytic bound is not wildly loose on this task
    assert est.lipschitz_q > 0.5 * task.lipschitz_q


def test_lipschitz_estimate_rejects_degenerate_domain():
    cost = simple_cost()
    with pytest.raises(ValueError, match="degenerate"):
        lipschitz_estimate(cost, lambda rng, n: np.zeros((n, 2)), n_pairs=100)
    with pytest.raises(ValueError, match="n_pairs"):
        lipschitz_estimate(cost, lambda rng, n: rng.normal(size=(n, 2)), n_pairs=0)
