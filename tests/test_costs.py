"""Cost channels: penalties, path costs, the wall task, Lipschitz bounds."""

import numpy as np
import pytest

from robust_mppi.costs import (
    CostFunction,
    control_penalty_batch,
    control_penalty_coef,
    penalty_step_terms,
    quadratic_wall_cost,
)

from oracles import control_cost_term, lipschitz_estimate, path_cost


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
    assert cost.n_u == 2


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


def test_control_penalty_batch_matches_stepwise_sum():
    rng = np.random.default_rng(1)
    cost = simple_cost(lam=3.0, beta=0.25)
    controls = rng.normal(size=(5, 1))
    draws = rng.normal(size=(7, 5, 1))
    coef = control_penalty_coef(cost.lam, cost.beta, True)
    batch = control_penalty_batch(controls, draws, cost.sigma_inv, coef)
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
