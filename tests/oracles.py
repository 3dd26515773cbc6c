"""Reference implementations the tests check the library against.

None of these runs inside a controller.  Each one computes, by a second and
more literal route, a quantity the library computes in batched form: a path
cost from an explicit trajectory, one step of the control penalty, the
per-step penalty terms by the two ``einsum`` calls the library used before
it worked on columns, sampled Lipschitz constants, normalized importance
weights with the proposal correction written out, the density ratio of one
augmented noise sequence, the LQ tracking gains from a Riccati pass that
linearizes point by point, and the full tracking-rate fit with its envelope
flags, which ``feedback.fit_gamma_window`` computes on a trailing window.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from robust_mppi.costs import CostFunction, control_penalty_coef
from robust_mppi.feedback import RiccatiDivergenceError

Array = np.ndarray


def path_cost(cost: CostFunction, trajectory: Array) -> float:
    """Terminal cost of the last state plus running cost of all states before it.

    ``trajectory`` has shape ``(T+1, n_x)``; a single-state trajectory is pure
    terminal cost.
    """
    trajectory = np.atleast_2d(np.asarray(trajectory, dtype=float))
    total = float(cost.terminal_cost(trajectory[-1]))
    if trajectory.shape[0] > 1:
        total += float(np.sum(cost.state_cost(trajectory[:-1])))
    return total


def control_cost_term(
    cost: CostFunction, u: Array, eps: Array, beta_weighted: bool = False
) -> float:
    """Single-step penalty ``coef * u^T Sigma^{-1} (u + 2*eps)``."""
    u = np.asarray(u, dtype=float)
    eps = np.asarray(eps, dtype=float)
    coef = control_penalty_coef(cost.lam, cost.beta, beta_weighted)
    return float(coef * (u @ cost.sigma_inv @ (u + 2.0 * eps)))


def penalty_step_terms_einsum(u_eff: Array, eps_t: Array, sigma_inv: Array) -> Array:
    """``u_eff^T Sigma^{-1} (u_eff + 2*eps_t)`` by two ``einsum`` calls over the last axis."""
    si = np.einsum("vu,...u->...v", sigma_inv, u_eff)
    return np.einsum("...v,...v->...", si, u_eff + 2.0 * eps_t)


class LipschitzEstimate(NamedTuple):
    lipschitz_q: float
    lipschitz_phi: float
    n_pairs: int


def lipschitz_estimate(
    cost: CostFunction,
    domain_sampler: Callable[[np.random.Generator, int], Array],
    n_pairs: int = 10000,
    seed: int = 0,
) -> LipschitzEstimate:
    """Empirical Lipschitz bounds for q and phi from sampled point pairs.

    ``domain_sampler(rng, n)`` must return ``(n, n_x)`` points from the task
    domain.  Pairs closer than a tiny threshold are discarded; if none remain
    the domain is degenerate and a ValueError is raised.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    rng = np.random.default_rng(seed)
    a = np.asarray(domain_sampler(rng, n_pairs), dtype=float)
    b = np.asarray(domain_sampler(rng, n_pairs), dtype=float)
    dist = np.linalg.norm(a - b, axis=-1)
    ok = dist > 1e-12
    if not np.any(ok):
        raise ValueError("degenerate domain: all sampled pairs coincide")
    dq = np.abs(cost.state_cost(a) - cost.state_cost(b))[ok]
    dphi = np.abs(cost.terminal_cost(a) - cost.terminal_cost(b))[ok]
    d = dist[ok]
    return LipschitzEstimate(float(np.max(dq / d)), float(np.max(dphi / d)), int(ok.sum()))


def is_weight(costs: Array, controls: Array, draws: Array, sigma_inv: Array, lam: float) -> Array:
    """Normalized importance weights for rollouts sampled around a control plan.

    ``costs`` are the per-sample state path costs (no control penalty); the
    correction for sampling around ``controls`` instead of the zero-mean
    distribution is folded in analytically.  Equals the normalized density
    ratio ``exp(-S/lam) * p(V) / q(V)`` over the batch.
    """
    costs = np.asarray(costs, dtype=float)
    draws = np.asarray(draws, dtype=float)
    si_u = controls @ sigma_inv.T  # (T, n_u)
    # log p(V) - log q(V) = -sum_t (0.5*u_t + eps_t)^T Sigma^{-1} u_t
    correction = np.einsum("ntu,tu->n", 0.5 * controls[None, :, :] + draws, si_u)
    log_w = -costs / lam - correction
    log_w -= np.max(log_w)
    w = np.exp(log_w)
    return w / np.sum(w)


def augmented_density_ratio(
    u_seq: Array, k_seq: Array, eps_seq: Array, sigma_inv: Array
) -> float:
    """Importance weight of one noise sequence under the shifted proposal.

    The proposal draws controls around ``u + k`` while the target density is
    zero-mean, so the ratio for a realized noise ``eps`` is
    ``exp(-0.5 * sum_t (u_t+k_t)^T Sigma^{-1} (u_t+k_t+2 eps_t))``.
    """
    u_seq = np.atleast_2d(np.asarray(u_seq, dtype=float))
    k_seq = np.atleast_2d(np.asarray(k_seq, dtype=float))
    eps_seq = np.atleast_2d(np.asarray(eps_seq, dtype=float))
    shifted = u_seq + k_seq
    quad = np.einsum("tu,uv,tv->", shifted, sigma_inv, shifted + 2.0 * eps_seq)
    return float(np.exp(-0.5 * quad))


def riccati_gains_per_point(
    model, nominal_states: Array, controls: Array, q: Array, r: Array
) -> Array:
    """``(T, n_u, n_x)`` LQ tracking gains, one ``discrete_jacobians`` call per timestep.

    The recursion of ``feedback.ilqg_gains`` written point by point: one
    linearization per timestep, ``bd.T @ p`` formed twice and finiteness
    checked entry by entry.  Raises :class:`RiccatiDivergenceError` at the
    timestep where the value matrix stops being finite or exceeds norm 1e12.
    """
    horizon = controls.shape[0]
    gains = np.zeros((horizon, model.n_u, model.n_x))
    p = q.copy()
    for t in reversed(range(horizon)):
        ad, bd = model.discrete_jacobians(nominal_states[t], controls[t])
        s_uu = r + bd.T @ p @ bd
        k = np.linalg.solve(s_uu, bd.T @ p @ ad)
        p = q + ad.T @ p @ (ad - bd @ k)
        p = 0.5 * (p + p.T)
        if not np.all(np.isfinite(p)) or np.linalg.norm(p) > 1e12:
            raise RiccatiDivergenceError(t)
        gains[t] = -k
    return gains


@dataclass(frozen=True)
class TrackingReport:
    """Fitted exponential tracking rate for a residual series."""

    gamma_hat: float
    satisfied: bool
    boundary: bool
    perfect: bool


def fit_gamma(residuals: Array) -> TrackingReport:
    """Smallest per-step decay factor that envelopes the residual series.

    gamma_hat is max over t >= 1 of (residuals[t]/residuals[0])^(1/t), clamped
    to 1.  ``satisfied`` states whether residuals[t] <= gamma_hat^t *
    residuals[0] for every logged t; with the clamp active and genuine growth
    in the series it is False.  An all-zero series is perfect tracking with
    gamma_hat = 0.
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim != 1 or residuals.size < 1:
        raise ValueError("residuals must be a non-empty 1-d array")
    if np.any(residuals < 0.0) or not np.all(np.isfinite(residuals)):
        raise ValueError("residuals must be finite and nonnegative")
    if np.all(residuals == 0.0):
        return TrackingReport(0.0, satisfied=True, boundary=False, perfect=True)
    r0 = residuals[0]
    if r0 <= 0.0:
        raise ValueError("residuals[0] must be positive unless the series is all zero")
    if residuals.size == 1:
        return TrackingReport(0.0, satisfied=True, boundary=False, perfect=False)

    t = np.arange(1, residuals.size)
    rest = residuals[1:]
    with np.errstate(divide="ignore"):
        log_ratios = np.where(rest > 0.0, (np.log(rest) - np.log(r0)) / t, -np.inf)
    raw = float(np.exp(np.max(log_ratios)))
    gamma_hat = min(raw, 1.0)
    # compare in the log domain to keep the by-construction envelope exact
    with np.errstate(divide="ignore"):
        ok = np.log(rest, where=rest > 0.0, out=np.full_like(rest, -np.inf)) <= (
            np.log(gamma_hat) if gamma_hat > 0.0 else -np.inf
        ) * t + np.log(r0) + 1e-12
    satisfied = bool(np.all(ok))
    return TrackingReport(gamma_hat, satisfied=satisfied, boundary=gamma_hat >= 1.0, perfect=False)
