"""Reference implementations the tests check the library against.

None of these runs inside a controller.  Each one computes, by a second and
more literal route, a quantity the library computes in batched form: a path
cost from an explicit trajectory, one step of the control penalty, the
per-step penalty terms by the two ``einsum`` calls the library used before
it worked on columns, sampled Lipschitz constants, normalized importance
weights with the proposal correction written out, the density ratio of one
augmented noise sequence, the LQ tracking gains from a Riccati pass that
linearizes point by point, the iLQG policy factory that builds its gains
on every call, the augmented batch rolled out as two copies whatever its
starts, the RMPPI step that rolls nominal-state propagation and the
augmented batch in two calls over draws of their own, the wall task's
state and terminal costs with every operation on every column, nominal-state
propagation's candidate line built one candidate at a time, and the
tracking-rate fit with its envelope flags,
which the acceptance test applies to the contraction law's residuals.  The
library fits no rate: a policy without a certificate runs at
``feedback.UNCERTIFIED_RATE``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from robust_mppi.costs import (
    CostFunction,
    control_penalty_batch,
    control_penalty_coef,
    penalty_step_terms,
)
from robust_mppi.dynamics import nominal_trajectory
from robust_mppi.feedback import UNCERTIFIED_RATE, RiccatiDivergenceError, ilqg_gains
from robust_mppi.rmppi import (
    AugmentedRollout,
    RmppiController,
    augmented_rollouts,
    estimate_value_noise,
    free_energy_growth_bound,
    mixed_cost,
    nominal_state_propagation,
)
from robust_mppi.sampling import (
    STREAM_NSP,
    STREAM_ROLLOUT,
    NoisePlan,
    StepRecord,
    derive_seed,
    free_energy_mc,
    mppi_update,
    propagate,
    shift_control_sequence,
    softmax_weights,
    weighted_noise,
)

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


def wall_cost_every_operation(
    weights: Array,
    target: Array,
    wall_offsets: Array | None = None,
    wall_slope: float = 0.0,
    wall_cap: float = np.inf,
    terminal_scale: float = 1.0,
) -> tuple[Callable[[Array], Array], Callable[[Array], Array]]:
    """``costs.quadratic_wall_cost``'s ``(state_cost, terminal_cost)``, every operation run.

    Each column is shifted by its target and scaled by its weight, and when
    the walls are on every column runs the whole wall chain, an infinite
    offset included; each operation makes a fresh array.  The library skips
    the operations whose parameter leaves every bit as it is.
    """
    w = np.asarray(weights, dtype=float)
    t = np.asarray(target, dtype=float)
    offsets = None if wall_offsets is None else np.asarray(wall_offsets, dtype=float)
    walls = offsets is not None and wall_slope > 0.0

    def q(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        n_x = x.shape[-1]
        params = (t, w, offsets if walls else np.inf)
        val = over = None
        for i, (ti, wi, oi) in enumerate(
            zip(*(np.broadcast_to(a, (n_x,)).tolist() for a in params))
        ):
            d = x[..., i] - ti
            term = d * d * wi
            val = term if val is None else val + term
            if walls:
                c = np.minimum(np.maximum(np.abs(d) - oi, 0.0), wall_cap)
                over = c if over is None else over + c
        if walls:
            val = val + wall_slope * over
        return val

    def phi(x: Array) -> Array:
        return terminal_scale * q(x)

    return q, phi


def candidate_line_loop(x: Array, x_star_prev: Array, x_star_prop: Array, r: int) -> Array:
    """Nominal-state propagation's ``(r+1, n_x)`` candidates, one expression per candidate.

    Candidates 0..``r // 2`` run from ``x_star_prev`` to ``x_star_prop``,
    the rest from there to ``x``, and candidate ``r`` is ``x`` itself.
    """
    mid = r // 2
    candidates = np.empty((r + 1, np.shape(x)[0]))
    for i in range(mid + 1):
        s = i / mid
        candidates[i] = (1.0 - s) * x_star_prev + s * x_star_prop
    for i in range(mid + 1, r + 1):
        s = (i - mid) / (r - mid)
        candidates[i] = (1.0 - s) * x_star_prop + s * x
    candidates[r] = x
    return candidates


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


def augmented_rollouts_two_copies(
    model, cost: CostFunction, x0: Array, x0_star: Array, controls: Array, policy,
    draws: Array, alpha: float,
) -> AugmentedRollout:
    """``rmppi.augmented_rollouts`` rolling out the real and the nominal copy.

    The library rolls out the nominal copy alone when the two starts are
    equal; this keeps the two-copy route for every start, with the tracking
    correction applied and priced, and fresh arrays for the buffers.
    """
    starts = np.stack([np.asarray(x0, dtype=float), np.asarray(x0_star, dtype=float)])
    correction = np.zeros((2, draws.shape[0], controls.shape[-1]))
    k_real = np.empty(draws.shape)

    def feedback(x: Array, t: int) -> Array:
        k = policy.apply_batch(x[0], x[1], t)
        k_real[:, t] = k
        correction[0] = k
        return correction

    state, crashed = propagate(model, cost, starts[:, None], controls, draws, feedback)
    state_real, state_nom = state
    crashed = crashed.any(axis=0)
    coef_beta = control_penalty_coef(cost.lam, cost.beta, beta_weighted=True)
    coef_plain = control_penalty_coef(cost.lam, cost.beta, beta_weighted=False)
    penalized = state_real + coef_beta * penalty_step_terms(k_real, 0.0, cost.sigma_inv).sum(-1)
    applied = k_real + controls
    real = state_real + coef_beta * penalty_step_terms(applied, draws, cost.sigma_inv).sum(-1)
    ctrl = control_penalty_batch(controls, draws, cost.sigma_inv)
    mixed = mixed_cost(state_nom, penalized, alpha) + coef_plain * ctrl
    nominal_eval = state_nom + coef_beta * ctrl
    for channel in (real, mixed, nominal_eval):
        channel[crashed] = cost.crash_cost
    return AugmentedRollout(real=real, mixed=mixed, nominal_eval=nominal_eval, crashed=crashed)


class TwoCallRmppiController(RmppiController):
    """``rmppi.RmppiController`` with nominal-state propagation and the augmented batch apart.

    NSP rolls every candidate group it evaluates itself, and the augmented
    batch is rolled from the chosen nominal state in its own call, each over
    a fresh array of draws from its own ``(seed, step, stream)`` key.  The
    library rolls NSP's measured-state candidate and the augmented batch in
    one call when it can; the run logs must not show the difference.
    """

    def _draws(self, stream: int, n_samples: int) -> Array:
        seed = derive_seed(self.seed, self.step_index, stream)
        return NoisePlan.sample(seed, n_samples, self.s.horizon, self.cost.sigma_chol)

    def step(self, x: Array) -> tuple[Array, StepRecord]:
        x = np.asarray(x, dtype=float)
        if self.x_star is None:
            self.x_star = x.copy()
        decision = None
        check_star, check_u = self.x_star, self.controls[0]
        if self.step_index > 0:
            x_star_prop = self.model.step(self.x_star, self.controls[0])
            shifted = shift_control_sequence(self.controls)
            check_star, check_u = x_star_prop, shifted[0]
            if self._nsp_nearest_first is None:
                self.x_star, self.controls = x_star_prop, shifted
            else:
                decision = nominal_state_propagation(
                    self.model, self.cost, x, self.x_star, x_star_prop, self.controls,
                    self.s.alpha, self.s.n_candidates, self._draws(STREAM_NSP, self.s.nsp_samples),
                    nearest_first=self._nsp_nearest_first,
                )
                self.x_star = decision.candidates[decision.index].copy()
                self.controls = decision.control_sequence

        policy = self.policy_factory(self.x_star, self.controls)
        violation = hasattr(policy, "contraction_step_ok") and not policy.contraction_step_ok(
            self.model, x, check_star, check_u
        )
        draws = self._draws(STREAM_ROLLOUT, self.s.n_samples)
        roll = augmented_rollouts(
            self.model, self.cost, x, self.x_star, self.controls, policy, draws, self.s.alpha
        )
        feedback0 = 0.0 if np.array_equal(x, self.x_star) else policy.apply_batch(x, self.x_star, 0)
        emv = estimate_value_noise(roll.nominal_eval, self.cost.lam, self.s.emv_repeats)
        degenerate = bool(roll.crashed.all())
        if degenerate:
            action = self.model.clamp(self.controls[0] + feedback0)
            fe_real = fe_nom = self.cost.crash_cost
            bound = bound_no_d = np.inf
            self._nsp_nearest_first = None
        else:
            w_real = softmax_weights(roll.real, self.cost.lam)
            w_nom = softmax_weights(roll.mixed, self.cost.lam)
            action = self.model.clamp(
                (self.controls[0] + feedback0) + weighted_noise(w_real, draws)[0]
            )
            fe_real = free_energy_mc(roll.real, self.cost.lam)
            fe_nom = free_energy_mc(roll.nominal_eval, self.cost.lam)
            bound, bound_no_d = free_energy_growth_bound(
                self.model, self.cost, self.s, x, self.x_star, action, fe_nom, emv
            )
            self.controls = mppi_update(self.controls, w_nom, draws)
            self._nsp_nearest_first = decision is None or decision.index == self.s.n_candidates

        self.step_index += 1
        return action, StepRecord(
            fe_real=fe_real,
            fe_nom=fe_nom,
            x_star=self.x_star.copy(),
            degen=degenerate,
            bound=bound,
            bound_no_d=bound_no_d,
            cand_idx=-1 if decision is None else decision.index,
            gamma_hat=self.s.gamma,
            emv=emv,
            nsp_fallback=decision is not None and decision.fallback,
            contraction_violation=violation,
        )


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


def eager_ilqg_policy_factory(cfg, model):
    """``harness.build_policy_factory`` for ``feedback.kind=ilqg``, building at once.

    Every call linearizes about the plan and runs the Riccati pass before it
    returns, whether or not the step applies the gains.
    """
    q_track = np.diag(np.array(cfg.q_track, dtype=float))
    r_track = np.diag(np.array(cfg.r_track, dtype=float))

    def factory(x_star: Array, controls: Array):
        states = nominal_trajectory(model, x_star, controls)
        return ilqg_gains(model, states, controls, q_track, r_track)

    return factory, UNCERTIFIED_RATE


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
