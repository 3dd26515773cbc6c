"""Noise plans, Monte-Carlo free energy, softmax weights and batched rollouts.

Determinism contract: every random stream is derived from the experiment seed
plus a (step, stream) path through :func:`derive_seed`, so a run is a pure
function of its config.  Every controller path rolls its samples through one
kernel, :func:`propagate`, which advances groups of samples under shared
noise draws with an optional tracking correction.  Per-sample evaluation is
elementwise and penalties are summed in a fixed order after the horizon loop,
so a sample's cost does not depend on which other samples or groups share
its batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .costs import CostFunction, control_penalty_batch, control_penalty_coef

Array = np.ndarray

# Stream tags for seed derivation; one per independent noise consumer.
STREAM_ROLLOUT = 1
STREAM_NSP = 2
STREAM_PLANT = 4

# Polynomial order of the optional Savitzky-Golay plan smoothing.
SAVGOL_ORDER = 3


class DegenerateSamplingError(RuntimeError):
    """Raised when a sample batch carries no usable information (all crashed)."""


def derive_seed(master: int, *path: int) -> int:
    """Stable child seed for a named stream below the master seed."""
    seq = np.random.SeedSequence([int(master), *[int(p) for p in path]])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class NoisePlan:
    """A frozen batch of control perturbations, reproducible from its seed."""

    draws: Array  # (n_samples, horizon, n_u)

    @classmethod
    def sample(cls, seed: int, n_samples: int, horizon: int, sigma_chol: Array) -> "NoisePlan":
        if n_samples < 1 or horizon < 1:
            raise ValueError("n_samples and horizon must be at least 1")
        sigma_chol = np.atleast_2d(np.asarray(sigma_chol, dtype=float))
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n_samples, horizon, sigma_chol.shape[0]))
        # one (N*T, n_u) matmul, not N stacked (T, n_u) ones; same values
        draws = (z.reshape(-1, z.shape[-1]) @ sigma_chol.T).reshape(z.shape)
        return cls(draws=draws)


def free_energy_mc(costs: Array, lam: float) -> float | Array:
    """-lam * log mean(exp(-costs/lam)), evaluated stably against the batch minimum.

    ``costs`` is ``(..., N)`` and the reduction runs over the last axis, so a
    stack of batches takes one call; the result is a float for a 1-D batch
    and an array of the leading shape otherwise.  Each row gives the same
    bits as its own call, and every estimate lies in
    ``[min(costs), min(costs) + lam*log(N)]``.
    """
    costs = np.atleast_1d(np.asarray(costs, dtype=float))
    if costs.shape[-1] == 0:
        raise ValueError("free energy of an empty batch is undefined")
    if not np.all(np.isfinite(costs)):
        raise ValueError("free energy requires finite costs")
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    m = np.min(costs, axis=-1, keepdims=True)
    value = m[..., 0] - lam * np.log(np.mean(np.exp(-(costs - m) / lam), axis=-1))
    return float(value) if costs.ndim == 1 else value


def softmax_weights(costs: Array, lam: float) -> Array:
    """Normalized exp(-costs/lam), stabilized against the minimum cost."""
    costs = np.asarray(costs, dtype=float)
    if costs.size == 0:
        raise ValueError("cannot weight an empty batch")
    if not np.all(np.isfinite(costs)):
        raise DegenerateSamplingError("non-finite costs in the sample batch")
    w = np.exp(-(costs - np.min(costs)) / lam)
    return w / np.sum(w)


def weighted_noise(weights: Array, draws: Array) -> Array:
    """Weight-averaged noise sequence, shape ``(T, n_u)``."""
    return np.einsum("n,ntu->tu", weights, draws)


def shift_control_sequence(controls: Array) -> Array:
    """Receding-horizon shift: drop the first control, zero-pad the tail."""
    shifted = np.empty_like(controls)
    shifted[:-1] = controls[1:]
    shifted[-1] = 0.0
    return shifted


def mppi_update(
    controls: Array,
    weights: Array,
    draws: Array,
    smoothing_window: int = 0,
) -> Array:
    """Move the control plan toward the weighted noise average.

    ``smoothing_window > 0`` applies a Savitzky-Golay filter of polynomial
    order :data:`SAVGOL_ORDER` along the horizon after the update; it is off
    by default.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0.0) or not np.all(np.isfinite(weights)) or np.sum(weights) <= 0.0:
        raise DegenerateSamplingError("sample weights degenerate (all zero or non-finite)")
    updated = controls + weighted_noise(weights, draws)
    if smoothing_window > 0:
        from scipy.signal import savgol_filter

        window = min(smoothing_window, updated.shape[0])
        if window > SAVGOL_ORDER:
            updated = savgol_filter(updated, window, SAVGOL_ORDER, axis=0)
    return updated


@dataclass(frozen=True)
class RolloutResult:
    """Per-sample rollout costs plus crash flags."""

    costs: Array
    state_costs: Array
    crashed: Array


def propagate(
    model,
    cost: CostFunction,
    starts: Array,
    controls: Array,
    draws: Array,
    feedback: Callable[[Array, int], Array] | None = None,
) -> tuple[Array, Array, Array | None]:
    """Roll groups of samples through shared noise and accumulate state cost.

    ``starts`` broadcasts to ``(G, N, n_x)``; ``controls`` is one sequence
    ``(T, n_u)`` for every group or one per group ``(G, T, n_u)``; ``draws``
    is ``(N, T, n_u)`` and is shared by every group.  Step ``t`` applies
    ``controls[t] + k + draws[:, t]``, where ``k = feedback(x, t)`` is a
    correction broadcastable to ``(G, N, n_u)`` computed from the current
    states ``x``; with no ``feedback`` nothing is added.  Rows whose state
    stops being finite are parked at zero and add no further cost.

    Returns the running plus terminal state costs and the crash flags, both
    ``(G, N)``, and the corrections stacked along the horizon,
    ``(..., T, n_u)``, or None without ``feedback``.
    """
    n, horizon, n_u = draws.shape
    groups = np.broadcast_shapes(starts.shape[:-2], controls.shape[:-2], (1,))
    ctrl = np.broadcast_to(controls, groups + (horizon, n_u))
    x = np.broadcast_to(starts, groups + (n, model.n_x))
    s = np.zeros(x.shape[:-1])
    alive = None  # row mask, built once some row has gone non-finite
    ks = None
    for t in range(horizon):
        u = ctrl[:, None, t]
        if feedback is not None:
            k = feedback(x, t)
            if ks is None:
                ks = np.empty(k.shape[:-1] + (horizon, k.shape[-1]))
            ks[..., t, :] = k
            u = u + k
        x = model.step(x, u + draws[:, t])
        # one whole-array check per step; a per-row reduction over the short
        # state axis costs about twenty times as much
        if not np.isfinite(x).all():
            bad = ~np.isfinite(x).all(axis=-1)
            alive = ~bad if alive is None else alive & ~bad
            x[bad] = 0.0  # park crashed samples; their cost is overwritten later
        step_cost = cost.state_cost(x)
        s += step_cost if alive is None else np.where(alive, step_cost, 0.0)
    final_cost = cost.terminal_cost(x)
    s += final_cost if alive is None else np.where(alive, final_cost, 0.0)
    crashed = np.zeros(s.shape, dtype=bool) if alive is None else ~alive
    return s, crashed, ks


def rollout_batch(
    model,
    cost: CostFunction,
    x0: Array,
    controls: Array,
    draws: Array,
    control_term: str = "plain",
) -> RolloutResult:
    """Propagate every sample under ``controls + draws`` and price the paths.

    ``x0`` may be a single state or one start per sample.  Groups sharing the
    draws are rolled out in one pass when ``x0`` is ``(G, 1 or N, n_x)`` or
    ``controls`` is ``(G, T, n_u)``; the results are then ``(G, N)`` and each
    group equals its own ungrouped call.  ``control_term`` selects the
    penalty variant: "plain" (lam/2) or "beta" (lam*(1-beta)/2); the state
    costs alone are returned as ``state_costs``.  Samples whose state stops
    being finite get ``cost.crash_cost`` and are flagged.
    """
    x0 = np.asarray(x0, dtype=float)
    controls = np.asarray(controls, dtype=float)
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 3 or draws.shape[1] != controls.shape[-2]:
        raise ValueError("draws must have shape (n_samples, horizon, n_u) matching controls")
    if x0.ndim >= 2 and x0.shape[-2] not in (1, draws.shape[0]):
        raise ValueError("per-sample starts must match the number of samples")
    if control_term not in ("plain", "beta"):
        raise ValueError(f"unknown control_term {control_term!r}")

    state_costs, crashed, _ = propagate(model, cost, x0, controls, draws)
    if x0.ndim < 3 and controls.ndim < 3:
        state_costs, crashed = state_costs[0], crashed[0]
    coef = control_penalty_coef(cost.lam, cost.beta, control_term == "beta")
    total = state_costs + control_penalty_batch(controls, draws, cost.sigma_inv, coef)
    total = np.where(crashed, cost.crash_cost, total)
    return RolloutResult(costs=total, state_costs=state_costs, crashed=crashed)


@dataclass(frozen=True)
class StepRecord:
    """What one controller step reports; the harness turns it into a log row.

    ``fe_real`` and ``fe_nom`` are the free energies of the real and nominal
    batches, ``x_star`` the nominal state the step tracked and ``degen`` marks
    a step whose samples all crashed.  ``bound`` (and ``bound_no_d``, without
    the disturbance radius) covers the next free-energy increment; it stays
    infinite for controllers that emit none, as ``cand_idx``, ``gamma_hat``
    and ``emv`` keep their defaults there.  The flags mark a tube reset, a
    nominal-state propagation that found no feasible candidate, and a step
    where the contraction certificate did not hold.
    """

    fe_real: float
    fe_nom: float
    x_star: Array
    degen: bool
    bound: float = np.inf
    bound_no_d: float = np.inf
    cand_idx: int = -1
    gamma_hat: float = np.nan
    emv: float = np.nan
    reset: bool = False
    nsp_fallback: bool = False
    contraction_violation: bool = False


class MppiController:
    """Vanilla MPPI: sample around the plan, reweight, apply the first control.

    The per-step rollout noise comes from the (seed, step, rollout) stream, so
    two controllers with the same seed see identical draws at the same step.
    """

    name = "mppi"

    def __init__(
        self,
        model,
        cost: CostFunction,
        n_samples: int,
        horizon: int,
        seed: int,
        smoothing_window: int = 0,
    ):
        self.model = model
        self.cost = cost
        self.n_samples = n_samples
        self.horizon = horizon
        self.seed = seed
        self.smoothing_window = smoothing_window
        self.controls = np.zeros((horizon, model.n_u))
        self.step_index = 0

    def step(self, x: Array) -> tuple[Array, StepRecord]:
        x = np.asarray(x, dtype=float)
        plan = NoisePlan.sample(
            derive_seed(self.seed, self.step_index, STREAM_ROLLOUT),
            self.n_samples,
            self.horizon,
            self.cost.sigma_chol,
        )
        res = rollout_batch(self.model, self.cost, x, self.controls, plan.draws)
        degenerate = bool(res.crashed.all())
        if degenerate:
            action = self.model.clamp(self.controls[0])
            updated = self.controls
            fe = float(self.cost.crash_cost)
        else:
            weights = softmax_weights(res.costs, self.cost.lam)
            updated = mppi_update(self.controls, weights, plan.draws, self.smoothing_window)
            action = self.model.clamp(updated[0])
            fe = free_energy_mc(res.costs, self.cost.lam)
        self.controls = shift_control_sequence(updated)
        self.step_index += 1
        return action, StepRecord(fe_real=fe, fe_nom=fe, x_star=x.copy(), degen=degenerate)
