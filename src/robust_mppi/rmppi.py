"""Robust sampling controllers built around an augmented importance sampler.

Two controllers live here.  ``TubeMppiController`` runs a single optimization
from both the real and a nominal state and resets the nominal whenever the
free-energy gap stays below a threshold.  ``RmppiController`` propagates the
real and nominal systems jointly inside every rollout, applies a tracking
feedback law to the real copy, and scores each sample with a mixed cost that
caps the nominal contribution.  It also emits a per-step upper bound on the
growth of the real system's free energy, which the simulation harness checks
against the realized increments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .costs import (
    CostFunction,
    control_penalty_batch,
    control_penalty_coef,
    penalty_step_terms,
)
from .dynamics import SystemModel
from .feedback import UNCERTIFIED_RATE, FeedbackPolicy
from .sampling import (
    STREAM_NSP,
    STREAM_ROLLOUT,
    StepRecord,
    free_energy_mc,
    mppi_update,
    price_rollouts,
    propagate,
    rollout_batch,
    scratch,
    shift_control_sequence,
    softmax_weights,
    step_draws,
    weighted_noise,
)

Array = np.ndarray


def mixed_cost(s_star: Array | float, s_hat: Array | float, alpha: float) -> Array | float:
    """Blend nominal and feedback-penalized costs, capping the penalized part.

    Returns ``0.5 * s_star + 0.5 * max(min(s_hat, alpha), s_star)``.  The cap
    keeps samples whose penalized cost exceeds ``alpha`` from dominating the
    blend, while the outer max keeps the result at least as large as the
    nominal cost.  The blend stays below ``alpha`` exactly when the nominal
    cost does, a property the threshold tests rely on.
    """
    return 0.5 * s_star + 0.5 * np.maximum(np.minimum(s_hat, alpha), s_star)


@dataclass(frozen=True)
class AugmentedRollout:
    """Per-sample cost channels from one augmented batch.

    ``real`` is the full importance-corrected cost of the real copy, and
    ``mixed`` is the capped blend plus the plain control penalty, used to
    update the plan.  ``nominal_eval`` scores the nominal copy the same way
    candidate states are scored during nominal propagation, so free energies
    computed from it are comparable across the two code paths.
    """

    real: Array
    mixed: Array
    nominal_eval: Array
    crashed: Array


def augmented_rollouts(
    model: SystemModel,
    cost: CostFunction,
    x0: Array,
    x0_star: Array,
    controls: Array,
    policy: FeedbackPolicy,
    draws: Array,
    alpha: float,
    rolled: tuple[Array, Array] | None = None,
) -> AugmentedRollout:
    """Evaluate every cost channel over a batch of shared noise draws.

    Each sample propagates two copies of the system from the same draws: the
    nominal copy applies ``u + eps`` and the real copy additionally applies
    the tracking correction ``k = policy(x, x_star, t)``.  State costs
    accumulate after each step, terminal cost at the end.  With the
    feedback-penalized cost
    ``penalized = state_real + (lam(1-beta)/2) sum k^T Sigma^{-1} k``, the
    channels are assembled as

    - ``real = state_real + (lam(1-beta)/2) sum (u+k)^T Sigma^{-1} (u+k+2 eps)``
    - ``mixed = mixed_cost(state_nom, penalized, alpha)
      + (lam/2) sum u^T Sigma^{-1} (u+2 eps)``
    - ``nominal_eval = state_nom + (lam(1-beta)/2) sum u^T Sigma^{-1} (u+2 eps)``

    Samples where either copy's final state or path cost is not finite are
    marked crashed and priced at ``cost.crash_cost`` in every channel.

    When the two copies start on the same state, as after nominal-state
    propagation chose the measured state, only the nominal copy is rolled
    out: a zero offset gives a zero correction (see
    :class:`~robust_mppi.feedback.FeedbackPolicy`), so the real copy would
    repeat it bit for bit, ``state_real = state_nom`` and
    ``penalized = state_nom``, and ``real`` has the bits of ``nominal_eval``.
    That copy is rolled under ``controls + 0.0``, the nominal copy's zero
    correction, so signed zeros match.  ``rolled``, allowed only with equal
    starts, is that copy's state costs and crash flags, ``(1, N)`` each, as
    :func:`~robust_mppi.sampling.propagate` returns them for ``x0_star``
    under ``controls + 0.0`` over ``draws``; they are priced in place of a
    rollout.  The robust controller passes the rows it rolled in the same
    call as nominal-state propagation's measured-state candidate.
    """
    x0 = np.asarray(x0, dtype=float)
    x0_star = np.asarray(x0_star, dtype=float)
    twin = np.array_equal(x0, x0_star)
    if rolled is not None and not twin:
        raise ValueError("rolled rows stand for the one copy of equal starts")
    if twin:
        if rolled is None:
            rolled = propagate(model, cost, x0_star[None, None], controls + 0.0, draws)
        state, crashed = rolled
    else:
        # group 1 (nominal) stays uncorrected, so one buffer serves every
        # horizon step; only the real group's corrections are kept for pricing
        correction = np.zeros((2, draws.shape[0], controls.shape[-1]))
        k_real = scratch("k_real", draws.shape)

        def feedback(x: Array, t: int) -> Array:
            # the real copy (group 0) tracks the nominal copy (group 1)
            k = policy.apply_batch(x[0], x[1], t)
            k_real[:, t] = k
            correction[0] = k
            return correction

        starts = np.stack([x0, x0_star])[:, None]
        state, crashed = propagate(model, cost, starts, controls, draws, feedback)
    crashed = crashed.any(axis=0)

    coef_beta = control_penalty_coef(cost.lam, cost.beta, beta_weighted=True)
    coef_plain = control_penalty_coef(cost.lam, cost.beta, beta_weighted=False)
    # the penalties fill the same (N, T) buffer in turn; each is summed over
    # the horizon before the next one overwrites it.  One unscaled control
    # penalty is scaled by both coefficients.
    terms = scratch("penalty", draws.shape[:-1])
    ctrl = control_penalty_batch(controls, draws, cost.sigma_inv, terms)
    if twin:
        # a zero correction has a zero penalty
        state_real = state_nom = penalized = state[0]
        real_ctrl = ctrl
    else:
        state_real, state_nom = state
        work = scratch("penalty_work", draws.shape[:-1])
        penalized = state_real + coef_beta * penalty_step_terms(
            k_real, 0.0, cost.sigma_inv, terms, work
        ).sum(axis=-1)
        k_real += controls  # the applied u + k, in place to spare an (N, T, n_u) array
        real_ctrl = penalty_step_terms(k_real, draws, cost.sigma_inv, terms, work).sum(axis=-1)
    # three fresh arrays: the crash fill below writes each channel in place
    real = state_real + coef_beta * real_ctrl
    mixed = mixed_cost(state_nom, penalized, alpha) + coef_plain * ctrl
    nominal_eval = state_nom + coef_beta * ctrl

    if crashed.any():
        for channel in (real, mixed, nominal_eval):
            channel[crashed] = cost.crash_cost
    return AugmentedRollout(real=real, mixed=mixed, nominal_eval=nominal_eval, crashed=crashed)


@dataclass(frozen=True)
class NominalDecision:
    """Outcome of one nominal-state propagation.

    ``feasible`` has one entry per candidate, ``(r+1,)``.  An entry is True
    only for a candidate that was rolled out and found feasible; a candidate
    the nearest-first search skipped reads False.
    """

    index: int
    candidates: Array
    feasible: Array
    control_sequence: Array
    fallback: bool


def nominal_state_propagation(
    model: SystemModel,
    cost: CostFunction,
    x: Array,
    x_star_prev: Array,
    x_star_prop: Array,
    controls: Array,
    alpha: float,
    n_candidates: int,
    draws: Array,
    *,
    nearest_first: bool = False,
    roll_measured: Callable[[], tuple[Array, Array]] | None = None,
) -> NominalDecision:
    """Choose the next nominal state from a line of interpolated candidates.

    Candidates 0..R sit on the two-segment polyline from the previous nominal
    state through the propagated nominal state (at index ``R // 2``) to the
    measured real state (at index ``R``).  Candidate 0 keeps the current plan;
    every other candidate is evaluated under the plan shifted by one step.
    All candidates share the same noise draws, so their free-energy estimates
    differ only through the start state.  Among candidates whose estimate is
    at most ``alpha``, the one closest to the real state wins, ties going to
    the lowest index.  If none qualifies the previous nominal state is kept,
    the plan is left unshifted, and ``fallback`` is set.

    By default every candidate is rolled out in one grouped batch.  With
    ``nearest_first`` the candidates at the minimum distance to ``x`` (usually
    candidate R alone) are rolled out first; if one qualifies it is the
    winner of the full search, and the others are never rolled out.
    Otherwise the rest follow in one more batch.  Each group of a batch gives
    the same bits as its own rollout, so both orders choose the same index
    and plan; only ``feasible`` differs, False for the skipped candidates.

    ``roll_measured`` lets the caller roll the nearest-first search's first
    group: when candidate R is alone at the minimum distance, it is called
    instead of a rollout and returns candidate R's state costs and crash
    flags, ``(1, len(draws))`` each, as
    :func:`~robust_mppi.sampling.propagate` gives them for ``x`` under the
    shifted plan over ``draws``.  Ties at distance 0 roll their group here.
    """
    r = int(n_candidates)
    if r < 2:
        raise ValueError("n_candidates must be at least 2")
    x = np.asarray(x, dtype=float)
    x_star_prev = np.asarray(x_star_prev, dtype=float)
    x_star_prop = np.asarray(x_star_prop, dtype=float)

    mid = r // 2
    candidates = np.empty((r + 1, x.shape[0]))
    s = (np.arange(mid + 1) / mid)[:, None]
    candidates[: mid + 1] = (1.0 - s) * x_star_prev + s * x_star_prop
    s = (np.arange(1, r - mid + 1) / (r - mid))[:, None]
    candidates[mid + 1 :] = (1.0 - s) * x_star_prop + s * x
    candidates[r] = x

    shifted = shift_control_sequence(controls)
    plans = np.concatenate([controls[None], np.broadcast_to(shifted, (r,) + shifted.shape)])
    distances = np.linalg.norm(candidates - x, axis=1)
    feasible = np.zeros(r + 1, dtype=bool)

    def evaluate(group: Array, rolled: tuple[Array, Array] | None = None) -> None:
        if rolled is not None:
            res = price_rollouts(cost, plans[group], draws, *rolled, "beta")
        elif group.any():
            res = rollout_batch(
                model, cost, candidates[group, None], plans[group], draws, control_term="beta"
            )
        else:
            return
        feasible[group] = free_energy_mc(res.costs, cost.lam) <= alpha

    rest = np.ones(r + 1, dtype=bool)
    if nearest_first:
        # a nearest candidate that qualifies also wins the full search
        rest = distances != np.min(distances)
        # candidate R, the measured state, is always at distance 0
        measured_alone = roll_measured is not None and np.count_nonzero(~rest) == 1
        evaluate(~rest, roll_measured() if measured_alone else None)
        if feasible.any():
            rest[:] = False
    evaluate(rest)

    fallback = not feasible.any()
    if fallback:
        index = 0
    else:
        index = int(np.argmin(np.where(feasible, distances, np.inf)))
    control_sequence = np.array(controls) if index == 0 else shifted
    return NominalDecision(
        index=index,
        candidates=candidates,
        feasible=feasible,
        control_sequence=control_sequence,
        fallback=fallback,
    )


def free_energy_growth_bound(
    model: SystemModel,
    cost: CostFunction,
    settings: RmppiSettings,
    x: Array,
    x_star: Array,
    u: Array,
    fe_nominal: float,
    emv: float,
) -> tuple[float, float]:
    """Upper bound on the next increment of the real system's free energy.

    The bound combines the slack left under the threshold, twice the
    Monte-Carlo estimation noise, and a tracking term: the worst-case state
    deviation over one step, contracted at rate ``gamma`` and propagated
    through the stage and terminal cost Lipschitz constants of ``cost``,

    ``(alpha - fe_nominal) + 2*emv
    + (L_phi * gamma^T + L_q * (1 - gamma^T) / (1 - gamma)) * D``

    where ``alpha``, ``T``, ``gamma`` and the disturbance radius ``w_bound``
    come from ``settings``, and ``D`` sums the one-step nominal motion, the
    current tracking offset and that radius.  Returns the bound and the same
    bound with the disturbance radius left out of ``D``.
    """
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    step_motion = float(np.linalg.norm(model.step(x, u) - x))
    offset = float(np.linalg.norm(x_star - x))
    deviation_no_d = step_motion + offset
    deviation = deviation_no_d + settings.w_bound
    gamma = settings.gamma
    g_t = gamma**settings.horizon
    factor = cost.lipschitz_phi * g_t + cost.lipschitz_q * (1.0 - g_t) / (1.0 - gamma)
    slack = (settings.alpha - fe_nominal) + 2.0 * emv
    return slack + factor * deviation, slack + factor * deviation_no_d


def tube_mppi_step(
    model: SystemModel,
    cost: CostFunction,
    x: Array,
    x_star: Array,
    controls: Array,
    policy: FeedbackPolicy,
    draws: Array,
    alpha: float,
) -> tuple[Array, Array, Array, StepRecord]:
    """One tube controller update from the measured and nominal states.

    The real and nominal batches share the same draws.  The nominal state
    resets to the measured state exactly when ``fe_real - fe_nom < alpha``,
    and the plan is then updated from the real batch; otherwise from the
    nominal batch, and the nominal state continues open loop.  The executed
    action adds the tracking correction toward the (possibly reset) nominal
    state; after a reset that is the measured state, and the zero correction
    is added as ``+0.0`` without asking the policy.

    Returns the action, the shifted plan, the next nominal state and the
    step record, which logs the nominal state the action tracked.
    """
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    res = rollout_batch(model, cost, np.stack([x_star, x])[:, None], controls, draws)
    degen = bool(res.crashed.all(axis=1).any())
    if degen:
        # a degenerate step never resets and keeps the plan
        fe_real = fe_nom = cost.crash_cost
        reset, x_star_next, chosen = False, x_star, controls
    else:
        costs_nom, costs_real = res.costs
        # one call on both rows; each row keeps the bits of its own call
        fe_nom, fe_real = free_energy_mc(res.costs, cost.lam).tolist()
        reset = fe_real - fe_nom < alpha
        x_star_next, costs = (x, costs_real) if reset else (x_star, costs_nom)
        chosen = mppi_update(controls, softmax_weights(costs, cost.lam), draws)
    # after a reset the action tracks x itself, a zero correction (FeedbackPolicy)
    correction = 0.0 if reset else policy.apply_batch(x, x_star_next, 0)
    action = model.clamp(chosen[0] + correction)
    record = StepRecord(
        fe_real=fe_real, fe_nom=fe_nom, x_star=x_star_next.copy(), degen=degen, reset=reset
    )
    return action, shift_control_sequence(chosen), model.step(x_star_next, chosen[0]), record


class TubeMppiController:
    """Receding-horizon tube controller with a nominal-state reset rule."""

    def __init__(
        self,
        model: SystemModel,
        cost: CostFunction,
        n_samples: int,
        horizon: int,
        seed: int,
        policy_factory: Callable[[Array, Array], FeedbackPolicy],
        alpha: float,
    ) -> None:
        self.model = model
        self.cost = cost
        self.n_samples = int(n_samples)
        self.horizon = int(horizon)
        self.seed = int(seed)
        self.policy_factory = policy_factory
        self.alpha = float(alpha)
        if np.isnan(self.alpha):
            # the reset test fe_real - fe_nom < alpha would never hold
            raise ValueError("alpha must not be NaN")
        self.controls = np.zeros((self.horizon, model.n_u))
        self.x_star: Array | None = None  # set to the first measured state
        self.step_index = 0

    def step(self, x: Array) -> tuple[Array, StepRecord]:
        x = np.asarray(x, dtype=float)
        if self.x_star is None:
            self.x_star = x.copy()
        policy = self.policy_factory(self.x_star, self.controls)
        layout = ((STREAM_ROLLOUT, self.n_samples),)
        draws = step_draws(self.seed, self.step_index, layout, self.horizon, self.cost)
        action, self.controls, self.x_star, record = tube_mppi_step(
            self.model,
            self.cost,
            x,
            self.x_star,
            self.controls,
            policy,
            draws,
            self.alpha,
        )
        self.step_index += 1
        return action, record


def estimate_value_noise(costs: Array, lam: float, repeats: int) -> float:
    """Batch-means spread of the free-energy estimate of one cost batch.

    Splits the ``N`` per-sample ``costs`` into ``repeats`` contiguous
    sub-batches of ``N // repeats`` samples, dropping the remainder, and
    returns three sample standard deviations of the sub-batches' free
    energies.  A batch whose sub-batches all give the same estimate, such as
    one where every sample crashed, returns 0.0.
    """
    costs = np.asarray(costs, dtype=float)
    m = costs.shape[-1] // repeats
    if repeats < 2 or m < 2:
        raise ValueError(
            "value noise needs repeats >= 2 and at least 2 * repeats samples, "
            f"got repeats={repeats} for {costs.shape[-1]} samples"
        )
    estimates = free_energy_mc(costs[: repeats * m].reshape(repeats, m), lam)
    return 3.0 * float(np.std(estimates, ddof=1))


@dataclass
class RmppiSettings:
    """Knobs for the robust controller beyond model and cost.

    ``gamma`` is the tracking rate the growth bound contracts the deviation
    at: the certified rate of a contraction policy, or ``UNCERTIFIED_RATE``.
    ``emv_repeats`` is the number of batch means behind ``emv``: the nominal
    channel of each step's ``n_samples`` augmented rollouts is split into
    that many sub-batches, so ``n_samples`` must be at least twice it.
    """

    n_samples: int
    horizon: int
    alpha: float
    n_candidates: int = 8
    nsp_samples: int = 64
    emv_repeats: int = 8
    gamma: float = UNCERTIFIED_RATE
    w_bound: float = 0.0


class RmppiController:
    """Robust controller: augmented sampling, tracking feedback, bound output.

    Each call to :meth:`step` first moves the nominal state, which needs the
    newly measured state: on every step after the first it propagates the
    nominal one step under the plan and shifts the plan, then, unless the
    previous step was degenerate (every sample crashed), runs nominal-state
    propagation from that pair.  It then asks the factory for the tracking
    policy about the nominal plan, evaluates the augmented batch, and produces
    the action ``U_0 + K(x - x_star) + weighted noise`` where the noise
    weights come from the real-cost channel and the plan update weights from
    the mixed channel.  When ``x_star`` is ``x`` the correction is the
    ``+0.0`` of a zero offset, and the policy is not asked for it.

    NSP's draws and the augmented batch's sit in two leading-axis slices of
    one buffer, NSP's first.  When NSP searches nearest-first and the
    measured state ``x`` is its only nearest candidate, both sets of rows
    are rolled from ``x`` under the shifted plan in one
    :func:`~robust_mppi.sampling.propagate` call: NSP prices the first set,
    and the augmented batch is a speculation that ``x`` wins.  It is priced
    when candidate R wins (no other candidate then sits on ``x``); otherwise
    the rows are thrown away and the augmented batch is rolled from the
    winner.  The plan gets ``+ 0.0`` in that call, as on the augmented
    batch's one-copy path; for NSP's rows that changes ``u + eps`` only
    where a plan entry and its draw are both ``-0.0``.
    The step record carries the nominal state the action tracked and the
    forward-looking growth bound for the next free-energy increment, which
    is infinite after a degenerate step.
    """

    def __init__(
        self,
        model: SystemModel,
        cost: CostFunction,
        settings: RmppiSettings,
        seed: int,
        policy_factory: Callable[[Array, Array], FeedbackPolicy],
    ) -> None:
        for name in ("lipschitz_q", "lipschitz_phi"):
            v = getattr(cost, name)
            if v is None:
                raise ValueError(f"growth bound needs {name} on the cost")
            if not (np.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if np.isnan(settings.alpha):
            # no candidate's free energy would be feasible against it
            raise ValueError("alpha must not be NaN")
        # the bound's factor divides by 1 - gamma
        if not 0.0 < settings.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {settings.gamma}")
        if not (np.isfinite(settings.w_bound) and settings.w_bound >= 0.0):
            raise ValueError(f"w_bound must be finite and nonnegative, got {settings.w_bound}")
        for name, least in (("horizon", 1), ("n_candidates", 2), ("nsp_samples", 1)):
            if getattr(settings, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(settings, name)}")
        if settings.emv_repeats < 2 or settings.n_samples < 2 * settings.emv_repeats:
            raise ValueError(
                "value noise needs emv_repeats >= 2 and n_samples >= 2 * emv_repeats, "
                f"got n_samples={settings.n_samples}, emv_repeats={settings.emv_repeats}"
            )
        self.model = model
        self.cost = cost
        self.s = settings
        self.seed = int(seed)
        self.policy_factory = policy_factory
        self.controls = np.zeros((settings.horizon, model.n_u))
        self.x_star: Array | None = None  # set to the first measured state
        self.step_index = 0
        # how the next step moves the nominal: None after a degenerate step
        # (open loop under the plan), otherwise NSP's search order, nearest
        # first after NSP chose the measured state or after a step without NSP
        self._nsp_nearest_first: bool | None = True

    def step(self, x: Array) -> tuple[Array, StepRecord]:
        x = np.asarray(x, dtype=float)
        if self.x_star is None:
            self.x_star = x.copy()
        nsp = self.s.nsp_samples
        # the NSP rows are drawn on every step, so that every step has one
        # layout and the next step's draws can be filled ahead; a step that
        # runs no NSP leaves them unused
        layout = ((STREAM_NSP, nsp), (STREAM_ROLLOUT, self.s.n_samples))
        both = step_draws(self.seed, self.step_index, layout, self.s.horizon, self.cost)
        nsp_draws, draws = both[:nsp], both[nsp:]
        run_nsp = self.step_index > 0 and self._nsp_nearest_first is not None
        # the certificate is checked where the offset is real: before NSP
        # moves the nominal, on the propagated nominal state and the control
        # its shifted plan applies at this step
        decision = None
        rolled = None  # the augmented rows rolled with NSP's measured state
        check_star, check_u = self.x_star, self.controls[0]
        if self.step_index > 0:
            x_star_prop = self.model.step(self.x_star, self.controls[0])
            shifted = shift_control_sequence(self.controls)
            check_star, check_u = x_star_prop, shifted[0]
            if not run_nsp:
                self.x_star, self.controls = x_star_prop, shifted
            else:

                def roll_measured() -> tuple[Array, Array]:
                    nonlocal rolled
                    state, crashed = propagate(
                        self.model, self.cost, x[None, None], shifted + 0.0, both
                    )
                    rolled = state[:, nsp:], crashed[:, nsp:]
                    return state[:, :nsp], crashed[:, :nsp]

                decision = nominal_state_propagation(
                    self.model,
                    self.cost,
                    x,
                    self.x_star,
                    x_star_prop,
                    self.controls,
                    self.s.alpha,
                    self.s.n_candidates,
                    nsp_draws,
                    nearest_first=self._nsp_nearest_first,
                    roll_measured=roll_measured,
                )
                self.x_star = decision.candidates[decision.index].copy()
                self.controls = decision.control_sequence
                if decision.index != self.s.n_candidates:
                    rolled = None  # the speculation missed

        policy = self.policy_factory(self.x_star, self.controls)
        violation = hasattr(policy, "contraction_step_ok") and not policy.contraction_step_ok(
            self.model, x, check_star, check_u
        )
        roll = augmented_rollouts(
            self.model,
            self.cost,
            x,
            self.x_star,
            self.controls,
            policy,
            draws,
            self.s.alpha,
            rolled=rolled,
        )
        twin = np.array_equal(x, self.x_star)
        if twin:
            # a zero offset gives a zero correction (FeedbackPolicy), added as
            # +0.0 like the nominal copy's, and a deferred policy builds no gains
            feedback0 = 0.0
        else:
            feedback0 = policy.apply_batch(x, self.x_star, 0)
        emv = estimate_value_noise(roll.nominal_eval, self.cost.lam, self.s.emv_repeats)
        degenerate = bool(roll.crashed.all())
        if degenerate:
            action = self.model.clamp(self.controls[0] + feedback0)
            fe_real = self.cost.crash_cost
            fe_nom = self.cost.crash_cost
            # every sample crashed: there is no free energy to bound the
            # next increment from
            bound = bound_no_d = np.inf
            self._nsp_nearest_first = None
        else:
            w_real = softmax_weights(roll.real, self.cost.lam)
            w_nom = softmax_weights(roll.mixed, self.cost.lam)
            # only the first step's noise is applied; its weighted sum has
            # the bits of the first row of the whole horizon's
            action = self.model.clamp(
                (self.controls[0] + feedback0) + weighted_noise(w_real, draws[:, :1])[0]
            )
            fe_nom = free_energy_mc(roll.nominal_eval, self.cost.lam)
            # with equal starts the real channel has the bits of the nominal
            # one (augmented_rollouts), and so has its free energy
            fe_real = fe_nom if twin else free_energy_mc(roll.real, self.cost.lam)
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
