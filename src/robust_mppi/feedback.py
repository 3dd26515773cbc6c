"""Tracking feedback: finite-horizon LQ gains, constant-metric contraction.

The constant-metric law certifies its own tracking rate.  A policy without
such a certificate (iLQG gains, no feedback) is given the fixed rate
``UNCERTIFIED_RATE``.

The iLQG gains depend on the nominal plan.  The harness's policy factory
builds them on the first correction a step asks for, and the controllers ask
for none while the nominal state sits on the measured state, so the Riccati
pass in :func:`ilqg_gains` runs only on steps that apply its gains.

A policy is one method, ``apply_batch(x, x_star, t)``, mapping real and
nominal states of shape ``(..., n_x)``, with any leading axes or none, to
corrections of shape ``(..., n_u)``.  Gains are linear before clamping:
``apply_batch(x* + 2e, x*, t) == 2 * apply_batch(x* + e, x*, t)`` whenever
limits are off.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .dynamics import clamp_controls

Array = np.ndarray


class FeedbackPolicy(Protocol):
    """Anything mapping (real states, nominal states, time index) to corrections.

    A zero offset must give an exactly zero correction:
    ``apply_batch(s, s, t)`` is zero for every finite ``s`` and every ``t``.
    ``rmppi.augmented_rollouts`` relies on it to roll out only the nominal
    copy when both copies start on the same state, and the tube and robust
    controllers to skip the action's correction when the nominal state is
    the measured one.  The three policies here meet it whenever the limits
    they clamp to bracket zero, as :class:`~robust_mppi.dynamics.SystemModel`
    requires of the model's limits, which the builders below pass on.
    """

    def apply_batch(self, x: Array, x_star: Array, t: int) -> Array: ...


class RiccatiDivergenceError(RuntimeError):
    """Backward pass blew up; carries the timestep at which it happened."""

    def __init__(self, timestep: int):
        super().__init__(f"Riccati backward pass diverged at timestep {timestep}")
        self.timestep = timestep


class ZeroFeedback:
    """No correction; used by controllers that rely on replanning alone."""

    def __init__(self, n_u: int):
        self.n_u = n_u

    def apply_batch(self, x: Array, x_star: Array, t: int) -> Array:
        return np.zeros(np.shape(x)[:-1] + (self.n_u,))


@dataclass
class LinearGainsPolicy:
    """Time-indexed linear tracking feedback ``gains[t] @ (x - x_star)``."""

    gains: Array  # (T, n_u, n_x)
    control_low: Array | None = None
    control_high: Array | None = None

    def _gain(self, t: int) -> Array:
        return self.gains[min(t, self.gains.shape[0] - 1)]

    def apply_batch(self, x: Array, x_star: Array, t: int) -> Array:
        u = (x - x_star) @ self._gain(t).T
        return clamp_controls(u, self.control_low, self.control_high)


@dataclass
class ContractionPolicy:
    """Constant-metric differential feedback ``-B^T M (x - x_star)``.

    ``metric`` must be symmetric positive definite; ``rate`` is the certified
    contraction rate, so noise-free tracking shrinks the metric distance by at
    least ``exp(-rate*dt)`` per step.  A control-effort weight ``r`` in
    ``-(1/r) B^T M`` is the metric ``M / r``: the certificate's decrease
    test on ``e^T M e`` does not change when ``M`` is scaled.
    """

    metric: Array
    rate: float
    b_matrix: Array
    control_low: Array | None = None
    control_high: Array | None = None

    def __post_init__(self) -> None:
        m = np.atleast_2d(np.asarray(self.metric, dtype=float))
        # the Cholesky test reads one triangle only, so symmetry is checked on its own
        if not np.array_equal(m, m.T):
            raise ValueError("contraction metric must be symmetric")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ValueError("contraction metric must be positive definite") from None
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError(f"contraction rate must be finite and positive, got {self.rate}")
        self.metric = m
        self._k = self.b_matrix.T @ m  # (n_u, n_x)

    def apply_batch(self, x: Array, x_star: Array, t: int) -> Array:
        u = -(x - x_star) @ self._k.T
        return clamp_controls(u, self.control_low, self.control_high)

    def metric_distance(self, x: Array, x_star: Array) -> float:
        e = np.asarray(x, dtype=float) - np.asarray(x_star, dtype=float)
        return float(e @ self.metric @ e)

    def contraction_step_ok(self, model, x: Array, x_star: Array, u: Array, tol: float = 1e-9) -> bool:
        """Check the one-step Lyapunov decrease along noise-free co-propagation.

        Returns True when V(next) <= V(now) * exp(-2*rate*dt) * (1 + tol);
        a False here means the supplied metric/rate pair is not honored at
        this point and should be surfaced by the caller, not ignored.
        """
        v_now = self.metric_distance(x, x_star)
        if v_now == 0.0:
            return True
        x_next = model.step(x, u + self.apply_batch(x, x_star, 0))
        xs_next = model.step(x_star, u)
        v_next = self.metric_distance(x_next, xs_next)
        return v_next <= v_now * np.exp(-2.0 * self.rate * model.dt) * (1.0 + tol)


def ilqg_gains(
    model,
    nominal_states: Array,
    controls: Array,
    q_track: Array,
    r_track: Array,
) -> LinearGainsPolicy:
    """Finite-horizon LQ tracking gains about a nominal trajectory.

    Linearizes the stepped dynamics along ``nominal_states``/``controls`` in
    one broadcast :meth:`SystemModel.discrete_jacobians` call and runs the
    standard Riccati backward pass with the tracking weight matrices
    ``q_track`` (``(n_x, n_x)``, also the terminal weight) and ``r_track``
    (``(n_u, n_u)``).  The gains are clamped to the model's actuation limits.
    Raises :class:`RiccatiDivergenceError` if the value matrix stops being
    finite (non-stabilizable linearization).

    With one input the Riccati solve is the 1x1 system ``a k = b``, and the
    gain is formed as ``b * (1 / a)``, skipping the ``np.linalg.solve``
    wrapper, which costs several times the tiny matmuls around it.  The LU
    solve multiplies by the reciprocal of the pivot, so this gives its bits
    (numpy 2.4.6 with OpenBLAS: every one of 100,000 random inputs tried),
    while ``b / a`` differs on about 43% of them.  A zero ``r + B'PB`` then
    makes the gain infinite or NaN, and the pass raises
    :class:`RiccatiDivergenceError` where the solve raised ``LinAlgError``.
    With more inputs the gain comes from ``np.linalg.solve``.
    """
    nominal_states = np.asarray(nominal_states, dtype=float)
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    horizon = controls.shape[0]
    if nominal_states.shape != (horizon + 1, model.n_x):
        raise ValueError(
            f"nominal states must have shape ({horizon + 1}, {model.n_x}), got {nominal_states.shape}"
        )
    q = np.asarray(q_track, dtype=float)
    r = np.asarray(r_track, dtype=float)

    a_all, b_all = model.discrete_jacobians(nominal_states[:-1], controls)
    gains = np.zeros((horizon, model.n_u, model.n_x))
    p = q.copy()
    one_input = model.n_u == 1
    # a non-finite linearization or value matrix is caught by the norm test
    # below, which raises, so numpy's warnings on the way there add nothing
    with np.errstate(all="ignore"):
        for t in reversed(range(horizon)):
            ad, bd = a_all[t], b_all[t]
            bt_p = bd.T @ p
            if one_input:
                k = (bt_p @ ad) * (1.0 / (r + bt_p @ bd))
            else:
                k = np.linalg.solve(r + bt_p @ bd, bt_p @ ad)
            p = q + ad.T @ p @ (ad - bd @ k)
            p = 0.5 * (p + p.T)
            # the Frobenius norm, by the arithmetic np.linalg.norm runs, without
            # its wrapper; a NaN or infinite entry makes it NaN or infinite, so
            # this one comparison also catches a value matrix that is not finite
            flat = p.ravel()
            if not math.sqrt(flat @ flat) <= 1e12:
                raise RiccatiDivergenceError(t)
            gains[t] = -k
    return LinearGainsPolicy(
        gains=gains, control_low=model.control_low, control_high=model.control_high
    )


def contraction_feedback(
    model,
    metric: Array,
    rate: float,
) -> ContractionPolicy:
    """Build the constant-metric policy for a control-affine model.

    The input matrix is taken at the origin with zero control.  The
    constant-metric certificate assumes B does not depend on the state, as in
    both bundled systems; ``harness.build_policy_factory`` refuses a system
    whose B varies over the crash box.  Corrections are clamped to the
    model's actuation limits.
    """
    _, b = model.jacobians(np.zeros(model.n_x), np.zeros(model.n_u))
    return ContractionPolicy(
        metric=np.asarray(metric, dtype=float),
        rate=float(rate),
        b_matrix=b,
        control_low=model.control_low,
        control_high=model.control_high,
    )


# The tracking rate the growth bound uses for a policy with no contraction
# certificate.  The bound's factor
# ``L_phi*g^T + L_q*(1 - g^T)/(1 - g)`` grows with ``g``, so this ceiling
# gives a bound at least as large as any rate in (0, 1 - 1e-3] would; a rate
# fitted on tracking residuals could only make the bound less conservative.
UNCERTIFIED_RATE = 1.0 - 1e-3
