"""Tracking feedback: finite-horizon LQ gains, constant-metric contraction, rate fitting.

Both policies map a (real state, nominal state, time index) triple to a
correction control.  Gains are linear before clamping:
``apply(x* + 2e, x*, t) == 2 * apply(x* + e, x*, t)`` whenever limits are off.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

Array = np.ndarray


class FeedbackPolicy(Protocol):
    """Anything mapping (real state, nominal state, time index) to a correction."""

    def apply(self, x: Array, x_star: Array, t: int) -> Array: ...

    def apply_batch(self, x: Array, x_star: Array, t: int) -> Array: ...


class RiccatiDivergenceError(RuntimeError):
    """Backward pass blew up; carries the timestep at which it happened."""

    def __init__(self, timestep: int):
        super().__init__(f"Riccati backward pass diverged at timestep {timestep}")
        self.timestep = timestep


class ZeroFeedback:
    """No correction; used by controllers that rely on replanning alone."""

    kind = "none"

    def __init__(self, n_u: int):
        self.n_u = n_u

    def apply(self, x: Array, x_star: Array, t: int) -> Array:
        return np.zeros(self.n_u)

    def apply_batch(self, x: Array, x_star: Array, t: int) -> Array:
        return np.zeros((x.shape[0], self.n_u))


@dataclass
class LinearGainsPolicy:
    """Time-indexed linear tracking feedback ``gains[t] @ (x - x_star)``."""

    gains: Array  # (T, n_u, n_x)
    control_low: Array | None = None
    control_high: Array | None = None
    kind: str = field(default="ilqg", init=False)

    def _gain(self, t: int) -> Array:
        return self.gains[min(t, self.gains.shape[0] - 1)]

    def _clamp(self, u: Array) -> Array:
        if self.control_low is None and self.control_high is None:
            return u
        return np.clip(u, self.control_low, self.control_high)

    def apply(self, x: Array, x_star: Array, t: int) -> Array:
        return self._clamp(self._gain(t) @ (np.asarray(x) - np.asarray(x_star)))

    def apply_batch(self, x: Array, x_star: Array, t: int) -> Array:
        return self._clamp((x - x_star) @ self._gain(t).T)


@dataclass
class ContractionPolicy:
    """Constant-metric differential feedback ``-(1/r) B^T M (x - x_star)``.

    ``metric`` must be positive definite; ``rate`` is the certified contraction
    rate, so noise-free tracking shrinks the metric distance by at least
    ``exp(-rate*dt)`` per step.
    """

    metric: Array
    rate: float
    b_matrix: Array
    effort_weight: float = 1.0
    control_low: Array | None = None
    control_high: Array | None = None
    kind: str = field(default="contraction", init=False)

    def __post_init__(self) -> None:
        m = np.atleast_2d(np.asarray(self.metric, dtype=float))
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ValueError("contraction metric must be positive definite") from None
        if self.rate <= 0.0:
            raise ValueError("contraction rate must be positive")
        if self.effort_weight <= 0.0:
            raise ValueError("effort weight must be positive")
        self.metric = m
        self._k = (self.b_matrix.T @ m) / self.effort_weight  # (n_u, n_x)

    def _clamp(self, u: Array) -> Array:
        if self.control_low is None and self.control_high is None:
            return u
        return np.clip(u, self.control_low, self.control_high)

    def apply(self, x: Array, x_star: Array, t: int) -> Array:
        return self._clamp(-self._k @ (np.asarray(x) - np.asarray(x_star)))

    def apply_batch(self, x: Array, x_star: Array, t: int) -> Array:
        return self._clamp(-(x - x_star) @ self._k.T)

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
        x_next = model.step(x, u + self.apply(x, x_star, 0))
        xs_next = model.step(x_star, u)
        v_next = self.metric_distance(x_next, xs_next)
        return v_next <= v_now * np.exp(-2.0 * self.rate * model.dt) * (1.0 + tol)


def ilqg_gains(
    model,
    nominal_states: Array,
    controls: Array,
    q_track: Array,
    r_track: Array,
    qf_track: Array | None = None,
    clamp_to_model: bool = True,
) -> LinearGainsPolicy:
    """Finite-horizon LQ tracking gains about a nominal trajectory.

    Linearizes the stepped dynamics along ``nominal_states``/``controls`` and
    runs the standard Riccati backward pass with diagonal-or-full tracking
    weights.  Raises :class:`RiccatiDivergenceError` if the value matrix stops
    being finite (non-stabilizable linearization).
    """
    nominal_states = np.asarray(nominal_states, dtype=float)
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    horizon = controls.shape[0]
    if nominal_states.shape != (horizon + 1, model.n_x):
        raise ValueError(
            f"nominal states must have shape ({horizon + 1}, {model.n_x}), got {nominal_states.shape}"
        )
    q = np.diag(np.asarray(q_track, dtype=float)) if np.ndim(q_track) == 1 else np.asarray(q_track, dtype=float)
    r = np.diag(np.asarray(r_track, dtype=float)) if np.ndim(r_track) == 1 else np.asarray(r_track, dtype=float)
    qf = q if qf_track is None else (
        np.diag(np.asarray(qf_track, dtype=float)) if np.ndim(qf_track) == 1 else np.asarray(qf_track, dtype=float)
    )

    gains = np.zeros((horizon, model.n_u, model.n_x))
    p = qf.copy()
    for t in reversed(range(horizon)):
        ad, bd = model.discrete_jacobians(nominal_states[t], controls[t])
        s_uu = r + bd.T @ p @ bd
        k = np.linalg.solve(s_uu, bd.T @ p @ ad)
        p = q + ad.T @ p @ (ad - bd @ k)
        p = 0.5 * (p + p.T)
        if not np.all(np.isfinite(p)) or np.linalg.norm(p) > 1e12:
            raise RiccatiDivergenceError(t)
        gains[t] = -k
    low = model.control_low if clamp_to_model else None
    high = model.control_high if clamp_to_model else None
    return LinearGainsPolicy(gains=gains, control_low=low, control_high=high)


def contraction_feedback(
    model,
    metric: Array,
    rate: float,
    effort_weight: float = 1.0,
    clamp_to_model: bool = True,
) -> ContractionPolicy:
    """Build the constant-metric policy for a control-affine model.

    The input matrix is taken at the origin with zero control; both bundled
    systems have state-independent B, which is what the constant-metric
    certificate assumes.
    """
    _, b = model.jacobians(np.zeros(model.n_x), np.zeros(model.n_u))
    return ContractionPolicy(
        metric=np.asarray(metric, dtype=float),
        rate=float(rate),
        b_matrix=b,
        effort_weight=float(effort_weight),
        control_low=model.control_low if clamp_to_model else None,
        control_high=model.control_high if clamp_to_model else None,
    )


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


def fit_gamma_window(residuals, clip_eps: float = 1e-3) -> float:
    """Conservative trailing-window tracking rate for policies with no certificate.

    Fits from the first informative (positive) residual in the window and
    clamps to [clip_eps, 1 - clip_eps].  With no usable decay information the
    most conservative value, 1 - clip_eps, is returned.  ``clip_eps`` must lie
    in (0, 0.5), or the clamp bounds would cross.
    """
    if not 0.0 < clip_eps < 0.5:
        raise ValueError(f"clip_eps must lie in (0, 0.5), got {clip_eps}")
    residuals = np.asarray(list(residuals), dtype=float)
    fallback = 1.0 - clip_eps
    pos = np.nonzero(residuals > 0.0)[0]
    if pos.size == 0 or pos[0] >= residuals.size - 1:
        return fallback
    window = residuals[pos[0]:]
    report = fit_gamma(window)
    return float(np.clip(report.gamma_hat, clip_eps, fallback))
