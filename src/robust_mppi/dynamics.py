"""Continuous-time system models with explicit-Euler stepping, plus bounded disturbances.

Every system advances as ``x_next = x + F(x, clamp(u)) * dt``, so feedback
corrections and exploration noise can never command more authority than the
plant has.  :meth:`SystemModel.step` clamps and then takes the Euler update
:meth:`SystemModel.euler`; its callers step single states: the plant, the
nominal state of the tube and robust controllers, the growth bound and the
contraction certificate.  Batches clamp their controls into a buffer and
call ``euler`` alone: the rollout kernel clamps each horizon step's
controls in place in a block buffer (see
:func:`~robust_mppi.sampling.propagate`), and :func:`nominal_trajectory`
clamps a whole plan.  The clamp is elementwise and idempotent, so both give
the bits of ``step``.  Model functions are written to broadcast over leading
batch axes: states of shape ``(..., n_x)`` and controls of shape ``(..., n_u)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

# Relative step used by the finite-difference fallback for jacobians.
_FD_EPS = 1e-6


def clamp_controls(
    u: Array, low: Array | None, high: Array | None, out: Array | None = None
) -> Array:
    """Clip a control (batch) to per-channel limits; ``None`` leaves a side open.

    Same values as ``np.clip(u, low, high)``, NaN included.  The ufuncs run
    directly because np.clip's Python wrapper costs more than the clamp
    itself, and clamps run for every block of horizon steps of every
    rollout.  ``out``, of ``u``'s shape, receives the result and is
    returned; it may be ``u`` itself, which clamps in place.
    """
    if low is not None:
        u = np.maximum(u, low, out=out)
    if high is not None:
        u = np.minimum(u, high, out=out)
    if out is not None and u is not out:
        np.copyto(out, u)  # no limit on either side
        u = out
    return u


@dataclass(frozen=True)
class SystemModel:
    """A controlled dynamical system ``x_dot = F(x, u)`` integrated with explicit Euler.

    Parameters
    ----------
    name:
        Registry key, used in configs and logs.
    n_x, n_u:
        State and control dimensions.
    dt:
        Integration step in seconds.
    deriv:
        ``F(x, u) -> x_dot``; must broadcast over leading batch axes.  The
        rollout kernel calls it once per horizon step on every sample: each
        step needs the states of the one before, so unlike the state cost it
        is never given a block of steps.  ``x`` and ``u`` may be views into
        buffers that the kernel reuses across steps (``u`` a step of a block
        of clamped controls), so ``deriv`` must return a new array and must
        not write into its inputs.  :meth:`SystemModel.euler` scales the
        returned array by ``dt`` in place, so it must be fresh and
        writable: not ``x``, not a view of an input and not a broadcast
        view.  Work on columns ``x[..., i]`` and
        ``u[..., j]`` and write them into one output, as the bundled
        systems do.  Reductions over ``axis=-1`` and broadcasts
        against ``(n_x,)`` vectors run numpy's inner loop once per sample
        row, with only n_x elements in it, and ``np.stack(..., axis=-1)``
        adds Python overhead: for two ``(2, 256)`` columns it took 6.8 us
        where filling one ``np.empty`` output took 2.4 us (numpy 2.4.6, one
        core of a 2-vCPU Xeon).  Rollouts keep stepping crashed rows, so
        ``deriv`` also receives NaN and infinite entries and must not raise.
    jac:
        Optional analytic jacobians ``(x, u) -> (dF/dx, dF/du)``; broadcasts
        like ``deriv``.  States ``(..., n_x)`` and controls ``(..., n_u)``
        give arrays of shape ``(..., n_x, n_x)`` and ``(..., n_x, n_u)``,
        so a whole trajectory is linearized in one call.  When absent,
        central finite differences on ``deriv`` are used, perturbing one
        coordinate across all points at once.
    control_low, control_high:
        Per-channel actuation limits; ``None`` disables clamping.  They must
        bracket zero, so that a zero tracking correction stays zero after
        the clamp (see :class:`~robust_mppi.feedback.FeedbackPolicy`).
    """

    name: str
    n_x: int
    n_u: int
    dt: float
    deriv: Callable[[Array, Array], Array]
    jac: Callable[[Array, Array], tuple[Array, Array]] | None = None
    control_low: Array | None = None
    control_high: Array | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if self.n_x < 1 or self.n_u < 1:
            raise ValueError("state and control dimensions must be at least 1")
        for name, outside in (("control_low", np.greater), ("control_high", np.less)):
            limit = getattr(self, name)
            if limit is not None and np.any(outside(limit, 0.0)):
                raise ValueError(f"{name} must keep zero inside the actuation limits, got {limit}")

    def clamp(self, u: Array, out: Array | None = None) -> Array:
        """Clip a control (batch) to the actuation limits; ``out`` as in :func:`clamp_controls`."""
        return clamp_controls(u, self.control_low, self.control_high, out)

    def step(self, x: Array, u: Array) -> Array:
        """One explicit-Euler step under a control it clamps first.

        It broadcasts like :meth:`euler`, but the library steps only single
        states with it; rollouts clamp a batch's controls into a buffer and
        call ``euler``, which gives the same bits.
        """
        return self.euler(x, self.clamp(u))

    def euler(self, x: Array, u: Array, out: Array | None = None) -> Array:
        """The explicit-Euler update ``x + F(x, u) * dt`` for a control already clamped.

        Broadcasts over leading batch axes; the rollout kernel and
        :func:`nominal_trajectory` step with it.  ``out``, of the result's
        shape, receives the next states and is returned, with the bits of a
        fresh result: ``F`` is evaluated in full before ``out`` is written,
        so ``out`` may be ``x``.  The array ``deriv`` returns is scaled by
        ``dt`` in place, which gives the bits of ``F * dt`` without another
        array.
        """
        f = self.deriv(x, u)
        f *= self.dt
        return np.add(x, f, out=out)

    def jacobians(self, x: Array, u: Array) -> tuple[Array, Array]:
        """Jacobians ``(dF/dx, dF/du)`` of the continuous dynamics.

        Broadcasts over leading axes: states ``(..., n_x)`` and controls
        ``(..., n_u)`` give ``(..., n_x, n_x)`` and ``(..., n_x, n_u)``.
        """
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.shape[-1:] != (self.n_x,) or u.shape[-1:] != (self.n_u,):
            raise ValueError(
                f"jacobians expect states (..., {self.n_x}) and controls (..., {self.n_u}), "
                f"got {x.shape}/{u.shape}"
            )
        if self.jac is None:
            return self._fd_jacobians(x, u)
        a, b = self.jac(x, u)
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        lead = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
        want_a, want_b = lead + (self.n_x, self.n_x), lead + (self.n_x, self.n_u)
        if a.shape != want_a or b.shape != want_b:
            raise ValueError(
                f"jac of system {self.name!r} returned shapes {a.shape}/{b.shape}, "
                f"expected {want_a}/{want_b}"
            )
        return a, b

    def _fd_jacobians(self, x: Array, u: Array) -> tuple[Array, Array]:
        """Central differences in ``2 * (n_x + n_u)`` calls of ``deriv``, however many points.

        A derivative that is infinite or NaN gives NaN entries without a
        numpy warning: every caller checks the result (the Riccati pass
        raises on a value matrix that is not finite, the constant-B check
        refuses a NaN gap).
        """
        lead = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
        x = np.broadcast_to(x, lead + (self.n_x,))
        u = np.broadcast_to(u, lead + (self.n_u,))
        a = np.empty(lead + (self.n_x, self.n_x))
        b = np.empty(lead + (self.n_x, self.n_u))
        with np.errstate(all="ignore"):
            for i in range(self.n_x):
                h = _FD_EPS * np.maximum(1.0, np.abs(x[..., i]))
                xp, xm = x.copy(), x.copy()
                xp[..., i] += h
                xm[..., i] -= h
                a[..., i] = (self.deriv(xp, u) - self.deriv(xm, u)) / (2.0 * h)[..., None]
            for j in range(self.n_u):
                h = _FD_EPS * np.maximum(1.0, np.abs(u[..., j]))
                up, um = u.copy(), u.copy()
                up[..., j] += h
                um[..., j] -= h
                b[..., j] = (self.deriv(x, up) - self.deriv(x, um)) / (2.0 * h)[..., None]
        return a, b

    def discrete_jacobians(self, x: Array, u: Array) -> tuple[Array, Array]:
        """Jacobians of :meth:`step`, ``(I + dt*dF/dx, dt*dF/du)``, broadcast the same way."""
        a, b = self.jacobians(x, u)
        return np.eye(self.n_x) + self.dt * a, self.dt * b


def nominal_trajectory(model: SystemModel, x0: Array, controls: Array) -> Array:
    """Roll a control sequence forward without noise; returns ``(T+1, n_x)`` states.

    Equal bit for bit to ``model.step`` applied state by state.  The clamp is
    idempotent, so the whole plan is clamped once and each state takes only
    the Euler update, written straight into its row.
    """
    controls = model.clamp(np.atleast_2d(np.asarray(controls, dtype=float)))
    states = np.empty((controls.shape[0] + 1, model.n_x))
    states[0] = x0
    for t in range(controls.shape[0]):
        model.euler(states[t], controls[t], out=states[t + 1])
    return states


def _columns(*cols: Array) -> Array:
    """Write same-shape state-derivative columns into one ``(..., len(cols))`` array.

    Filling a preallocated output costs less than ``np.stack(cols, axis=-1)``
    and gives the same values.
    """
    out = np.empty(cols[0].shape + (len(cols),))
    for i, c in enumerate(cols):
        out[..., i] = c
    return out


def double_integrator(dt: float = 0.02, control_limit: float = 10.0) -> SystemModel:
    """Point mass on a line: state (position, velocity), control is acceleration."""

    def deriv(x: Array, u: Array) -> Array:
        return _columns(x[..., 1], u[..., 0])

    a_const = np.array([[0.0, 1.0], [0.0, 0.0]])
    b_const = np.array([[0.0], [1.0]])

    def jac(x: Array, u: Array) -> tuple[Array, Array]:
        lead = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
        return (
            np.broadcast_to(a_const, lead + (2, 2)).copy(),
            np.broadcast_to(b_const, lead + (2, 1)).copy(),
        )

    lim = None if control_limit is None else np.array([float(control_limit)])
    return SystemModel(
        name="double_integrator",
        n_x=2,
        n_u=1,
        dt=dt,
        deriv=deriv,
        jac=jac,
        control_low=None if lim is None else -lim,
        control_high=lim,
    )


def nonlinear_benchmark(
    dt: float = 0.02, control_limit: float = 8.0, damping: float = 0.5
) -> SystemModel:
    """Control-affine benchmark with a sinusoidal restoring force.

    ``theta_dot = omega``, ``omega_dot = -sin(theta) - damping*omega + u``.
    The state jacobian is affine in ``cos(theta)``, which lies in [-1, 1]
    everywhere, so a constant contraction metric certified at the two extreme
    values of that entry is valid globally.  This is a generic pendulum-like
    system chosen for that property, not a reproduction of any published
    benchmark.
    """
    c = float(damping)

    def deriv(x: Array, u: Array) -> Array:
        omega = x[..., 1]
        return _columns(omega, -np.sin(x[..., 0]) - c * omega + u[..., 0])

    b_const = np.array([[0.0], [1.0]])

    def jac(x: Array, u: Array) -> tuple[Array, Array]:
        lead = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
        a = np.empty(lead + (2, 2))
        a[..., 0, 0] = 0.0
        a[..., 0, 1] = 1.0
        a[..., 1, 0] = -np.cos(x[..., 0])
        a[..., 1, 1] = -c
        return a, np.broadcast_to(b_const, lead + (2, 1)).copy()

    lim = None if control_limit is None else np.array([float(control_limit)])
    return SystemModel(
        name="nonlinear_benchmark",
        n_x=2,
        n_u=1,
        dt=dt,
        deriv=deriv,
        jac=jac,
        control_low=None if lim is None else -lim,
        control_high=lim,
    )


_SYSTEM_FACTORIES: dict[str, Callable[..., SystemModel]] = {
    "double_integrator": double_integrator,
    "nonlinear_benchmark": nonlinear_benchmark,
}


def register_system(name: str, factory: Callable[..., SystemModel]) -> None:
    _SYSTEM_FACTORIES[name] = factory


def make_system(name: str, **kwargs) -> SystemModel:
    """Instantiate a registered system by name."""
    try:
        factory = _SYSTEM_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_SYSTEM_FACTORIES))
        raise ValueError(f"unknown system {name!r}; known systems: {known}") from None
    return factory(**kwargs)


@dataclass(frozen=True)
class DisturbanceModel:
    """What the true plant adds on top of the model the controller plans with.

    ``noise_multiplier`` scales the *variance* of the control-channel noise the
    plant actually experiences relative to the covariance the controller
    samples with; it applies to the real system only.  ``w_bound`` is the norm
    bound of the additive state disturbance, drawn uniformly from the ball of
    that radius each step.
    """

    noise_multiplier: float = 1.0
    w_bound: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.noise_multiplier) and self.noise_multiplier >= 0.0):
            raise ValueError(
                f"noise_multiplier must be finite and nonnegative, got {self.noise_multiplier}"
            )
        if not (math.isfinite(self.w_bound) and self.w_bound >= 0.0):
            raise ValueError(f"w_bound must be finite and nonnegative, got {self.w_bound}")

    def control_noise(self, rng: np.random.Generator, sigma_chol: Array) -> Array:
        """One control-channel noise draw with covariance ``multiplier * Sigma``."""
        z = rng.standard_normal(sigma_chol.shape[0])
        return np.sqrt(self.noise_multiplier) * (sigma_chol @ z)

    def state_disturbance(self, rng: np.random.Generator, n_x: int) -> Array:
        """One draw uniform in the ball of radius ``w_bound`` (zero when the bound is)."""
        z = rng.standard_normal(n_x)
        radius = rng.random() ** (1.0 / n_x)
        norm = np.linalg.norm(z)
        if norm == 0.0:
            return np.zeros(n_x)
        return self.w_bound * radius * z / norm


def propagate_real(
    model: SystemModel,
    disturbance: DisturbanceModel,
    x: Array,
    u: Array,
    eps: Array,
    rng: np.random.Generator,
) -> Array:
    """Advance the true plant one step: Euler step of ``u + eps`` plus a ball draw."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x.shape != (model.n_x,):
        raise ValueError(f"state shape {x.shape} does not match n_x={model.n_x}")
    for name, arr in (("u", u), ("eps", eps)):
        if arr.shape != (model.n_u,):
            raise ValueError(f"{name} shape {arr.shape} does not match n_u={model.n_u}")
    return model.step(x, u + eps) + disturbance.state_disturbance(rng, model.n_x)
