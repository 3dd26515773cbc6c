"""Cost functions: running/terminal state costs, control penalties, Lipschitz bounds.

The control penalty that makes importance-sampled rollouts comparable under a
shifted sampling distribution is ``coef * u^T Sigma^{-1} (u + 2*eps)`` per step,
where ``coef`` is ``lam/2`` for the plain estimator and ``lam*(1-beta)/2`` when
the smoothing discount applies.  Both variants are produced by the same code
path so that costs assembled by different controllers agree bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class CostFunction:
    """Running cost ``q``, terminal cost ``phi`` and the sampling covariance.

    ``state_cost`` and ``terminal_cost`` must broadcast over leading batch
    axes, mapping ``(..., n_x)`` to ``(...)``, and act row by row: each
    state's cost may depend on that state alone, whatever the leading axes.
    The rollout kernel calls ``state_cost`` once per block of horizon steps
    on a ``(block, G, N, n_x)`` array of every sample's states, so write it
    on columns ``x[..., i]``, not with reductions over ``axis=-1`` or
    broadcasts against ``(n_x,)`` vectors: with n_x = 2 those run numpy's
    inner loop once per sample row.  ``state_cost`` must not write into its
    argument: that array is a view of the kernel's state buffer, and the
    block's last step is the state the next step starts from.  It may work
    in place in arrays it makes itself.  :func:`quadratic_wall_cost` does,
    and skips the shift, weight and wall chain of a column whose parameter
    leaves the bits as they are; on an ``(8, 2, 256, 2)`` block of the wall
    scenario's states it took 20 us a call, against 39 us running every
    operation into a fresh array (numpy 2.4.6, one core of a 2-vCPU Xeon).

    ``sigma`` is the control exploration covariance; its Cholesky factor and
    inverse are computed once and cached on the instance.
    ``lipschitz_q``/``lipschitz_phi`` are bounds over the admissible task
    domain, used by the growth-bound monitor.  ``crash_cost`` is the finite,
    nonnegative cost of a crashed rollout, whose state or state cost stopped
    being finite; a negative one would lower the nominal free energy and so
    widen the bound's slack.
    """

    state_cost: Callable[[Array], Array]
    terminal_cost: Callable[[Array], Array]
    sigma: Array
    lam: float
    beta: float = 0.5
    lipschitz_q: float | None = None
    lipschitz_phi: float | None = None
    crash_cost: float = 1.0e4

    def __post_init__(self) -> None:
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if sigma.shape[0] != sigma.shape[1]:
            raise ValueError(f"sigma must be square, got shape {sigma.shape}")
        if not np.allclose(sigma, sigma.T):
            raise ValueError("sigma must be symmetric")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise ValueError("sigma must be positive definite") from None
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if not (np.isfinite(self.crash_cost) and self.crash_cost >= 0.0):
            raise ValueError(f"crash_cost must be finite and >= 0, got {self.crash_cost}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "sigma_chol", chol)
        object.__setattr__(self, "sigma_inv", np.linalg.inv(sigma))

    # computed in __post_init__, never passed in
    sigma_chol: Array = field(init=False, repr=False)
    sigma_inv: Array = field(init=False, repr=False)


def control_penalty_coef(lam: float, beta: float, beta_weighted: bool) -> float:
    """The per-step penalty coefficient; ``beta_weighted`` applies the (1-beta) discount."""
    return 0.5 * lam * ((1.0 - beta) if beta_weighted else 1.0)


def penalty_step_terms(
    u_eff: Array,
    eps_t: Array,
    sigma_inv: Array,
    out: Array | None = None,
    work: Array | None = None,
) -> Array:
    """Per-step quadratic form ``u_eff^T Sigma^{-1} (u_eff + 2*eps_t)``.

    ``u_eff`` and ``eps_t`` broadcast against each other over leading axes,
    ``(..., n_u)`` to ``(...)``.  All penalty paths route through this
    function so that costs assembled by different controllers from the same
    numbers agree bit for bit.

    The form is built on columns ``u_eff[..., j]``, one full-width operation
    per entry of ``Sigma^{-1}``, not with ``einsum`` over the short last
    axis, which runs its inner loop once per row of n_u elements.  Each sum
    over ``j`` keeps two running sums, even and odd indices, each in index
    order, and adds them at the end.  That is the order numpy's ``einsum``
    uses on an axis of up to 7 elements, so for n_u <= 7 the bits equal
    those of the two ``einsum`` calls this replaced; for n_u <= 2 it is
    plain index order.  Timed alone (numpy 2.4.6, one core of a 2-vCPU
    Xeon), the ``einsum`` form took 1.5-1.8 ms on a ``(4096, 30, 1)``
    correction batch and the columns 0.9-1.2 ms; for one ``(30, 1)`` control
    sequence against ``(4096, 30, 1)`` draws, 1.3-1.4 ms against 0.3 ms.

    ``out``, of the result's shape, receives the result, and ``work``, of
    ``u_eff``'s leading shape, the ``Sigma^{-1} u_eff`` products; either
    spares a fresh array and leaves the bits as they are.  Neither may
    overlap the inputs.
    """
    n_u = u_eff.shape[-1]
    rows = sigma_inv.tolist()
    shape = np.broadcast_shapes(u_eff.shape[:-1], np.shape(eps_t)[:-1])
    for name, buf, want in (("out", out, shape), ("work", work, u_eff.shape[:-1])):
        if buf is not None and buf.shape != want:
            raise ValueError(f"{name} has shape {buf.shape}, expected {want}")

    def step_term(v: int, buf: Array | None) -> Array:
        # built in place: at N=4096 each fresh (N, T) temporary costs more in
        # page faults than its arithmetic
        eps_v = eps_t if np.ndim(eps_t) == 0 else eps_t[..., v]
        if np.shape(eps_v) == shape:
            term = np.multiply(2.0, eps_v, out=buf)
            term += u_eff[..., v]
        else:
            term = np.add(u_eff[..., v], 2.0 * eps_v, out=buf)
        products = (
            np.multiply(rows[v][j], u_eff[..., j], out=work if j == 0 else None)
            for j in range(n_u)
        )
        term *= _two_lane_sum(products)
        return term

    return _two_lane_sum(step_term(v, out if v == 0 else None) for v in range(n_u))


def _two_lane_sum(terms: Iterable[Array]) -> Array:
    """``(t0 + t2 + ...) + (t1 + t3 + ...)``, each running sum in index order.

    The sums accumulate in place into ``t0`` and ``t1``, so those two must be
    distinct arrays of the full shape that the caller may overwrite: fresh,
    or its own scratch buffers, never views of an input.
    """
    lanes = [None, None]
    for j, term in enumerate(terms):
        if lanes[j % 2] is None:
            lanes[j % 2] = term
        else:
            lanes[j % 2] += term
    even, odd = lanes
    if odd is not None:
        even += odd
    return even


def control_penalty_batch(
    controls: Array, draws: Array, sigma_inv: Array, out: Array | None = None
) -> Array:
    """Unscaled summed penalty per sample for shared controls and per-sample noise.

    ``controls`` is ``(T, n_u)``, or one sequence per group ``(G, T, n_u)``;
    ``draws`` is ``(N, T, n_u)``.  Returns ``(N,)``, or ``(G, N)``; callers
    scale it by :func:`control_penalty_coef`, so one sum serves both
    coefficients.  The reduction order is fixed: per-step terms, then one
    sum over the horizon.  ``out``, ``(N, T)`` or ``(G, N, T)``, receives
    the per-step terms in place of a fresh array.
    """
    terms = penalty_step_terms(np.expand_dims(controls, -3), draws, sigma_inv, out)
    return terms.sum(axis=-1)


class TaskCost(NamedTuple):
    """Bundle returned by :func:`quadratic_wall_cost`."""

    state_cost: Callable[[Array], Array]
    terminal_cost: Callable[[Array], Array]
    lipschitz_q: float
    lipschitz_phi: float


def quadratic_wall_cost(
    weights: Array,
    target: Array,
    wall_offsets: Array | None = None,
    wall_slope: float = 0.0,
    wall_cap: float = np.inf,
    terminal_scale: float = 1.0,
    domain_half_width: Array | None = None,
) -> TaskCost:
    """Quadratic pull toward a target plus a high-slope soft wall per coordinate.

    The wall on coordinate ``i`` activates once ``|x_i - target_i|`` exceeds
    ``wall_offsets[i]`` (``inf`` disables it) and grows linearly with slope
    ``wall_slope``, clipped at ``wall_cap`` so the cost stays Lipschitz with a
    known constant.  ``domain_half_width`` bounds the admissible box around the
    target and yields analytic Lipschitz constants over that box.

    The costs skip the target shift of a zero target, the weight of a
    weight of 1 and the wall chain of an infinite offset, so every finite
    cost has the bits of running them all.  A state with an infinite entry on a
    coordinate whose wall is off costs ``inf``, not the NaN of ``inf - inf``;
    the rollout kernel flags such a row as crashed either way.
    """
    w = np.asarray(weights, dtype=float)
    t = np.asarray(target, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    offsets = None if wall_offsets is None else np.asarray(wall_offsets, dtype=float)

    walls = offsets is not None and wall_slope > 0.0
    by_width: dict[int, tuple[list, list]] = {}

    def columns(n_x: int) -> tuple[list, list]:
        """The plan for states of width ``n_x``: ``(target, weight)`` per
        column, and ``(column, offset)`` for each column whose wall is on."""
        plan = by_width.get(n_x)
        if plan is None:
            params = (t, w, offsets if walls else np.inf)
            quad, wall = [], []
            for i, (ti, wi, oi) in enumerate(
                zip(*(np.broadcast_to(a, (n_x,)).tolist() for a in params))
            ):
                quad.append((None if ti == 0.0 else ti, None if wi == 1.0 else wi))
                # |d| - inf clips to zero, so an infinite offset disables that wall
                if oi != np.inf:
                    wall.append((i, oi))
            plan = by_width[n_x] = (quad, wall)
        return plan

    def q(x: Array) -> Array:
        # One full-width operation per coordinate column.  With n_x = 2, a
        # broadcast against an (n_x,) vector or a reduction over axis=-1 runs
        # numpy's inner loop once per row with two elements in it.  The
        # quadratic terms are added in column order, the order np.sum uses
        # for n_x <= 7, then the wall terms in column order.  ``x`` is often
        # a view of the rollout kernel's state buffer, which may also hold
        # the next step's start, so only arrays made here are written to.
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return q(x[None])[0]
        quad, wall = columns(x.shape[-1])
        # ``None`` marks a shift by zero or a weight of one, which leave
        # every bit as they are
        d = [x[..., i] if ti is None else x[..., i] - ti for i, (ti, _) in enumerate(quad)]
        val = None
        for di, (_, wi) in zip(d, quad):
            term = di * di
            if wi is not None:
                term *= wi
            if val is None:
                val = term
            else:
                val += term
        over = None
        for i, oi in wall:
            c = np.abs(d[i])
            c -= oi
            np.maximum(c, 0.0, out=c)
            np.minimum(c, wall_cap, out=c)
            if over is None:
                over = c
            else:
                over += c
        if over is not None:
            over *= wall_slope
            val += over
        return val

    def phi(x: Array) -> Array:
        val = q(x)
        val *= terminal_scale
        return val

    if domain_half_width is not None:
        half = np.asarray(domain_half_width, dtype=float)
        slope_active = np.zeros_like(w)
        if offsets is not None and wall_slope > 0.0:
            slope_active = np.where(np.isfinite(offsets), wall_slope, 0.0)
        # a zero weight adds nothing, also along an unbounded coordinate
        grad_max = 2.0 * w * np.where(w > 0.0, half, 0.0) + slope_active
        l_q = float(np.linalg.norm(grad_max))
    else:
        l_q = float("nan")
    return TaskCost(q, phi, l_q, terminal_scale * l_q)

