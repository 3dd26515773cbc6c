"""Noise plans, Monte-Carlo free energy, softmax weights and batched rollouts.

Determinism contract: every random stream is derived from the experiment seed
plus a (step, stream) path through :func:`derive_seed`, so a run is a pure
function of its config.  Every controller path rolls its samples through one
kernel, :func:`propagate`, which advances groups of samples under shared
noise draws with an optional tracking correction and returns only the state
costs and crash flags; a caller that prices the corrections records them in
its own feedback closure; one check after its horizon loop flags the
crashed rows, which are stepped like the others until then.  The kernel
keeps a block of horizon steps' states and prices them in one
``state_cost`` call on a ``(block, G, N, n_x)`` array, so a state cost
must act row by row over every leading axis; without feedback it also
builds and clamps a block's controls at once.  Per-sample evaluation is
elementwise, each row's state costs are added in horizon order, and
penalties are summed in a fixed order after the horizon loop, so a
sample's cost does not depend on which other samples or groups share its
batch, nor on how the horizon is cut into blocks.
The large per-step arrays (noise draws, penalty terms, tracking corrections)
are filled in place in buffers from :func:`scratch`, a per-thread pool kept
across steps, so a step does not map and fault them afresh.  A controller
takes all of a step's draws in one :func:`step_draws` call.  Once they fill
at least ``_PREFETCH_BYTES``, the pool keeps a second draws buffer, and one
daemon worker thread fills the next step's draws into it while the caller
rolls out the current step; the draws are keyed by ``(seed, step, stream)``
alone, so they have the same bits either way.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .costs import CostFunction, control_penalty_batch, control_penalty_coef

Array = np.ndarray

# Stream tags for seed derivation; one per independent noise consumer.
STREAM_ROLLOUT = 1
STREAM_NSP = 2
STREAM_PLANT = 4

# Bytes of states that :func:`propagate` prices in one ``state_cost`` call.
# 64 KiB gives blocks of 14 steps at 288 rows and 8 at 2x256 (n_x = 2), where
# each call's Python overhead outweighs its arithmetic, and blocks of one step
# from 4096 rows on, as one call per step did before.  Against one call per
# step, a T=30 rollout took about 0.83 of the time at 288 pendulum rows, 0.65
# at 2x256 wall rows and 0.73 at 9x32 rows, and the same at 4608 rows.  A
# 256 KiB budget was slower at both ends: 2x256 rows then fill a 240 KiB
# buffer, and each call took 118 minor page faults where 64 KiB took none;
# 4608 rows took about 1.1 times as long (numpy 2.4.6, a 2-vCPU Xeon).  The
# same block sizes a rollout's buffer of clamped controls when it has no
# feedback, ``n_u / n_x`` times the states' bytes.
_STATE_BLOCK_BYTES = 64 * 1024

# Bytes of one step's draws from which :func:`step_draws` fills the next
# step's draws on a worker thread while the caller rolls out this one.  The
# worker needs the GIL to enter and leave each numpy call, and while it waits
# for it every GIL release of the caller wakes it, which costs more than
# small draws take.  On ``di_stress_x100`` RMPPI (NSP 32, T = 30), filling
# ahead against drawing in the step over four alternating pairs of
# ``perfbench`` runs: at N=512 (128 KiB of draws) the wall-clock step p50 was
# slower in three pairs; at N=1024 (248 KiB) faster in three, by up to 0.75
# ms; at N=2048 (488 KiB) faster in all four, by 0.1 to 1.0 ms.  The paper-
# scale benchmark workloads, 60 to 68 KiB a step, gained nothing from filling
# ahead: their step p50 moved by -1% to +3% over two pairs each.  N=4096 with
# NSP 512 draws 1.05 MiB (numpy 2.4.6, a 2-vCPU Xeon).
_PREFETCH_BYTES = 192 * 1024


class _ScratchPool(threading.local):
    def __init__(self) -> None:
        self.buffers: dict[str, Array] = {}
        self.pending: _Fill | None = None  # the next step's draws, filling on the worker


_POOL = _ScratchPool()


def scratch(role: str, shape: tuple[int, ...]) -> Array:
    """This thread's float buffer for ``role``, of ``shape``, contents undefined.

    The buffer is kept across calls and reallocated only when the shape asked
    for under ``role`` changes.  It is overwritten by the next user of the
    same role in this thread, so a caller must be done with it before then;
    the controllers use each role within one step.  At N=4096 fresh arrays of
    this size cost more in page faults than their arithmetic, because the
    allocator hands them back to the system between steps.  The roles
    ``"draws"`` and ``"draws_next"`` belong to :func:`step_draws`, which
    swaps them when it hands out draws filled ahead on the worker thread.
    """
    buffers = _POOL.buffers
    buf = buffers.get(role)
    if buf is None or buf.shape != shape:
        buf = buffers[role] = np.empty(shape)
    return buf


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

    def __post_init__(self) -> None:
        if self.draws.ndim != 3:
            shape = self.draws.shape
            raise ValueError(f"draws must be (n_samples, horizon, n_u), got shape {shape}")

    @classmethod
    def sample(
        cls,
        seed: int,
        n_samples: int,
        horizon: int,
        sigma_chol: Array,
        out: Array | None = None,
    ) -> "NoisePlan":
        """Draw the plan; with ``out``, a float array of the draws' shape, fill
        and return it in place, with the same bits as a fresh plan."""
        if n_samples < 1 or horizon < 1:
            raise ValueError("n_samples and horizon must be at least 1")
        sigma_chol = np.atleast_2d(np.asarray(sigma_chol, dtype=float))
        shape = (n_samples, horizon, sigma_chol.shape[0])
        if out is not None and out.shape != shape:
            raise ValueError(f"out has shape {out.shape}, the draws have shape {shape}")
        if out is None:
            out = np.empty(shape)
        return cls(draws=_fill(np.random.default_rng(seed), sigma_chol, out))


def _fill(rng: np.random.Generator, sigma_chol: Array, out: Array) -> Array:
    """Fill ``out``, C-contiguous ``(rows, T, n_u)``, with ``rng``'s normals
    times ``sigma_chol`` and return it.

    The draws of :meth:`NoisePlan.sample` and of the worker thread.  The
    normals and the scaling release the GIL while they run.  The worker
    calls this and not ``NoisePlan.sample``, which ``perfbench``'s tracer
    wraps with one span stack shared by every thread.
    """
    z = rng.standard_normal(out=out)
    scale = np.diagonal(sigma_chol)
    if np.array_equal(sigma_chol, np.diag(scale)):
        # a diagonal factor scales each column; in place, the same bits
        # as the matmul without its (N, T, n_u) result
        z *= scale
    else:
        # one (N*T, n_u) matmul, not N stacked (T, n_u) ones; same values
        z[...] = (z.reshape(-1, z.shape[-1]) @ sigma_chol.T).reshape(z.shape)
    return z


def _stream_views(layout: tuple[tuple[int, int], ...], buf: Array):
    """``(stream, rows of buf)`` for each ``(stream, rows)`` of ``layout``, in order."""
    first = 0
    for stream, rows in layout:
        yield stream, buf[first : first + rows]
        first += rows


class _Fill:
    """One step's draws, filled into ``out`` on the worker thread.

    Each part's generator is seeded on the calling thread, so the worker runs
    only :func:`_fill`.  ``done`` is held until the fill has finished.
    """

    def __init__(self, key: tuple, cost: CostFunction, out: Array, parts: list) -> None:
        self.key, self.cost, self.out, self.parts = key, cost, out, parts
        self.error: BaseException | None = None
        self.done = threading.Lock()
        self.done.acquire()

    def run(self) -> None:
        try:
            for rng, view in self.parts:
                _fill(rng, self.cost.sigma_chol, view)
        except Exception as exc:  # raised on the caller's next call
            self.error = exc
        finally:
            self.done.release()


_WORKER_LOCK = threading.Lock()
_worker_jobs = None  # the worker's queue, made with the worker on first use


def _submit(fill: _Fill) -> None:
    """Queue ``fill`` for the process's one daemon worker, started on first use."""
    global _worker_jobs
    with _WORKER_LOCK:
        if _worker_jobs is None:
            import queue  # only prefetching needs it

            jobs = queue.SimpleQueue()
            threading.Thread(
                target=_work, args=(jobs,), name="robust-mppi-draws", daemon=True
            ).start()
            _worker_jobs = jobs
    _worker_jobs.put(fill)


def _work(jobs) -> None:
    while True:
        jobs.get().run()


def _forget_worker() -> None:
    """Start over in a forked child, which has no worker thread.

    There the fill in flight may never finish and the worker lock may stay
    held, so the child draws its next step itself and starts its own worker.
    """
    global _WORKER_LOCK, _worker_jobs
    _WORKER_LOCK, _worker_jobs = threading.Lock(), None
    _POOL.pending = None


os.register_at_fork(after_in_child=_forget_worker)


def step_draws(
    seed: int, step: int, layout: tuple[tuple[int, int], ...], horizon: int, cost: CostFunction
) -> Array:
    """One step's control draws, covariance ``cost.sigma``, for every stream of ``layout``.

    ``layout`` is ``((stream, rows), ...)``.  The result is one pooled
    ``(sum of rows, horizon, n_u)`` buffer in which each stream's rows, in
    layout order, have the bits of ``NoisePlan.sample(derive_seed(seed,
    step, stream), rows, horizon, cost.sigma_chol)``.  It is this thread's
    :func:`scratch` buffer, so the caller must be done with it by its next
    call.

    A buffer of at least ``_PREFETCH_BYTES`` is handed out, and step
    ``step + 1``'s draws under the same layout start filling the thread's
    second draws buffer on the worker thread.  The next call for that step,
    layout, horizon and cost waits for the fill and returns that buffer.  Any
    other call waits for it too, so the worker never writes a buffer that a
    caller holds, and then fills its own draws here; an error the fill met
    is raised there.  A smaller buffer is filled here, and no thread is
    started.
    """
    pool = _POOL
    buffers = pool.buffers
    key = (seed, step, layout, horizon)
    out = None
    pending = pool.pending
    if pending is not None:
        pool.pending = None
        pending.done.acquire()
        if pending.error is not None:
            raise pending.error
        if pending.key == key and pending.cost is cost:
            # the filled buffer is this step's; the one handed out last fills next
            out = pending.out
            buffers["draws"], buffers["draws_next"] = out, buffers["draws"]
    if out is None:
        rows = sum(n for _, n in layout)
        out = scratch("draws", (rows, horizon, cost.sigma_chol.shape[0]))
        for stream, view in _stream_views(layout, out):
            child = derive_seed(seed, step, stream)
            NoisePlan.sample(child, view.shape[0], horizon, cost.sigma_chol, view)
    if out.nbytes < _PREFETCH_BYTES:
        buffers.pop("draws_next", None)
        return out
    spare = scratch("draws_next", out.shape)
    parts = [
        (np.random.default_rng(derive_seed(seed, step + 1, stream)), view)
        for stream, view in _stream_views(layout, spare)
    ]
    pool.pending = _Fill((seed, step + 1, layout, horizon), cost, spare, parts)
    _submit(pool.pending)
    return out


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
    if not np.isfinite(costs).all():
        raise ValueError("free energy requires finite costs")
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    # the array methods and ufuncs skip numpy's Python wrappers; the sum
    # divided by N has the bits of np.mean
    m = costs.min(axis=-1, keepdims=True)
    mean = np.add.reduce(np.exp(-(costs - m) / lam), axis=-1) / costs.shape[-1]
    value = m[..., 0] - lam * np.log(mean)
    return float(value) if costs.ndim == 1 else value


def softmax_weights(costs: Array, lam: float) -> Array:
    """Normalized exp(-costs/lam), stabilized against the minimum cost."""
    costs = np.asarray(costs, dtype=float)
    if costs.size == 0:
        raise ValueError("cannot weight an empty batch")
    if not np.isfinite(costs).all():
        raise DegenerateSamplingError("non-finite costs in the sample batch")
    w = np.exp(-(costs - costs.min()) / lam)
    return w / np.add.reduce(w, axis=None)


def weighted_noise(weights: Array, draws: Array) -> Array:
    """Weight-averaged noise sequence, shape ``(T, n_u)``."""
    return np.einsum("n,ntu->tu", weights, draws)


def shift_control_sequence(controls: Array) -> Array:
    """Receding-horizon shift: drop the first control, zero-pad the tail."""
    shifted = np.empty_like(controls)
    shifted[:-1] = controls[1:]
    shifted[-1] = 0.0
    return shifted


def mppi_update(controls: Array, weights: Array, draws: Array) -> Array:
    """Move the control plan toward the weighted noise average."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0.0) or not np.all(np.isfinite(weights)) or np.sum(weights) <= 0.0:
        raise DegenerateSamplingError("sample weights degenerate (all zero or non-finite)")
    return controls + weighted_noise(weights, draws)


@dataclass(frozen=True)
class RolloutResult:
    """Per-sample rollout costs plus crash flags."""

    costs: Array
    crashed: Array


def propagate(
    model,
    cost: CostFunction,
    starts: Array,
    controls: Array,
    draws: Array,
    feedback: Callable[[Array, int], Array] | None = None,
) -> tuple[Array, Array]:
    """Roll groups of samples through shared noise and accumulate state cost.

    ``starts`` broadcasts to ``(G, N, n_x)``; ``controls`` is one sequence
    ``(T, n_u)`` for every group or one per group ``(G, T, n_u)``; ``draws``
    is ``(N, T, n_u)`` and is shared by every group.  Step ``t`` applies
    ``controls[t] + k + draws[:, t]``, where ``k = feedback(x, t)`` is a
    correction broadcastable to ``(G, N, n_u)`` computed from the current
    states ``x``; with no ``feedback`` nothing is added.  ``x`` is a view of
    a buffer that later steps overwrite, so ``feedback`` must copy what it
    keeps of it.  A row crashes when its final state or path cost is not
    finite: Euler steps ``x + F*dt`` keep a non-finite state non-finite, so
    one check after the loop sees every crash, and crashed rows are stepped
    on through ``model.step``, ``feedback`` and the costs.

    Each step's states go into a buffer of ``block`` steps, sized to
    ``_STATE_BLOCK_BYTES``, and ``cost.state_cost`` prices a full block in
    one call on a ``(block, G, N, n_x)`` array; the horizon's last block may
    be shorter.  The cost must therefore act row by row over every leading
    axis.  Its rows are added to the running cost one step at a time, in
    horizon order, so each row gets the bits of a call per step.

    With no ``feedback`` the controls do not depend on the states, so a
    block's controls are built in one add into a ``(block, G, N, n_u)``
    buffer and clamped there in place with ``model.clamp(u, out=u)``; each
    step then runs only ``model.euler`` on its slice of the buffer.  The add
    and the clamp are elementwise, so each entry has the bits that
    ``model.step`` would give it.  With ``feedback``, each step's sum
    ``(controls[t] + k) + draws[:, t]`` goes through ``model.step``, which
    clamps it.  Either way ``model.deriv`` receives views of buffers that
    later steps overwrite, and must not write into them.

    Returns two values: the running plus terminal state costs, which may be
    NaN on a crashed row, and the crash flags, both ``(G, N)``.  The
    corrections are not recorded; a caller that prices them keeps them from
    inside its ``feedback``.
    """
    n, horizon, n_u = draws.shape
    groups = np.broadcast_shapes(starts.shape[:-2], controls.shape[:-2], (1,))
    ctrl = np.broadcast_to(controls, groups + (horizon, n_u))
    x = np.broadcast_to(starts, groups + (n, model.n_x))
    s = np.zeros(x.shape[:-1])
    block = min(horizon, max(1, _STATE_BLOCK_BYTES // max(1, x.size * 8)))
    # with one step a block, each step overwrites the states it started from
    states = np.empty((block,) + x.shape)
    if feedback is None:
        # controls that do not depend on the states are built and clamped a
        # block at a time: both are elementwise, so each entry keeps its bits
        applied = np.empty((block,) + x.shape[:-1] + (n_u,))
        ctrl_by_step = ctrl.transpose(1, 0, 2)[:, :, None]  # (T, G, 1, n_u)
        draws_by_step = draws.transpose(1, 0, 2)[:, None]  # (T, 1, N, n_u)
    # the check after the loop says all that crashed rows' warnings would
    with np.errstate(all="ignore"):
        for first in range(0, horizon, block):
            last = min(first + block, horizon)
            steps = states[: last - first]
            if feedback is None:
                u = applied[: last - first]
                np.add(ctrl_by_step[first:last], draws_by_step[first:last], out=u)
                model.clamp(u, out=u)
                for j in range(last - first):
                    x = model.euler(x, u[j], out=steps[j])
            else:
                for j, t in enumerate(range(first, last)):
                    u = ctrl[:, None, t] + feedback(x, t)
                    x = model.step(x, u + draws[:, t], out=steps[j])
            # one row at a time: a sum over the block would reorder the additions
            for row in cost.state_cost(steps):
                s += row
        s += cost.terminal_cost(x)
    crashed = ~np.isfinite(s)
    # a per-row reduction over the short state axis costs about twenty times
    # as much as one whole-array check, so it runs only when a row needs it
    if not np.isfinite(x).all():
        crashed |= ~np.isfinite(x).all(axis=-1)
    return s, crashed


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
    costs alone come from :func:`propagate`.  Samples whose final state or
    path cost is not finite get ``cost.crash_cost`` and are flagged.
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

    state_costs, crashed = propagate(model, cost, x0, controls, draws)
    if x0.ndim < 3 and controls.ndim < 3:
        state_costs, crashed = state_costs[0], crashed[0]
    return price_rollouts(cost, controls, draws, state_costs, crashed, control_term)


def price_rollouts(
    cost: CostFunction,
    controls: Array,
    draws: Array,
    state_costs: Array,
    crashed: Array,
    control_term: str,
) -> RolloutResult:
    """Add the ``control_term`` penalty to :func:`propagate`'s state costs and price crashes.

    The pricing step of :func:`rollout_batch`, for rows that another call
    rolled out: ``state_costs`` and ``crashed`` of the shape that
    ``rollout_batch`` would give for ``controls`` and ``draws``.
    """
    coef = control_penalty_coef(cost.lam, cost.beta, control_term == "beta")
    terms = scratch("rollout_penalty", controls.shape[:-2] + draws.shape[:-1])
    total = state_costs + coef * control_penalty_batch(controls, draws, cost.sigma_inv, terms)
    if crashed.any():
        total[crashed] = cost.crash_cost
    return RolloutResult(costs=total, crashed=crashed)


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

    def __init__(self, model, cost: CostFunction, n_samples: int, horizon: int, seed: int):
        self.model = model
        self.cost = cost
        self.n_samples = n_samples
        self.horizon = horizon
        self.seed = seed
        self.controls = np.zeros((horizon, model.n_u))
        self.step_index = 0

    def step(self, x: Array) -> tuple[Array, StepRecord]:
        x = np.asarray(x, dtype=float)
        layout = ((STREAM_ROLLOUT, self.n_samples),)
        draws = step_draws(self.seed, self.step_index, layout, self.horizon, self.cost)
        res = rollout_batch(self.model, self.cost, x, self.controls, draws)
        degenerate = bool(res.crashed.all())
        if degenerate:
            action = self.model.clamp(self.controls[0])
            updated = self.controls
            fe = float(self.cost.crash_cost)
        else:
            weights = softmax_weights(res.costs, self.cost.lam)
            updated = mppi_update(self.controls, weights, draws)
            action = self.model.clamp(updated[0])
            fe = free_energy_mc(res.costs, self.cost.lam)
        self.controls = shift_control_sequence(updated)
        self.step_index += 1
        return action, StepRecord(fe_real=fe, fe_nom=fe, x_star=x.copy(), degen=degenerate)
