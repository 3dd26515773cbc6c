"""Closed-loop simulation harness: build, run, log, and check the bound.

The harness owns everything outside the controller: constructing the model,
cost, disturbance, and feedback policy from an :class:`ExperimentConfig`,
driving the plant with the controller in the loop, writing a fixed-schema
run log, and verifying the free-energy growth bound against the realized
increments.  The plant noise stream is derived per step from the experiment
seed, so two controllers run under the same seed face identical disturbance
realizations regardless of what actions they take.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig, render_config
from .costs import CostFunction, quadratic_wall_cost
from .dynamics import (
    DisturbanceModel,
    SystemModel,
    make_system,
    nominal_trajectory,
    propagate_real,
)
from .feedback import (
    UNCERTIFIED_RATE,
    LinearGainsPolicy,
    ZeroFeedback,
    contraction_feedback,
    ilqg_gains,
)
from .rmppi import RmppiController, RmppiSettings, TubeMppiController
from .sampling import STREAM_PLANT, MppiController, StepRecord, derive_seed

Array = np.ndarray


def log_columns(n_x: int, n_u: int) -> list[str]:
    """Fixed column schema for a run log with the given state/control sizes."""
    cols = [
        "step", "t",
        "fe_real", "fe_nom", "bound", "dfe", "cand_idx", "gamma_hat", "emv",
        "bound_no_d", "degen", "crash",
    ]
    cols += [f"x{i}" for i in range(n_x)]
    cols += [f"xs{i}" for i in range(n_x)]
    cols += [f"u{i}" for i in range(n_u)]
    return cols


def _log_row(
    t: int, dt: float, rec: StepRecord, dfe: float, crashed: bool, x: Array, action: Array
) -> list[float]:
    """One run-log row in the order of :func:`log_columns`."""
    row = [
        t, t * dt,
        rec.fe_real, rec.fe_nom, rec.bound, dfe, rec.cand_idx, rec.gamma_hat, rec.emv,
        rec.bound_no_d, rec.degen, crashed,
        *x, *rec.x_star, *action,
    ]
    return [float(v) for v in row]


@dataclass
class RunLog:
    """One run: column schema, numeric rows, config echo, and summary stats."""

    columns: list[str]
    rows: list[list[float]] = field(default_factory=list)
    config_text: str = ""
    summary: dict = field(default_factory=dict)

    def column(self, name: str) -> Array:
        if name not in self.columns:
            raise ValueError(f"run log has no {name!r} column")
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([repr(float(v)) for v in row])

    @classmethod
    def from_csv(cls, path) -> "RunLog":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path} is empty: a run log starts with a header row")
            rows = []
            for row in filter(None, reader):
                try:
                    if len(row) != len(header):
                        raise ValueError(f"{len(row)} cells, the header has {len(header)}")
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
        return cls(columns=header, rows=rows)


def build_model(cfg: ExperimentConfig) -> SystemModel:
    kwargs = {"dt": cfg.dt, "control_limit": cfg.control_limit}
    if cfg.system == "nonlinear_benchmark":
        kwargs["damping"] = cfg.damping
    return make_system(cfg.system, **kwargs)


def build_cost(cfg: ExperimentConfig, model: SystemModel) -> CostFunction:
    if len(cfg.sigma) != model.n_u:
        raise ValueError(
            f"cost.sigma has {len(cfg.sigma)} entries but the system has {model.n_u} controls"
        )
    if len(cfg.q_weights) != model.n_x or len(cfg.target) != model.n_x:
        raise ValueError("cost.q_weights and cost.target must match the state dimension")
    if len(cfg.crash_box) != model.n_x:
        raise ValueError("harness.crash_box must match the state dimension")
    if len(cfg.x0) != model.n_x:
        raise ValueError("harness.x0 must match the state dimension")
    # the same strict test as the crash check, so a start on the edge runs
    if np.any(np.abs(np.subtract(cfg.x0, cfg.target)) > np.array(cfg.crash_box)):
        raise ValueError(
            "harness.x0 lies outside the crash box: every entry of "
            "|harness.x0 - cost.target| must be at most harness.crash_box"
        )
    if cfg.wall_offsets is not None and len(cfg.wall_offsets) not in (1, model.n_x):
        raise ValueError(
            f"cost.wall_offsets must have 1 or n_x = {model.n_x} entries, "
            f"got {len(cfg.wall_offsets)}"
        )
    if cfg.feedback_kind == "ilqg" and len(cfg.q_track) != model.n_x:
        raise ValueError("feedback.q_track must match the state dimension")
    if cfg.feedback_kind == "ilqg" and len(cfg.r_track) != model.n_u:
        raise ValueError("feedback.r_track must match the control dimension")
    if cfg.feedback_kind == "contraction" and len(cfg.metric) != model.n_x**2:
        raise ValueError(
            f"feedback.metric must have n_x * n_x = {model.n_x**2} entries, got {len(cfg.metric)}"
        )
    task = quadratic_wall_cost(
        weights=np.array(cfg.q_weights),
        target=np.array(cfg.target),
        wall_offsets=None if cfg.wall_offsets is None else np.array(cfg.wall_offsets),
        wall_slope=cfg.wall_slope,
        wall_cap=cfg.wall_cap,
        terminal_scale=cfg.terminal_scale,
        domain_half_width=np.array(cfg.crash_box),
    )
    sigma = np.diag(np.square(np.array(cfg.sigma)))
    return CostFunction(
        state_cost=task.state_cost,
        terminal_cost=task.terminal_cost,
        sigma=sigma,
        lam=cfg.lam,
        beta=cfg.beta,
        lipschitz_q=task.lipschitz_q,
        lipschitz_phi=task.lipschitz_phi,
        crash_cost=cfg.crash_cost,
    )


# Largest difference |B(x) - B| the contraction law accepts, relative to
# max(1, max |B|).  Central differences on deriv carry a rounding error of
# about 2.2e-16 * |F| / 1e-6 = 2.2e-10 * |F|, so this stays above that noise
# for |F| up to about 4e4 on the probed grid, while an input matrix that
# varies by more than 1e-5 of its size is not the constant B the
# certificate assumes.
_B_TOLERANCE = 1e-5


def _check_constant_b(cfg: ExperimentConfig, model: SystemModel, b: Array) -> None:
    """Refuse the contraction law when B varies over the crash box.

    The input matrix is evaluated, with zero control, on the grid
    ``target + {-1, 0, +1} * crash_box`` in every coordinate (3**n_x points,
    one broadcast :meth:`SystemModel.jacobians` call); an infinite half-width
    is probed at ``target +- 1``.
    """
    target = np.array(cfg.target, dtype=float)
    half = np.array(cfg.crash_box, dtype=float)
    half = np.where(np.isfinite(half), half, 1.0)
    signs = np.stack(
        np.meshgrid(*[(-1.0, 0.0, 1.0)] * model.n_x, indexing="ij"), axis=-1
    ).reshape(-1, model.n_x)
    grid = target + signs * half
    _, b_grid = model.jacobians(grid, np.zeros(model.n_u))
    gap = np.abs(b_grid - b).max(axis=(-2, -1))
    worst = int(np.argmax(gap))
    scale = max(1.0, float(np.max(np.abs(b))))
    if not gap[worst] <= _B_TOLERANCE * scale:
        raise ValueError(
            f"feedback.kind=contraction needs an input matrix B that does not depend "
            f"on the state, but B of system {model.name!r} differs by {gap[worst]:.3g} "
            f"at x={grid[worst].tolist()} (grid over harness.crash_box around "
            f"cost.target) from the B the policy uses; use feedback.kind=ilqg or none"
        )


class _DeferredIlqgGains(LinearGainsPolicy):
    """iLQG gains about one nominal plan, built when they are first read.

    The controllers ask for no correction on a step whose real and nominal
    states coincide, so on such a step neither :func:`nominal_trajectory`
    nor :func:`ilqg_gains` runs.  The first correction (or any read of
    ``gains``) builds the gains ``ilqg_gains`` returns for the plan, and a
    :class:`~robust_mppi.feedback.RiccatiDivergenceError` surfaces there.
    The plan is held, not copied: the controllers replace their nominal
    state and plan each step and never write into them.
    """

    def __init__(self, model: SystemModel, x_star: Array, controls: Array, q_track, r_track):
        self.control_low = model.control_low
        self.control_high = model.control_high
        self._plan = (model, x_star, controls, q_track, r_track)
        self._gains = None

    @property
    def gains(self) -> Array:
        if self._gains is None:
            model, x_star, controls, q_track, r_track = self._plan
            states = nominal_trajectory(model, x_star, controls)
            self._gains = ilqg_gains(model, states, controls, q_track, r_track).gains
        return self._gains


def build_policy_factory(cfg: ExperimentConfig, model: SystemModel):
    """Return (factory, gamma): the policy factory and the bound's tracking rate.

    The factory maps (nominal state, control plan) to a feedback policy and
    is called on every controller step.  For the contraction law the policy
    is state-independent and its certified rate is ``exp(-lambda_c * dt)``.
    iLQG gains are scheduled along the plan: the factory returns a policy
    that linearizes about the plan and runs the Riccati pass on its first
    correction, so a step whose real and nominal states coincide, and which
    asks for none, builds no gains.  iLQG and no feedback carry no
    certificate, and get ``UNCERTIFIED_RATE``.
    """
    if cfg.feedback_kind == "none":
        policy = ZeroFeedback(model.n_u)
        return (lambda x_star, controls: policy), UNCERTIFIED_RATE
    if cfg.feedback_kind == "contraction":
        n = model.n_x
        metric = np.array(cfg.metric, dtype=float).reshape(n, n)
        # config load has checked lambda_c, so the policy refuses only the
        # metric here
        try:
            policy = contraction_feedback(model, metric, cfg.lambda_c)
        except ValueError as err:
            raise ValueError(
                f"feedback.metric must be a symmetric positive-definite {n}x{n} matrix, "
                f"got {list(cfg.metric)}: {err}"
            ) from None
        _check_constant_b(cfg, model, policy.b_matrix)
        return (lambda x_star, controls: policy), float(np.exp(-cfg.lambda_c * model.dt))
    if cfg.feedback_kind == "ilqg":
        q_track = np.diag(np.array(cfg.q_track, dtype=float))
        r_track = np.diag(np.array(cfg.r_track, dtype=float))

        def factory(x_star: Array, controls: Array) -> LinearGainsPolicy:
            return _DeferredIlqgGains(model, x_star, controls, q_track, r_track)

        return factory, UNCERTIFIED_RATE
    raise ValueError(f"unknown feedback kind {cfg.feedback_kind!r}")


def build_controller(cfg: ExperimentConfig, model: SystemModel, cost: CostFunction):
    factory, gamma = build_policy_factory(cfg, model)
    if cfg.controller == "mppi":
        return MppiController(model, cost, cfg.n_samples, cfg.horizon, cfg.seed)
    if cfg.feedback_kind == "ilqg":
        # a probe about the start under the zero plan, dropped: a Riccati
        # pass that diverges there is refused before step 0
        zero_plan = np.zeros((cfg.horizon, model.n_u))
        factory(np.array(cfg.x0, dtype=float), zero_plan).gains
    if cfg.controller == "tube":
        return TubeMppiController(
            model, cost, cfg.n_samples, cfg.horizon, cfg.seed, factory, cfg.alpha
        )
    if cfg.controller == "rmppi":
        if not np.isfinite(cost.lipschitz_q):
            raise ValueError(
                f"controller rmppi needs a finite harness.crash_box entry for every positive "
                f"cost.q_weights entry, got {list(cfg.crash_box)} and {list(cfg.q_weights)}"
            )
        settings = RmppiSettings(
            n_samples=cfg.n_samples,
            horizon=cfg.horizon,
            alpha=cfg.alpha,
            n_candidates=cfg.n_candidates,
            nsp_samples=cfg.nsp_samples,
            emv_repeats=cfg.emv_repeats,
            gamma=gamma,
            w_bound=cfg.w_bound,
        )
        return RmppiController(model, cost, settings, cfg.seed, factory)
    raise ValueError(f"unknown controller {cfg.controller!r}")


def run_closed_loop(cfg: ExperimentConfig) -> RunLog:
    """Simulate one controller against the disturbed plant and log every step.

    The plant applies the commanded action plus model-scale control noise
    inflated by ``disturbance.noise_multiplier``, then adds a uniform-ball
    state disturbance of radius ``disturbance.w_bound``.  The run stops early
    if the state leaves the crash box around the target.  ``dfe`` is the
    change of ``fe_real`` since the previous step (0.0 on the first), and the
    summary counts the steps whose record flags a tube reset, an NSP fallback
    or a contraction violation.
    """
    model = build_model(cfg)
    cost = build_cost(cfg, model)
    controller = build_controller(cfg, model, cost)
    disturbance = DisturbanceModel(
        noise_multiplier=cfg.noise_multiplier, w_bound=cfg.w_bound
    )
    target = np.array(cfg.target, dtype=float)
    box = np.array(cfg.crash_box, dtype=float)

    log = RunLog(columns=log_columns(model.n_x, model.n_u))
    log.config_text = render_config(cfg)
    x = np.array(cfg.x0, dtype=float)
    crashed = False
    state_costs = []
    prev_fe = None
    resets = fallbacks = violations = 0
    for t in range(cfg.steps):
        action, rec = controller.step(x)
        state_costs.append(float(cost.state_cost(x)))
        rng = np.random.default_rng(derive_seed(cfg.seed, t, STREAM_PLANT))
        eps = disturbance.control_noise(rng, cost.sigma_chol)
        x_next = propagate_real(model, disturbance, x, action, eps, rng)
        crashed = bool(
            np.any(np.abs(x_next - target) > box) or not np.all(np.isfinite(x_next))
        )
        dfe = 0.0 if prev_fe is None else rec.fe_real - prev_fe
        prev_fe = rec.fe_real
        resets += rec.reset
        fallbacks += rec.nsp_fallback
        violations += rec.contraction_violation
        log.rows.append(_log_row(t, model.dt, rec, dfe, crashed, x, action))
        if crashed:
            break
        x = x_next

    check = verify_bound(log)
    log.summary = {
        "name": cfg.name,
        "controller": cfg.controller,
        "steps_run": len(log.rows),
        "completed": len(log.rows) == cfg.steps and not crashed,
        "crashed": crashed,
        "mean_state_cost": float(np.mean(state_costs)) if state_costs else float("nan"),
        "final_state": [float(v) for v in x],
        "fe_real_mean": float(np.mean(log.column("fe_real"))) if log.rows else float("nan"),
        "fe_real_max": float(np.max(log.column("fe_real"))) if log.rows else float("nan"),
        "bound_checked_steps": int(check.checked),
        "bound_violation_rate": float(check.rate),
        "bound_mean_margin": float(check.mean_margin),
        "tube_resets": resets,
        "nsp_fallbacks": fallbacks,
        "contraction_violations": violations,
        "degen_steps": int(np.sum(log.column("degen"))) if log.rows else 0,
    }
    return log


@dataclass(frozen=True)
class BoundCheck:
    """Result of checking realized free-energy increments against the bound.

    Row ``k`` of a run log carries the bound for the increment realized
    between rows ``k`` and ``k+1``, so ``dfe[k+1]`` is compared with
    ``bound[k]``.  Rows whose bound is infinite (controllers that do not
    emit one) are skipped.
    """

    checked: int
    violations: Array
    rate: float
    mean_margin: float


def verify_bound(log: RunLog) -> BoundCheck:
    if len(log.rows) < 2:
        return BoundCheck(0, np.zeros(0, dtype=bool), 0.0, float("nan"))
    bound = log.column("bound")[:-1]
    dfe = log.column("dfe")[1:]
    valid = np.isfinite(bound)
    if not valid.any():
        return BoundCheck(0, np.zeros(0, dtype=bool), 0.0, float("nan"))
    violations = dfe[valid] > bound[valid]
    margin = bound[valid] - dfe[valid]
    return BoundCheck(
        checked=int(valid.sum()),
        violations=violations,
        rate=float(np.mean(violations)),
        mean_margin=float(np.mean(margin)),
    )


def compare_controllers(
    cfg: ExperimentConfig, controllers: tuple[str, ...] = ("mppi", "tube", "rmppi")
) -> dict[str, RunLog]:
    """Run several controllers under identical plant noise realizations.

    Everything except the controller (and run name) is held fixed; the
    per-step plant stream depends only on the experiment seed, so each
    controller faces the same disturbance sequence.
    """
    results = {}
    for name in controllers:
        sub = cfg.with_values(
            **{"experiment.controller": name, "experiment.name": f"{cfg.name}-{name}"}
        )
        results[name] = run_closed_loop(sub)
    return results


def summary_table(results: dict[str, RunLog]) -> str:
    """Plain-text comparison table, one controller per row."""
    headers = ["controller", "steps", "crashed", "mean_cost", "fe_mean", "viol_rate"]
    lines = ["  ".join(f"{h:>10}" for h in headers)]
    for name, log in results.items():
        s = log.summary
        cells = [
            name,
            str(s["steps_run"]),
            str(s["crashed"]),
            f"{s['mean_state_cost']:.4g}",
            f"{s['fe_real_mean']:.4g}",
            f"{s['bound_violation_rate']:.3f}",
        ]
        lines.append("  ".join(f"{c:>10}" for c in cells))
    return "\n".join(lines)
