"""Command-line front end: run experiments, compare controllers, check logs.

Exit codes: 0 success (for ``verify-bound``, a log with no violations), 1 a
completed check that found problems (bound violations, failed selftest), 2
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import load_config, render_config
from .harness import RunLog, compare_controllers, run_closed_loop, summary_table, verify_bound


def _write_outputs(log: RunLog, out_root: str, name: str) -> Path:
    out_dir = Path(out_root) / name
    out_dir.mkdir(parents=True, exist_ok=True)
    log.to_csv(out_dir / "runlog.csv")
    (out_dir / "config.ini").write_text(log.config_text)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(log.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.override)
    log = run_closed_loop(cfg)
    out_dir = _write_outputs(log, cfg.output, cfg.name)
    print(f"wrote {out_dir}/runlog.csv ({log.summary['steps_run']} steps)")
    print(json.dumps(log.summary, indent=2, sort_keys=True))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.override)
    results = compare_controllers(cfg)
    for name, log in results.items():
        _write_outputs(log, cfg.output, f"{cfg.name}-{name}")
    table = summary_table(results)
    out_dir = Path(cfg.output) / cfg.name
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "comparison.txt").write_text(table + "\n")
    print(table)
    return 0


def _cmd_verify_bound(args: argparse.Namespace) -> int:
    log = RunLog.from_csv(args.runlog)
    check = verify_bound(log)
    if check.checked == 0:
        print("no bounded steps in log (bound column is infinite or log too short)")
        return 0
    n_viol = int(check.violations.sum())
    print(
        f"checked {check.checked} increments: {n_viol} violations "
        f"(rate {check.rate:.4f}), mean margin {check.mean_margin:.4f}"
    )
    return 1 if n_viol else 0


def _selftest_checks():
    """Fast library-level sanity checks, independent of the test suite."""
    from .costs import CostFunction
    from .dynamics import double_integrator
    from .feedback import ZeroFeedback, fit_gamma
    from .rmppi import (
        BoundParams,
        augmented_density_ratio,
        augmented_rollouts,
        free_energy_growth_bound,
        mixed_cost,
    )
    from .sampling import NoisePlan, free_energy_mc, is_weight, rollout_batch

    rng = np.random.default_rng(7)
    model = double_integrator()
    cost = CostFunction(
        state_cost=lambda x: np.sum(x * x, axis=-1),
        terminal_cost=lambda x: 2.0 * np.sum(x * x, axis=-1),
        sigma=np.eye(1) * 0.25,
        lam=10.0,
        beta=0.0,
        lipschitz_q=1.0,
        lipschitz_phi=2.0,
    )

    def check_noise_plan():
        a = NoisePlan.sample(42, 16, 5, cost.sigma_chol)
        b = NoisePlan.sample(42, 16, 5, cost.sigma_chol)
        c = NoisePlan.sample(43, 16, 5, cost.sigma_chol)
        return np.array_equal(a.draws, b.draws) and not np.array_equal(a.draws, c.draws)

    def check_sandwich():
        costs = rng.uniform(0.0, 50.0, size=256)
        fe = free_energy_mc(costs, cost.lam).value
        lo, hi = costs.min(), costs.min() + cost.lam * np.log(costs.size)
        return lo <= fe <= hi + 1e-12

    def check_mixed_threshold():
        s = rng.uniform(-5, 5, size=2000)
        h = s + rng.uniform(0, 5, size=2000)
        alpha = rng.uniform(-5, 5, size=2000)
        blended = mixed_cost(s, h, alpha)
        return bool(np.all((blended <= alpha) == (s <= alpha)))

    def check_is_weight():
        plan = NoisePlan.sample(3, 64, 4, cost.sigma_chol)
        controls = rng.normal(size=(4, 1))
        costs = rng.uniform(0, 10, size=64)
        w = is_weight(costs, controls, plan.draws, cost.sigma_inv, cost.lam)
        raw = np.exp(-costs / cost.lam) * np.array(
            [
                augmented_density_ratio(
                    controls, np.zeros_like(controls), plan.draws[i], cost.sigma_inv
                )
                for i in range(64)
            ]
        )
        return np.allclose(w, raw / raw.sum(), rtol=1e-10, atol=0)

    def check_stacked_rollouts():
        plan = NoisePlan.sample(5, 33, 6, cost.sigma_chol)
        controls = rng.normal(size=(3, 6, 1))
        starts = rng.normal(size=(3, 1, 2))
        stacked = rollout_batch(model, cost, starts, controls, plan.draws)
        return all(
            np.array_equal(
                stacked.costs[g],
                rollout_batch(model, cost, starts[g, 0], controls[g], plan.draws).costs,
            )
            for g in range(3)
        )

    def check_augmented_reduction():
        plan = NoisePlan.sample(9, 48, 6, cost.sigma_chol)
        controls = rng.normal(size=(6, 1))
        x0 = np.array([0.2, 0.4])
        plain = rollout_batch(model, cost, x0, controls, plan.draws, control_term="plain")
        roll = augmented_rollouts(
            model, cost, x0, x0, controls, ZeroFeedback(1), plan.draws, np.inf
        )
        return np.array_equal(roll.real, plain.costs) and np.array_equal(
            roll.mixed, plain.costs
        )

    def check_gamma_fit():
        geo = fit_gamma(np.array([1.0, 0.5, 0.25, 0.125]))
        flat = fit_gamma(np.array([1.0, 1.0, 1.0]))
        return abs(geo.gamma_hat - 0.5) < 1e-12 and flat.boundary and flat.gamma_hat == 1.0

    def check_bound_factor():
        params = BoundParams(
            alpha=5.0, gamma=0.5, horizon=2, lipschitz_q=1.0,
            lipschitz_phi=2.0, emv=0.0, w_bound=0.0,
        )
        x = np.zeros(2)
        b = free_energy_growth_bound(
            params, model, x, x, np.zeros(1), fe_nominal=5.0
        )
        return abs(b - 0.0) < 1e-12  # zero motion, zero offset, zero slack

    return [
        ("noise plan determinism", check_noise_plan),
        ("free energy sandwich", check_sandwich),
        ("mixed cost threshold equivalence", check_mixed_threshold),
        ("importance weights match density ratio", check_is_weight),
        ("stacked rollouts equal separate ones", check_stacked_rollouts),
        ("augmented channels reduce to plain", check_augmented_reduction),
        ("tracking rate fit", check_gamma_fit),
        ("growth bound arithmetic", check_bound_factor),
    ]


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    for name, fn in _selftest_checks():
        try:
            ok = fn()
        except Exception as exc:  # a crash is a failure, keep going
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        print(f"{'ok  ' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-mppi",
        description="Sampling-based stochastic MPC: run, compare, and check controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one closed-loop experiment")
    run_p.add_argument("config", nargs="?", default=None, help="INI config file")
    run_p.add_argument(
        "-o", "--override", action="append", default=[],
        metavar="SECTION.KEY=VALUE", help="override a config entry",
    )
    run_p.set_defaults(fn=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run mppi, tube, and rmppi on one scenario")
    cmp_p.add_argument("config", nargs="?", default=None)
    cmp_p.add_argument("-o", "--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
    cmp_p.set_defaults(fn=_cmd_compare)

    ver_p = sub.add_parser("verify-bound", help="check a run log against its bound column")
    ver_p.add_argument("runlog", help="runlog.csv produced by `run`")
    ver_p.set_defaults(fn=_cmd_verify_bound)

    self_p = sub.add_parser("selftest", help="fast built-in sanity checks")
    self_p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
