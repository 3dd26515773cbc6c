"""Command-line front end: run experiments, compare controllers, check logs.

Exit codes: 0 success (for ``verify-bound``, a log with no violations), 1 a
completed check that found problems (bound violations, failed selftest), 2
usage, configuration or input errors (a file that is missing, unreadable or
not a run log) and a run whose iLQG tracking gains diverged
(``feedback.kind=ilqg`` on a system whose linearization is not stabilizable).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_config
from .feedback import RiccatiDivergenceError
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


# The built-in default scenario, cut down so that `selftest` runs in well
# under a second.
_SELFTEST_OVERRIDES = (
    "experiment.steps=50",
    "sampling.n_samples=64",
    "sampling.horizon=10",
    "rmppi.nsp_samples=16",
)


def _cmd_selftest(args: argparse.Namespace) -> int:
    cfg = load_config(None, _SELFTEST_OVERRIDES)
    log = run_closed_loop(cfg)
    check = verify_bound(log)
    n_viol = int(check.violations.sum())
    results = [
        (
            log.summary["completed"],
            f"ran {log.summary['steps_run']} of {cfg.steps} steps without a crash",
        ),
        (
            check.checked > 0 and n_viol == 0,
            f"bound held: {check.checked} increments checked, {n_viol} violations",
        ),
    ]
    for ok, line in results:
        print(f"{'ok  ' if ok else 'FAIL'}  {line}")
    return 0 if all(ok for ok, _ in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-mppi",
        description="Sampling-based stochastic MPC: run, compare, and check controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("config", nargs="?", default=None, help="INI config file")
    scenario.add_argument(
        "-o", "--override", action="append", default=[],
        metavar="SECTION.KEY=VALUE", help="override a config entry",
    )
    run_p = sub.add_parser("run", parents=[scenario], help="run one closed-loop experiment")
    run_p.set_defaults(fn=_cmd_run)
    cmp_p = sub.add_parser(
        "compare", parents=[scenario], help="run mppi, tube, and rmppi on one scenario"
    )
    cmp_p.set_defaults(fn=_cmd_compare)

    ver_p = sub.add_parser("verify-bound", help="check a run log against its bound column")
    ver_p.add_argument("runlog", help="runlog.csv produced by `run`")
    ver_p.set_defaults(fn=_cmd_verify_bound)

    self_p = sub.add_parser(
        "selftest", help="run a short built-in scenario and check its bound"
    )
    self_p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RiccatiDivergenceError as exc:
        print(f"error: feedback.kind=ilqg: {exc}; try another feedback.kind", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
