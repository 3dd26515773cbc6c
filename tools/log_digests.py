#!/usr/bin/env python3
"""Print SHA-256 digests of the run logs of a fixed list of scenarios.

Two checkouts that print the same digests write byte-identical
``runlog.csv`` and ``summary.json`` files on every scenario and seed, so
comparing this script's output before and after a change shows whether the
change moved any log.  The scenarios are: each shipped config under each
``feedback.kind``, ``di_stress_x100`` with ``rmppi.alpha=300`` (there NSP
often keeps the nominal off the measured state, so the augmented batch
rolls out both of its copies), the same under iLQG feedback (steps that
build the gains and steps that skip them), the wall config under
``compare`` (mppi, tube and rmppi) with its own feedback, with iLQG (the
tube's correction through iLQG gains), with ``dynamics.control_limit=1.0``
(the one scenario whose rollout controls often pass the actuation limits,
so the clamp changes them) and with a shifted target, weights other than
one, a finite wall on both coordinates and a terminal scale other than one
(parameter values no shipped config uses) and at 4096 samples (where every
controller's next draws are filled ahead on the worker thread, and the
worker switches between controllers), the built-in default scenario, the
wall config under ``run`` and ``compare`` on the ``fuse`` system
registered here, whose rollout rows crash, and the benchmark workloads of
``perfbench/run.py``.  Every run goes through
``robust-mppi run`` or ``compare`` in this process, into a temporary
directory, so nothing is written inside the checkout.

Run from anywhere; the package is imported from this checkout's ``src/``::

    python3 tools/log_digests.py --seeds 0 1 2 3 4

Each written log gives one line ``<scenario>/seed<k>/<run>/<file> <sha256>``.
After a scenario's runs follow one line ``<scenario> <sha256>``: the digest
of that scenario's lines, over every seed given.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ inside the checkout
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from robust_mppi.cli import main as cli_main  # noqa: E402
from robust_mppi.dynamics import SystemModel, register_system  # noqa: E402
from run import WORKLOADS  # noqa: E402

LOG_FILES = ("runlog.csv", "summary.json")
SHIPPED = ("di_stress_x100", "pendulum_stress_x150", "di_wall_compare_x100")
FEEDBACK_KINDS = ("none", "ilqg", "contraction")
FUSE = 1.2  # |position| past which a fuse row goes non-finite


def fuse(dt: float, control_limit: float) -> SystemModel:
    """Double integrator whose rows go non-finite once ``|position|`` passes ``FUSE``.

    Past ``+FUSE`` the position derivative is NaN, past ``-FUSE`` the velocity
    derivative is infinite, so a crash shows in either coordinate.
    """

    def deriv(x, u):
        pos, vel = x[..., 0], x[..., 1]
        return np.stack(
            [np.where(pos > FUSE, np.nan, vel), np.where(pos < -FUSE, np.inf, u[..., 0])],
            axis=-1,
        )

    lim = np.array([float(control_limit)])
    return SystemModel("fuse", 2, 1, dt, deriv, control_low=-lim, control_high=lim)


def scenarios() -> dict[str, tuple[str, str | None, tuple[str, ...]]]:
    """Scenario name -> (CLI command, config path or None, overrides)."""
    out = {}
    for config in SHIPPED:
        for kind in FEEDBACK_KINDS:
            out[f"{config}-{kind}"] = ("run", f"configs/{config}.ini", (f"feedback.kind={kind}",))
    tight = ("rmppi.alpha=300",)
    out["di_stress_x100-tight"] = ("run", "configs/di_stress_x100.ini", tight)
    out["di_stress_x100-tight-ilqg"] = (
        "run", "configs/di_stress_x100.ini", (*tight, "feedback.kind=ilqg")
    )
    out["wall-compare"] = ("compare", "configs/di_wall_compare_x100.ini", ())
    out["wall-compare-ilqg"] = ("compare", "configs/di_wall_compare_x100.ini", ("feedback.kind=ilqg",))
    out["wall-compare-clamped"] = (
        "compare", "configs/di_wall_compare_x100.ini", ("dynamics.control_limit=1.0",)
    )
    out["wall-compare-shifted"] = (
        "compare",
        "configs/di_wall_compare_x100.ini",
        (
            "cost.target=0.3,0.0",
            "cost.q_weights=25.0,2.0",
            "cost.wall_offsets=1.5,6.0",
            "cost.terminal_scale=2.0",
        ),
    )
    out["wall-compare-n4096"] = (
        "compare",
        "configs/di_wall_compare_x100.ini",
        ("sampling.n_samples=4096", "rmppi.nsp_samples=512", "experiment.steps=100"),
    )
    out["default"] = ("run", None, ())
    fused = ("experiment.system=fuse", "feedback.kind=none", "experiment.steps=300")
    for command in ("run", "compare"):
        out[f"fuse-{command}"] = (command, "configs/di_wall_compare_x100.ini", fused)
    for name, workload in WORKLOADS.items():
        command = "compare" if workload.compare else "run"
        out[f"bench-{name}"] = (command, workload.config, workload.overrides)
    return out


def run_scenario(command: str, config: str | None, overrides, seed: int, out: Path) -> None:
    argv = [command] + ([str(ROOT / config)] if config else [])
    for item in (*overrides, f"experiment.seed={seed}", f"experiment.output={out}"):
        argv += ["-o", item]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"log_digests: `robust-mppi {' '.join(argv)}` exited {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    register_system("fuse", fuse)
    for name, (command, config, overrides) in scenarios().items():
        lines = []
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                run_scenario(command, config, overrides, seed, Path(tmp))
                for path in sorted(Path(tmp).rglob("*")):
                    if path.name in LOG_FILES:
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        rel = path.relative_to(tmp).as_posix()
                        lines.append(f"{name}/seed{seed}/{rel} {digest}")
        for line in lines:
            print(line)
        combined = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"{name} {combined}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
