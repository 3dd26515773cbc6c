#!/usr/bin/env python3
"""Print SHA-256 digests of the run logs of a fixed list of scenarios.

Two checkouts that print the same digests write byte-identical
``runlog.csv`` and ``summary.json`` files on every scenario and seed, so
comparing this script's output before and after a change shows whether the
change moved any log.  The scenarios are: each shipped config under each
``feedback.kind``, the wall config under ``compare`` (mppi, tube and rmppi),
the built-in default scenario, and the benchmark workloads of
``perfbench/run.py``.  Every run goes through ``robust-mppi run`` or
``compare`` in this process, into a temporary directory, so nothing is
written inside the checkout.

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

from robust_mppi.cli import main as cli_main  # noqa: E402
from run import WORKLOADS  # noqa: E402

LOG_FILES = ("runlog.csv", "summary.json")
SHIPPED = ("di_stress_x100", "pendulum_stress_x150", "di_wall_compare_x100")
FEEDBACK_KINDS = ("none", "ilqg", "contraction")


def scenarios() -> dict[str, tuple[str, str | None, tuple[str, ...]]]:
    """Scenario name -> (CLI command, config path or None, overrides)."""
    out = {}
    for config in SHIPPED:
        for kind in FEEDBACK_KINDS:
            out[f"{config}-{kind}"] = ("run", f"configs/{config}.ini", (f"feedback.kind={kind}",))
    out["wall-compare"] = ("compare", "configs/di_wall_compare_x100.ini", ())
    out["default"] = ("run", None, ())
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
