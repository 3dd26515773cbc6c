"""Time one cold set-up of a benchmark workload in a fresh interpreter.

Set-up is everything before the first control step: importing robust_mppi,
``load_config``, and building the model, cost and controller(s) the way the
harness does.  ``run.py`` starts this script in a subprocess several times per
run and reports the median.  Prints one JSON object with the seconds taken.

    python3 perfbench/setup_probe.py <config.ini> <compare 0|1> [section.key=value ...]
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import robust_mppi  # noqa: E402
from robust_mppi import harness  # noqa: E402

CONTROLLERS = ("mppi", "tube", "rmppi")


def main(argv: list[str]) -> int:
    config_path, compare, *overrides = argv
    cfg = robust_mppi.config.load_config(config_path, overrides)
    if compare == "1":
        configs = [
            cfg.with_values(**{"experiment.controller": name, "experiment.name": f"{cfg.name}-{name}"})
            for name in CONTROLLERS
        ]
    else:
        configs = [cfg]
    for sub in configs:
        model = harness.build_model(sub)
        cost = harness.build_cost(sub, model)
        harness.build_controller(sub, model, cost)
    elapsed = time.perf_counter() - START
    print(json.dumps({"setup_s": elapsed, "module": robust_mppi.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
