"""Sampling-based stochastic MPC with tube and robust variants.

The package provides three receding-horizon controllers built on the same
rollout machinery: plain path-integral control (``MppiController``), a tube
variant that tracks a nominal system and resets it by a free-energy gap rule
(``TubeMppiController``), and a robust variant that co-propagates nominal and
real systems inside every sample, applies tracking feedback, and reports a
per-step bound on free-energy growth (``RmppiController``).  A simulation
harness runs any of them against a disturbed plant and checks the bound.

The top level exports the command-line entry point, the harness and the
extension points (systems, costs, feedback policies and the per-step record
a controller returns); everything else is imported from its submodule.
"""

from .config import load_config
from .costs import CostFunction
from .dynamics import SystemModel, register_system
from .feedback import FeedbackPolicy
from .harness import RunLog, compare_controllers, run_closed_loop, verify_bound
from .sampling import StepRecord

__all__ = [
    "main",
    "load_config",
    "run_closed_loop",
    "compare_controllers",
    "verify_bound",
    "RunLog",
    "register_system",
    "SystemModel",
    "CostFunction",
    "FeedbackPolicy",
    "StepRecord",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # ``main`` is imported on first use, not with the package: an eager
    # import of ``.cli`` makes ``python -m robust_mppi.cli`` warn that the
    # module was already in sys.modules before it ran.
    if name == "main":
        from .cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
