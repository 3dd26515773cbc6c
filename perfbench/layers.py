"""Per-layer tracing for the benchmark, installed from outside the package.

A :class:`Tracer` wraps the public functions of each ``robust_mppi`` layer at
every place a controller looks them up: module globals (a function imported
into several modules is replaced in each of them), methods on their classes,
and the closures that the harness builds (task costs and the feedback-policy
factory).  Every call becomes a span (name, start, end, parent span, run id)
kept in flat in-memory arrays; a few wrappers also count the work done.
:meth:`Tracer.install` returns a context manager that removes every wrapper
on exit, so traced and untraced passes run the same program.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Spans that run once per closed-loop run rather than once per control step;
# they are reported as mean milliseconds per call.
SETUP_SPANS = ("config.load_config", "harness.build_controller", "harness.to_csv")

# Span name -> (module, attribute) of the function wrapped.  A dotted
# attribute names a method, wrapped on its class.
FUNCTION_SPANS = {
    "config.load_config": ("config", "load_config"),
    "harness.build_controller": ("harness", "build_controller"),
    "harness.run_closed_loop": ("harness", "run_closed_loop"),
    "harness.verify_bound": ("harness", "verify_bound"),
    "harness.to_csv": ("harness", "RunLog.to_csv"),
    "sampling.NoisePlan.sample": ("sampling", "NoisePlan.sample"),
    "sampling.rollout_batch": ("sampling", "rollout_batch"),
    "sampling.softmax_weights": ("sampling", "softmax_weights"),
    "sampling.free_energy_mc": ("sampling", "free_energy_mc"),
    "sampling.mppi_update": ("sampling", "mppi_update"),
    "sampling.MppiController.step": ("sampling", "MppiController.step"),
    "rmppi.RmppiController.step": ("rmppi", "RmppiController.step"),
    "rmppi.TubeMppiController.step": ("rmppi", "TubeMppiController.step"),
    "rmppi.tube_mppi_step": ("rmppi", "tube_mppi_step"),
    "rmppi.augmented_rollouts": ("rmppi", "augmented_rollouts"),
    "rmppi.nominal_state_propagation": ("rmppi", "nominal_state_propagation"),
    "rmppi.estimate_value_noise": ("rmppi", "estimate_value_noise"),
    "rmppi.free_energy_growth_bound": ("rmppi", "free_energy_growth_bound"),
    "feedback.ilqg_gains": ("feedback", "ilqg_gains"),
    "feedback.contraction_step_ok": ("feedback", "ContractionPolicy.contraction_step_ok"),
    "dynamics.step": ("dynamics", "SystemModel.step"),
    "dynamics.nominal_trajectory": ("dynamics", "nominal_trajectory"),
    "costs.control_penalty_batch": ("costs", "control_penalty_batch"),
    "costs.penalty_step_terms": ("costs", "penalty_step_terms"),
}
# One span name covering the same method on every feedback policy class.
APPLY_BATCH_CLASSES = ("ZeroFeedback", "LinearGainsPolicy", "ContractionPolicy")
# Spans around closures the harness builds, wrapped through their builders.
CLOSURE_SPANS = ("feedback.policy_factory", "costs.state_cost")

SPAN_NAMES = tuple(FUNCTION_SPANS) + ("feedback.apply_batch",) + CLOSURE_SPANS
STEP_SPANS = tuple(n for n in SPAN_NAMES if n not in SETUP_SPANS)

MODULES = ("config", "costs", "dynamics", "feedback", "sampling", "rmppi", "harness")


def _rows(x) -> int:
    """Number of states in a ``(..., n_x)`` array."""
    rows = 1
    for d in np.shape(x)[:-1]:
        rows *= d
    return rows


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters for one traced pass of a workload."""

    def __init__(self, first_run_id: int = 0):
        self.names = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.run = array("i")
        self._stack = [-1]
        self.run_id = first_run_id - 1
        # Integer counters, so their ratios repeat exactly across passes.
        self.counts = Counter()
        self.ess = []  # (1 / sum w^2) / N per softmax_weights call
        self._arrays = None

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped so that each call records a span named ``name``.

        ``after(args, kwargs, result)`` runs once the span has ended; it
        updates counters and is not part of the span's own time.
        """
        nid = self._ids[name]
        name_id, parent, start, end, run = (
            self.name_id, self.parent, self.start, self.end, self.run
        )
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _after_model_step(self, args, kwargs, result):
        self.counts["dynamics.step.rows"] += _rows(_arg(args, kwargs, 1, "x"))

    def _after_state_cost(self, args, kwargs, result):
        self.counts["costs.state_cost.rows"] += _rows(args[0])

    def _after_rollout_batch(self, args, kwargs, result):
        draws = _arg(args, kwargs, 4, "draws")
        c = self.counts
        c["sampling.rollout_batch.sample_steps"] += draws.shape[0] * draws.shape[1]
        c["sampling.rollout_batch.samples"] += draws.shape[0]
        c["sampling.rollout_batch.crashed"] += int(np.count_nonzero(result.crashed))

    def _after_augmented(self, args, kwargs, result):
        draws = _arg(args, kwargs, 6, "draws")
        c = self.counts
        c["rmppi.augmented_rollouts.sample_steps"] += draws.shape[0] * draws.shape[1]
        c["rmppi.augmented_rollouts.samples"] += draws.shape[0]
        c["rmppi.augmented_rollouts.crashed"] += int(np.count_nonzero(result.crashed))

    def _after_nsp(self, args, kwargs, result):
        c = self.counts
        c["rmppi.nominal_state_propagation.candidates"] += result.feasible.size
        c["rmppi.nominal_state_propagation.feasible"] += int(np.count_nonzero(result.feasible))
        c["rmppi.nominal_state_propagation.fallbacks"] += int(result.fallback)

    def _after_softmax(self, args, kwargs, result):
        self.ess.append(1.0 / float(result @ result) / result.size)

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        """Wrap every layer for the duration of the ``with`` block."""
        pkg = importlib.import_module("robust_mppi")
        mods = {m: importlib.import_module(f"robust_mppi.{m}") for m in MODULES}
        harness, feedback = mods["harness"], mods["feedback"]
        undo = []

        def replace(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        def replace_function(original, new):
            # Rebind the function wherever a module imported it, so every
            # lookup site a controller uses sees the wrapper.
            hits = 0
            for mod in [pkg, *mods.values()]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replace(mod, attr, new)
                        hits += 1
            if not hits:
                raise LookupError(f"{original.__qualname__} is bound in no module")

        after = {
            "dynamics.step": self._after_model_step,
            "sampling.rollout_batch": self._after_rollout_batch,
            "sampling.softmax_weights": self._after_softmax,
            "rmppi.augmented_rollouts": self._after_augmented,
            "rmppi.nominal_state_propagation": self._after_nsp,
        }
        try:
            for name, (mod_name, attr) in FUNCTION_SPANS.items():
                mod = mods[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    if isinstance(original, classmethod):
                        new = classmethod(self.wrap(name, original.__func__, after.get(name)))
                    else:
                        new = self.wrap(name, original, after.get(name))
                    replace(cls, meth, new)
                else:
                    original = getattr(mod, attr)
                    wrapped = self.wrap(name, original, after.get(name))
                    if name == "harness.run_closed_loop":
                        wrapped = self._numbered(wrapped)
                    replace_function(original, wrapped)

            for cls_name in APPLY_BATCH_CLASSES:
                cls = getattr(feedback, cls_name)
                replace(cls, "apply_batch", self.wrap("feedback.apply_batch", cls.__dict__["apply_batch"]))

            build_policy_factory = harness.build_policy_factory

            def traced_policy_factory(*args, **kwargs):
                factory, gamma = build_policy_factory(*args, **kwargs)
                return self.wrap("feedback.policy_factory", factory), gamma

            replace_function(build_policy_factory, traced_policy_factory)

            quadratic_wall_cost = harness.quadratic_wall_cost

            def traced_task_cost(*args, **kwargs):
                task = quadratic_wall_cost(*args, **kwargs)
                return task._replace(
                    state_cost=self.wrap("costs.state_cost", task.state_cost, self._after_state_cost),
                    terminal_cost=self.wrap("costs.state_cost", task.terminal_cost, self._after_state_cost),
                )

            replace_function(quadratic_wall_cost, traced_task_cost)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _numbered(self, run_closed_loop):
        """Give each closed-loop run its own run id."""

        def numbered(*args, **kwargs):
            self.run_id += 1
            return run_closed_loop(*args, **kwargs)

        return numbered

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with self time computed from the children.

        Call once recording is over; the result is computed once and kept.
        """
        if self._arrays is None:
            parent = np.array(self.parent, dtype=np.int64)
            start = np.array(self.start)
            duration = np.array(self.end) - start
            has_parent = parent >= 0
            covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(start))
            self._arrays = {
                "name_id": np.array(self.name_id, dtype=np.int32),
                "parent": parent,
                "start": start,
                "run": np.array(self.run, dtype=np.int32),
                "duration": duration,
                "self_time": duration - covered,
            }
        return self._arrays

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, total self seconds)."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        total = np.bincount(a["name_id"], weights=a["duration"], minlength=n)
        self_total = np.bincount(a["name_id"], weights=a["self_time"], minlength=n)
        return {
            name: (int(calls[i]), float(total[i]), float(self_total[i]))
            for i, name in enumerate(self.names)
        }

    def child_time(self, child: str, parents: tuple[str, ...]) -> float:
        """Total seconds of ``child`` spans whose direct parent is one of ``parents``."""
        a = self.arrays()
        cid = self._ids[child]
        pids = [self._ids[p] for p in parents]
        mask = a["name_id"] == cid
        par = a["parent"][mask]
        ok = par >= 0
        parent_names = np.full(par.shape, -1)
        parent_names[ok] = a["name_id"][par[ok]]
        return float(a["duration"][mask][np.isin(parent_names, pids)].sum())
