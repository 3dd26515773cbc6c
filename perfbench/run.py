#!/usr/bin/env python3
"""Closed-loop control benchmark for robust_mppi.

Drives the public harness in this process, one closed loop at a time
(``load_config`` -> ``run_closed_loop`` / ``compare_controllers`` ->
``RunLog.to_csv``), repeating the workload's scenario for about ``--seconds``.
Every ``controller.step`` call is timed from outside the controller.  Each
pass's logs are checked: the SHA-256 digest of every CSV must be the same in
every pass, and the bound check recomputed from the CSV must agree with
``summary.json``.  With ``--trace 1`` untraced passes alternate with passes
traced by :mod:`layers`, and the result line carries per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload di-rmppi-n4096 --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  Full results, host metadata and digests are written
to ``.perfbench_out/<workload>/``.  The exit code is 0 only if every output
check passed.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from layers import SETUP_SPANS, STEP_SPANS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    """A scenario config plus overrides; ``compare`` runs all three controllers."""

    config: str
    overrides: tuple[str, ...] = ()
    compare: bool = False
    reference: str = "small"  # the hostspeed kernel whose regime matches the workload's


# Scenario lengths are chosen so that one pass takes 3 to 7 s on a 2-core
# host, so a run of several passes ends close to the requested time.
# wall-compare keeps 150 of its scenario's 600 steps: the harness runs the
# three controllers one after another and p50 falls among the tube steps, so
# short passes spread those steps over the whole run instead of two or three
# blocks that each sit in one host speed phase.
WORKLOADS = {
    # Arithmetic-bound regime: 16x the paper's samples, NSP scaled with N.
    "di-rmppi-n4096": Workload(
        "configs/di_stress_x100.ini",
        ("sampling.n_samples=4096", "rmppi.nsp_samples=512", "experiment.steps=100"),
        reference="large",
    ),
    # Python-overhead regime at paper scale, nonlinear dynamics, iLQG gains.
    "pendulum-rmppi-ilqg": Workload(
        "configs/pendulum_stress_x150.ini",
        ("feedback.kind=ilqg", "experiment.steps=300"),
    ),
    # mppi, tube and rmppi under identical plant noise; soft wall, state kicks.
    "wall-compare": Workload("configs/di_wall_compare_x100.ini", ("experiment.steps=150",), compare=True),
}

MIN_STEPS = 220  # at least 11 timed steps lie beyond p95
MIN_PASSES = 2  # so every run compares digests across repeats
MIN_SETUPS = 5  # set-ups timed per run, at least
PROBE_ITERATIONS = 10_000
MIN_BEYOND = 10

# Metrics in the result line with --trace 0.  The run also prints and saves
# failed_frac, crash_rate, bound_violation_rate and mean_state_cost, but leaves
# them out of the result line: each is fixed by the seed, and is zero on most
# seeds or varies between seeds by far more than any allowed bound.  The
# result line's failed/attempted carry failed_frac.
END_TO_END = ("step_ms_p50", "step_ms_p95", "steps_per_s", "setup_s", "peak_rss_mb")


# -- program under test --------------------------------------------------------


def import_package():
    """Import robust_mppi from this checkout's ``src/`` and nowhere else."""
    package_dir = SRC / "robust_mppi"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no robust_mppi package at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import robust_mppi
    import robust_mppi.config
    import robust_mppi.harness

    if Path(robust_mppi.__file__).resolve().parent != package_dir:
        raise SystemExit(f"perfbench: imported robust_mppi from {robust_mppi.__file__}")
    return robust_mppi


class StepTimer:
    """Times every ``controller.step`` call from outside the controller.

    While active, the harness's ``build_controller`` is wrapped so that each
    controller it builds gets a timed ``step`` on the instance.  With a
    ``host``, the host speed is sampled after each step, outside the timed
    region.
    """

    def __init__(self, harness, host: HostSpeed | None = None):
        self.harness = harness
        self.host = host
        self.samples: list[float] = []  # seconds per completed step
        self.starts: list[float] = []  # perf_counter at the start of each completed step
        self.attempted = 0

    def __enter__(self) -> "StepTimer":
        build_controller = self._build_controller = self.harness.build_controller

        def timed_build_controller(*args, **kwargs):
            controller = build_controller(*args, **kwargs)
            controller.step = self._timed(controller.step)
            return controller

        self.harness.build_controller = timed_build_controller
        return self

    def __exit__(self, *exc) -> None:
        self.harness.build_controller = self._build_controller

    def _timed(self, step):
        samples, starts, host = self.samples, self.starts, self.host

        def timed_step(x):
            self.attempted += 1
            t0 = perf_counter()
            action, info = step(x)
            samples.append(perf_counter() - t0)
            starts.append(t0)
            if host is not None:
                host.sample()
            return action, info

        return timed_step


# -- one pass: run the scenario, write the logs, check them ----------------------


@dataclass
class PassResult:
    traced: bool
    attempted: int = 0
    step_times: list[float] = field(default_factory=list)
    step_starts: list[float] = field(default_factory=list)
    loop_start: float = 0.0  # perf_counter when the closed loops started and ended
    loop_end: float = 0.0
    loop_s: float = 0.0  # wall time of the closed loops, less host-speed sampling
    digests: dict[str, str] = field(default_factory=dict)
    summaries: dict[str, dict] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        """Digest over the per-run CSV digests, in run order."""
        joined = "\n".join(f"{k} {v}" for k, v in self.digests.items())
        return hashlib.sha256(joined.encode()).hexdigest()

    @property
    def failed(self) -> int:
        """Failed steps: all of them if a check failed, else the degenerate ones."""
        if self.problems:
            return self.attempted
        return sum(int(s["degen_steps"]) for s in self.summaries.values())


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def check_outputs(harness, out_dir: Path, result: PassResult) -> None:
    """Digest each written CSV and recheck the bound from it against summary.json."""
    rows = 0
    for name in result.summaries:
        csv_path = out_dir / name / "runlog.csv"
        result.digests[name] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        summary = json.loads((out_dir / name / "summary.json").read_text())
        log = harness.RunLog.from_csv(csv_path)
        check = harness.verify_bound(log)
        rows += len(log.rows)
        if len(log.rows) != summary["steps_run"]:
            result.problems.append(f"{name}: {len(log.rows)} CSV rows, summary says {summary['steps_run']}")
        if int(sum(log.column("degen"))) != summary["degen_steps"]:
            result.problems.append(f"{name}: degenerate steps in the CSV disagree with summary.json")
        if check.checked != summary["bound_checked_steps"] or not (
            _same(check.rate, summary["bound_violation_rate"])
            and _same(check.mean_margin, summary["bound_mean_margin"])
        ):
            result.problems.append(
                f"{name}: bound check from the CSV ({check.checked} checked, rate {check.rate!r}, "
                f"margin {check.mean_margin!r}) disagrees with summary.json "
                f"({summary['bound_checked_steps']}, {summary['bound_violation_rate']!r}, "
                f"{summary['bound_mean_margin']!r})"
            )
    if rows != result.attempted:
        result.problems.append(f"{rows} logged steps but {result.attempted} controller steps")


def run_pass(pkg, workload: Workload, seed: int, out_dir: Path, timer: StepTimer, tracer=None) -> PassResult:
    """Run the workload's scenario once and check what it wrote."""
    harness = pkg.harness
    result = PassResult(traced=tracer is not None)
    first_sample, attempted0 = len(timer.samples), timer.attempted
    try:
        with tracer.install() if tracer is not None else contextlib.nullcontext():
            cfg = pkg.config.load_config(
                str(ROOT / workload.config), [*workload.overrides, f"experiment.seed={seed}"]
            )
            t0 = result.loop_start = perf_counter()
            sampling_s0 = timer.host.spent_s if timer.host is not None else 0.0
            if workload.compare:
                logs = harness.compare_controllers(cfg)
            else:
                logs = {cfg.controller: harness.run_closed_loop(cfg)}
            for name, log in logs.items():
                run_dir = out_dir / name
                run_dir.mkdir(parents=True, exist_ok=True)
                log.to_csv(run_dir / "runlog.csv")
                with open(run_dir / "summary.json", "w") as fh:
                    json.dump(log.summary, fh, sort_keys=True)
            result.loop_end = perf_counter()
            result.loop_s = result.loop_end - t0
            if timer.host is not None:
                result.loop_s -= timer.host.spent_s - sampling_s0
        result.summaries = {name: log.summary for name, log in logs.items()}
    except Exception:
        result.problems.append("pass raised:\n" + traceback.format_exc())
    result.attempted = timer.attempted - attempted0
    result.step_times = timer.samples[first_sample:]
    result.step_starts = timer.starts[first_sample:]
    if not result.problems:
        check_outputs(harness, out_dir, result)
    return result


# -- statistics ----------------------------------------------------------------


@dataclass(frozen=True)
class Percentile:
    value: float
    n: int
    beyond: int  # samples strictly above the value

    @property
    def valid(self) -> bool:
        """A percentile is reported as valid only with enough samples beyond it."""
        return self.beyond >= MIN_BEYOND


def percentile(samples: list[float], q: float) -> Percentile:
    """The q-th percentile by linear interpolation, with the samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return Percentile(math.nan, 0, 0)
    pos = (n - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return Percentile(value, n, n - bisect.bisect_right(xs, value))


# -- host ------------------------------------------------------------------------


def blas_threads(nproc: int) -> dict:
    """OpenBLAS thread count as loaded by numpy, capped at nproc."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return {"threads": min(int(fn()), nproc), "source": symbol}
    except OSError:
        pass
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return {"threads": min(int(os.environ[var]), nproc), "source": var}
    return {"threads": nproc, "source": "nproc"}


def host_metadata() -> dict:
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": nproc,
        "cpu_model": cpu,
        "blas": blas_threads(nproc),
    }


def host_probe() -> float:
    """Rate of a fixed numpy loop in thousand iterations per second.

    Taken just before and after each run and stored as metadata, so a slow
    host phase can be told apart from a regression; it is not a metric.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    t0 = perf_counter()
    for _ in range(PROBE_ITERATIONS):
        np.exp(-np.abs(a @ a))
    return PROBE_ITERATIONS / (perf_counter() - t0) / 1e3


# -- set-up time -----------------------------------------------------------------


class SetupTimer:
    """Cold set-up times, each from a fresh interpreter running ``setup_probe.py``.

    A run takes one probe between each pair of passes, so the probes sample
    the host phases of the whole run rather than of its first seconds.
    """

    def __init__(self, workload: Workload, seed: int):
        self.cmd = [
            sys.executable,
            str(BENCH_DIR / "setup_probe.py"),
            str(ROOT / workload.config),
            "1" if workload.compare else "0",
            *workload.overrides,
            f"experiment.seed={seed}",
        ]
        self.times: list[float] = []
        self.problems: list[str] = []

    def measure(self, keep: bool = True) -> None:
        """Time one set-up; ``keep=False`` for the first, which may compile bytecode."""
        if self.problems:
            return
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            self.problems.append(f"set-up failed:\n{proc.stderr}")
            return
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(out["module"]).resolve().parent != SRC / "robust_mppi":
            self.problems.append(f"set-up imported robust_mppi from {out['module']}")
        elif keep:
            self.times.append(out["setup_s"])


# -- a whole run -----------------------------------------------------------------


def run_passes(
    pkg,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    min_steps: int = MIN_STEPS,
    host: HostSpeed | None = None,
    setup: SetupTimer | None = None,
):
    """Repeat the scenario for about ``seconds``; with ``trace``, alternate untraced and traced passes.

    With ``host``, the host speed is sampled between steps; with ``setup``,
    one set-up is timed after each pass.  Returns the passes and the tracer
    of each traced pass.
    """
    passes: list[PassResult] = []
    tracers = []
    start = perf_counter()
    with StepTimer(pkg.harness, host) as timer:
        while True:
            tracer = None
            if trace and len(passes) % 2 == 1:
                first_run = sum(len(p.summaries) for p in passes)
                tracer = Tracer(first_run_id=first_run)
                tracers.append(tracer)
            result = run_pass(pkg, workload, seed, out_dir, timer, tracer)
            passes.append(result)
            if result.problems:
                break
            if setup is not None:
                setup.measure()
            elapsed = perf_counter() - start
            untraced_steps = sum(len(p.step_times) for p in passes if not p.traced)
            done = len(passes) >= MIN_PASSES and (trace or untraced_steps >= min_steps)
            # stop at the pass boundary nearest to the requested time
            if done and elapsed >= seconds - 0.5 * elapsed / len(passes):
                break
    return passes, tracers


def digest_problems(passes: list[PassResult]) -> list[str]:
    digests = {p.digest for p in passes if not p.problems}
    if len(digests) > 1:
        kinds = ", ".join(f"{'traced' if p.traced else 'untraced'} {p.digest[:12]}" for p in passes)
        return [f"CSV digests differ between passes: {kinds}"]
    return []


def end_to_end_metrics(passes: list[PassResult], setup: SetupTimer, host: HostSpeed) -> dict:
    """Every end-to-end metric as {name: {value, unit, n, ...}}.

    ``step_ms_p50`` and ``steps_per_s`` are adjusted for host speed: each
    step by the host-speed samples within half a second of it, each pass's
    loop time by the samples taken during the pass.  Their plain wall-time
    values are kept under ``wall_*`` names, outside the result line.
    ``step_ms_p95`` and ``setup_s`` are plain wall time: the slowest steps and
    cold imports are set by stalls and memory that the kernel does not see,
    and adjusting them made runs spread more, not less.
    """
    wall_ms = [t * 1e3 for p in passes for t in p.step_times]
    adjusted_ms = [t * 1e3 * host.scale_at(t0) for p in passes for t, t0 in zip(p.step_times, p.step_starts)]
    steps = len(wall_ms)
    wall_loop_s = sum(p.loop_s for p in passes)
    loop_s = sum(p.loop_s * host.scale_between(p.loop_start, p.loop_end) for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    ok = [p for p in passes if not p.problems]
    summaries = list(ok[0].summaries.values()) if ok else []
    rmppi = [s for s in summaries if s["controller"] == "rmppi"]
    crashed = sum(bool(s["crashed"]) for s in summaries)
    checked = sum(s["bound_checked_steps"] for s in rmppi)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def metric(value, unit, **extra):
        return {"value": float(value), "unit": unit, **extra}

    def percentile_metric(samples, q):
        pq = percentile(samples, q)
        return metric(pq.value, "ms", n=pq.n, beyond=pq.beyond, valid=pq.valid)

    def per_s(loop_s):
        return metric(steps / loop_s if loop_s else 0.0, "1/s", n=steps, loop_s=loop_s)

    return {
        "step_ms_p50": percentile_metric(adjusted_ms, 50),
        "step_ms_p95": percentile_metric(wall_ms, 95),
        "steps_per_s": per_s(loop_s),
        "setup_s": metric(statistics.median(setup.times) if setup.times else 0.0, "s", n=len(setup.times)),
        "peak_rss_mb": metric(rss_mb, "MiB", n=1),
        "failed_frac": metric(failed / attempted if attempted else 1.0, "ratio", n=attempted),
        "crash_rate": metric(crashed / len(summaries) if summaries else 1.0, "ratio", n=len(summaries)),
        "bound_violation_rate": metric(
            statistics.fmean(s["bound_violation_rate"] for s in rmppi) if rmppi else 0.0,
            "ratio",
            n=checked,
        ),
        "mean_state_cost": metric(
            statistics.fmean(s["mean_state_cost"] for s in summaries) if summaries else 0.0,
            "1",
            n=len(summaries),
        ),
        "wall_step_ms_p50": percentile_metric(wall_ms, 50),
        "wall_steps_per_s": per_s(wall_loop_s),
        "host_scale": metric(
            statistics.median(host.nominal_ms / ms for ms in host.ms) if host.ms else 1.0, "ratio", n=len(host.ms)
        ),
    }


def per_layer_metrics(passes: list[PassResult], tracers: list) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, plus any determinism problems.

    Counts come from the first traced pass and must repeat exactly in every
    other; times are pooled over all traced passes.
    """
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    problems = []
    first = tracers[0]
    first_totals = first.span_totals()
    first_steps = traced[0].attempted
    for p, tr in zip(traced[1:], tracers[1:]):
        calls = {k: v[0] for k, v in tr.span_totals().items()}
        if calls != {k: v[0] for k, v in first_totals.items()} or tr.counts != first.counts:
            problems.append("span counts differ between traced passes")

    steps = sum(p.attempted for p in traced)
    total_s = {name: 0.0 for name in first.names}
    self_s = dict(total_s)
    calls_all = dict.fromkeys(first.names, 0)
    for tr in tracers:
        for name, (calls, total, self_total) in tr.span_totals().items():
            calls_all[name] += calls
            total_s[name] += total
            self_s[name] += self_total

    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for name in STEP_SPANS:
        put(f"{name}.calls_per_step", first_totals[name][0] / first_steps, "count")
        put(f"{name}.ms_per_step", total_s[name] * 1e3 / steps, "ms")
        put(f"{name}.self_ms_per_step", self_s[name] * 1e3 / steps, "ms")
    for name in SETUP_SPANS:
        put(f"{name}.ms", total_s[name] * 1e3 / calls_all[name] if calls_all[name] else 0.0, "ms")

    c = first.counts

    def ratio(a, b):
        return a / b if b else 0.0

    put("dynamics.step.rows_per_call", ratio(c["dynamics.step.rows"], first_totals["dynamics.step"][0]), "count")
    put("costs.state_cost.rows_per_call", ratio(c["costs.state_cost.rows"], first_totals["costs.state_cost"][0]), "count")
    plain_s = sum(
        tr.child_time("sampling.rollout_batch", ("sampling.MppiController.step", "rmppi.tube_mppi_step"))
        for tr in tracers
    )
    put("sampling.rollout_batch.mppi_tube_ms_per_step", plain_s * 1e3 / steps, "ms")
    for span in ("sampling.rollout_batch", "rmppi.augmented_rollouts"):
        sample_steps = sum(tr.counts[f"{span}.sample_steps"] for tr in tracers)
        put(f"{span}.sample_steps_per_ms", ratio(sample_steps, total_s[span] * 1e3), "1/ms")
        put(f"{span}.crashed_frac", ratio(c[f"{span}.crashed"], c[f"{span}.samples"]), "ratio")
    put("sampling.softmax_weights.ess_frac", statistics.fmean(first.ess) if first.ess else 0.0, "ratio")
    nsp = "rmppi.nominal_state_propagation"
    put(f"{nsp}.feasible_frac", ratio(c[f"{nsp}.feasible"], c[f"{nsp}.candidates"]), "ratio")
    put(f"{nsp}.fallback_frac", ratio(c[f"{nsp}.fallbacks"], first_totals[nsp][0]), "ratio")

    def seconds_per_step(ps):
        return sum(p.loop_s for p in ps) / sum(p.attempted for p in ps)

    put("trace.overhead_frac", seconds_per_step(traced) / seconds_per_step(untraced) - 1.0, "ratio")
    return out, problems


def write_spans(tracers: list, path: Path, seed: int) -> None:
    """Write every span of every traced pass once, at the end of the run."""
    import numpy as np

    parts = [tr.arrays() for tr in tracers]
    offsets = np.cumsum([0] + [len(p["start"]) for p in parts[:-1]])
    np.savez(
        path,
        seed=seed,
        names=np.array(tracers[0].names),
        name_id=np.concatenate([p["name_id"] for p in parts]).astype(np.int16),
        parent=np.concatenate(
            [np.where(p["parent"] >= 0, p["parent"] + off, -1) for p, off in zip(parts, offsets)]
        ).astype(np.int32),
        run=np.concatenate([p["run"] for p in parts]).astype(np.int16),
        start_s=np.concatenate([p["start"] for p in parts]),
        duration_s=np.concatenate([p["duration"] for p in parts]).astype(np.float32),
        self_s=np.concatenate([p["self_time"] for p in parts]).astype(np.float32),
    )


def benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workload: Workload | None = None,
    min_steps: int = MIN_STEPS,
    out_root: Path = OUT_ROOT,
) -> dict:
    """Run one workload and return the full results; see the module docstring."""
    workload = workload or WORKLOADS[workload_name]
    if not (ROOT / workload.config).is_file():
        raise SystemExit(f"perfbench: config {workload.config} not found under {ROOT}")
    pkg = import_package()
    out_dir = out_root / workload_name
    pass_dir = out_dir / f"seed{seed}-trace{int(trace)}"
    pass_dir.mkdir(parents=True, exist_ok=True)

    host = host_metadata()
    probe_before = host_probe()
    # traced passes are not sampled, so the sampling shows in no span
    speed, setup = (None, None) if trace else (HostSpeed(workload.reference), SetupTimer(workload, seed))
    if setup is not None:
        setup.measure(keep=False)
    passes, tracers = run_passes(pkg, workload, seed, seconds, trace, pass_dir, min_steps, speed, setup)
    while setup is not None and len(setup.times) < MIN_SETUPS and not setup.problems:
        setup.measure()
    probe_after = host_probe()

    problems = list(setup.problems) if setup is not None else []
    for p in passes:
        problems += p.problems
    problems += digest_problems(passes)
    metrics = {}
    if not trace:
        metrics = end_to_end_metrics(passes, setup, speed)
    elif tracers:
        write_spans(tracers, out_dir / "spans.npz", seed)
        if not problems:
            metrics, layer_problems = per_layer_metrics(passes, tracers)
            problems += layer_problems
    digest = passes[0].digest if not passes[0].problems else ""
    results = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": problems,
        "digest": digest,
        "passes": [
            {"traced": p.traced, "steps": p.attempted, "loop_s": p.loop_s, "digest": p.digest, "digests": p.digests}
            for p in passes
        ],
        "setup_times_s": setup.times if setup is not None else [],
        "host_speed_kernel": workload.reference,
        "host": host,
        "probe_kops_per_s": {"before": probe_before, "after": probe_after},
        "metrics": metrics,
    }
    (out_dir / f"seed{seed}-trace{int(trace)}.json").write_text(json.dumps(results, indent=1, sort_keys=True))
    return results


def report(results: dict) -> str:
    """Readable lines: every metric with its unit and sample count, then host data."""
    lines = [
        f"perfbench {results['workload']} seed={results['seed']} trace={results['trace']}: "
        f"{len(results['passes'])} passes, {results['attempted']} controller steps, "
        f"{results['failed']} failed, digest {results['digest'][:16] or '-'}"
    ]
    for name, m in results["metrics"].items():
        extra = ""
        if "n" in m:
            extra = f"n={m['n']}"
        if "beyond" in m:
            extra += f", {m['beyond']} beyond"
            if not m["valid"]:
                extra += f"  FLAGGED: fewer than {MIN_BEYOND} samples beyond this percentile"
        lines.append(f"  {name:<50} {m['value']:>14.6g} {m['unit']:<6} {extra}")
    h = results["host"]
    probe = results["probe_kops_per_s"]
    lines.append(
        f"  host: python {h['python']}, numpy {h['numpy']}, scipy {h['scipy']}, nproc {h['nproc']}, "
        f"{h['cpu_model']}, BLAS threads {h['blas']['threads']}; "
        f"probe {probe['before']:.1f} -> {probe['after']:.1f} kops/s"
    )
    for problem in results["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    return "\n".join(lines)


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def result_line(results: dict) -> dict:
    """The last output line: only the metrics that BENCHMARK.json lists for the mode."""
    names = END_TO_END if not results["trace"] else results["metrics"]
    attempted, failed = results["attempted"], results["failed"]
    if attempted == 0:  # the run failed before its first step
        attempted = failed = 1
    return {
        "correct": results["correct"],
        "attempted": attempted,
        "failed": failed,
        # a run that failed before its first step has no samples: report 0
        "metrics": {
            name: {"value": _finite(results["metrics"][name]["value"]), "unit": results["metrics"][name]["unit"]}
            for name in names
            if name in results["metrics"]
        },
    }


def exit_code(results: dict) -> int:
    flagged = any(not m.get("valid", True) for m in results["metrics"].values())
    return 0 if results["correct"] and not flagged else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    results = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(report(results))
    print(json.dumps(result_line(results)))
    return exit_code(results)


if __name__ == "__main__":
    sys.exit(main())
