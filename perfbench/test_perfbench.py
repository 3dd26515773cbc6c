"""Tests of the benchmark itself, on scaled-down scenarios.

They live outside the package's ``testpaths`` so the tier-1 suite does not
get slower.  Run them from the repository root with::

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from hostspeed import HostSpeed
from layers import Tracer

SMALL = run.Workload(
    "configs/di_wall_compare_x100.ini",
    ("experiment.steps=25", "sampling.n_samples=64", "sampling.horizon=10", "rmppi.nsp_samples=16"),
    compare=True,
)
SMALL_ILQG = run.Workload(
    "configs/pendulum_stress_x150.ini",
    ("feedback.kind=ilqg", "experiment.steps=25", "sampling.n_samples=64", "sampling.horizon=10", "rmppi.nsp_samples=16"),
)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small_run(tmp_path_factory, workload, trace):
    out = tmp_path_factory.mktemp("perfbench")
    return run.benchmark("small", 3, 0.0, trace, workload=workload, min_steps=10, out_root=out)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return small_run(tmp_path_factory, SMALL, trace=False)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return [small_run(tmp_path_factory, SMALL, trace=True) for _ in range(2)]


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_traced_and_untraced_digests_are_equal(untraced, traced):
    assert untraced["correct"] and all(r["correct"] for r in traced)
    kinds = {p["traced"] for r in traced for p in r["passes"]}
    assert kinds == {False, True}
    digests = {p["digest"] for r in [untraced, *traced] for p in r["passes"]}
    assert digests == {untraced["digest"]}


def test_counted_layer_metrics_repeat_exactly(traced):
    first, second = (r["metrics"] for r in traced)
    counted = [
        n for n in first
        if n.endswith((".calls_per_step", ".rows_per_call", "crashed_frac", "feasible_frac", "fallback_frac", "ess_frac"))
    ]
    assert len(counted) > 30
    for name in counted:
        assert first[name]["value"] == second[name]["value"], name


def test_every_emitted_name_is_listed_in_benchmark_json(untraced, traced, benchmark_json):
    for results, section in ((untraced, "end_to_end"), (traced[0], "per_layer")):
        listed = {m["name"]: m["unit"] for m in benchmark_json[section]}
        line = run.result_line(results)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(listed), section
        for name, metric in line["metrics"].items():
            assert NAME.fullmatch(name), name
            assert metric["unit"] == listed[name], name
    workload_names = {w["name"] for w in benchmark_json["workloads"]}
    assert workload_names == set(run.WORKLOADS)


def test_layers_absent_from_a_workload_read_zero_and_present_ones_are_counted(traced, tmp_path_factory):
    contraction = traced[0]["metrics"]
    assert contraction["feedback.ilqg_gains.calls_per_step"]["value"] == 0.0
    assert contraction["sampling.MppiController.step.calls_per_step"]["value"] > 0.0
    ilqg = small_run(tmp_path_factory, SMALL_ILQG, trace=True)["metrics"]
    assert ilqg["feedback.ilqg_gains.calls_per_step"]["value"] == 1.0
    assert ilqg["dynamics.nominal_trajectory.calls_per_step"]["value"] == 1.0
    assert ilqg["feedback.contraction_step_ok.calls_per_step"]["value"] == 0.0


def lookup_sites(pkg):
    return {
        "rollout_batch": (pkg.sampling.rollout_batch, pkg.rmppi.rollout_batch),
        "step": pkg.dynamics.SystemModel.__dict__["step"],
        "sample": pkg.sampling.NoisePlan.__dict__["sample"],
        "factory": pkg.harness.build_policy_factory,
    }


def test_wrappers_are_removed_after_a_traced_pass():
    pkg = run.import_package()
    before = lookup_sites(pkg)
    with Tracer().install():
        during = lookup_sites(pkg)
        assert during["rollout_batch"][0] is during["rollout_batch"][1]
        for site in before:
            assert during[site] != before[site], site
    assert lookup_sites(pkg) == before


def test_percentile_with_fewer_than_ten_samples_beyond_is_flagged():
    few = run.percentile([float(i) for i in range(100)], 95)
    assert few.beyond < run.MIN_BEYOND and not few.valid
    enough = run.percentile([float(i) for i in range(400)], 95)
    assert enough.beyond >= run.MIN_BEYOND and enough.valid


def test_flagged_percentile_is_reported_and_fails_the_command(untraced):
    results = json.loads(json.dumps(untraced))
    for metric in results["metrics"].values():
        if "beyond" in metric:
            metric.update(beyond=10, valid=True)
    assert "FLAGGED" not in run.report(results)
    assert run.exit_code(results) == 0
    results["metrics"]["step_ms_p95"].update(beyond=3, valid=False)
    assert "FLAGGED" in run.report(results)
    assert run.exit_code(results) == 1


def test_tampered_summary_fails_the_output_check(tmp_path):
    pkg = run.import_package()
    with run.StepTimer(pkg.harness) as timer:
        result = run.run_pass(pkg, SMALL, 0, tmp_path, timer)
    assert not result.problems and result.failed == 0
    summary_path = tmp_path / "rmppi" / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["bound_checked_steps"] += 1
    summary_path.write_text(json.dumps(summary))
    result.problems.clear()
    run.check_outputs(pkg.harness, tmp_path, result)
    assert any("disagrees with summary.json" in p for p in result.problems)
    assert result.failed == result.attempted > 0


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wall-compare", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_scales_by_the_samples_near_a_step():
    speed = HostSpeed("small")
    speed.times = [0.0, 0.5, 3.0, 3.2, 10.0]
    speed.ms = [2 * speed.nominal_ms, 2 * speed.nominal_ms, 4 * speed.nominal_ms, 4 * speed.nominal_ms, speed.nominal_ms]
    assert speed.scale_at(0.2) == 0.5
    assert speed.scale_at(3.1) == 0.25
    assert speed.scale_at(6.0) == 0.25  # no sample within a second: the nearest one
    assert speed.scale_at(8.5) == 1.0
    assert speed.scale_between(0.0, 3.2) == pytest.approx(1 / 3)


def test_untraced_run_reports_wall_times_beside_adjusted_ones(untraced):
    metrics = untraced["metrics"]
    for name in ("step_ms_p50", "steps_per_s"):
        assert metrics[name]["value"] > 0 and metrics[f"wall_{name}"]["value"] > 0, name
        assert metrics[name]["n"] == metrics[f"wall_{name}"]["n"], name
    assert metrics["host_scale"]["n"] > 0
    assert not set(run.result_line(untraced)["metrics"]) & {n for n in metrics if n.startswith("wall_")}
