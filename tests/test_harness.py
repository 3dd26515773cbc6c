"""Configuration handling and the closed-loop simulation harness."""

import configparser
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_mppi import config, harness, rmppi, sampling
from robust_mppi.cli import main
from robust_mppi.config import ExperimentConfig, load_config, render_config
from robust_mppi.dynamics import SystemModel, nonlinear_benchmark, register_system
from robust_mppi.feedback import (
    UNCERTIFIED_RATE,
    ContractionPolicy,
    LinearGainsPolicy,
    RiccatiDivergenceError,
    ZeroFeedback,
)
from robust_mppi.harness import (
    RunLog,
    build_cost,
    build_model,
    build_policy_factory,
    compare_controllers,
    log_columns,
    run_closed_loop,
    summary_table,
    verify_bound,
)
from robust_mppi.sampling import MppiController, NoisePlan, propagate, shift_control_sequence

import oracles
from test_column_kernels import same_bits

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_run_config(**overrides):
    base = {
        "experiment.steps": "5",
        "experiment.seed": "3",
        "sampling.n_samples": "16",
        "sampling.horizon": "5",
        "rmppi.nsp_samples": "8",
        "rmppi.emv_repeats": "2",
        "rmppi.n_candidates": "4",
        "feedback.kind": "contraction",
        "disturbance.w_bound": "0.05",
    }
    base.update(overrides)
    return load_config(overrides=[f"{k}={v}" for k, v in base.items()])


def test_load_config_defaults():
    cfg = load_config()
    assert cfg.controller == "rmppi"
    assert cfg.system == "double_integrator"
    assert cfg.n_samples == 512
    assert cfg.sigma == (0.6,)
    assert cfg.crash_box == (10.0, 20.0)
    assert cfg.wall_offsets is None
    assert cfg.feedback_kind == "none"


def test_load_config_rejects_unknown_names(tmp_path):
    with pytest.raises(ValueError, match="unknown config section 'sampl'"):
        load_config(overrides=["sampl.n_samples=3"])
    with pytest.raises(ValueError, match="unknown config key 'sampling.nsamples'"):
        load_config(overrides=["sampling.nsamples=3"])
    with pytest.raises(ValueError, match="section.key=value"):
        load_config(overrides=["n_samples: 3"])
    with pytest.raises(ValueError, match="section.key form"):
        load_config(overrides=["n_samples=3"])
    bad = tmp_path / "bad.ini"
    bad.write_text("[sampling]\nnsamples = 3\n")
    with pytest.raises(ValueError, match="sampling.nsamples"):
        load_config(str(bad))
    with pytest.raises(FileNotFoundError, match="nope.ini"):
        load_config(str(tmp_path / "nope.ini"))


@pytest.mark.parametrize(
    "text",
    ["[DEFAULT]\nsteps = 4\n", "[DEFAULT]\nsteps = 4\n\n[experiment]\nseed = 2\n"],
    ids=["alone", "beside-a-section"],
)
def test_load_config_refuses_keys_in_a_default_section(tmp_path, text):
    # configparser drops such keys when no other section is present and
    # copies them into every section otherwise
    ini = tmp_path / "defaults.ini"
    ini.write_text(text)
    with pytest.raises(ValueError, match=r"defaults\.ini has keys in a \[DEFAULT\] section \(steps\)"):
        load_config(str(ini))


def test_load_config_accepts_an_empty_default_section(tmp_path):
    ini = tmp_path / "empty_default.ini"
    ini.write_text("[DEFAULT]\n\n[experiment]\nsteps = 4\n")
    assert load_config(str(ini)).steps == 4


def test_load_config_reads_ini_and_overrides_win(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[sampling]\nn_samples = 64\n\n[cost]\nlambda = 2.0\n")
    cfg = load_config(str(ini))
    assert cfg.n_samples == 64
    assert cfg.lam == 2.0
    cfg = load_config(str(ini), overrides=["sampling.n_samples=128"])
    assert cfg.n_samples == 128


def test_bad_value_error_names_the_key():
    with pytest.raises(ValueError, match="bad value for sampling.n_samples"):
        load_config(overrides=["sampling.n_samples=lots"])


def test_config_validation_rules():
    with pytest.raises(ValueError, match="experiment.controller"):
        load_config(overrides=["experiment.controller=pid"])
    with pytest.raises(ValueError, match="feedback.kind"):
        load_config(overrides=["feedback.kind=fuzzy"])
    with pytest.raises(ValueError, match="steps"):
        load_config(overrides=["experiment.steps=0"])
    with pytest.raises(ValueError, match="n_samples"):
        load_config(overrides=["sampling.n_samples=1"])


# Each value loaded before and then failed or misled the run; the error must
# name the key.  An entry of several space-separated overrides is one load.
LOAD_TIME_REJECTIONS = {
    "cost.wall_cap=nan": "bad value for cost.wall_cap",
    "cost.lambda=nan": "bad value for cost.lambda",
    "cost.wall_offsets=1.5,nan": "bad value for cost.wall_offsets",
    "rmppi.emv_repeats=1": "rmppi.emv_repeats",
    "rmppi.n_candidates=1": "rmppi.n_candidates",
    "sampling.n_samples=15": "sampling.n_samples must be at least 2 \\* rmppi.emv_repeats",
    "dynamics.control_limit=-2": "dynamics.control_limit",
    "dynamics.control_limit=0": "dynamics.control_limit",
    "rmppi.nsp_samples=0": "rmppi.nsp_samples",
    "feedback.lambda_c=inf": "feedback.lambda_c",
    "feedback.lambda_c=0": "feedback.lambda_c",
    "disturbance.noise_multiplier=-1": "disturbance.noise_multiplier must be finite and >= 0",
    "disturbance.w_bound=-0.1": "disturbance.w_bound must be finite and >= 0",
    "cost.crash_cost=inf": "cost.crash_cost must be finite",
    "cost.crash_cost=-inf": "cost.crash_cost must be finite",
    "cost.crash_cost=-1": "cost.crash_cost must be finite and >= 0",
    # fail at step 0
    "experiment.seed=-1": "experiment.seed must be >= 0",
    "cost.target=inf,0": "cost.target must be finite in every entry",
    "cost.sigma=inf": "cost.sigma must be finite and positive in every entry",
    # void or weaken the bound
    "rmppi.alpha=inf": "rmppi.alpha must be finite",
    "cost.wall_slope=-1000": "cost.wall_slope must be finite and >= 0",
    # run on with a value that means nothing
    "cost.wall_cap=-1": "cost.wall_cap must be positive",
    "cost.wall_cap=0": "cost.wall_cap must be positive",
    "cost.terminal_scale=-1": "cost.terminal_scale must be finite and >= 0",
    # infinite plant noise, quietly saturated at the control limit by the clamp
    "disturbance.noise_multiplier=inf": "disturbance.noise_multiplier must be finite and >= 0",
    "harness.x0=inf,0": "harness.x0 must be finite in every entry",
    # an infinite damping times a zero rate is NaN: every sample crashes on
    # the first step and the run ends with exit 0
    "experiment.system=nonlinear_benchmark dynamics.damping=inf": "dynamics.damping must be finite",
    "dynamics.damping=-inf": "dynamics.damping must be finite",
    "harness.crash_box=10,0": "harness.crash_box must be positive in every entry",
    "harness.crash_box=-10,20": "harness.crash_box must be positive in every entry",
    # fail at build with a message that does not name the key
    "dynamics.dt=0": "dynamics.dt must be finite and positive",
    "dynamics.dt=-0.02": "dynamics.dt must be finite and positive",
    "dynamics.dt=inf": "dynamics.dt must be finite and positive",
    "cost.lambda=inf": "cost.lambda must be finite and positive",
    "cost.lambda=0": "cost.lambda must be finite and positive",
    "cost.beta=1": "cost.beta must lie in \\[0, 1\\)",
    "cost.beta=-0.1": "cost.beta must lie in \\[0, 1\\)",
    "cost.sigma=0": "cost.sigma must be finite and positive in every entry",
    "cost.q_weights=1,-0.5": "cost.q_weights must be finite and >= 0 in every entry",
    "experiment.system=foo": "experiment.system must be a registered system",
    "disturbance.w_bound=inf": "disturbance.w_bound must be finite and >= 0",
    "feedback.kind=contraction feedback.lambda_c=40000": (
        "exp\\(-feedback.lambda_c \\* dynamics.dt\\) must lie in \\(0, 1\\).*got 0.0"
    ),
    "feedback.kind=contraction feedback.lambda_c=1e-300": (
        "exp\\(-feedback.lambda_c \\* dynamics.dt\\) must lie in \\(0, 1\\).*got 1.0"
    ),
    "feedback.metric=1,inf,inf,1": "feedback.metric must be finite in every entry",
    # run on with a tracking weight that has no meaning for the Riccati pass
    "feedback.r_track=-1": "feedback.r_track must be finite and positive in every entry",
    "feedback.r_track=0": "feedback.r_track must be finite and positive in every entry",
    "feedback.r_track=inf": "feedback.r_track must be finite and positive in every entry",
    "feedback.q_track=-5,-5": "feedback.q_track must be finite and >= 0 in every entry",
    "cost.wall_offsets=-1,inf": "cost.wall_offsets must be >= 0 in every entry",
}


@pytest.mark.parametrize("override", list(LOAD_TIME_REJECTIONS))
def test_values_that_would_fail_mid_run_are_rejected_at_load(override):
    with pytest.raises(ValueError, match=LOAD_TIME_REJECTIONS[override]):
        load_config(overrides=override.split())


@pytest.mark.parametrize(
    "override",
    [
        "cost.wall_offsets=none",
        "cost.wall_offsets=0,inf",
        "cost.wall_offsets=inf,inf",
        "feedback.q_track=0,0",
        # a negative damping pumps energy in, but no term of the growth bound
        # depends on the damping
        "dynamics.damping=-5",
        # the contraction rate is read only with feedback.kind=contraction
        "feedback.lambda_c=40000",
    ],
)
def test_values_at_the_edge_of_a_load_rule_still_load(override):
    load_config(overrides=[override])


def assert_removed_key_is_unknown(key, tmp_path, capsys):
    """A removed key fails at load from an INI file and an override, and ``run`` exits 2."""
    section, name = key.split(".")
    unknown = f"unknown config key '{key}'"
    with pytest.raises(ValueError, match=unknown):
        load_config(overrides=[f"{key}=5"])
    ini = tmp_path / "old.ini"
    ini.write_text(f"[{section}]\n{name} = 5\n")
    with pytest.raises(ValueError, match=unknown):
        load_config(str(ini))
    assert main(["run", "-o", f"{key}=5"]) == 2
    assert unknown in capsys.readouterr().err


def test_the_removed_smoothing_window_key_is_unknown(tmp_path, capsys):
    assert_removed_key_is_unknown("sampling.smoothing_window", tmp_path, capsys)


@pytest.mark.parametrize("key", ["feedback.gamma_window", "feedback.gamma_clip"])
def test_the_removed_fitted_rate_keys_are_unknown(key, tmp_path, capsys):
    assert_removed_key_is_unknown(key, tmp_path, capsys)


def schema_keys():
    return {f"{s}.{k}" for s, keys in config._SCHEMA.items() for k in keys}


def test_every_key_the_readme_names_is_a_schema_key():
    readme = (CONFIGS.parent / "README.md").read_text()
    named = set()
    for span in re.findall(r"`([^`]*)`", readme):
        if re.fullmatch(r"[\w/]+\.(py|ini|csv|json)", span):
            continue  # a file name, not a key
        named.update(
            m.group(0) for m in re.finditer(r"\b([a-z_]+)\.([a-z_0-9]+)\b", span)
            if m.group(1) in config._SCHEMA
        )
    assert named, "the README names no config key"
    assert named <= schema_keys(), sorted(named - schema_keys())


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
def test_every_key_of_a_bundled_config_is_a_schema_key(path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path)
    keys = {f"{s}.{k}" for s in parser.sections() for k in parser[s]}
    assert keys <= schema_keys(), sorted(keys - schema_keys())


def test_config_fields_are_the_schema_keys():
    keys = [
        config._FIELD_NAMES.get(f"{section}.{key}", key)
        for section, table in config._SCHEMA.items()
        for key in table
    ]
    fields = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "raw"]
    assert sorted(keys) == sorted(fields)


def test_with_values_and_render_round_trip(tmp_path):
    cfg = load_config().with_values(
        **{"experiment.name": "abc", "cost.beta": "0.25"}
    )
    assert cfg.name == "abc"
    assert cfg.beta == 0.25
    echo = tmp_path / "echo.ini"
    echo.write_text(render_config(cfg))
    again = load_config(str(echo))
    assert again == cfg
    assert isinstance(cfg, ExperimentConfig)


DEFAULT_CONFIG_INI = """\
[experiment]
name = run
system = double_integrator
controller = rmppi
steps = 100
seed = 0
output = out

[dynamics]
dt = 0.02
control_limit = 10.0
damping = 0.5

[disturbance]
noise_multiplier = 1.0
w_bound = 0.0

[cost]
lambda = 25.0
beta = 0.5
sigma = 0.6
q_weights = 1.0, 0.5
target = 0.0, 0.0
wall_offsets = none
wall_slope = 0.0
wall_cap = inf
terminal_scale = 1.0
crash_cost = 1e4

[sampling]
n_samples = 512
horizon = 50

[feedback]
kind = none
q_track = 2.0, 6.0
r_track = 1.0
metric = 6.0, 3.0, 3.0, 2.0
lambda_c = 1.0

[rmppi]
alpha = 3000.0
n_candidates = 8
nsp_samples = 64
emv_repeats = 8

[harness]
x0 = 0.0, 0.0
crash_box = 10.0, 20.0
"""


def test_rendered_default_config_keeps_its_layout():
    # the key order and text every run's config.ini is written in
    assert render_config(load_config()) == DEFAULT_CONFIG_INI


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    sigma=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False),
    kind=st.sampled_from(["none", "ilqg", "contraction"]),
)
# the floats on either side of each edge of the rule
@example(sigma=7.458340731200207e-155, kind="ilqg")
@example(sigma=7.458340731200208e-155, kind="ilqg")
@example(sigma=1.3407807929942596e154, kind="contraction")
@example(sigma=1.3407807929942597e154, kind="contraction")
def test_a_sigma_that_loads_runs_every_controller(sigma, kind):
    # the controllers sample with covariance diag(sigma^2) and price controls
    # with its inverse, so a sigma either fails at load, naming the key, or runs
    overrides = {
        "cost.sigma": repr(sigma),
        "feedback.kind": kind,
        "experiment.steps": "3",
        "sampling.horizon": "4",
        "disturbance.noise_multiplier": "0",  # keep the plant in the crash box
    }
    try:
        cfg = small_run_config(**overrides)
    except ValueError as exc:
        assert "cost.sigma" in str(exc)
        return
    for controller in ("mppi", "tube", "rmppi"):
        log = run_closed_loop(cfg.with_values(**{"experiment.controller": controller}))
        assert log.summary["steps_run"] == 3, (controller, log.summary)


def test_log_columns_schema():
    assert log_columns(2, 1) == [
        "step", "t",
        "fe_real", "fe_nom", "bound", "dfe", "cand_idx", "gamma_hat", "emv",
        "bound_no_d", "degen", "crash",
        "x0", "x1", "xs0", "xs1", "u0",
    ]


def test_run_log_csv_round_trip(tmp_path):
    log = RunLog(columns=["a", "b"])
    log.rows = [[0.1 + 0.2, 1.0 / 3.0], [np.pi, -0.0]]
    path = tmp_path / "log.csv"
    log.to_csv(path)
    back = RunLog.from_csv(path)
    assert back.columns == log.columns
    assert back.rows == log.rows


def test_verify_bound_row_alignment():
    log = RunLog(columns=["bound", "dfe"])
    log.rows = [
        [1.0, 99.0],
        [2.0, 0.5],
        [np.inf, 3.0],
        [0.5, 0.2],
    ]
    check = verify_bound(log)
    assert check.checked == 2
    assert np.array_equal(check.violations, np.array([False, True]))
    assert check.rate == 0.5
    assert check.mean_margin == -0.25


def test_verify_bound_skips_unbounded_rows():
    log = RunLog(columns=["bound", "dfe"])
    log.rows = [[np.inf, 1.0], [np.inf, 2.0]]
    check = verify_bound(log)
    assert check.checked == 0
    assert check.rate == 0.0
    assert np.isnan(check.mean_margin)
    assert verify_bound(RunLog(columns=["bound", "dfe"], rows=[[1.0, 1.0]])).checked == 0


def test_build_model_kinds():
    di = build_model(load_config())
    assert di.name == "double_integrator" and di.dt == 0.02
    pend = build_model(load_config(overrides=[
        "experiment.system=nonlinear_benchmark", "dynamics.damping=0.7",
    ]))
    assert pend.name == "nonlinear_benchmark"
    # damping scales the velocity derivative
    rate = pend.deriv(np.array([0.0, 1.0]), np.zeros(1))
    assert rate[1] == pytest.approx(-0.7)


def test_build_cost_rejects_dimension_mismatches():
    cfg = load_config()
    model = build_model(cfg)
    with pytest.raises(ValueError, match="cost.sigma"):
        build_cost(cfg.with_values(**{"cost.sigma": "0.6, 0.7"}), model)
    with pytest.raises(ValueError, match="q_weights"):
        build_cost(cfg.with_values(**{"cost.q_weights": "1, 2, 3"}), model)
    with pytest.raises(ValueError, match="crash_box"):
        build_cost(cfg.with_values(**{"harness.crash_box": "10"}), model)


# Values that only the built system can check; each failed inside numpy
# (or, for a start outside the crash box, ended the run as a crash on step 0)
# before it was rejected at build time by name.
BUILD_TIME_REJECTIONS = {
    "harness.x0=0,0,0": "harness.x0",
    "feedback.kind=ilqg feedback.q_track=1,2,3": "feedback.q_track",
    "feedback.kind=ilqg feedback.r_track=1,1": "feedback.r_track",
    "feedback.kind=contraction feedback.metric=1,2,3": "feedback.metric",
    "cost.wall_offsets=1,1,1 cost.wall_slope=10": "cost.wall_offsets",
    "harness.x0=50,0": "harness.x0.*cost.target.*harness.crash_box",
    "cost.target=0,50": "harness.x0.*cost.target.*harness.crash_box",
}


@pytest.mark.parametrize("overrides", list(BUILD_TIME_REJECTIONS))
def test_shapes_that_would_fail_at_step_zero_are_rejected_when_built(overrides):
    cfg = load_config(overrides=overrides.split())
    with pytest.raises(ValueError, match=BUILD_TIME_REJECTIONS[overrides]):
        build_cost(cfg, build_model(cfg))


@pytest.mark.parametrize(
    "overrides",
    [
        # the crash check is strict, so a start on the box edge runs
        ("harness.x0=10,-20",),
        ("cost.target=-10,20",),
        # one offset broadcasts to every coordinate
        ("cost.wall_offsets=1", "cost.wall_slope=10"),
    ],
)
def test_values_next_to_the_build_time_rejections_are_accepted(overrides):
    cfg = load_config(overrides=overrides)
    cost = build_cost(cfg, build_model(cfg))
    assert np.isfinite(cost.state_cost(np.array(cfg.x0)))
    assert np.isfinite(cost.lipschitz_q)


@pytest.mark.parametrize("metric", ["1,0,0,-1", "1,5,0,1", "0,0,0,0"])
def test_a_metric_that_is_not_symmetric_positive_definite_is_refused_when_built(metric):
    cfg = load_config(overrides=["feedback.kind=contraction", f"feedback.metric={metric}"])
    refused = "feedback.metric must be a symmetric positive-definite 2x2"
    with pytest.raises(ValueError, match=refused):
        build_policy_factory(cfg, build_model(cfg))
    with pytest.raises(ValueError, match="feedback.metric"):
        run_closed_loop(cfg.with_values(**{"experiment.steps": "1"}))


def test_build_cost_squares_sigma_entries():
    cfg = load_config(overrides=["cost.sigma=0.5"])
    cost = build_cost(cfg, build_model(cfg))
    assert cost.sigma_inv[0, 0] == pytest.approx(4.0)


def test_build_policy_factory_kinds():
    cfg = load_config()
    model = build_model(cfg)
    factory, gamma = build_policy_factory(cfg, model)
    assert isinstance(factory(np.zeros(2), np.zeros((5, 1))), ZeroFeedback)
    assert gamma == UNCERTIFIED_RATE

    c_cfg = cfg.with_values(**{"feedback.kind": "contraction", "feedback.lambda_c": "1.2"})
    factory, gamma = build_policy_factory(c_cfg, model)
    policy = factory(np.zeros(2), np.zeros((5, 1)))
    assert isinstance(policy, ContractionPolicy)
    assert gamma == pytest.approx(np.exp(-1.2 * model.dt))

    i_cfg = cfg.with_values(**{"feedback.kind": "ilqg"})
    factory, gamma = build_policy_factory(i_cfg, model)
    policy = factory(np.zeros(2), np.zeros((5, 1)))
    assert isinstance(policy, LinearGainsPolicy)
    assert policy.gains.shape == (5, 1, 2)
    assert gamma == UNCERTIFIED_RATE


@pytest.mark.parametrize("controller", ["mppi", "tube", "rmppi"])
@pytest.mark.parametrize(
    "override", ["dynamics.dt=1e200", "dynamics.dt=1e6", "feedback.q_track=1e200,1e200"]
)
def test_an_ilqg_pass_that_diverges_about_the_start_is_refused_when_built(override, controller):
    # under tube and rmppi these loaded and raised from the first step whose
    # copies started apart; mppi applies no feedback, so it builds as before
    cfg = load_config(CONFIGS / "di_stress_x100.ini", [
        "feedback.kind=ilqg", "rmppi.alpha=300", f"experiment.controller={controller}", override,
    ])
    model = build_model(cfg)
    cost = build_cost(cfg, model)
    if controller == "mppi":
        assert isinstance(harness.build_controller(cfg, model, cost), MppiController)
        return
    with pytest.raises(RiccatiDivergenceError):
        harness.build_controller(cfg, model, cost)


def count_gain_builds(monkeypatch):
    """Collect one entry per ``ilqg_gains`` call the harness's iLQG factory makes."""
    calls = []
    ilqg_gains = harness.ilqg_gains

    def counted_ilqg_gains(*args, **kwargs):
        calls.append(1)
        return ilqg_gains(*args, **kwargs)

    monkeypatch.setattr(harness, "ilqg_gains", counted_ilqg_gains)
    return calls


def test_ilqg_policy_builds_its_gains_once_when_first_read(monkeypatch):
    calls = count_gain_builds(monkeypatch)
    cfg = load_config(str(CONFIGS / "pendulum_stress_x150.ini"), ["feedback.kind=ilqg"])
    model = build_model(cfg)
    factory, _ = build_policy_factory(cfg, model)
    eager, _ = oracles.eager_ilqg_policy_factory(cfg, model)
    rng = np.random.default_rng(7)
    x_star, controls = np.array([0.4, -0.3]), rng.normal(size=(30, 1))
    policy = factory(x_star, controls)
    assert calls == []
    x = x_star + rng.normal(size=(256, 2))
    first = policy.apply_batch(x, x_star, 0)
    assert calls == [1]
    reference = eager(x_star, controls)
    assert same_bits(policy.gains, reference.gains)
    for t in (0, 7, 29, 40):
        assert same_bits(policy.apply_batch(x, x_star, t), reference.apply_batch(x, x_star, t))
    assert same_bits(first, reference.apply_batch(x, x_star, 0))
    assert calls == [1]


def run_csv_bytes(cfg, path) -> bytes:
    run_closed_loop(cfg).to_csv(path)
    return path.read_bytes()


def test_a_pendulum_run_whose_copies_always_start_together_builds_no_gains(monkeypatch, tmp_path):
    calls = count_gain_builds(monkeypatch)
    cfg = load_config(
        str(CONFIGS / "pendulum_stress_x150.ini"), ["feedback.kind=ilqg", "experiment.steps=100"]
    )
    deferred = run_csv_bytes(cfg, tmp_path / "deferred.csv")
    log = RunLog.from_csv(tmp_path / "deferred.csv")
    assert len(log.rows) == 100
    assert np.array_equal(log.column("x0"), log.column("xs0"))
    assert np.array_equal(log.column("x1"), log.column("xs1"))
    assert calls == [1]  # the build-time probe about the start; no step built gains
    monkeypatch.setattr(harness, "build_policy_factory", oracles.eager_ilqg_policy_factory)
    assert run_csv_bytes(cfg, tmp_path / "eager.csv") == deferred


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ilqg_gains_are_built_on_exactly_the_steps_whose_copies_start_apart(
    seed, monkeypatch, tmp_path
):
    calls = count_gain_builds(monkeypatch)
    overrides = ["rmppi.alpha=300", "feedback.kind=ilqg", "experiment.steps=200"]
    cfg = load_config(str(STRESS_CONFIG), [*overrides, f"experiment.seed={seed}"])
    deferred = run_csv_bytes(cfg, tmp_path / "deferred.csv")
    log = RunLog.from_csv(tmp_path / "deferred.csv")
    apart = (log.column("x0") != log.column("xs0")) | (log.column("x1") != log.column("xs1"))
    # one build at build time, the probe about the start, then one per step apart
    assert 0 < len(calls) - 1 == np.count_nonzero(apart) < len(log.rows)
    monkeypatch.setattr(harness, "build_policy_factory", oracles.eager_ilqg_policy_factory)
    assert run_csv_bytes(cfg, tmp_path / "eager.csv") == deferred


@pytest.mark.parametrize("kind", ["none", "ilqg", "contraction"])
@pytest.mark.parametrize("controller", ["mppi", "tube", "rmppi"])
def test_every_model_step_of_a_run_gets_one_state(monkeypatch, controller, kind):
    # rollouts step their batches with euler; step is left to the plant, the
    # nominal states, the growth bound and the contraction certificate.  At
    # alpha=300 and seed 3 the robust controller's copies start apart from
    # step 58 on, so its rollouts run the tracked path.
    shapes = []
    step = SystemModel.step

    def recording_step(self, x, *args, **kwargs):
        shapes.append(np.shape(x))
        return step(self, x, *args, **kwargs)

    tracked = []
    propagate = rmppi.propagate

    def recording_propagate(model, cost, starts, controls, draws, feedback=None):
        tracked.append(feedback is not None)
        return propagate(model, cost, starts, controls, draws, feedback)

    monkeypatch.setattr(SystemModel, "step", recording_step)
    monkeypatch.setattr(rmppi, "propagate", recording_propagate)
    cfg = load_config(CONFIGS / "di_stress_x100.ini", [
        "experiment.steps=80", "experiment.seed=3", "rmppi.alpha=300",
        f"experiment.controller={controller}", f"feedback.kind={kind}",
    ])
    run_closed_loop(cfg)
    assert shapes and set(shapes) == {(2,)}
    assert any(tracked) == (controller == "rmppi")


def test_a_tube_step_builds_ilqg_gains_only_without_a_reset(monkeypatch):
    calls = count_gain_builds(monkeypatch)
    cfg = load_config(overrides=["feedback.kind=ilqg", "sampling.horizon=8"])
    model = build_model(cfg)
    cost = build_cost(cfg, model)
    factory, _ = build_policy_factory(cfg, model)
    draws = NoisePlan.sample(5, 64, 8, cost.sigma_chol)
    x, x_star, controls = np.array([0.6, -0.2]), np.array([0.1, 0.0]), np.zeros((8, 1))
    policy = factory(x_star, controls)
    _, _, _, record = rmppi.tube_mppi_step(model, cost, x, x_star, controls, policy, draws, 1e9)
    assert record.reset and calls == []
    policy = factory(x_star, controls)
    _, _, _, record = rmppi.tube_mppi_step(model, cost, x, x_star, controls, policy, draws, -1e9)
    assert not record.reset and calls == [1]


def state_dependent_input(dt=0.02, control_limit=10.0):
    """``x1' = (1 + x0**2) u``: B depends on the state; no analytic jacobians."""

    def deriv(x, u):
        out = np.empty(np.broadcast_shapes(x.shape, u.shape[:-1] + (2,)))
        out[..., 0] = x[..., 1]
        out[..., 1] = (1.0 + x[..., 0] ** 2) * u[..., 0]
        return out

    lim = np.array([control_limit])
    return SystemModel(
        "state_dependent_input", 2, 1, dt, deriv, control_low=-lim, control_high=lim
    )


def test_contraction_feedback_is_refused_when_b_depends_on_the_state():
    register_system("state_dependent_input", state_dependent_input)
    cfg = load_config(overrides=[
        "experiment.system=state_dependent_input", "feedback.kind=contraction",
    ])
    model = build_model(cfg)
    with pytest.raises(ValueError, match="feedback.kind=contraction.*harness.crash_box"):
        build_policy_factory(cfg, model)
    with pytest.raises(ValueError, match="feedback.kind=contraction"):
        run_closed_loop(cfg.with_values(**{"experiment.steps": "1"}))
    # the other feedback laws do not assume a constant B
    for kind in ("ilqg", "none"):
        build_policy_factory(cfg.with_values(**{"feedback.kind": kind}), model)


def test_b_check_probes_infinite_crash_box_sides_at_unit_distance():
    register_system("state_dependent_input", state_dependent_input)
    # B(x) = (0, 1 + x0**2) differs from B(0) by 1 at x0 = +-1
    cfg = load_config(overrides=[
        "experiment.system=state_dependent_input", "feedback.kind=contraction",
        "harness.crash_box=inf, inf",
    ])
    with pytest.raises(ValueError, match="differs by 1 at x=\\[-1.0, -1.0\\]"):
        build_policy_factory(cfg, build_model(cfg))


def pendulum_without_jacobians(**kwargs):
    model = nonlinear_benchmark(**kwargs)
    return SystemModel(model.name, 2, 1, model.dt, model.deriv,
                       control_low=model.control_low, control_high=model.control_high)


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
def test_bundled_scenarios_pass_the_constant_b_check(config):
    # the finite-difference B carries rounding noise the tolerance must absorb
    register_system("pendulum_without_jacobians", pendulum_without_jacobians)
    for system in ("double_integrator", "nonlinear_benchmark", "pendulum_without_jacobians"):
        overrides = [f"experiment.system={system}", "feedback.kind=contraction"]
        cfg = load_config(str(config), overrides)
        factory, _ = build_policy_factory(cfg, build_model(cfg))
        assert isinstance(factory(np.zeros(2), np.zeros((5, 1))), ContractionPolicy)


def fused_spring(dt=0.02, control_limit=10.0):
    """A spring whose rollouts blow up past position 0.8; the plant's single state never does."""

    def deriv(x, u):
        out = np.empty(np.broadcast_shapes(x.shape, u.shape[:-1] + (2,)))
        out[..., 0] = x[..., 1]
        out[..., 1] = -x[..., 0] + u[..., 0]
        if x.ndim > 1:
            out[..., 1] = np.where(x[..., 0] > 0.8, np.inf, out[..., 1])
        return out

    lim = np.array([control_limit])
    return SystemModel("fused_spring", 2, 1, dt, deriv, control_low=-lim, control_high=lim)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_consecutive_degenerate_rows_carry_no_bound_to_violate():
    # from x0 = (0, 3) the spring soon carries every rollout past position
    # 0.8 within the horizon, and from then on every step is degenerate:
    # its free energy is crash_cost and its increment 0
    register_system("fused_spring", fused_spring)
    log = run_closed_loop(small_run_config(**{
        "experiment.system": "fused_spring", "feedback.kind": "none", "harness.x0": "0, 3",
        "experiment.steps": "12", "sampling.horizon": "10",
    }))
    degen = log.column("degen").astype(bool)
    assert np.sum(degen[:-1] & degen[1:]) >= 5
    assert np.all(log.column("bound")[degen] == np.inf)
    assert np.all(log.column("bound_no_d")[degen] == np.inf)
    assert np.all(np.isfinite(log.column("bound")[~degen]))
    check = verify_bound(log)
    # only the rows that were not degenerate are held to a bound
    assert check.checked == np.sum(~degen[:-1])
    assert log.summary["bound_checked_steps"] == check.checked


def test_run_closed_loop_is_deterministic():
    cfg = small_run_config()
    a = run_closed_loop(cfg)
    b = run_closed_loop(cfg)
    assert a.columns == b.columns
    assert a.rows == b.rows
    assert a.summary == b.summary
    assert len(a.rows) == 5


def test_run_summary_is_consistent_with_the_log():
    log = run_closed_loop(small_run_config())
    s = log.summary
    assert s["controller"] == "rmppi"
    assert s["steps_run"] == len(log.rows)
    assert s["completed"] and not s["crashed"]
    assert s["fe_real_max"] >= s["fe_real_mean"]
    assert s["degen_steps"] == 0
    assert log.config_text
    parser = configparser.ConfigParser()
    parser.read_string(log.config_text)
    assert parser["experiment"]["controller"] == "rmppi"


def test_run_stops_at_the_crash_box():
    cfg = small_run_config(**{
        "experiment.steps": "10",
        "disturbance.w_bound": "0.5",
        "harness.crash_box": "0.1, 0.1",
    })
    log = run_closed_loop(cfg)
    assert log.summary["crashed"]
    assert log.summary["steps_run"] < 10
    crash = log.column("crash")
    assert crash[-1] == 1.0
    assert np.all(crash[:-1] == 0.0)


def test_compare_controllers_runs_the_same_experiment_per_name():
    cfg = small_run_config(**{"feedback.kind": "none", "experiment.name": "trio"})
    results = compare_controllers(cfg, ("mppi", "tube"))
    assert set(results) == {"mppi", "tube"}
    assert results["mppi"].summary["controller"] == "mppi"
    assert results["tube"].summary["name"] == "trio-tube"
    direct = run_closed_loop(cfg.with_values(**{
        "experiment.controller": "mppi", "experiment.name": "trio-mppi",
    }))
    assert results["mppi"].rows == direct.rows


def test_summary_table_lists_each_controller():
    cfg = small_run_config(**{"feedback.kind": "none"})
    results = compare_controllers(cfg, ("mppi", "rmppi"))
    table = summary_table(results)
    lines = table.splitlines()
    assert len(lines) == 3
    assert "controller" in lines[0] and "viol_rate" in lines[0]
    assert "mppi" in lines[1] and "rmppi" in lines[2]


def test_a_zero_weight_adds_nothing_to_the_lipschitz_constant_of_an_unbounded_coordinate():
    cfg = small_run_config(**{"cost.q_weights": "1, 0", "harness.crash_box": "10, inf"})
    cost = build_cost(cfg, build_model(cfg))
    assert cost.lipschitz_q == 20.0
    assert run_closed_loop(cfg).summary["completed"]


def test_an_infinite_lipschitz_constant_is_refused_for_rmppi_naming_the_crash_box():
    cfg = small_run_config(**{"harness.crash_box": "10, inf"})
    with pytest.raises(ValueError, match="harness.crash_box"):
        run_closed_loop(cfg)
    # the controllers that emit no bound keep accepting an unbounded box
    for controller in ("mppi", "tube"):
        run_closed_loop(cfg.with_values(**{"experiment.controller": controller}))


def test_infinite_control_limit_still_loads():
    assert load_config(overrides=["dynamics.control_limit=inf"]).control_limit == np.inf


def record_steps(monkeypatch):
    """Collect every StepRecord the harness receives, wrapping build_controller."""
    records = []
    build_controller = harness.build_controller

    def recording_build_controller(*args, **kwargs):
        controller = build_controller(*args, **kwargs)
        step = controller.step

        def recorded_step(x):
            action, rec = step(x)
            records.append(rec)
            return action, rec

        controller.step = recorded_step
        return controller

    monkeypatch.setattr(harness, "build_controller", recording_build_controller)
    return records


STRESS_CONFIG = CONFIGS / "di_stress_x100.ini"

# (overrides, counters that must be nonzero): a tube run that resets at every
# step, and an rmppi run whose threshold is too low for some NSP steps and
# whose contraction rate the metric cannot honor.
COUNTER_RUNS = {
    "tube": ({"experiment.controller": "tube", "rmppi.alpha": "1e9"}, ["tube_resets"]),
    "rmppi": (
        {"rmppi.alpha": "5", "feedback.lambda_c": "60"},
        ["nsp_fallbacks", "contraction_violations"],
    ),
}


@pytest.mark.parametrize("run", list(COUNTER_RUNS))
def test_summary_counters_sum_the_step_record_flags(run, monkeypatch, tmp_path):
    run_overrides, nonzero = COUNTER_RUNS[run]
    records = record_steps(monkeypatch)
    overrides = {
        "experiment.steps": "30",
        "experiment.seed": "3",
        "experiment.output": str(tmp_path),
        "experiment.name": "counters",
        "sampling.n_samples": "32",
        "sampling.horizon": "8",
        "rmppi.nsp_samples": "8",
        "rmppi.emv_repeats": "2",
        "rmppi.n_candidates": "4",
        "feedback.kind": "contraction",
        **run_overrides,
    }
    args = ["run", str(STRESS_CONFIG)]
    for key, value in overrides.items():
        args += ["-o", f"{key}={value}"]
    assert main(args) == 0
    summary = json.loads((tmp_path / "counters" / "summary.json").read_text())
    assert len(records) == summary["steps_run"] == 30
    counters = {
        "tube_resets": "reset",
        "nsp_fallbacks": "nsp_fallback",
        "contraction_violations": "contraction_violation",
    }
    for key, flag in counters.items():
        assert summary[key] == sum(getattr(rec, flag) for rec in records)
    for key in nonzero:
        assert summary[key] > 0


@pytest.mark.parametrize("controller", ["mppi", "tube", "rmppi"])
def test_dfe_is_the_step_to_step_change_of_fe_real(controller):
    log = run_closed_loop(small_run_config(**{"experiment.controller": controller}))
    fe, dfe = log.column("fe_real"), log.column("dfe")
    assert len(fe) == 5
    assert dfe[0] == 0.0
    assert np.array_equal(dfe[1:], fe[1:] - fe[:-1])


def test_an_overstated_contraction_rate_is_counted_on_every_nsp_step():
    # the certificate is checked on the propagated nominal state before NSP
    # moves the nominal onto the measurement, where the offset is real
    cfg = load_config(str(STRESS_CONFIG), ["experiment.steps=100"])
    assert run_closed_loop(cfg).summary["contraction_violations"] == 0
    log = run_closed_loop(cfg.with_values(**{"feedback.lambda_c": "30"}))
    # step 0 has no pending NSP and starts with the nominal on the measurement
    assert log.summary["contraction_violations"] == log.summary["steps_run"] - 1 == 99


def record_nsp_groups(monkeypatch):
    """Collect the size of every candidate group NSP evaluates, in order.

    NSP rolls a group through ``rollout_batch`` (the only ``rollout_batch``
    calls in ``rmppi`` during an rmppi run) or, for the measured state on a
    nearest-first search, prices the rows it is given as ``measured``, which
    the controller rolls in the augmented batch's call.  Returns the sizes
    of all groups and those of the groups given as ``measured``.
    """
    groups, shared = [], []
    rollout_batch = rmppi.rollout_batch
    nsp = rmppi.nominal_state_propagation

    def counted_rollout_batch(model, cost, x0, *args, **kwargs):
        groups.append(np.shape(x0)[0])
        return rollout_batch(model, cost, x0, *args, **kwargs)

    def counted_nsp(*args, measured=None):
        if measured is not None:
            groups.append(measured[0].shape[0])
            shared.append(measured[0].shape[0])
        return nsp(*args, measured=measured)

    monkeypatch.setattr(rmppi, "rollout_batch", counted_rollout_batch)
    monkeypatch.setattr(rmppi, "nominal_state_propagation", counted_nsp)
    return groups, shared


def test_nsp_rolls_out_one_candidate_a_step_while_the_measurement_wins(monkeypatch):
    groups, shared = record_nsp_groups(monkeypatch)
    log = run_closed_loop(load_config(str(STRESS_CONFIG), ["experiment.steps=40"]))
    assert np.all(log.column("cand_idx")[1:] == 8)
    assert groups == [1] * 39
    # each one rolled with the augmented batch
    assert shared == [1] * 39


def test_nsp_rolls_out_every_candidate_after_the_measurement_lost(monkeypatch):
    # the nearest-first search runs only after a step that chose the
    # measurement, candidate 8; when that fails, the other 8 follow
    groups, shared = record_nsp_groups(monkeypatch)
    wall = CONFIGS / "di_wall_compare_x100.ini"
    log = run_closed_loop(load_config(str(wall), ["experiment.steps=60"]))
    expected, nearest_first, chose_x = [], 0, True
    for index in log.column("cand_idx")[1:]:
        expected += ([1] if index == 8 else [1, 8]) if chose_x else [9]
        nearest_first += chose_x
        chose_x = index == 8
    assert groups == expected
    assert {1, 8, 9} <= set(groups)
    # the measured state went with the augmented batch on every nearest-first step
    assert shared == [1] * nearest_first


def test_a_hit_step_rolls_the_measured_state_once_and_outside_nsp(monkeypatch):
    # a hit: a nearest-first NSP step whose winner is the measured state.  Its
    # NSP rows and the augmented rows roll in one call before NSP runs
    steps, inside = [], []
    nsp, step = rmppi.nominal_state_propagation, rmppi.RmppiController.step

    def spied_nsp(*args, **kwargs):
        inside.append(True)
        try:
            return nsp(*args, **kwargs)
        finally:
            inside.pop()

    def spied_step(self, x):
        steps.append([])
        return step(self, x)

    def spy(name, fn):
        def spied(model, cost, starts, controls, draws, *args, **kwargs):
            steps[-1].append((name, draws.shape[0], bool(inside)))
            return fn(model, cost, starts, controls, draws, *args, **kwargs)

        return spied

    monkeypatch.setattr(rmppi, "nominal_state_propagation", spied_nsp)
    monkeypatch.setattr(rmppi.RmppiController, "step", spied_step)
    monkeypatch.setattr(rmppi, "rollout_batch", spy("rollout_batch", rmppi.rollout_batch))
    monkeypatch.setattr(rmppi, "propagate", spy("propagate", rmppi.propagate))
    monkeypatch.setattr(sampling, "propagate", spy("propagate", sampling.propagate))
    cfg = load_config(
        str(CONFIGS / "pendulum_stress_x150.ini"),
        ["feedback.kind=ilqg", "experiment.steps=100", "experiment.seed=0"],
    )
    log = run_closed_loop(cfg)
    assert not log.column("degen").any()
    index = log.column("cand_idx")[1:]
    nearest_first = np.concatenate([[True], index[:-1] == 8])
    hits = (np.flatnonzero(nearest_first & (index == 8)) + 1).tolist()
    assert len(steps) == 100 and hits
    for t in hits:
        assert not any(during for _, _, during in steps[t]), t
        assert [call for call in steps[t] if call[0] == "propagate"] == [
            ("propagate", cfg.nsp_samples + cfg.n_samples, False)
        ], t


# name -> (config, overrides, the kinds of NSP step the run must hold).  A
# hit rolls the measured state with the augmented batch and prices those
# rows; a miss throws them away; a full search speculates on nothing.
TWO_CALL_RUNS = {
    "pendulum-ilqg": (
        "pendulum_stress_x150.ini", ["feedback.kind=ilqg", "experiment.steps=100"], {"hit"}
    ),
    "wall-compare": ("di_wall_compare_x100.ini", ["experiment.steps=150"], {"hit", "miss", "full"}),
    "di-tight-ilqg": (
        "di_stress_x100.ini",
        ["rmppi.alpha=300", "feedback.kind=ilqg", "experiment.steps=300"],
        {"hit", "miss", "full", "fallback"},
    ),
}


def nsp_step_kinds(log: RunLog) -> set[str]:
    """The kinds of NSP step in an rmppi log with candidate R = 8 and no degenerate step."""
    index = log.column("cand_idx")[1:]
    nearest_first = np.concatenate([[True], index[:-1] == 8])
    kinds = {
        "hit": nearest_first & (index == 8),
        "miss": nearest_first & (index != 8),
        "full": ~nearest_first,
    }
    found = {kind for kind, steps in kinds.items() if steps.any()}
    return found | ({"fallback"} if log.summary["nsp_fallbacks"] else set())


@pytest.mark.parametrize("run", list(TWO_CALL_RUNS))
def test_rmppi_logs_equal_those_of_the_two_call_step(run, monkeypatch, tmp_path):
    config, overrides, kinds = TWO_CALL_RUNS[run]
    cfg = load_config(str(CONFIGS / config), overrides)
    csv = {}
    for tree in ("library", "oracle"):
        if tree == "oracle":
            monkeypatch.setattr(harness, "RmppiController", oracles.TwoCallRmppiController)
        if run == "wall-compare":
            logs = compare_controllers(cfg)
        else:
            logs = {"rmppi": run_closed_loop(cfg)}
        assert not any(log.column("degen").any() for log in logs.values())
        assert nsp_step_kinds(logs["rmppi"]) == kinds
        for name, log in logs.items():
            path = tmp_path / f"{tree}-{name}.csv"
            log.to_csv(path)
            csv[tree, name] = path.read_bytes()
    for name in logs:
        assert csv["library", name] == csv["oracle", name], name


@pytest.mark.parametrize(
    "config, steps", [("di_wall_compare_x100.ini", 150), ("di_stress_x100.ini", 60)]
)
def test_the_nsp_search_order_never_shows_in_a_closed_loop(config, steps, monkeypatch, tmp_path):
    cfg = load_config(str(CONFIGS / config), [f"experiment.steps={steps}"])
    runs = {}
    for forced in (None, True, False):
        orders = []
        groups, _ = record_nsp_groups(monkeypatch)
        counted_nsp = rmppi.nominal_state_propagation

        def forced_nsp(*args, measured=None):
            orders.append(measured is not None)
            if forced is False:
                measured = None
            elif forced and measured is None:
                # the rows the controller rolls for a nearest-first search
                model, cost, x, _, _, controls, _, _, draws = args
                shifted = shift_control_sequence(controls)
                measured = propagate(model, cost, x[None, None], shifted + 0.0, draws)
            return counted_nsp(*args, measured=measured)

        monkeypatch.setattr(rmppi, "nominal_state_propagation", forced_nsp)
        path = tmp_path / f"{forced}.csv"
        run_closed_loop(cfg).to_csv(path)
        monkeypatch.undo()
        runs[forced] = path.read_bytes(), set(orders), sum(groups)
    assert runs[True][0] == runs[None][0]
    assert runs[False][0] == runs[None][0]
    # the forced orders did run differently
    assert runs[True][2] < runs[False][2]
    if config == "di_wall_compare_x100.ini":
        assert runs[None][1] == {True, False}
