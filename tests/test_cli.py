"""Command-line interface: exit codes, outputs on disk, config echo."""

import configparser
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import robust_mppi
from robust_mppi import cli
from robust_mppi.cli import main
from robust_mppi.config import load_config
from robust_mppi.harness import BoundCheck, RunLog

REPO_ROOT = Path(__file__).resolve().parents[1]

FAST = [
    "experiment.steps=4",
    "sampling.n_samples=16",
    "sampling.horizon=5",
    "rmppi.nsp_samples=8",
    "rmppi.emv_repeats=2",
    "rmppi.n_candidates=4",
]


def fast_args(tmp_path, name, extra=()):
    args = []
    for o in FAST + [f"experiment.output={tmp_path}", f"experiment.name={name}", *extra]:
        args += ["-o", o]
    return args


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok  ") == 2
    assert "FAIL" not in out


def test_selftest_fails_when_the_bound_is_violated(monkeypatch, capsys):
    violated = BoundCheck(checked=1, violations=np.array([True]), rate=1.0, mean_margin=-1.0)
    monkeypatch.setattr(cli, "verify_bound", lambda log: violated)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert out.count("ok  ") == 1
    assert out.count("FAIL") == 1


def test_module_entry_runs_selftest_without_a_runtime_warning():
    """``python -m robust_mppi.cli`` must not find the module already imported."""
    import_root = str(Path(robust_mppi.__file__).parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [import_root, inherited]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "robust_mppi.cli", "selftest"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok  ") == 2


def test_entry_point_is_installed():
    """The declared ``robust-mppi`` command runs ``selftest`` as its own process.

    The spec comes from ``[project.scripts]`` and is loaded and called the way a
    generated console script does, so the check holds from a checkout with no
    install. Where an installed script is on PATH, it is run as well.
    """
    tomllib = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "robust-mppi" in scripts, "pyproject.toml declares no robust-mppi script"
    ep = EntryPoint(name="robust-mppi", value=scripts["robust-mppi"], group="console_scripts")
    assert callable(ep.load())

    launcher = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"ep = EntryPoint(name={ep.name!r}, value={ep.value!r}, group={ep.group!r})\n"
        "sys.argv[0] = 'robust-mppi'\n"
        "sys.exit(ep.load()())\n"
    )
    import_root = str(Path(robust_mppi.__file__).parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [import_root, inherited]))}
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "selftest"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok  ") == 2
    assert "FAIL" not in proc.stdout

    exe = shutil.which("robust-mppi")
    if exe is not None:
        installed = subprocess.run([exe, "selftest"], capture_output=True, text=True)
        assert installed.returncode == 0, installed.stdout + installed.stderr


def test_run_writes_outputs(tmp_path, capsys):
    assert main(["run", *fast_args(tmp_path, "t1")]) == 0
    out_dir = tmp_path / "t1"
    assert (out_dir / "runlog.csv").exists()
    assert (out_dir / "config.ini").exists()
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["steps_run"] == 4
    assert summary["controller"] == "rmppi"
    log = RunLog.from_csv(out_dir / "runlog.csv")
    assert len(log.rows) == 4
    assert "fe_real" in log.columns
    assert "wrote" in capsys.readouterr().out


def test_run_config_echo_round_trips(tmp_path):
    ini = tmp_path / "in.ini"
    ini.write_text("[cost]\nlambda = 3.5\n")
    argv = ["run", str(ini), *fast_args(tmp_path, "t2", ["cost.beta=0.25"])]
    assert main(argv) == 0
    echoed = load_config(str(tmp_path / "t2" / "config.ini"))
    overrides = FAST + [
        f"experiment.output={tmp_path}", "experiment.name=t2", "cost.beta=0.25",
    ]
    assert echoed == load_config(str(ini), overrides)
    assert echoed.lam == 3.5
    assert echoed.beta == 0.25


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.ini"
    assert main(["run", str(missing)]) == 2
    assert "absent.ini" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, problem",
    [
        ("steps = 4\n", "no section headers"),
        ("[experiment]\nsteps = 4\nsteps = 5\n", "already exists"),
    ],
    ids=["no-section-header", "duplicate-key"],
)
def test_a_config_file_that_is_not_ini_exits_2_naming_it(tmp_path, capsys, text, problem):
    ini = tmp_path / "broken.ini"
    ini.write_text(text)
    assert main(["run", str(ini)]) == 2
    err = capsys.readouterr().err
    assert "broken.ini" in err and problem in err


def test_a_config_file_with_default_keys_exits_2_naming_it(tmp_path, capsys):
    ini = tmp_path / "defaults.ini"
    ini.write_text("[DEFAULT]\nsteps = 4\n")
    assert main(["run", str(ini)]) == 2
    err = capsys.readouterr().err
    assert "defaults.ini" in err and "[DEFAULT]" in err


def test_a_config_echo_holding_a_percent_sign_runs_again(tmp_path):
    assert main(["run", *fast_args(tmp_path, "load%x")]) == 0
    echo = tmp_path / "load%x" / "config.ini"
    assert load_config(str(echo)).name == "load%x"
    assert main(["run", str(echo)]) == 0


def test_bad_override_exits_2(capsys):
    assert main(["run", "-o", "sampling.bogus=1"]) == 2
    assert "sampling.bogus" in capsys.readouterr().err


def test_verify_bound_exit_codes(tmp_path, capsys):
    clean = RunLog(columns=["bound", "dfe"], rows=[[5.0, 0.0], [5.0, 1.0], [5.0, 2.0]])
    clean_path = tmp_path / "clean.csv"
    clean.to_csv(clean_path)
    assert main(["verify-bound", str(clean_path)]) == 0
    assert "0 violations" in capsys.readouterr().out

    bad = RunLog(columns=["bound", "dfe"], rows=[[5.0, 0.0], [5.0, 9.0]])
    bad_path = tmp_path / "bad.csv"
    bad.to_csv(bad_path)
    assert main(["verify-bound", str(bad_path)]) == 1
    assert "1 violations" in capsys.readouterr().out

    empty = RunLog(columns=["bound", "dfe"], rows=[[np.inf, 0.0], [np.inf, 1.0]])
    empty_path = tmp_path / "unbounded.csv"
    empty.to_csv(empty_path)
    assert main(["verify-bound", str(empty_path)]) == 0
    assert "no bounded steps" in capsys.readouterr().out


def test_verify_bound_refuses_an_empty_file_with_exit_2(tmp_path, capsys):
    blank = tmp_path / "blank.csv"
    blank.write_text("")
    assert main(["verify-bound", str(blank)]) == 2
    assert "blank.csv" in capsys.readouterr().err


def test_verify_bound_refuses_a_directory_with_exit_2(tmp_path, capsys):
    assert main(["verify-bound", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_verify_bound_names_a_missing_column_with_exit_2(tmp_path, capsys):
    path = tmp_path / "nobound.csv"
    RunLog(columns=["dfe"], rows=[[0.0], [1.0]]).to_csv(path)
    assert main(["verify-bound", str(path)]) == 2
    assert "no 'bound' column" in capsys.readouterr().err


@pytest.mark.parametrize(
    "last_row, problem",
    [("5.0\n", "1 cells, the header has 2"), ("5.0,oops\n", "could not convert")],
    ids=["truncated-row", "non-numeric-cell"],
)
def test_verify_bound_names_the_file_and_line_of_a_bad_row_with_exit_2(
    tmp_path, capsys, last_row, problem
):
    path = tmp_path / "cut.csv"
    path.write_text("bound,dfe\n5.0,0.0\n5.0,1.0\n" + last_row)
    assert main(["verify-bound", str(path)]) == 2
    assert f"cut.csv line 4: {problem}" in capsys.readouterr().err


def test_compare_writes_comparison(tmp_path, capsys):
    extra = ["experiment.steps=3", "sampling.n_samples=8", "sampling.horizon=4"]
    assert main(["compare", *fast_args(tmp_path, "duo", extra)]) == 0
    table = (tmp_path / "duo" / "comparison.txt").read_text()
    assert "controller" in table
    for name in ("mppi", "tube", "rmppi"):
        assert name in table
        assert (tmp_path / f"duo-{name}" / "runlog.csv").exists()
    assert "rmppi" in capsys.readouterr().out


def test_every_public_name_resolves():
    namespace = {}
    exec("from robust_mppi import *", namespace)
    assert len(set(robust_mppi.__all__)) == len(robust_mppi.__all__)
    for name in robust_mppi.__all__:
        assert namespace[name] is getattr(robust_mppi, name)
