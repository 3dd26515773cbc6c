"""Experiment configuration: INI files, dotted overrides, strict validation.

A configuration is a two-level table of strings (section, key, value) merged
from built-in defaults, an optional INI file, and command-line overrides of
the form ``section.key=value``.  Unknown sections or keys are rejected by
name so typos fail loudly instead of silently running defaults.  The merged
table is kept on the parsed object so runs can echo the exact configuration
they executed with.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Iterable

from .sampling import SAVGOL_ORDER


def _parse_int(s: str) -> int:
    return int(s)


def _parse_float(s: str) -> float:
    value = float(s)
    if math.isnan(value):
        raise ValueError("NaN is not allowed")
    return value


def _parse_str(s: str) -> str:
    return s.strip()


def _parse_vec(s: str) -> tuple[float, ...]:
    parts = [p for p in s.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("expected at least one number")
    return tuple(_parse_float(p) for p in parts)


def _parse_vec_or_none(s: str) -> tuple[float, ...] | None:
    if s.strip().lower() in ("", "none"):
        return None
    return _parse_vec(s)


# (parser, default) for every recognized key.  This table is the single
# source of truth for what a configuration may contain.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "experiment": {
        "name": (_parse_str, "run"),
        "system": (_parse_str, "double_integrator"),
        "controller": (_parse_str, "rmppi"),
        "steps": (_parse_int, "100"),
        "seed": (_parse_int, "0"),
        "output": (_parse_str, "out"),
    },
    "dynamics": {
        "dt": (_parse_float, "0.02"),
        "control_limit": (_parse_float, "10.0"),
        "damping": (_parse_float, "0.5"),
    },
    "disturbance": {
        "noise_multiplier": (_parse_float, "1.0"),
        "w_bound": (_parse_float, "0.0"),
    },
    "cost": {
        "lambda": (_parse_float, "25.0"),
        "beta": (_parse_float, "0.5"),
        "sigma": (_parse_vec, "0.6"),
        "q_weights": (_parse_vec, "1.0, 0.5"),
        "target": (_parse_vec, "0.0, 0.0"),
        "wall_offsets": (_parse_vec_or_none, "none"),
        "wall_slope": (_parse_float, "0.0"),
        "wall_cap": (_parse_float, "inf"),
        "terminal_scale": (_parse_float, "1.0"),
        "crash_cost": (_parse_float, "1e4"),
    },
    "sampling": {
        "n_samples": (_parse_int, "512"),
        "horizon": (_parse_int, "50"),
        "smoothing_window": (_parse_int, "0"),
    },
    "feedback": {
        "kind": (_parse_str, "none"),
        "q_track": (_parse_vec, "2.0, 6.0"),
        "r_track": (_parse_vec, "1.0"),
        "metric": (_parse_vec, "6.0, 3.0, 3.0, 2.0"),
        "lambda_c": (_parse_float, "1.0"),
        "effort_weight": (_parse_float, "1.0"),
        "gamma_window": (_parse_int, "20"),
        "gamma_clip": (_parse_float, "1e-3"),
    },
    "rmppi": {
        "alpha": (_parse_float, "3000.0"),
        "n_candidates": (_parse_int, "8"),
        "nsp_samples": (_parse_int, "64"),
        "emv_repeats": (_parse_int, "8"),
    },
    "harness": {
        "x0": (_parse_vec, "0.0, 0.0"),
        "crash_box": (_parse_vec, "10.0, 20.0"),
    },
}

_CONTROLLERS = ("mppi", "tube", "rmppi")
_FEEDBACK_KINDS = ("none", "ilqg", "contraction")


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of one experiment plus the raw string table it came from."""

    name: str
    system: str
    controller: str
    steps: int
    seed: int
    output: str
    dt: float
    control_limit: float
    damping: float
    noise_multiplier: float
    w_bound: float
    lam: float
    beta: float
    sigma: tuple[float, ...]
    q_weights: tuple[float, ...]
    target: tuple[float, ...]
    wall_offsets: tuple[float, ...] | None
    wall_slope: float
    wall_cap: float
    terminal_scale: float
    crash_cost: float
    n_samples: int
    horizon: int
    smoothing_window: int
    feedback_kind: str
    q_track: tuple[float, ...]
    r_track: tuple[float, ...]
    metric: tuple[float, ...]
    lambda_c: float
    effort_weight: float
    gamma_window: int
    gamma_clip: float
    alpha: float
    n_candidates: int
    nsp_samples: int
    emv_repeats: int
    x0: tuple[float, ...]
    crash_box: tuple[float, ...]
    raw: tuple[tuple[str, str, str], ...] = field(repr=False)

    def with_values(self, **raw_updates: str) -> "ExperimentConfig":
        """Copy with dotted keys replaced: ``cfg.with_values(**{"cost.beta": "0"})``."""
        table = {(s, k): v for s, k, v in self.raw}
        for dotted, value in raw_updates.items():
            section, key = _split_dotted(dotted)
            table[(section, key)] = str(value)
        return _from_table(_table_to_nested(table))


def _split_dotted(dotted: str) -> tuple[str, str]:
    if "." not in dotted:
        raise ValueError(
            f"override {dotted!r} must use section.key form, e.g. sampling.n_samples"
        )
    section, key = dotted.split(".", 1)
    _check_known(section, key)
    return section, key


def _check_known(section: str, key: str | None = None) -> None:
    if section not in _SCHEMA:
        known = ", ".join(sorted(_SCHEMA))
        raise ValueError(f"unknown config section {section!r} (known: {known})")
    if key is not None and key not in _SCHEMA[section]:
        known = ", ".join(sorted(_SCHEMA[section]))
        raise ValueError(f"unknown config key {section + '.' + key!r} (known: {known})")


def _table_to_nested(table: dict[tuple[str, str], str]) -> dict[str, dict[str, str]]:
    nested: dict[str, dict[str, str]] = {s: {} for s in _SCHEMA}
    for (s, k), v in table.items():
        nested[s][k] = v
    return nested


def _default_table() -> dict[str, dict[str, str]]:
    return {s: {k: d for k, (_, d) in keys.items()} for s, keys in _SCHEMA.items()}


def _from_table(table: dict[str, dict[str, str]]) -> ExperimentConfig:
    typed: dict[str, dict] = {}
    for section, keys in _SCHEMA.items():
        typed[section] = {}
        for key, (parser, _) in keys.items():
            value = table[section][key]
            try:
                typed[section][key] = parser(value)
            except ValueError as exc:
                raise ValueError(f"bad value for {section}.{key}: {value!r} ({exc})")

    exp, dyn, dist = typed["experiment"], typed["dynamics"], typed["disturbance"]
    cost, samp, fb = typed["cost"], typed["sampling"], typed["feedback"]
    rmp, har = typed["rmppi"], typed["harness"]

    if exp["controller"] not in _CONTROLLERS:
        raise ValueError(
            f"experiment.controller must be one of {_CONTROLLERS}, got {exp['controller']!r}"
        )
    if fb["kind"] not in _FEEDBACK_KINDS:
        raise ValueError(
            f"feedback.kind must be one of {_FEEDBACK_KINDS}, got {fb['kind']!r}"
        )
    if exp["steps"] < 1:
        raise ValueError("experiment.steps must be positive")
    if samp["n_samples"] < 2 or samp["horizon"] < 1:
        raise ValueError("sampling.n_samples must be >= 2 and sampling.horizon >= 1")
    if not dyn["control_limit"] > 0.0:
        raise ValueError(
            f"dynamics.control_limit must be positive, got {dyn['control_limit']}"
        )
    window = samp["smoothing_window"]
    if window != 0 and window <= SAVGOL_ORDER:
        raise ValueError(
            f"sampling.smoothing_window must be 0 (filter off) or above {SAVGOL_ORDER}, "
            f"the Savitzky-Golay order (values above it filter), got {window}"
        )
    if window > 0 and samp["horizon"] <= SAVGOL_ORDER:
        raise ValueError(
            f"sampling.smoothing_window={window} filters nothing when sampling.horizon "
            f"is {SAVGOL_ORDER} or less (the filter needs more points than its order), "
            f"got sampling.horizon={samp['horizon']}; set sampling.smoothing_window=0"
        )
    if not dist["noise_multiplier"] >= 0.0:
        raise ValueError(
            f"disturbance.noise_multiplier must be >= 0, got {dist['noise_multiplier']}"
        )
    if not dist["w_bound"] >= 0.0:
        raise ValueError(f"disturbance.w_bound must be >= 0, got {dist['w_bound']}")
    if not math.isfinite(cost["crash_cost"]):
        raise ValueError(f"cost.crash_cost must be finite, got {cost['crash_cost']}")
    if fb["gamma_window"] < 2:
        raise ValueError(
            f"feedback.gamma_window must be >= 2 to fit a tracking rate, got {fb['gamma_window']}"
        )
    if not (math.isfinite(fb["effort_weight"]) and fb["effort_weight"] > 0.0):
        raise ValueError(
            f"feedback.effort_weight must be finite and positive, got {fb['effort_weight']}"
        )
    if not 0.0 < fb["gamma_clip"] < 0.5:
        raise ValueError(f"feedback.gamma_clip must lie in (0, 0.5), got {fb['gamma_clip']}")
    if not (math.isfinite(fb["lambda_c"]) and fb["lambda_c"] > 0.0):
        raise ValueError(f"feedback.lambda_c must be finite and positive, got {fb['lambda_c']}")
    for key in ("n_candidates", "emv_repeats"):
        if rmp[key] < 2:
            raise ValueError(f"rmppi.{key} must be >= 2, got {rmp[key]}")
    if rmp["nsp_samples"] < 1:
        raise ValueError(f"rmppi.nsp_samples must be >= 1, got {rmp['nsp_samples']}")
    if samp["n_samples"] < 2 * rmp["emv_repeats"]:
        raise ValueError(
            "sampling.n_samples must be at least 2 * rmppi.emv_repeats, got "
            f"{samp['n_samples']} < 2 * {rmp['emv_repeats']}"
        )

    raw = tuple(
        (s, k, table[s][k]) for s in _SCHEMA for k in _SCHEMA[s]
    )
    return ExperimentConfig(
        name=exp["name"],
        system=exp["system"],
        controller=exp["controller"],
        steps=exp["steps"],
        seed=exp["seed"],
        output=exp["output"],
        dt=dyn["dt"],
        control_limit=dyn["control_limit"],
        damping=dyn["damping"],
        noise_multiplier=dist["noise_multiplier"],
        w_bound=dist["w_bound"],
        lam=cost["lambda"],
        beta=cost["beta"],
        sigma=cost["sigma"],
        q_weights=cost["q_weights"],
        target=cost["target"],
        wall_offsets=cost["wall_offsets"],
        wall_slope=cost["wall_slope"],
        wall_cap=cost["wall_cap"],
        terminal_scale=cost["terminal_scale"],
        crash_cost=cost["crash_cost"],
        n_samples=samp["n_samples"],
        horizon=samp["horizon"],
        smoothing_window=samp["smoothing_window"],
        feedback_kind=fb["kind"],
        q_track=fb["q_track"],
        r_track=fb["r_track"],
        metric=fb["metric"],
        lambda_c=fb["lambda_c"],
        effort_weight=fb["effort_weight"],
        gamma_window=fb["gamma_window"],
        gamma_clip=fb["gamma_clip"],
        alpha=rmp["alpha"],
        n_candidates=rmp["n_candidates"],
        nsp_samples=rmp["nsp_samples"],
        emv_repeats=rmp["emv_repeats"],
        x0=har["x0"],
        crash_box=har["crash_box"],
        raw=raw,
    )


def load_config(path: str | None = None, overrides: Iterable[str] = ()) -> ExperimentConfig:
    """Merge defaults, an optional INI file, and dotted overrides.

    Overrides look like ``sampling.n_samples=256`` and win over the file.
    Unknown sections, keys, or malformed overrides raise ValueError; a path
    that cannot be read raises FileNotFoundError naming it.
    """
    table = _default_table()
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(f"config file not found: {path}")
        for section in parser.sections():
            _check_known(section)
            for key, value in parser[section].items():
                _check_known(section, key)
                table[section][key] = value
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} must look like section.key=value")
        dotted, value = item.split("=", 1)
        section, key = _split_dotted(dotted.strip())
        table[section][key] = value.strip()
    return _from_table(table)


def render_config(cfg: ExperimentConfig) -> str:
    """Serialize the effective configuration back to INI text."""
    lines = []
    current = None
    for section, key, value in cfg.raw:
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {value}")
    lines.append("")
    return "\n".join(lines)
