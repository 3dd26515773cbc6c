"""Experiment configuration: INI files, dotted overrides, strict validation.

A configuration is a table of strings keyed by ``(section, key)``, merged
from built-in defaults, an optional INI file, and command-line overrides of
the form ``section.key=value``.  Unknown sections or keys are rejected by
name so typos fail loudly instead of silently running defaults.  The merged
table is kept on the parsed object so runs can echo the exact configuration
they executed with.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable

from .dynamics import _SYSTEM_FACTORIES


def _parse_float(s: str) -> float:
    value = float(s)
    if math.isnan(value):
        raise ValueError("NaN is not allowed")
    return value


def _parse_vec(s: str) -> tuple[float, ...]:
    parts = [p for p in s.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("expected at least one number")
    return tuple(_parse_float(p) for p in parts)


def _parse_vec_or_none(s: str) -> tuple[float, ...] | None:
    if s.strip().lower() in ("", "none"):
        return None
    return _parse_vec(s)


# A rule is (requirement, test); a vector value must pass it in every entry.
_Rule = tuple[str, Callable]


def _at_least(n: int) -> _Rule:
    return f"be >= {n}", lambda v: v >= n


def _one_of(*options: str) -> _Rule:
    return f"be one of {options}", lambda v: v in options


_FINITE: _Rule = ("be finite", math.isfinite)
_POSITIVE: _Rule = ("be positive", lambda v: v > 0.0)
_NONNEGATIVE: _Rule = ("be >= 0", lambda v: v >= 0.0)
_FINITE_POSITIVE: _Rule = ("be finite and positive", lambda v: math.isfinite(v) and v > 0.0)
_FINITE_NONNEGATIVE: _Rule = ("be finite and >= 0", lambda v: math.isfinite(v) and v >= 0.0)
# checked against the registry at load, so a system registered later counts
_REGISTERED_SYSTEM: _Rule = ("be a registered system", lambda v: v in _SYSTEM_FACTORIES)


def _key(section: str, parser: Callable, default: str, rule: _Rule | None = None, key: str = ""):
    """The field of config key ``section.key``, where ``key`` defaults to the field's name."""
    return field(metadata={"section": section, "key": key, "entry": (parser, default, rule)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of one experiment plus the raw string table it came from.

    Each field but ``raw`` is the one declaration of a config key, in its
    ``_key(...)``; field order is the key order of ``render_config``.
    """

    name: str = _key("experiment", str.strip, "run")
    system: str = _key("experiment", str.strip, "double_integrator", _REGISTERED_SYSTEM)
    controller: str = _key("experiment", str.strip, "rmppi", _one_of("mppi", "tube", "rmppi"))
    steps: int = _key("experiment", int, "100", _at_least(1))
    seed: int = _key("experiment", int, "0", _at_least(0))
    output: str = _key("experiment", str.strip, "out")
    dt: float = _key("dynamics", _parse_float, "0.02", _FINITE_POSITIVE)
    control_limit: float = _key("dynamics", _parse_float, "10.0", _POSITIVE)
    damping: float = _key("dynamics", _parse_float, "0.5", _FINITE)
    noise_multiplier: float = _key("disturbance", _parse_float, "1.0", _FINITE_NONNEGATIVE)
    w_bound: float = _key("disturbance", _parse_float, "0.0", _FINITE_NONNEGATIVE)
    lam: float = _key("cost", _parse_float, "25.0", _FINITE_POSITIVE, key="lambda")
    beta: float = _key("cost", _parse_float, "0.5", ("lie in [0, 1)", lambda v: 0.0 <= v < 1.0))
    # the controllers sample with covariance diag(v*v) and price with its inverse
    sigma: tuple[float, ...] = _key("cost", _parse_vec, "0.6", (
        "be finite and positive in every entry, with a finite, positive square and inverse square",
        lambda v: v > 0.0 and 0.0 < v * v < math.inf and 1.0 / (v * v) < math.inf,
    ))
    q_weights: tuple[float, ...] = _key("cost", _parse_vec, "1.0, 0.5", _FINITE_NONNEGATIVE)
    target: tuple[float, ...] = _key("cost", _parse_vec, "0.0, 0.0", _FINITE)
    wall_offsets: tuple[float, ...] | None = _key("cost", _parse_vec_or_none, "none", _NONNEGATIVE)
    wall_slope: float = _key("cost", _parse_float, "0.0", _FINITE_NONNEGATIVE)
    wall_cap: float = _key("cost", _parse_float, "inf", _POSITIVE)
    terminal_scale: float = _key("cost", _parse_float, "1.0", _FINITE_NONNEGATIVE)
    crash_cost: float = _key("cost", _parse_float, "1e4", _FINITE_NONNEGATIVE)
    n_samples: int = _key("sampling", int, "512", _at_least(2))
    horizon: int = _key("sampling", int, "50", _at_least(1))
    feedback_kind: str = _key(
        "feedback", str.strip, "none", _one_of("none", "ilqg", "contraction"), key="kind"
    )
    q_track: tuple[float, ...] = _key("feedback", _parse_vec, "2.0, 6.0", _FINITE_NONNEGATIVE)
    r_track: tuple[float, ...] = _key("feedback", _parse_vec, "1.0", _FINITE_POSITIVE)
    metric: tuple[float, ...] = _key("feedback", _parse_vec, "6.0, 3.0, 3.0, 2.0", _FINITE)
    lambda_c: float = _key("feedback", _parse_float, "1.0", _FINITE_POSITIVE)
    alpha: float = _key("rmppi", _parse_float, "3000.0", _FINITE)
    n_candidates: int = _key("rmppi", int, "8", _at_least(2))
    nsp_samples: int = _key("rmppi", int, "64", _at_least(1))
    emv_repeats: int = _key("rmppi", int, "8", _at_least(2))
    x0: tuple[float, ...] = _key("harness", _parse_vec, "0.0, 0.0", _FINITE)
    crash_box: tuple[float, ...] = _key("harness", _parse_vec, "10.0, 20.0", _POSITIVE)
    raw: tuple[tuple[str, str, str], ...] = field(repr=False)

    def with_values(self, **raw_updates: str) -> "ExperimentConfig":
        """Copy with dotted keys replaced: ``cfg.with_values(**{"cost.beta": "0"})``."""
        table = {(s, k): v for s, k, v in self.raw}
        for dotted, value in raw_updates.items():
            section, key = _split_dotted(dotted)
            table[(section, key)] = str(value)
        return _from_table(table)


def _declared_keys() -> tuple[dict[str, dict[str, tuple]], dict[str, str]]:
    """``_SCHEMA`` and ``_FIELD_NAMES``, read off the fields of ``ExperimentConfig``."""
    schema, field_names = {}, {}
    for f in fields(ExperimentConfig)[:-1]:  # every field but raw
        section, key = f.metadata["section"], f.metadata["key"] or f.name
        schema.setdefault(section, {})[key] = f.metadata["entry"]
        if key != f.name:
            field_names[f"{section}.{key}"] = f.name
    return schema, field_names


# (parser, default, rule or None) for every key, and the dotted keys whose
# field has another name; a value that breaks its rule fails at load
_SCHEMA, _FIELD_NAMES = _declared_keys()


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


def _from_table(table: dict[tuple[str, str], str]) -> ExperimentConfig:
    values = {}
    for section, keys in _SCHEMA.items():
        for key, (parser, _, rule) in keys.items():
            dotted, text = f"{section}.{key}", table[(section, key)]
            try:
                value = parser(text)
            except ValueError as exc:
                raise ValueError(f"bad value for {dotted}: {text!r} ({exc})")
            if rule is not None and value is not None:
                requirement, ok = rule
                vector = isinstance(value, tuple)
                if not all(ok(v) for v in (value if vector else (value,))):
                    every = " in every entry" if vector else ""
                    raise ValueError(f"{dotted} must {requirement}{every}, got {value!r}")
            values[_FIELD_NAMES.get(dotted, key)] = value
    if values["n_samples"] < 2 * values["emv_repeats"]:
        raise ValueError(
            "sampling.n_samples must be at least 2 * rmppi.emv_repeats, got "
            f"{values['n_samples']} < 2 * {values['emv_repeats']}"
        )
    # the analytic tracking rate of the contraction law; the growth bound
    # divides by 1 - rate and needs a positive one
    rate = math.exp(-values["lambda_c"] * values["dt"])
    if values["feedback_kind"] == "contraction" and not 0.0 < rate < 1.0:
        raise ValueError(
            "exp(-feedback.lambda_c * dynamics.dt) must lie in (0, 1) with "
            f"feedback.kind=contraction, got {rate} at {values['lambda_c']} * {values['dt']}"
        )
    raw = tuple((s, k, table[(s, k)]) for s in _SCHEMA for k in _SCHEMA[s])
    return ExperimentConfig(**values, raw=raw)


def load_config(path: str | None = None, overrides: Iterable[str] = ()) -> ExperimentConfig:
    """Merge defaults, an optional INI file, and dotted overrides.

    Overrides look like ``sampling.n_samples=256`` and win over the file.
    Unknown sections, keys, malformed overrides, a file that is not valid
    INI or one with keys in a ``[DEFAULT]`` section raise ValueError; a path
    that cannot be read raises FileNotFoundError naming it.
    """
    table = {(s, k): d for s, keys in _SCHEMA.items() for k, (_, d, _) in keys.items()}
    if path is not None:
        # no interpolation, so a value holding '%' reads back as written
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ValueError(f"cannot parse config file {path}: {exc}") from None
        if not read:
            raise FileNotFoundError(f"config file not found: {path}")
        # configparser merges [DEFAULT] keys into every section, or drops
        # them when no other section is present; refuse them instead
        if parser.defaults():
            keys = ", ".join(parser.defaults())
            raise ValueError(
                f"config file {path} has keys in a [DEFAULT] section ({keys}); "
                "put each key under its own section"
            )
        for section in parser.sections():
            _check_known(section)
            for key, value in parser[section].items():
                _check_known(section, key)
                table[(section, key)] = value
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} must look like section.key=value")
        dotted, value = item.split("=", 1)
        section, key = _split_dotted(dotted.strip())
        table[(section, key)] = value.strip()
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
