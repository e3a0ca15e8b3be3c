"""Experiment configuration: schema, validation, and default materialization.

Configs are plain JSON objects. Input files may omit fields; validation
materializes every default so the echoed config lists each numeric choice
explicitly and reproduces the run exactly. Validation reports every broken
field path at once rather than stopping at the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from .errors import ConfigError

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "validate_raw",
    "materialize",
    "load_config",
    "config_from_dict",
]

EXPERIMENTS = ("kapitza", "fhn", "hh", "chua", "lorenz", "observer", "probe")

# kind -> predicate; bool is deliberately not a number
_KINDS = {
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
}

# field -> (kind, default); "numbers" is a flat list, "points" a list of lists
_PARAM_TABLES: dict[str, dict[str, tuple[str, Any]]] = {
    "kapitza": {
        "alpha": ("number", 1.0),
        "beta": ("number", 1.0),
        "gamma": ("number", 1.0),
        "omega": ("number", 1000.0),
        "amplitude_grid": ("numbers", [0.1 * math.pi * k for k in range(1, 10)]),
        "y0_offset": ("number", 0.3),
        "band": ("number", 0.05),
        "settle_deadline": ("number", 20.0),
        "horizon": ("number", 40.0),
    },
    "fhn": {
        "alpha": ("number", 1.0),
        "beta": ("number", 1.0),
        "gamma": ("number", 1.0),
        "eps": ("number", 0.1),
        "eps_fraction": ("number", 0.5),
        "width": ("number", 1e-4),
        "phase_points": ("int", 256),
        "cross_budget": ("number", 0.0075),
        "fine_step": ("number", 5e-4),
        "sync_step": ("number", 1e-3),
        "phase_offsets": ("numbers", [-0.05, 0.05]),
        "sync_periods": ("int", 30),
    },
    "hh": {
        "g": ("number", 1.0),
        "E": ("number", 0.0),
        "gbar_f": ("number", 2.0),
        "E_f": ("number", 2.0),
        "kappa_f": ("number", 5.0),
        "V_f": ("number", 0.0),
        "gbar_s": ("number", 2.0),
        "E_s": ("number", -2.0),
        "kappa_s": ("number", 5.0),
        "V_s": ("number", 0.0),
        "eps": ("number", 0.01),
        "T_hat": ("number", 5.0),
        "tau": ("number", 0.001),
        "levels": ("numbers", [1.35, 0.3, -1.45, -0.5]),
        "theta": ("number", 0.55),
        "theta_prime": ("number", 0.65),
        "M_y": ("number", 0.33),
        "base_step": ("number", 5e-4),
        "ramp_step_divisor": ("number", 80.0),
        "sync_ics": ("points", [[1.0, 0.0], [0.5, -0.5]]),
        "sync_periods": ("int", 5),
        "delta_sweep": ("numbers", [0.0, 0.02, 0.05, 0.1]),
        "run_delta_sweep": ("bool", True),
    },
    "chua": {
        "M": ("number", 200.0),
        "omega": ("number", 1.0),
        "rho_grid": ("numbers", [-0.049, -0.05, -0.051, -0.052]),
        "periods": ("int", 8),
        "steps_per_period": ("int", 2000),
        "monodromy_base_step": ("number", 1e-3),
        "perturbation": ("number", 1e-6),
        "from_rest": ("bool", False),
        "from_rest_horizon": ("number", 400.0),
    },
    "lorenz": {
        "sigma": ("number", 10.0),
        "rho": ("number", 28.0),
        "beta": ("number", 8.0 / 3.0),
        "sampling_rho": ("number", 8.0 / 3.0),
        "samples": ("int", 1000),
        "horizon": ("number", 5.0),
        "x0": ("numbers", [1.0, 1.0, 1.0]),
    },
    "observer": {
        "theta_star": ("numbers", [0.5, 1.5]),
        "theta0": ("numbers", [0.3, 1.8]),
        "magnitude": ("number", -3.0),
        "duration": ("number", 0.002),
        "period": ("number", 2.8),
        "horizon": ("number", 200.0),
        "tolerance_fraction": ("number", 0.02),
        "eps_coupling": ("number", 0.01),
        "settle_periods": ("int", 40),
        "embedding_periods": ("int", 10),
        "run_corners": ("bool", False),
    },
    "probe": {
        "target": ("string", "leaky"),
        "tau": ("number", 1.0),
        "offset": ("number", 0.5),
        "t0": ("number", 0.0),
        "t1": ("number", 20.0),
    },
}

_TOP_KEYS = ("experiment", "params", "integration", "seed", "out_prefix")

# Step sizes and step divisors: zero or a negative value would build no grid
# (or a grid of one step per edge interval) instead of failing. The other
# fields are spans, counts, widths and amplitudes (of a list, every entry)
# that a constructor downstream rejects unless positive.
_POSITIVE = frozenset({"fine_step", "sync_step", "base_step",
                       "ramp_step_divisor", "monodromy_base_step",
                       "amplitude_grid", "omega", "horizon", "width", "phase_points",
                       "sync_periods", "T_hat", "tau", "M", "periods",
                       "steps_per_period", "samples", "duration", "period",
                       "embedding_periods", "sigma", "beta", "from_rest_horizon"})

# Lists that a pipeline unpacks or indexes: field -> entries per level (a
# "points" field has two levels), None for at least one.
_SHAPES = {"theta_star": (2,), "theta0": (2,), "phase_offsets": (2,), "x0": (3,),
           "levels": (4,), "sync_ics": (2, 2), "amplitude_grid": (None,)}

# Relations between fields that the pipelines rely on: experiment -> rules
# (fields, predicate, message), each checked on finite numbers or lists of
# them. The hh rule is hh_certificate's range, slack included: the default
# levels sit on both of its ends.
_RANGES = {
    "hh": [(("levels", "E_s", "E_f", "theta", "theta_prime"),
            lambda lv, es, ef, th, thp: all(es + th - 1e-12 <= v <= ef - thp + 1e-12 for v in lv),
            "params.levels: must lie in [E_s + theta, E_f - theta_prime]")],
    "fhn": [(("eps_fraction",), lambda e: 0 < e < 1,
             "params.eps_fraction: must lie in (0, 1)")],
    "observer": [(("duration", "period"), lambda d, p: d <= p,
                  "params.duration: must not exceed params.period"),
                 (("settle_periods",), lambda k: k >= 0,
                  "params.settle_periods: must not be negative")],
    "probe": [(("t0", "t1"), lambda a, b: a < b, "params.t1: must exceed params.t0")],
}


def _non_finite(v: int | float) -> bool:
    """NaN, an infinity or an integer beyond the float range, all of which
    Python's json accepts as number literals."""
    try:
        return not math.isfinite(v)
    except OverflowError:
        return True


def _check_leaf(path: str, kind: str, value: Any, errors: list[str],
                positive: bool = False) -> None:
    if kind in _KINDS:
        if not _KINDS[kind](value):
            errors.append(f"{path}: expected {kind}, got {type(value).__name__}")
        elif kind == "number" and _non_finite(value):
            errors.append(f"{path}: must be finite")
        elif positive and value <= 0:
            errors.append(f"{path}: must be positive")
    elif kind == "numbers":
        if not isinstance(value, list):
            errors.append(f"{path}: expected a list of numbers")
            return
        for i, v in enumerate(value):
            _check_leaf(f"{path}[{i}]", "number", v, errors, positive)
    elif kind == "points":
        if not isinstance(value, list):
            errors.append(f"{path}: expected a list of number lists")
            return
        for i, row in enumerate(value):
            if not isinstance(row, list):
                errors.append(f"{path}[{i}]: expected a list of numbers")
                continue
            for j, v in enumerate(row):
                _check_leaf(f"{path}[{i}][{j}]", "number", v, errors)
    else:  # pragma: no cover - table typo guard
        raise AssertionError(f"unknown schema kind {kind}")


def _check_shape(path: str, shape: tuple, value: list, errors: list[str]) -> None:
    want = shape[0]
    if want is None and not value:
        errors.append(f"{path}: must not be empty")
    elif want is not None and len(value) != want:
        errors.append(f"{path}: expected {want} entries, got {len(value)}")
    for i, row in enumerate(value):
        if len(shape) > 1 and isinstance(row, list):
            _check_shape(f"{path}[{i}]", shape[1:], row, errors)


def validate_raw(raw: Any) -> list[str]:
    """All schema violations in the raw config object, one message per path."""
    if not isinstance(raw, dict):
        return ["config: expected a JSON object"]
    errors: list[str] = []
    for key in raw:
        if key not in _TOP_KEYS:
            errors.append(f"{key}: unknown field")

    exp = raw.get("experiment")
    if exp is None:
        errors.append("experiment: required field")
        return errors
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        errors.append(f"experiment: expected one of {', '.join(EXPERIMENTS)}")
        return errors

    table = _PARAM_TABLES[exp]
    params = raw.get("params", {})
    if not isinstance(params, dict):
        errors.append("params: expected an object")
    else:
        for key, value in params.items():
            if key not in table:
                errors.append(f"params.{key}: unknown field for experiment '{exp}'")
                continue
            _check_leaf(f"params.{key}", table[key][0], value, errors, key in _POSITIVE)
            if key in _SHAPES and isinstance(value, list):
                _check_shape(f"params.{key}", _SHAPES[key], value, errors)
        for fields, holds, message in _RANGES.get(exp, ()):
            vals = [params.get(f, table[f][1]) for f in fields]
            flat = [x for v in vals for x in (v if isinstance(v, list) else (v,))]
            if all(_KINDS["number"](x) and not _non_finite(x) for x in flat) and not holds(*vals):
                errors.append(message)

    integ = raw.get("integration", {})
    if not isinstance(integ, dict):
        errors.append("integration: expected an object")
    else:
        for key in integ:
            if key != "step":
                errors.append(f"integration.{key}: unknown field")
        step = integ.get("step")
        if step is not None:
            if not _KINDS["number"](step):
                errors.append("integration.step: expected number or null")
            elif _non_finite(step):
                errors.append("integration.step: must be finite")
            elif step <= 0:
                errors.append("integration.step: must be positive")

    if "seed" in raw:
        _check_leaf("seed", "int", raw["seed"], errors)
        if _KINDS["int"](raw["seed"]) and raw["seed"] < 0:
            errors.append("seed: must be non-negative")
    if "out_prefix" in raw:
        prefix = raw["out_prefix"]
        _check_leaf("out_prefix", "string", prefix, errors)
        if isinstance(prefix, str) and (not prefix or any(c in prefix for c in "/\\\0")):
            errors.append("out_prefix: must be a non-empty file name without /, \\ or NUL")
    if exp == "probe" and isinstance(params, dict):
        target = params.get("target", "leaky")
        if isinstance(target, str) and target not in ("leaky", "fhn", "hh"):
            errors.append("params.target: expected one of leaky, fhn, hh")
    return errors


def materialize(raw: dict) -> dict:
    """Full config dict with every default filled in (validation must pass)."""
    exp = raw["experiment"]
    table = _PARAM_TABLES[exp]
    given = raw.get("params", {})
    params = {k: given.get(k, default) for k, (_, default) in table.items()}
    integ = raw.get("integration", {})
    return {
        "experiment": exp,
        "params": params,
        "integration": {"step": integ.get("step")},
        "seed": raw.get("seed", 0),
        "out_prefix": raw.get("out_prefix", exp),
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated, fully materialized experiment description."""

    experiment: str
    params: dict
    step: float | None
    seed: int
    out_prefix: str

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "integration": {"step": self.step},
            "seed": self.seed,
            "out_prefix": self.out_prefix,
        }


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate and materialize; raises ConfigError listing every bad path."""
    errors = validate_raw(raw)
    if errors:
        raise ConfigError("; ".join(errors))
    full = materialize(raw)
    return ExperimentConfig(
        experiment=full["experiment"],
        params=full["params"],
        step=full["integration"]["step"],
        seed=full["seed"],
        out_prefix=full["out_prefix"],
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return config_from_dict(raw)
