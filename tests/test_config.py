"""Config schema: validation messages, default materialization, round-trips."""

import json
import math

import pytest

from condux.config import (
    EXPERIMENTS,
    config_from_dict,
    load_config,
    materialize,
    validate_raw,
)
from condux.errors import ConfigError
from condux.experiments import run_experiment


def test_experiment_names():
    assert EXPERIMENTS == ("kapitza", "fhn", "hh", "chua", "lorenz",
                           "observer", "probe")


def test_defaults_materialized():
    cfg = config_from_dict({"experiment": "kapitza"})
    assert cfg.params["omega"] == 1000.0
    assert cfg.params["amplitude_grid"][7] == pytest.approx(0.8 * math.pi)
    assert cfg.step is None
    assert cfg.seed == 0
    assert cfg.out_prefix == "kapitza"


def test_given_values_survive_materialization():
    raw = {"experiment": "chua", "params": {"M": 150.0},
           "integration": {"step": 0.01}, "seed": 7, "out_prefix": "trial"}
    cfg = config_from_dict(raw)
    assert cfg.params["M"] == 150.0
    assert cfg.params["omega"] == 1.0  # untouched default
    assert cfg.step == 0.01
    assert cfg.seed == 7
    assert cfg.out_prefix == "trial"


def test_missing_experiment_is_the_only_error():
    assert validate_raw({}) == ["experiment: required field"]


def test_unknown_experiment():
    msgs = validate_raw({"experiment": "pendulum"})
    assert len(msgs) == 1
    assert msgs[0].startswith("experiment: expected one of")


def test_non_object_config():
    assert validate_raw([1, 2]) == ["config: expected a JSON object"]


def test_all_violations_reported_at_once():
    raw = {
        "experiment": "hh",
        "params": {"levels": [1.0, 0.5, "x", -0.5], "bogus": 3,
                   "sync_periods": 2.5},
        "integration": {"step": -1.0, "solver": "rk4"},
        "seed": "zero",
        "note": "hi",
    }
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    msgs = str(exc.value).split("; ")
    paths = {m.split(":")[0] for m in msgs}
    assert paths == {"params.levels[2]", "params.bogus", "params.sync_periods",
                     "integration.step", "integration.solver", "seed", "note"}


def test_non_finite_numbers_are_rejected_at_every_path():
    # Python's json reads NaN, Infinity and -Infinity as floats
    raw = json.loads('{"experiment": "hh", "params": {"eps": NaN, '
                     '"levels": [1.0, Infinity, 0.3, -0.5], '
                     '"sync_ics": [[1.0, -Infinity], [0.5, -0.5]]}, '
                     '"integration": {"step": NaN}}')
    msgs = validate_raw(raw)
    assert {m.split(":")[0] for m in msgs} == {
        "params.eps", "params.levels[1]", "params.sync_ics[0][1]", "integration.step"}
    assert all("must be finite" in m for m in msgs)
    # an infinite step would otherwise pass the positivity check, and an
    # integer literal beyond the float range overflows once it is used
    msgs = validate_raw({"experiment": "kapitza", "integration": {"step": math.inf}})
    assert msgs == ["integration.step: must be finite"]
    msgs = validate_raw(json.loads('{"experiment": "kapitza", "params": {"omega": 1'
                                   + "0" * 400 + "}}"))
    assert msgs == ["params.omega: must be finite"]


def test_non_positive_steps_are_rejected_at_every_path():
    # a zero or negative step or step divisor used to build a degenerate
    # grid instead of failing
    msgs = validate_raw({"experiment": "fhn", "params": {
        "fine_step": 0.0, "sync_step": 0}})
    assert msgs == [f"params.{k}: must be positive" for k in ("fine_step", "sync_step")]
    msgs = validate_raw({"experiment": "hh", "params": {
        "base_step": -1.0, "ramp_step_divisor": 0.0}})
    assert msgs == ["params.base_step: must be positive",
                    "params.ramp_step_divisor: must be positive"]
    msgs = validate_raw({"experiment": "chua", "params": {
        "monodromy_base_step": -1e-3, "steps_per_period": 0}})
    assert msgs == ["params.monodromy_base_step: must be positive",
                    "params.steps_per_period: must be positive"]
    # chua's kinks are grid breakpoints, so no step refines around them
    assert validate_raw({"experiment": "chua", "params": {"monodromy_kink_step": 5e-6}}) == [
        "params.monodromy_kink_step: unknown field for experiment 'chua'"]
    # a non-finite step is reported once, as non-finite
    assert validate_raw({"experiment": "hh", "params": {"base_step": -math.inf}}) == [
        "params.base_step: must be finite"]
    assert validate_raw({"experiment": "hh", "params": {"base_step": 1e-3}}) == []


# Values that a constructor downstream rejects, with the message validation
# gives instead. Each used to end `condux run` with a traceback (exit 1), or
# with a ZeroDivisionError, PeriodMismatch or ValueError reported as a
# numerical failure (exit 3).
OUT_OF_RANGE = [
    ("hh", {"T_hat": -1.0, "run_delta_sweep": False}, ["params.T_hat: must be positive"]),
    ("hh", {"tau": 0.0}, ["params.tau: must be positive"]),
    ("probe", {"tau": 0.0}, ["params.tau: must be positive"]),
    ("observer", {"duration": 0.0}, ["params.duration: must be positive"]),
    ("observer", {"period": -2.8}, ["params.period: must be positive",
                                    "params.duration: must not exceed params.period"]),
    ("observer", {"duration": 3.0}, ["params.duration: must not exceed params.period"]),
    ("fhn", {"eps_fraction": 1.5}, ["params.eps_fraction: must lie in (0, 1)"]),
    ("fhn", {"eps_fraction": 0.0}, ["params.eps_fraction: must lie in (0, 1)"]),
    ("fhn", {"width": 0.0}, ["params.width: must be positive"]),
    ("chua", {"M": -1.0}, ["params.M: must be positive"]),
    ("chua", {"steps_per_period": 0}, ["params.steps_per_period: must be positive"]),
    ("lorenz", {"samples": -3}, ["params.samples: must be positive"]),
    ("lorenz", {"sigma": -1.0, "beta": 0.0}, ["params.sigma: must be positive",
                                              "params.beta: must be positive"]),
    ("kapitza", {"amplitude_grid": [0.3, -1.0]}, ["params.amplitude_grid[1]: must be positive"]),
    ("kapitza", {"horizon": 0.0}, ["params.horizon: must be positive"]),
    ("probe", {"t1": -1.0}, ["params.t1: must exceed params.t0"]),
    ("chua", {"from_rest": True, "from_rest_horizon": -1.0},
     ["params.from_rest_horizon: must be positive"]),
    ("observer", {"settle_periods": -1}, ["params.settle_periods: must not be negative"]),
    # a reference level above E_f - theta_prime = 1.35 used to fail in the
    # certificate with RangeViolation (exit 3)
    ("hh", {"levels": [1.9, 0.3, -1.45, -0.5]},
     ["params.levels: must lie in [E_s + theta, E_f - theta_prime]"]),
]

# Lists of a length the pipeline cannot unpack or index, which used to end
# `condux run` with a traceback (exit 1) or, for an empty amplitude grid,
# with NoStabilizingAmplitude (exit 3).
WRONG_LENGTH = [
    ("observer", {"theta0": [0.3, 1.8, 0.1]}, ["params.theta0: expected 2 entries, got 3"]),
    ("observer", {"theta_star": [0.5]}, ["params.theta_star: expected 2 entries, got 1"]),
    ("hh", {"sync_ics": [[1.0, 0.0, 0.0], [0.5, -0.5, 0.0]]},
     ["params.sync_ics[0]: expected 2 entries, got 3",
      "params.sync_ics[1]: expected 2 entries, got 3"]),
    ("hh", {"sync_ics": [[1.0, 0.0]]}, ["params.sync_ics: expected 2 entries, got 1"]),
    ("hh", {"levels": [1.0, 0.3]}, ["params.levels: expected 4 entries, got 2"]),
    ("fhn", {"phase_offsets": [0.05]}, ["params.phase_offsets: expected 2 entries, got 1"]),
    ("lorenz", {"x0": [1.0, 1.0]}, ["params.x0: expected 3 entries, got 2"]),
    ("kapitza", {"amplitude_grid": []}, ["params.amplitude_grid: must not be empty"]),
]


@pytest.mark.parametrize("exp,params,expected", OUT_OF_RANGE,
                         ids=[f"{e}-{next(iter(p))}" for e, p, _ in OUT_OF_RANGE])
def test_out_of_range_values_are_rejected(exp, params, expected):
    assert validate_raw({"experiment": exp, "params": params}) == expected


@pytest.mark.parametrize("exp,params,expected", WRONG_LENGTH,
                         ids=[f"{e}-{next(iter(p))}" for e, p, _ in WRONG_LENGTH])
def test_wrong_lengths_are_rejected(exp, params, expected):
    assert validate_raw({"experiment": exp, "params": params}) == expected


# a negative seed used to reach np.random.default_rng and exit 1; a prefix
# with a separator used to crash on a missing directory or write outside the
# output directory, and one with a NUL character crashed when the first
# artifact was opened
PREFIX_MESSAGE = "out_prefix: must be a non-empty file name without /, \\ or NUL"
BAD_TOP_LEVEL = [
    ({"experiment": "lorenz", "seed": -1}, ["seed: must be non-negative"]),
    ({"experiment": "probe", "out_prefix": ""}, [PREFIX_MESSAGE]),
    ({"experiment": "probe", "out_prefix": "sub/dir/x"}, [PREFIX_MESSAGE]),
    ({"experiment": "probe", "out_prefix": "../x"}, [PREFIX_MESSAGE]),
    ({"experiment": "probe", "out_prefix": "..\\x"}, [PREFIX_MESSAGE]),
    ({"experiment": "probe", "out_prefix": "a\0b"}, [PREFIX_MESSAGE]),
]
BAD_TOP_LEVEL_IDS = ["negative-seed", "empty-prefix", "nested-prefix", "parent-prefix",
                     "backslash-prefix", "nul-prefix"]


@pytest.mark.parametrize("raw,expected", BAD_TOP_LEVEL, ids=BAD_TOP_LEVEL_IDS)
def test_bad_seed_or_prefix_is_rejected(raw, expected):
    assert validate_raw(raw) == expected


def test_zero_seed_and_plain_prefix_are_accepted():
    assert validate_raw({"experiment": "lorenz", "seed": 0, "out_prefix": "a.b-c"}) == []


def test_range_rules_hold_at_the_defaults():
    for exp in ("fhn", "hh", "observer", "probe"):
        assert validate_raw({"experiment": exp}) == []
    # the default hh levels sit exactly on both ends of their interval
    assert validate_raw({"experiment": "hh",
                         "params": {"levels": [1.35, 0.3, -1.45, -0.5]}}) == []
    assert validate_raw({"experiment": "observer",
                         "params": {"duration": 2.8, "period": 2.8}}) == []
    # a field that is not a number is reported once, by its type
    assert validate_raw({"experiment": "fhn", "params": {"eps_fraction": "half"}}) == [
        "params.eps_fraction: expected number, got str"]


@pytest.mark.parametrize("exp", ["fhn", "hh"])
def test_sync_tol_is_unknown(exp):
    # no pipeline read it, so setting it changed nothing
    assert validate_raw({"experiment": exp, "params": {"sync_tol": 1e-3}}) == [
        f"params.sync_tol: unknown field for experiment '{exp}'"]


def test_bool_is_not_a_number():
    msgs = validate_raw({"experiment": "kapitza", "params": {"alpha": True}})
    assert msgs == ["params.alpha: expected number, got bool"]


def test_points_field_checks_rows():
    msgs = validate_raw({"experiment": "hh",
                         "params": {"sync_ics": [[1.0, 0.0], 5]}})
    assert msgs == ["params.sync_ics[1]: expected a list of numbers"]


def test_probe_target_enum():
    msgs = validate_raw({"experiment": "probe", "params": {"target": "chua"}})
    assert msgs == ["params.target: expected one of leaky, fhn, hh"]
    assert validate_raw({"experiment": "probe", "params": {"target": "hh"}}) == []


def test_materialize_idempotent():
    full = materialize({"experiment": "lorenz"})
    assert materialize(full) == full


def test_round_trip_through_to_dict():
    cfg = config_from_dict({"experiment": "fhn", "params": {"eps": 0.05},
                            "seed": 3})
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"experiment": "probe"}), encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.experiment == "probe"
    assert cfg.params["target"] == "leaky"


def test_echoed_config_matches_to_dict(tmp_path):
    cfg = config_from_dict({"experiment": "probe", "params": {"t1": 10.0}})
    run_experiment(cfg, str(tmp_path))
    echoed = json.loads((tmp_path / "probe_config.json").read_text())
    assert echoed == cfg.to_dict()
    # echoed config validates and reproduces the same materialized object
    assert config_from_dict(echoed) == cfg
