"""The artifacts run_experiment writes: file names, CSV headers and row caps,
strict JSON reports, the pipeline looked up when called, and the fixed-step
override reaching orbit closing."""

import json
import math

import numpy as np
import pytest

import condux.experiments
from condux.acceptance import criterion_kapitza
from condux.config import EXPERIMENTS, config_from_dict
from condux.errors import PeriodUnstable
from condux.experiments import (
    _json_ready,
    hh_pipeline,
    lorenz_pipeline,
    observer_pipeline,
    run_experiment,
)
from condux.models import neuron_family

# Short params per study, and the header of each CSV the study writes.
LAYOUT = {
    "kapitza": ({"omega": 300.0, "horizon": 10.0},
                {"trace": "t,y,delta_y,y_slow,u"}),
    "fhn": ({"fine_step": 4e-3, "sync_step": 4e-3, "sync_periods": 1},
            {"realized": "t,y,y_free_reference,u",
             "sync": "t,y_phase_a,y_phase_b,abs_diff"}),
    "hh": ({"T_hat": 2.5, "tau": 5e-4, "ramp_step_divisor": 1.0, "sync_periods": 2,
            "run_delta_sweep": False},
           {"sync": "t,y_reference,y_ic_a,y_ic_b,u",
            "reference": "t,y_reference,z_bar,u"}),
    "chua": ({"periods": 2},
             {"trace": "t,y_reference,y,u"}),
    "lorenz": ({"samples": 50, "horizon": 1.0},
               {"trace": "t,x1,x2,z,in_region"}),
    "observer": ({"settle_periods": 20, "embedding_periods": 1, "horizon": 2.8,
                  "run_corners": True},
                 {"nominal": "t,y,y_hat,z,z_hat,theta_hat_1,theta_hat_2,theta_error"}),
    "probe": ({}, {}),
}


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("experiment", sorted(LAYOUT))
def test_artifact_layout(tmp_path, experiment):
    params, headers = LAYOUT[experiment]
    cfg = config_from_dict({"experiment": experiment, "params": params,
                            "out_prefix": "run"})
    report = run_experiment(cfg, tmp_path)
    names = {f"run_{k}.csv" for k in headers} | {"run_report.json", "run_config.json"}
    assert {f.name for f in tmp_path.iterdir()} == names
    for suffix, header in headers.items():
        lines = (tmp_path / f"run_{suffix}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == header
        assert 2 < len(lines) <= 20001
    assert _strict_json((tmp_path / "run_report.json").read_text()) == report
    if experiment == "kapitza":
        # every k-th step from the first, k the least stride leaving 20,000 rows
        n = report["steps"]
        rows = (tmp_path / "run_trace.csv").read_text(encoding="utf-8").count("\n") - 1
        assert n > 20000
        assert rows == math.ceil(n / math.ceil(n / 20000))
    if experiment == "observer":
        # one estimation run from each corner of the parameter box
        (a0, a1), (b0, b1) = neuron_family().theta_box
        corners = report["corners"]
        assert [c["theta0"] for c in corners] == [[a0, b0], [a0, b1], [a1, b0], [a1, b1]]
        assert all(math.isfinite(c["final_error"]) for c in corners)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_run_experiment_writes_what_the_pipeline_returns(tmp_path, monkeypatch, experiment):
    # run_experiment finds the study's pipeline among the module's globals
    # when it is called, so a stub put in its place is what runs
    calls = []

    def stub(cfg):
        calls.append(cfg)
        return {"report": {"value": 1.5, "ratio": np.float64(0.25)},
                "traces": {"only": {"t": np.array([0.0, 0.5]), "x": np.array([1.0, -2.0])}},
                "kept": object()}

    monkeypatch.setattr(condux.experiments, f"{experiment}_pipeline", stub)
    cfg = config_from_dict({"experiment": experiment, "out_prefix": "run"})
    report = run_experiment(cfg, tmp_path)
    assert len(calls) == 1 and calls[0] is cfg
    assert report == {"value": 1.5, "ratio": 0.25}
    assert {f.name for f in tmp_path.iterdir()} == {"run_only.csv", "run_report.json",
                                                    "run_config.json"}
    assert (tmp_path / "run_only.csv").read_text(encoding="utf-8") == "t,x\n0,1\n0.5,-2\n"
    assert _strict_json((tmp_path / "run_report.json").read_text()) == report
    assert _strict_json((tmp_path / "run_config.json").read_text()) == cfg.to_dict()


def test_report_is_strict_json_without_band_entry(tmp_path):
    cfg = config_from_dict({"experiment": "kapitza", "params": {"horizon": 2.0}})
    run_experiment(cfg, tmp_path)
    report = _strict_json((tmp_path / "kapitza_report.json").read_text())
    # the slow state has not entered the band by the end of the run, and the
    # run is too short to fit the slow decay rate
    assert report["band_entry_time"] is None
    assert report["measured_slow_decay"] is None
    band = [r for r in criterion_kapitza(cfg.params, report)
            if r.check == "band_entry_by_deadline"]
    assert len(band) == 1 and not band[0].passed
    assert band[0].observed == "none"
    assert "slow decay rate none" in band[0].note


def test_kapitza_criterion_reads_complex_eigenvalues(tmp_path):
    # light damping makes the averaged eigenvalues a complex pair, which the
    # report writes as [re, im]
    cfg = config_from_dict({"experiment": "kapitza", "params": {"horizon": 2.0, "gamma": 0.1}})
    report = run_experiment(cfg, tmp_path)
    assert [len(e) for e in report["averaged_eigenvalues"]] == [2, 2]
    band = [r for r in criterion_kapitza(cfg.params, report)
            if r.check == "band_entry_by_deadline"]
    assert "matches the averaged eigenvalue -0.05," in band[0].note


def test_non_finite_floats_become_null():
    raw = {"a": float("inf"), "b": [np.float64("-inf"), np.nan], "c": np.array([1.5, np.inf]),
           "d": 2.0}
    assert _json_ready(raw) == {"a": None, "b": [None, None], "c": [1.5, None], "d": 2.0}


def test_step_reaches_orbit_closing(monkeypatch):
    steps = []

    def spy(*args, step=None, **kwargs):
        steps.append(step)
        raise PeriodUnstable("spy")

    monkeypatch.setattr(condux.experiments, "refine_periodic_orbit", spy)
    cfg = config_from_dict({"experiment": "hh", "integration": {"step": 2e-3}, "params": {
        "T_hat": 2.5, "tau": 5e-4, "ramp_step_divisor": 1.0, "sync_periods": 1}})
    assert hh_pipeline(cfg)["report"]["free_orbit"]["error"] == "PeriodUnstable"
    cfg = config_from_dict({"experiment": "lorenz", "integration": {"step": 3e-3},
                            "params": {"samples": 10, "horizon": 0.5}})
    assert lorenz_pipeline(cfg)["report"]["cycle_outcome"]["error"] == "PeriodUnstable"
    assert steps == [2e-3, 3e-3]


class _Guess(Exception):
    """Stops the observer pipeline at its orbit closing."""


@pytest.mark.parametrize("k", [0, 2])
def test_observer_settle_run_ends_at_the_orbit_start(monkeypatch, k):
    # the plant settles for exactly k periods and the orbit is closed from
    # the last settled state at k P; with no settle periods the Newton guess
    # is the initial state itself
    runs, guesses = [], []
    integrate = condux.experiments.integrate

    def record(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    def capture(model, signal, x_guess, t0, period, step):
        guesses.append((x_guess, t0))
        raise _Guess

    monkeypatch.setattr(condux.experiments, "integrate", record)
    monkeypatch.setattr(condux.experiments, "refine_periodic_orbit", capture)
    cfg = config_from_dict({"experiment": "observer", "integration": {"step": 1e-3},
                            "params": {"settle_periods": k}})
    with pytest.raises(_Guess):
        observer_pipeline(cfg)
    P = cfg.params["period"]
    (x_guess, t0), = guesses
    assert t0 == k * P
    if k == 0:
        assert runs == []
        assert x_guess.tolist() == [-0.7, 0.0]
    else:
        settle, = runs
        assert settle.t0 == 0.0 and settle.t1 == k * P
        assert np.array_equal(x_guess, settle.states[-1])
