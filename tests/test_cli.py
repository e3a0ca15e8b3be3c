"""Exit codes, error listings, artifact determinism, and verify filtering."""

import concurrent.futures
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import condux.cli
import condux.experiments
from condux.acceptance import CRITERIA, run_criteria
from condux.cli import main

from test_config import BAD_TOP_LEVEL, BAD_TOP_LEVEL_IDS, OUT_OF_RANGE, WRONG_LENGTH


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_empty_config_exits_2_with_field_message(tmp_path, capsys):
    cfg = _write(tmp_path / "empty.json", {})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: experiment: required field" in err


def test_every_offending_path_is_listed(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.json", {
        "experiment": "chua",
        "params": {"M": "big", "junk": 1},
        "integration": {"step": 0},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    for path in ("params.M", "params.junk", "integration.step"):
        assert path in err


def test_non_finite_config_numbers_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path / "nan.json", {
        "experiment": "kapitza",
        "params": {"horizon": 1.0, "amplitude_grid": [float("nan")]},
        "integration": {"step": float("inf")},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: params.amplitude_grid[0]: must be finite" in err
    assert "config error: integration.step: must be finite" in err
    assert not (tmp_path / "out").exists()


def test_non_positive_steps_exit_2(tmp_path, capsys):
    # this config used to exit 0 with a certificate computed on a grid of
    # one step per edge interval
    cfg = _write(tmp_path / "neg.json", {
        "experiment": "hh",
        "params": {"base_step": -1.0, "T_hat": 2.5, "tau": 5e-4, "ramp_step_divisor": 0.0,
                   "sync_periods": 1, "run_delta_sweep": False},
    })
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: params.base_step: must be positive" in err
    assert "config error: params.ramp_step_divisor: must be positive" in err
    assert not (tmp_path / "out").exists()


def _assert_exits_2(tmp_path, capsys, exp, params, expected):
    cfg = _write(tmp_path / "bad.json", {"experiment": exp, "params": params})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"config error: {m}" for m in expected]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("exp,params,expected", OUT_OF_RANGE,
                         ids=[f"{e}-{next(iter(p))}" for e, p, _ in OUT_OF_RANGE])
def test_out_of_range_values_exit_2(tmp_path, capsys, exp, params, expected):
    _assert_exits_2(tmp_path, capsys, exp, params, expected)


@pytest.mark.parametrize("exp,params,expected", WRONG_LENGTH,
                         ids=[f"{e}-{next(iter(p))}" for e, p, _ in WRONG_LENGTH])
def test_wrong_lengths_exit_2(tmp_path, capsys, exp, params, expected):
    _assert_exits_2(tmp_path, capsys, exp, params, expected)


@pytest.mark.parametrize("raw,expected", BAD_TOP_LEVEL, ids=BAD_TOP_LEVEL_IDS)
def test_bad_seed_or_prefix_exits_2(tmp_path, capsys, raw, expected):
    cfg = _write(tmp_path / "bad.json", raw)
    out = tmp_path / "run" / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"config error: {m}" for m in expected]
    assert not (tmp_path / "run").exists()


def test_duplicate_out_prefix_exits_2(tmp_path, capsys):
    # two probes share the default prefix 'probe': the second report used to
    # overwrite the first
    a = _write(tmp_path / "a.json", {"experiment": "probe", "params": {"target": "leaky"}})
    b = _write(tmp_path / "b.json", {"experiment": "probe", "params": {"target": "fhn"}})
    assert main(["run", a, b, "--out", str(tmp_path / "out"), "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["config error: out_prefix: 'probe' is used by more than one config"]
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_out_on_an_existing_file_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "probe.json", {"experiment": "probe"})
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["run", cfg, "--out", str(taken)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --out: ")


def test_lapack_failure_exits_3(tmp_path, capsys, monkeypatch):
    def singular(cfg, out):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(condux.cli, "run_experiment", singular)
    cfg = _write(tmp_path / "probe.json", {"experiment": "probe"})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure: LinAlgError" in capsys.readouterr().err


def test_run_artifacts_are_deterministic(tmp_path, capsys):
    cfg = _write(tmp_path / "probe.json",
                 {"experiment": "probe", "params": {"t1": 10.0}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and names1
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_reports_written_paths(tmp_path, capsys):
    cfg = _write(tmp_path / "probe.json", {"experiment": "probe"})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "probe_report.json" in out
    report = json.loads((tmp_path / "out" / "probe_report.json").read_text())
    assert report["stable"] is True
    assert report["rate"] == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("x0", [[1.0, 1.0, 1.0], [0.5, -2.0, 20.0], [3.0, 3.0, 3.0]])
def test_lorenz_reports_no_stable_period(tmp_path, capsys, x0):
    # Newton shooting from a chaotic start leaves the orbit or does not
    # converge; either is reported, not raised
    cfg = _write(tmp_path / "lorenz.json", {"experiment": "lorenz", "params": {"x0": x0}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "lorenz_report.json").read_text())
    assert report["cycle_outcome"]["error"] == "PeriodUnstable"


@pytest.mark.parametrize("jobs", ["0", "-2"])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_jobs_below_one_exits_2(tmp_path, capsys, command, jobs):
    # both used to run sequentially and exit 0
    args = [_write(tmp_path / "probe.json", {"experiment": "probe"}),
            "--out", str(tmp_path / "out")] if command == "run" else ["--filter=properties"]
    assert main([command, *args, "--jobs", jobs]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: --jobs: must be at least 1, got {jobs}"]
    assert not (tmp_path / "out").exists()


def test_jobs_cap_the_pool_at_the_task_count(tmp_path, capsys, monkeypatch):
    # on Linux a process pool forks all of its max_workers at once, so --jobs
    # above the number of configs or criteria used to fork idle workers; the
    # stand-in pool records its size and starts no process
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            return SimpleNamespace(result=lambda: {})

        def map(self, fn, tasks):
            return [[] for _ in tasks]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cfgs = [_write(tmp_path / f"{k}.json", {"experiment": "probe", "out_prefix": k})
            for k in ("a", "b")]
    assert main(["run", *cfgs, "--out", str(tmp_path / "out"), "--jobs", "1000"]) == 0
    assert run_criteria(None, jobs=1000) == []
    assert sizes == [2, len(CRITERIA)]


def test_verify_filter_without_match_exits_2(capsys):
    assert main(["verify", "--filter=bogus"]) == 2
    assert "matches no criterion" in capsys.readouterr().err


def test_verify_properties_section_passes(tmp_path, capsys):
    out = tmp_path / "rows.json"
    assert main(["verify", "--filter=properties", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "criterion" in text and "verdict" in text
    assert "FAIL" not in text
    rows = json.loads(out.read_text())
    assert rows and all(r["passed"] for r in rows)
    assert list(rows[0]) == ["criterion", "check", "expected", "observed", "tolerance",
                             "passed", "note"]
    assert {r["criterion"] for r in rows} == {"properties"}


@pytest.mark.parametrize("name", ["missing/rows.json", "."], ids=["missing-dir", "a-dir"])
def test_verify_unwritable_out_exits_2_before_any_check(tmp_path, capsys, monkeypatch, name):
    def never(*args, **kwargs):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(condux.cli, "run_criteria", never)
    out = str(tmp_path / name)
    assert main(["verify", "--filter=properties", "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: --out: {out} is not a file in an existing directory"]


def test_verify_exits_1_when_a_check_fails(kapitza_run, monkeypatch, capsys):
    # the kapitza criterion carries a known-red deadline check; verify's run
    # gets the shared kapitza_run fixture's pipeline result instead of
    # running the pipeline again
    monkeypatch.setattr(condux.experiments, "kapitza_pipeline", lambda cfg: kapitza_run[0])
    assert main(["verify", "--filter=kapitza"]) == 1
    text = capsys.readouterr().out
    assert "FAIL" in text and "note:" in text
