"""Acceptance table, one test per criterion.

Each test asserts the exact pass/fail pattern of its criterion rows. Four
checks are red by construction and stay red honestly; they are pinned in
EXPECTED_RED so a silent flip in either direction fails the suite and forces
the expectation to be re-examined.
"""

import condux.acceptance
from condux.acceptance import CRITERIA, VERIFY, criterion_chua
from condux.config import config_from_dict

EXPECTED_RED = {
    ("kapitza", "band_entry_by_deadline"),
    ("chua", "unstable_below_threshold"),
    ("chua", "entrained_fundamental"),
    ("observer", "parameter_convergence"),
}


def _table(rows):
    lines = []
    for r in rows:
        mark = "pass" if r.passed else "FAIL"
        lines.append(f"  {r.criterion}/{r.check}: expected {r.expected}, "
                     f"observed {r.observed} (tol {r.tolerance}) -> {mark}")
        if r.note:
            lines.append(f"    note: {r.note}")
    return "\n".join(lines)


def _assert_pattern(rows):
    assert rows, "criterion produced no rows"
    wrong = [r for r in rows
             if r.passed == ((r.criterion, r.check) in EXPECTED_RED)]
    assert not wrong, (
        "rows off the pinned pass/fail pattern:\n" + _table(wrong)
        + "\nfull table:\n" + _table(rows)
    )


def test_criteria_registry_is_complete():
    assert tuple(CRITERIA) == ("kapitza", "fhn", "hh", "chua", "observer",
                               "properties")


def _assert_verified(name, run):
    # the criterion's rows on the fixture's report, and the condition of the
    # runtime row run_criteria would add
    _, report, wall = run
    raw, budget = VERIFY[name]
    _assert_pattern(CRITERIA[name](config_from_dict(raw).params, report))
    assert wall <= budget


def test_kapitza_criterion(kapitza_run):
    _assert_verified("kapitza", kapitza_run)


def test_fhn_criterion(fhn_run):
    _assert_verified("fhn", fhn_run)


def test_hh_criterion(hh_run):
    _assert_verified("hh", hh_run)


def test_chua_criterion(chua_run):
    _assert_verified("chua", chua_run)


def test_observer_criterion(observer_run):
    _assert_verified("observer", observer_run)


def test_properties_criterion(properties_run):
    _assert_verified("properties", properties_run)


def test_negative_control_threshold_shift(chua_run, monkeypatch):
    # moving the stability threshold expectation to -0.10 must break the
    # stable-side probe: the loop is unstable at -0.099
    monkeypatch.setattr(condux.acceptance, "CHUA_THRESHOLD", -0.10)
    _, report, _ = chua_run
    rows = criterion_chua(config_from_dict(VERIFY["chua"][0]).params, report)
    probe = [r for r in rows if r.check == "stable_above_threshold"]
    assert len(probe) == 1
    assert not probe[0].passed, _table(probe)
