import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from condux.errors import NoCrossings, PeriodUnstable
from condux.integrate import (
    FixedStep,
    Trajectory,
    build_grid,
    default_step,
    find_limit_cycle,
    integrate,
)
from condux.models import (
    PlainModel,
    leaky_integrator,
    lorenz,
    planar_limit_cycle,
)
from condux.signals import Constant, ImpulseTrain, Sinusoid, SquarePulseTrain, Zero


def _rotation() -> PlainModel:
    return PlainModel(
        "rotation", 2,
        lambda t, s, u: np.array([s[1], -s[0]]),
        lambda t, s, u: np.array([[0.0, 1.0], [-1.0, 0.0]]),
    )


def test_fourth_order_convergence():
    exact = np.array([math.cos(1.0), -math.sin(1.0)])
    errs = []
    for h in (0.02, 0.01, 0.005):
        end = integrate(_rotation(), None, 0.0, 1.0, np.array([1.0, 0.0]),
                        FixedStep(h)).states[-1]
        errs.append(float(np.linalg.norm(end - exact)))
    for e1, e2 in zip(errs, errs[1:]):
        assert abs(math.log2(e1 / e2) - 4.0) < 0.2


def test_pulse_area_is_exact():
    # x' = u under a pulse train: the grid lands on every edge, and each step
    # must read u from its own side of an edge, so RK4 sums the exact area
    # (three pulses of height 2 and length 0.3 on [0, 2.5])
    area = PlainModel("area", 1, lambda t, s, u: np.array([u]),
                      lambda t, s, u: np.zeros((1, 1)))
    pulses = SquarePulseTrain(magnitude=2.0, duration=0.3, period=1.0)
    end = integrate(area, pulses, 0.0, 2.5, np.array([0.0]), FixedStep(0.1)).states[-1, 0]
    assert end == pytest.approx(1.8, abs=1e-12)


def test_default_step_rules():
    model = _rotation()
    assert default_step(model, Zero(), 0.0, 100.0) == pytest.approx(0.02)
    assert default_step(model, Zero(), 0.0, 1.0) == pytest.approx(1.0 / 500.0)
    h = default_step(model, Sinusoid(amplitude=1.0, omega=1000.0), 0.0, 100.0)
    assert h == pytest.approx(2.0 * math.pi / 1e5)
    from condux.models import fitzhugh_nagumo

    assert default_step(fitzhugh_nagumo(), Zero(), 0.0, 100.0) == pytest.approx(0.1 / 20.0)


def test_grid_hits_breakpoints_exactly():
    sig = ImpulseTrain(t0=1.0, period=2.0, magnitudes=(1.0,), width=1e-4)
    grid = build_grid(0.0, 5.0, 0.01, sig)
    assert grid[0] == 0.0 and grid[-1] == 5.0
    assert np.all(np.diff(grid) > 0)
    # impulse windows force steps at or below width/10 around each bump
    for c in (1.0, 3.0):
        mask = (grid > c - 5e-4) & (grid < c + 5e-4)
        assert mask.sum() > 10
        assert np.max(np.diff(grid[mask])) <= 1e-5 + 1e-15


def test_trajectory_interp_and_csv_roundtrip(tmp_path):
    traj = integrate(_rotation(), Constant(0.3), 0.0, 1.0, np.array([1.0, 0.0]),
                     FixedStep(0.01))
    mid = traj.interp_state(0.505)
    assert mid == pytest.approx(traj.states[50] * 0.5 + traj.states[51] * 0.5,
                                rel=1e-3)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    assert np.array_equal(back.ts, traj.ts)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.us, traj.us)


@given(
    cols=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(3, 5)),
        elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e-300]),
        ),
    )
)
@settings(max_examples=60, deadline=None)
def test_csv_roundtrip_is_exact(tmp_path_factory, cols):
    traj = Trajectory(cols[:, 0], cols[:, 1:-1], cols[:, -1],
                      tuple(f"x{i}" for i in range(cols.shape[1] - 2)))
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    assert back.state_names == traj.state_names
    # compare bit patterns, so -0.0 must come back as -0.0
    for a, b in ((back.ts, traj.ts), (back.states, traj.states), (back.us, traj.us)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_forced_linear_system_keeps_fourth_order():
    # x' = -x + sin t, x(0) = 0: any mis-sampling of the drive inside the
    # step (held-left input, wrong midpoint) would drop the order below 4
    lag = PlainModel(
        "forced-lag", 1,
        lambda t, s, u: np.array([u - s[0]]),
        lambda t, s, u: np.array([[-1.0]]),
    )
    drive = Sinusoid(amplitude=1.0, omega=1.0)

    def exact(t):
        return 0.5 * (math.sin(t) - math.cos(t) + math.exp(-t))

    errs = []
    for h in (0.02, 0.01):
        end = integrate(lag, drive, 0.0, 2.0, np.array([0.0]),
                        FixedStep(h)).states[-1, 0]
        errs.append(abs(end - exact(2.0)))
    assert abs(math.log2(errs[0] / errs[1]) - 4.0) < 0.2


class TestFindLimitCycle:
    def test_planar_period(self):
        cyc = find_limit_cycle(planar_limit_cycle(), None, np.array([1.3, 0.0]),
                               section=(1, 0.0, 1), transient=20.0,
                               policy=FixedStep(0.001))
        assert cyc.period == pytest.approx(2.0 * math.pi, rel=1e-6)
        assert np.hypot(*cyc.anchor) == pytest.approx(1.0, abs=1e-6)

    def test_no_crossings(self):
        with pytest.raises(NoCrossings):
            find_limit_cycle(leaky_integrator(1.0), Constant(0.5),
                             np.array([0.0]), section=(0, 2.0, 1),
                             transient=5.0, max_time=20.0)

    def test_chaotic_system_has_no_stable_period(self):
        with pytest.raises((PeriodUnstable, NoCrossings)):
            find_limit_cycle(lorenz(10.0, 28.0, 8.0 / 3.0), None,
                             np.array([1.0, 1.0, 1.0]), section=(0, 0.0, 1),
                             transient=10.0, max_time=60.0)
