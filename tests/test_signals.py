import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condux.design import hh_square_reference
from condux.integrate import build_grid
from condux.lure import (
    CHUA_DEN,
    CHUA_NUM,
    chua_closed_form,
    chua_nonlinearity,
    lure_input_reconstruct,
)
from condux.signals import (
    SQRT_DELTA_MASS,
    CallableSignal,
    Constant,
    ImpulseTrain,
    PiecewiseLinear,
    SquarePulseTrain,
    Sum,
)
from conftest import Sinusoid


def _quad(sig, lo, hi, n=200001):
    ts = np.linspace(lo, hi, n)
    return np.trapezoid(sig.values(ts), ts)


class TestImpulseTrain:
    def test_sqrt_delta_time_mass(self):
        # integral of the bump scales as sqrt(width), coefficient sqrt(2) pi^(1/4)
        for a in (1e-4, 4e-4):
            train = ImpulseTrain(t0=1.0, period=10.0, magnitude=0.3, width=a)
            mass = _quad(train, 1.0 - 8 * a, 1.0 + 8 * a)
            assert mass == pytest.approx(0.3 * SQRT_DELTA_MASS * math.sqrt(a), rel=1e-6)

    def test_sqrt_delta_unit_l2(self):
        # L2 mass of the bump is width-independent
        for a in (1e-4, 9e-4):
            train = ImpulseTrain(t0=0.0, period=10.0, magnitude=1.0, width=a)
            ts = np.linspace(-8 * a, 8 * a, 200001)
            l2 = np.trapezoid(train.values(ts) ** 2, ts)
            assert l2 == pytest.approx(1.0, rel=1e-6)

    def test_derivative_matches_finite_difference(self):
        train = ImpulseTrain(t0=0.0, period=1.0, magnitude=0.5, width=1e-3)
        h = 1e-8
        for t in (2e-4, -3e-4, 1e-3):
            fd = (train.value(t + h) - train.value(t - h)) / (2 * h)
            assert train.derivative(t) == pytest.approx(fd, rel=1e-5)

    def test_refine_windows_cover_bumps(self):
        a = 1e-4
        train = ImpulseTrain(t0=2.0, period=3.0, magnitude=1.0, width=a)
        wins = train.refine_windows(0.0, 7.0)
        assert len(wins) == 2
        for (lo, hi, cap), c in zip(wins, (2.0, 5.0)):
            assert lo <= c - 7 * a and hi >= c + 7 * a
            assert cap <= a / 10 + 1e-18

    def test_validation(self):
        with pytest.raises(ValueError):
            ImpulseTrain(t0=0.0, period=-1.0, magnitude=1.0)
        with pytest.raises(ValueError):
            ImpulseTrain(t0=0.0, period=1.0, magnitude=1.0, width=0.0)


class TestSquarePulseTrain:
    def test_values_and_period(self):
        sig = SquarePulseTrain(magnitude=-3.0, duration=0.002, period=2.8)
        assert sig.period == 2.8
        assert sig.value(0.001) == -3.0
        assert sig.value(0.01) == 0.0
        assert sig.value(2.8005) == -3.0

    def test_breakpoints_on_edges(self):
        sig = SquarePulseTrain(magnitude=1.0, duration=0.5, period=2.0)
        bps = sig.breakpoints(0.0, 4.0)
        for b in (0.0, 0.5, 2.0, 2.5):
            assert any(abs(b - x) < 1e-12 for x in bps)


class TestPiecewiseLinear:
    def setup_method(self):
        self.sig = PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (3.0, -1.0), (4.0, 0.0)))

    def test_interpolation(self):
        assert self.sig.value(0.5) == pytest.approx(1.0)
        assert self.sig.value(2.0) == pytest.approx(0.5)

    def test_periodic_wrap(self):
        assert self.sig.value(4.5) == pytest.approx(self.sig.value(0.5))
        assert self.sig.period == pytest.approx(4.0)

    def test_derivative_is_segment_slope(self):
        assert self.sig.derivative(0.5) == pytest.approx(2.0)
        assert self.sig.derivative(2.0) == pytest.approx(-1.5)


def test_sinusoid_and_sum():
    s = Sum((Sinusoid(amplitude=2.0, omega=3.0), Constant(1.0)))
    t = 0.37
    assert s.value(t) == pytest.approx(2.0 * math.sin(3.0 * t) + 1.0)
    assert s.max_angular_frequency() == 3.0
    assert Constant(0.0).value(t) == 0.0


def test_callable_signal_passthrough():
    sig = CallableSignal(fn=lambda t: t * t)
    assert sig.value(1.5) == 2.25
    with pytest.raises(NotImplementedError):
        sig.derivative(1.5)
    assert CallableSignal(fn=sig.fn, derivative_fn=lambda t: 2.0 * t).derivative(1.5) == 3.0


def test_callable_signal_breaks_are_grid_breakpoints():
    sig = CallableSignal(fn=np.abs, breaks=(2.0, -1.0, 0.5))
    assert sig.breakpoints(0.0, 2.0) == [0.5, 2.0]
    assert sig.refine_windows(0.0, 2.0) == []
    assert 0.5 in build_grid(0.0, 1.0, 0.3, sig).tolist()


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def _with_neighbours(ts: list[float]) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    return np.concatenate([ts, np.nextafter(ts, -np.inf), np.nextafter(ts, np.inf)])


# one instance of every signal class
SIGNALS = [
    Constant(1.5),
    Sinusoid(amplitude=2.0, omega=3.0, phase=0.3, offset=-1.0),
    ImpulseTrain(t0=0.5, period=1.3, magnitude=-0.2, width=1e-2),
    ImpulseTrain(t0=0.2, period=2.1, magnitude=1.0, width=3e-3),
    SquarePulseTrain(magnitude=-3.0, duration=0.2, period=0.7),
    PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (3.0, -1.0), (4.0, 0.0))),
    # uneven knots off the origin, so the wrap does not fall on t = 0
    PiecewiseLinear(((0.5, 1.0), (0.75, -1.0), (2.0, 1.0))),
    hh_square_reference(2.5, 5e-4),
    Sum((Sinusoid(amplitude=1.0, omega=2.0),
         SquarePulseTrain(magnitude=1.0, duration=0.3, period=1.0))),
    # every component has a derivative rule, so the sum's is checked too
    pytest.param(Sum((Sinusoid(amplitude=1.0, omega=2.0),
                      ImpulseTrain(t0=0.4, period=1.1, magnitude=0.5, width=2e-2))),
                 id="SumWithDerivative"),
    CallableSignal(fn=lambda t: t * np.sin(3.0 * t)),
    # an explicit id keeps the one above as [CallableSignal]
    pytest.param(CallableSignal(fn=lambda t: t * np.sin(3.0 * t),
                                derivative_fn=lambda t: np.sin(3.0 * t) + 3.0 * t * np.cos(3.0 * t)),
                 id="CallableSignalWithDerivative"),
    # the Lure input is a CallableSignal too; its id keeps the class-name ids apart
    pytest.param(lure_input_reconstruct(CHUA_NUM, CHUA_DEN, chua_closed_form(200, 1),
                                        chua_nonlinearity)[0],
                 id="LureInput"),
]


@pytest.mark.parametrize("sig", SIGNALS, ids=lambda s: type(s).__name__)
@given(ts=st.lists(st.floats(-1.0, 30.0), max_size=40))
@settings(max_examples=40, deadline=None)
def test_values_match_value_bit_for_bit(sig, ts):
    # tabulating a grid must give the bits of the scalar call at every time,
    # jumps, knots and their one-ulp neighbours included
    ts = _with_neighbours(ts + sig.breakpoints(-1.0, 30.0))
    tab = sig.values(ts)
    assert tab.shape == ts.shape
    assert np.array_equal(_bits(tab), _bits([sig.value(float(t)) for t in ts]))
    try:
        sig.derivative(0.0)
    except NotImplementedError:
        return
    tab = sig.derivative(ts)
    assert np.array_equal(_bits(tab), _bits([sig.derivative(float(t)) for t in ts]))


@given(
    T_hat=st.floats(0.5, 10.0),
    tau=st.floats(1e-5, 1e-2),
    levels=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_knot_times_take_the_right_segment(T_hat, tau, levels):
    # at every breakpoint the slope is the right-hand segment's and one ulp
    # earlier still the left-hand segment's; the signal is continuous, so the
    # value there is the knot value up to the rounding of the knot time
    sig = hh_square_reference(T_hat, tau, tuple(levels))
    knots = sig.knots
    slopes = [(vb - va) / (tb - ta) for (ta, va), (tb, vb) in zip(knots, knots[1:])]
    bps = np.array(sig.breakpoints(0.0, 40.0 * sig.period))
    seg = np.arange(bps.size) % len(slopes)
    assert bps.size == 160 + 1
    assert np.array_equal(sig.derivative(bps), [slopes[k] for k in seg])
    left = np.nextafter(bps[1:], -np.inf)
    assert np.array_equal(sig.derivative(left), [slopes[k - 1] for k in seg[1:]])
    err = np.abs(sig.values(bps) - [knots[k][1] for k in seg])
    assert np.all(err <= max(map(abs, slopes)) * np.spacing(bps) + 8 * np.spacing(2.0))
