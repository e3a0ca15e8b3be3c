import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from condux.errors import NoCrossings, NumericalBlowup, PeriodUnstable
from condux.experiments import _CSV_ROW_CAP, write_csv
from condux.integrate import (
    _FINITE_BLOCK,
    Trajectory,
    _block_source,
    _rk4_block,
    build_grid,
    default_step,
    integrate,
)
from condux.models import (
    ConductanceParams,
    FieldSource,
    PlainModel,
    fitzhugh_nagumo,
    hh_conductance,
    kapitza,
    leaky_integrator,
    lorenz,
)
from condux.signals import (
    CallableSignal,
    Constant,
    ImpulseTrain,
    PiecewiseLinear,
    SquarePulseTrain,
    Sum,
)
from condux.variational import _with_variations, flow, refine_periodic_orbit
from conftest import Sinusoid, planar_limit_cycle


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
                        h).states[-1]
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
    end = integrate(area, pulses, 0.0, 2.5, np.array([0.0]), 0.1).states[-1, 0]
    assert end == pytest.approx(1.8, abs=1e-12)


def test_default_step_rules():
    model = _rotation()
    assert default_step(model, Constant(0.0), 0.0, 100.0) == pytest.approx(0.02)
    assert default_step(model, Constant(0.0), 0.0, 1.0) == pytest.approx(1.0 / 500.0)
    h = default_step(model, Sinusoid(amplitude=1.0, omega=1000.0), 0.0, 100.0)
    assert h == pytest.approx(2.0 * math.pi / 1e5)
    from condux.models import fitzhugh_nagumo

    assert default_step(fitzhugh_nagumo(), Constant(0.0), 0.0, 100.0) == pytest.approx(0.1 / 20.0)


def test_grid_hits_breakpoints_exactly():
    sig = ImpulseTrain(t0=1.0, period=2.0, magnitude=1.0, width=1e-4)
    grid = build_grid(0.0, 5.0, 0.01, sig)
    assert grid[0] == 0.0 and grid[-1] == 5.0
    assert np.all(np.diff(grid) > 0)
    # impulse windows force steps at or below width/10 around each bump
    for c in (1.0, 3.0):
        mask = (grid > c - 5e-4) & (grid < c + 5e-4)
        assert mask.sum() > 10
        assert np.max(np.diff(grid[mask])) <= 1e-5 + 1e-15


def _scalar_grid(t0, t1, h, signal):
    """The reference for build_grid: the same edges, merging and caps, with
    every node appended one at a time by the scalar formula
    a + (b - a) * j / k."""
    windows = [(max(lo, t0), min(hi, t1), cap) for lo, hi, cap in signal.refine_windows(t0, t1)
               if hi > t0 and lo < t1 and cap > 0]
    edges = {t0, t1} | {b for b in signal.breakpoints(t0, t1) if t0 < b < t1}
    edges |= {e for lo, hi, _ in windows for e in (lo, hi) if t0 < e < t1}
    span = t1 - t0
    merged = [t0]
    for e in sorted(edges)[1:]:
        if e - merged[-1] > 1e-12 * span:
            merged.append(e)
    merged[-1] = t1
    nodes = [t0]
    for a, b in zip(merged, merged[1:]):
        cap = h
        for lo, hi, c in windows:
            if lo <= a + 1e-12 * span and b <= hi + 1e-12 * span:
                cap = min(cap, c)
        k = max(1, math.ceil((b - a) / cap - 1e-9))
        for j in range(1, k):
            nodes.append(a + (b - a) * j / k)
        nodes.append(b)
    return np.array(nodes)


def _chua_output(M=1.7, omega=2.0, extra=()):
    """chua's designed output with its kinks at |M sin(omega t)| = 1 as
    breakpoints, plus the extra ones."""
    a = math.asin(1.0 / M)
    kinks = [(b + 2.0 * math.pi * k) / omega
             for k in range(-1, 3) for b in (a, math.pi - a, -a, math.pi + a)]
    return CallableSignal(fn=lambda t: M * np.sin(omega * t), breaks=(*kinks, *extra))


@pytest.mark.parametrize("t0, t1, h, signal", [
    (0.0, 7.3, 0.01, Constant(0.0)),
    (-0.7, 5.0, 0.013, SquarePulseTrain(magnitude=1.0, duration=0.3, period=1.1)),
    (0.0, 5.0, 0.01, ImpulseTrain(t0=1.0, period=2.0, magnitude=1.0, width=1e-4)),
    (0.2, 9.0, 0.05, PiecewiseLinear(((0.5, 0.0), (0.503, 1.0), (2.0, 1.0), (2.01, -1.0),
                                      (3.5, 0.0)))),
    (0.0, 2.0 * math.pi, 0.02, _chua_output()),
    # edges 2.5e-13 and 5e-12 of the span apart: the first pair merges into
    # one edge, and the last interior edge merges into t1
    (0.0, 4.0, 0.01, Sum((SquarePulseTrain(magnitude=1.0, duration=0.5, period=1.0),
                          _chua_output(extra=(1.5 + 1e-12, 2.0 + 2e-11, 4.0 - 1e-12))))),
    # 4,000 intervals under 2,000 windows
    (0.0, 2000.0, 0.2, SquarePulseTrain(magnitude=1.0, duration=0.3, period=1.0)),
    # each window overlaps its neighbours and nests in the other train's
    (0.0, 3.0, 0.01, Sum((ImpulseTrain(t0=0.5, period=0.05, magnitude=1.0, width=0.01),
                          ImpulseTrain(t0=0.52, period=0.07, magnitude=1.0, width=0.004)))),
    (0.0, 12.0, 0.05, Sum((SquarePulseTrain(magnitude=1.0, duration=0.3, period=1.1),
                           PiecewiseLinear(((0.0, 0.0), (0.25, 1.0), (1.7, -1.0), (3.0, 0.0)))))),
    # window ends within 1e-12 of the span (4e-12) of an edge, each cap below
    # h: the pulse windows [n, n + 0.5] next to breaks that they merge into,
    # one break 5e-12 past 3.0 that does not merge, and an impulse window
    # ending 1e-12 before t1, which merges into t1
    (0.0, 4.0, 0.2, Sum((SquarePulseTrain(magnitude=1.0, duration=0.5, period=1.0),
                         ImpulseTrain(t0=3.0 - 1e-12, period=10.0, magnitude=1.0, width=0.125),
                         CallableSignal(fn=np.zeros_like, breaks=(
                             1.0 - 2e-12, 1.5 + 2e-12, 2.0 + 3e-12, 2.5 - 3e-12,
                             3.0 + 5e-12))))),
], ids=["Constant", "SquarePulseTrain", "ImpulseTrain", "PiecewiseLinear", "chua",
        "merged-edges", "long-SquarePulseTrain", "overlapping-ImpulseTrain",
        "SquarePulseTrain+PiecewiseLinear", "window-ends-near-edges"])
def test_build_grid_matches_the_scalar_node_formula_bitwise(t0, t1, h, signal):
    grid = build_grid(t0, t1, h, signal)
    ref = _scalar_grid(t0, t1, h, signal)
    assert grid.shape == ref.shape
    assert np.array_equal(grid.view(np.int64), ref.view(np.int64))


@st.composite
def _three_signals(draw):
    """A piecewise-linear ramp, a pulse train and an impulse train summed, with
    every feature at least a few milliseconds long so grids stay small."""
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5))
    times = np.cumsum([draw(st.floats(-1.0, 1.0))] + gaps)
    levels = draw(st.lists(st.floats(-2.0, 2.0), min_size=times.size,
                           max_size=times.size))
    ramp = PiecewiseLinear(tuple(zip(times.tolist(), levels)))
    period = draw(st.floats(0.2, 2.0))
    pulses = SquarePulseTrain(magnitude=1.0, period=period,
                              duration=period * draw(st.floats(0.05, 1.0)))
    kicks = ImpulseTrain(t0=draw(st.floats(-1.0, 2.0)), period=draw(st.floats(0.3, 2.0)),
                         magnitude=1.0, width=draw(st.floats(1e-4, 1e-2)))
    return Sum((ramp, pulses, kicks))


@given(sig=_three_signals(), t0=st.floats(-1.0, 1.0), span=st.floats(0.5, 4.0),
       h=st.floats(0.01, 0.5))
@settings(max_examples=60, deadline=None)
def test_grid_lands_on_every_edge_and_respects_window_caps(sig, t0, span, h):
    t1 = t0 + span
    grid = build_grid(t0, t1, h, sig)
    assert grid[0] == t0 and grid[-1] == t1
    assert np.all(np.diff(grid) > 0)
    windows = sig.refine_windows(t0, t1)
    edges = {b for b in sig.breakpoints(t0, t1) if t0 < b < t1}
    edges |= {e for lo, hi, _ in windows for e in (lo, hi) if t0 < e < t1}
    nodes = set(grid.tolist())
    merge = 1e-12 * (t1 - t0)
    for e in edges:
        # an edge is left out only when it merges with a distinct edge that
        # lies within 1e-12 of the span
        assert e in nodes or any(0 < abs(e - f) <= merge for f in edges | {t0, t1})
    steps = np.diff(grid)
    for lo, hi, cap in windows:
        inside = (grid[:-1] >= lo) & (grid[1:] <= hi)
        if inside.any():
            assert steps[inside].max() <= cap * (1.0 + 1e-9)


@dataclasses.dataclass(frozen=True)
class _CountedPulses(SquarePulseTrain):
    """A pulse train that records the number of times of every values call."""

    sizes: list = dataclasses.field(default_factory=list, compare=False)

    def values(self, ts: np.ndarray) -> np.ndarray:
        self.sizes.append(np.size(ts))
        return super().values(ts)


@pytest.mark.parametrize("run", [integrate, lambda *args: flow(*args)[0]],
                         ids=["integrate", "flow"])
def test_a_run_tabulates_its_input_once_per_stage_time(run):
    # the input is read at the left end, the midpoint and the right end of
    # every step, one values call each over the whole grid, and nowhere else:
    # a trajectory is its grid and its states
    signal = _CountedPulses(magnitude=1.5, duration=0.3, period=1.0)
    traj = run(leaky_integrator(0.5), signal, 0.0, 2.0, np.array([0.2]), 1e-2)
    assert signal.sizes == [traj.ts.size - 1] * 3
    assert [f.name for f in dataclasses.fields(Trajectory)] == ["ts", "states"]


def test_trajectory_interp_and_csv_roundtrip(tmp_path):
    signal = Constant(0.3)
    traj = integrate(_rotation(), signal, 0.0, 1.0, np.array([1.0, 0.0]), 0.01)
    mid = traj.interp_state(0.505)
    assert mid == pytest.approx(traj.states[50] * 0.5 + traj.states[51] * 0.5,
                                rel=1e-3)
    path = tmp_path / "traj.csv"
    cols = {"t": traj.ts, "x": traj.states[:, 0], "y": traj.states[:, 1],
            "u": signal.values(traj.ts)}
    write_csv(path, cols)
    names, back = _read_csv(path)
    assert names == ["t", "x", "y", "u"]
    assert np.array_equal(back, np.column_stack(list(cols.values())))


def test_csv_keeps_every_kth_row_of_strided_columns(tmp_path):
    # more rows than the cap, given as non-contiguous column views: the file
    # is every k-th row from the first, k = 3 here, each value formatted on
    # its own as %.17g
    n, k = 2 * _CSV_ROW_CAP + 4099, 3
    states = np.random.default_rng(3).uniform(-1e3, 1e3, (n, 3))
    states[:5 * k:k, 0] = [0.0, -0.0, 5e-324, -2.2e-308, 1e300]
    states[(n - 1) // k * k, 2] = -0.0
    cols = {"t": np.arange(n) * 0.1, "x": states[:, 0], "y": states[:, 1], "z": states[:, 2]}
    assert not cols["x"].flags.c_contiguous
    path = tmp_path / "long.csv"
    write_csv(path, cols)
    want = "t,x,y,z\n" + "".join(
        ",".join("%.17g" % float(c[i]) for c in cols.values()) + "\n" for i in range(0, n, k))
    got = path.read_text(encoding="utf-8")
    assert got == want
    assert got.count(",-0,") == 1 and got.endswith(",-0\n")
    assert got.count("\n") == 1 + -(-n // k) <= 1 + _CSV_ROW_CAP


def test_csv_tabulates_a_signal_column_on_the_kept_rows(tmp_path):
    # a column given as its signal is read at the kept times only, and the
    # file is the one its full-length column gives
    n = 2 * _CSV_ROW_CAP + 4099
    ts = np.linspace(-1.0, 7.0, n)
    pulses = _CountedPulses(magnitude=1.5, duration=0.3, period=1.0)
    ramp = PiecewiseLinear(((0.2, 0.0), (0.7, 1.3), (1.9, -0.4)))
    write_csv(tmp_path / "signals.csv", {"t": ts, "u": pulses, "y": ramp})
    write_csv(tmp_path / "arrays.csv", {"t": ts, "u": pulses.values(ts), "y": ramp.values(ts)})
    assert pulses.sizes == [-(-n // 3), n]
    got = (tmp_path / "signals.csv").read_text(encoding="utf-8")
    assert got == (tmp_path / "arrays.csv").read_text(encoding="utf-8")


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header names and the rows of a file written by write_csv."""
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().rstrip("\n").split(",")
        rows = [[float(c) for c in line.split(",")] for line in fh]
    return names, np.array(rows)


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
    names = [f"x{i}" for i in range(cols.shape[1])]
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    write_csv(path, dict(zip(names, cols.T)))
    back_names, back = _read_csv(path)
    assert back_names == names
    # compare bit patterns, so -0.0 must come back as -0.0
    assert np.array_equal(back.view(np.int64), cols.view(np.int64))


@given(ts=st.lists(st.floats(-0.5, 1.5), max_size=40))
@settings(max_examples=60, deadline=None)
def test_interp_state_array_matches_scalar(ts):
    traj = integrate(_rotation(), None, 0.0, 1.0, np.array([1.0, 0.0]), 0.05)
    nodes = traj.ts[::3]
    ts = np.concatenate([ts, nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf)])
    tab = traj.interp_state(ts)
    one = np.array([traj.interp_state(float(t)) for t in ts])
    assert tab.shape == (ts.size, 2)
    assert np.array_equal(tab.view(np.int64), one.view(np.int64))


@pytest.mark.parametrize("k", [0, 62, 63, 64, 137, _FINITE_BLOCK - 2, _FINITE_BLOCK - 1,
                               _FINITE_BLOCK, 2 * _FINITE_BLOCK + 9])
@pytest.mark.parametrize("on_state", [False, True])
def test_blowup_names_the_first_nonfinite_node(k, on_state):
    # the last component turns infinite between the last two stages of step
    # k, so node k + 1 is the first non-finite state wherever it falls in a
    # block of steps: inside the first block, at the last two nodes of a
    # block, at the first node of the next one, and in the third; with
    # on_state the next step's math.sin raises on that state, which must
    # still be reported as the blowup. In the 2-state field the first
    # component stays finite throughout.
    h = 0.01
    t1 = (2 * _FINITE_BLOCK + 11) * h
    grid = build_grid(0.0, t1, h, Constant(0.0))
    t_bad = grid[k] + 0.75 * (grid[k + 1] - grid[k])

    for n in (1, 2, 3, 6):
        def rhs(t, s, u, n=n):
            last = (math.sin(s[-1]) if on_state else 1.0) + (math.inf if t > t_bad else 0.0)
            return (*[0.5] * (n - 1), last)

        field = PlainModel("escape", n, rhs, lambda t, s, u, n=n: ((0.0,) * n,) * n)
        with pytest.raises(NumericalBlowup) as err:
            integrate(field, None, 0.0, t1, np.full(n, 0.5), h)
        assert err.value.t == grid[k + 1]


def test_field_error_on_finite_states_propagates():
    # a field that raises while every stored state is finite is not a
    # blowup: its own error comes through, also from the first stage of the
    # first step of a block (call 4 * _FINITE_BLOCK + 1)
    calls = []

    def rhs(t, s, u):
        calls.append(t)
        if len(calls) > 4 * _FINITE_BLOCK:
            raise ZeroDivisionError("field failed")
        return (1.0,)

    field = PlainModel("fails", 1, rhs, None)
    with pytest.raises(ZeroDivisionError, match="field failed"):
        integrate(field, None, 0.0, 2 * _FINITE_BLOCK * 0.01, np.array([0.0]), 0.01)
    assert len(calls) == 4 * _FINITE_BLOCK + 1


@pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan])
def test_non_positive_or_infinite_step_is_rejected(step):
    # a zero step used to fall back to the default step, and a negative or
    # infinite one built one RK4 step per edge interval (two nodes on [0, 2])
    with pytest.raises(ValueError, match="step must be finite and positive"):
        integrate(leaky_integrator(), Constant(1.0), 0.0, 2.0, np.array([0.0]), step)
    with pytest.raises(ValueError, match="step must be finite and positive"):
        build_grid(0.0, 2.0, step, Constant(0.0))
    end = integrate(leaky_integrator(), Constant(1.0), 0.0, 2.0, np.array([0.0])).states[-1, 0]
    assert end == pytest.approx(1.0 - math.exp(-2.0), abs=1e-9)


def _array_rk4(model, signal, grid, x0):
    """The RK4 loop over numpy arrays that the float loop replaced, stage for
    stage: same tabulated inputs, same operation order."""
    hs = np.diff(grid)
    u_lo = signal.values(np.nextafter(grid[:-1], grid[1:]))
    u_mid = signal.values(grid[:-1] + 0.5 * hs)
    u_hi = signal.values(np.nextafter(grid[1:], grid[:-1]))
    f = lambda t, y, u: np.asarray(model.rhs(t, y, u))
    y = np.asarray(x0, dtype=float)
    out = [y]
    for i in range(grid.size - 1):
        t, h = grid[i], hs[i]
        k1 = f(t, y, u_lo[i])
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1, u_mid[i])
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2, u_mid[i])
        k4 = f(t + h, y + h * k3, u_hi[i])
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


@pytest.mark.parametrize("case, joint", [
    pytest.param("leaky_case", False, id="leaky_case"),                # n = 1
    pytest.param("kapitza_case", False, id="kapitza_case"),            # n = 2
    pytest.param("hh_case", False, id="hh_case"),                      # n = 2
    pytest.param("lorenz_case", False, id="lorenz_case"),              # n = 3
    pytest.param("observer_case", False, id="observer_case"),          # n = 6
    pytest.param("kapitza_case", True, id="kapitza_case-joint"),       # n = 6
    pytest.param("lorenz_case", True, id="lorenz_case-joint"),         # n = 12
    pytest.param("observer_case", True, id="observer_case-joint"),     # n = 42
    pytest.param("neuron_case", True, id="neuron_case-joint"),         # n = 6
    pytest.param("error_case", True, id="error_case-joint"),           # n = 20
])
def test_float_loop_matches_the_array_step_bitwise(case, joint, request):
    # pins the stage order at every state size the studies step, the joint
    # (x, vec Phi) fields of flow included: reordering or regrouping any
    # stage sum changes the last bits somewhere along these runs
    model, signal, x0, t0, t1, h = request.getfixturevalue(case)
    if joint:
        x0 = np.concatenate((x0, np.eye(model.n).ravel()))
        model = _with_variations(model)
    traj = integrate(model, signal, t0, t1, x0, h)
    ref = _array_rk4(model, signal, build_grid(t0, t1, h, signal), x0)
    assert traj.states.shape == ref.shape
    assert np.array_equal(traj.states.view(np.int64), ref.view(np.int64))


# Today's block for n = 2, as a field without source must render it.
_CALL_BLOCK_2 = """\
def block(rhs, ts, hs, uas, ums, ubs, y, rows):
    push = rows.extend
    for t, h, ua, um, ub in zip(ts, hs, uas, ums, ubs):
        a0, a1, = y
        hh = 0.5 * h
        b0, b1, = rhs(t, y, ua)
        c0, c1, = rhs(t + hh, (a0 + hh * b0, a1 + hh * b1,), um)
        d0, d1, = rhs(t + hh, (a0 + hh * c0, a1 + hh * c1,), um)
        e0, e1, = rhs(t + h, (a0 + h * d0, a1 + h * d1,), ub)
        h6 = h / 6.0
        y = (a0 + h6 * (b0 + 2.0 * c0 + 2.0 * d0 + e0), a1 + h6 * (b1 + 2.0 * c1 + 2.0 * d1 + e1),)
        push(y)
"""


def test_a_field_without_source_steps_through_rhs_calls():
    assert _block_source(2, None) == _CALL_BLOCK_2


def _called(model: PlainModel) -> PlainModel:
    """The same field with the same rhs and no source: it takes the call path."""
    return PlainModel(model.name, model.n, model.rhs, model.jac)


@pytest.mark.parametrize("case", ["kapitza_case", "lorenz_case", "leaky_case", "neuron_case",
                                  "observer_case", "error_case"])
def test_written_out_field_steps_the_bits_of_its_rhs_calls(case, request):
    model, signal, x0, t0, t1, h = request.getfixturevalue(case)
    assert model.source is not None
    written = integrate(model, signal, t0, t1, x0, h)
    called = integrate(_called(model), signal, t0, t1, x0, h)
    assert np.array_equal(written.ts, called.ts)
    assert np.array_equal(written.states.view(np.int64), called.states.view(np.int64))


@pytest.mark.parametrize("case", ["kapitza_case", "lorenz_case", "leaky_case", "neuron_case",
                                  "error_case"])
def test_written_out_joint_field_steps_the_bits_of_the_call_path(case, request):
    # flow's joint source, the Jacobian's entries and J Phi written into the
    # block, steps the bits of the joint closure over the rendered rhs and jac
    model, signal, x0, t0, t1, h = request.getfixturevalue(case)
    assert model.source.jac is not None
    joint = _with_variations(model)
    assert joint.source is not None
    x0 = np.concatenate((x0, np.eye(model.n).ravel()))
    written = integrate(joint, signal, t0, t1, x0, h)
    called = integrate(_with_variations(_called(model)), signal, t0, t1, x0, h)
    assert np.array_equal(written.states.view(np.int64), called.states.view(np.int64))


def test_written_out_field_reads_each_stage_time_and_its_own_constants():
    # a source over t, with constants named like math's gamma and e: each
    # stage reads its own time, and the constants shadow the math names
    source = FieldSource(("q", "p"), ("p", "-gamma * q + e * sin(3.0 * t) * u"), ("gamma", "e"))
    model = PlainModel("driven", 2, None, None, source=source, consts=(2.0, 0.7))

    def rhs(t, s, u):
        return (s[1], -2.0 * s[0] + 0.7 * math.sin(3.0 * t) * u)

    drive = Sinusoid(amplitude=1.0, omega=2.0)
    x0 = np.array([0.3, -0.1])
    written = integrate(model, drive, 0.0, 3.0, x0, 1e-2)
    called = integrate(PlainModel("driven", 2, rhs, None), drive, 0.0, 3.0, x0, 1e-2)
    assert np.array_equal(written.states.view(np.int64), called.states.view(np.int64))


def test_written_out_field_blows_up_at_the_node_of_the_call_path():
    # gamma < 0 pumps the pendulum's velocity up by e^(50 t) until a state
    # overflows past the end of the first block of steps; both paths name
    # the same first non-finite node
    model = kapitza(1.0, 1.0, -50.0)
    seen = []
    for field in (model, _called(model)):
        with pytest.raises(NumericalBlowup) as err:
            integrate(field, Constant(0.5), 0.0, 20.0, np.array([0.1, 1.0]), 1e-2)
        seen.append(err.value.t)
    assert seen[0] == seen[1] > _FINITE_BLOCK * 1e-2


def test_fields_of_one_source_share_one_compiled_block():
    # the constants are the block's argument, so a second parameter set of
    # the same field compiles nothing
    a, b = kapitza(1.0, 1.0, 1.0), kapitza(2.0, 0.5, 3.0)
    integrate(a, Constant(0.1), 0.0, 0.1, np.array([0.2, 0.0]), 1e-2)
    before = _rk4_block.cache_info()
    integrate(b, Constant(0.1), 0.0, 0.1, np.array([0.2, 0.0]), 1e-2)
    after = _rk4_block.cache_info()
    assert after.currsize == before.currsize and after.hits == before.hits + 1
    assert _rk4_block(2, a.source) is _rk4_block(2, b.source)


@st.composite
def _linear_forced_field(draw):
    """x' = A x + b u for a random A and b of size n in 1..8, written as
    left-to-right float sums, with a random initial state."""
    n = draw(st.integers(1, 8))
    entry = st.floats(-1.0, 1.0)
    a = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    b = draw(st.lists(entry, min_size=n, max_size=n))

    def rhs(t, s, u):
        out = []
        for row, bi in zip(a, b):
            acc = bi * u
            for aij, sj in zip(row, s):
                acc = acc + aij * sj
            out.append(acc)
        return tuple(out)

    x0 = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    return PlainModel("linear", n, rhs, None), x0


@given(field=_linear_forced_field(), omega=st.floats(0.1, 20.0),
       span=st.floats(0.5, 2.0), h=st.floats(0.005, 0.05))
@settings(max_examples=40, deadline=None)
def test_random_linear_field_matches_the_array_step_bitwise(field, omega, span, h):
    model, x0 = field
    drive = Sinusoid(amplitude=1.0, omega=omega)
    traj = integrate(model, drive, 0.0, span, x0, h)
    ref = _array_rk4(model, drive, build_grid(0.0, span, h, drive), x0)
    assert np.array_equal(traj.states.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("extra", [1, -1])
def test_rhs_of_wrong_length_is_rejected(n, extra):
    # one component too many or too few is rejected at the first stage, in
    # integrate and in flow's joint field, not cut to n components or left
    # to a later numpy broadcast error
    field = PlainModel("wrong-length", n, lambda t, s, u: (1.0,) * (n + extra),
                       lambda t, s, u: ((0.0,) * n,) * n)
    with pytest.raises(ValueError, match="values to unpack"):
        integrate(field, None, 0.0, 1.0, np.zeros(n), 0.1)
    with pytest.raises(ValueError, match="values to unpack"):
        flow(field, None, 0.0, 1.0, np.zeros(n), 0.1)


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
                        h).states[-1, 0]
        errs.append(abs(end - exact(2.0)))
    assert abs(math.log2(errs[0] / errs[1]) - 4.0) < 0.2


# Periods of the free fhn cycle and the free hh orbit from [1, 0], by DOP853
# with event location on upward crossings of y = 0, rtol = atol = 1e-12.
FHN_PERIOD = 3.290236938862108
HH_FREE_PERIOD = 0.9522062739399928


class TestRefinePeriodicOrbit:
    """Autonomous orbits closed by refine_periodic_orbit without a period."""

    def test_planar_period(self):
        loop, _ = refine_periodic_orbit(planar_limit_cycle(), None, np.array([1.3, 0.0]),
                                        0.0, step=0.001)
        assert loop.t1 - loop.t0 == pytest.approx(2.0 * math.pi, abs=1e-10)
        assert loop.states[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert np.hypot(*loop.states[0]) == pytest.approx(1.0, abs=1e-6)

    def test_fhn_period_converges_at_fourth_order(self):
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            loop, _ = refine_periodic_orbit(fitzhugh_nagumo(), None, np.array([1.0, 0.0]),
                                            0.0, step=h)
            errs.append(abs(loop.t1 - loop.t0 - FHN_PERIOD))
        assert all(math.log2(a / b) >= 3.5 for a, b in zip(errs, errs[1:]))

    def test_hh_period_converges_at_fourth_order(self, hh_run):
        # the hh pipeline closes the free orbit at the default step, 5e-4
        coarse = hh_run[1]["free_orbit"]["period"] - HH_FREE_PERIOD
        loop, _ = refine_periodic_orbit(hh_conductance(ConductanceParams()), None,
                                        np.array([1.0, 0.0]), 0.0, step=2.5e-4)
        fine = loop.t1 - loop.t0 - HH_FREE_PERIOD
        assert math.log2(abs(coarse / fine)) >= 3.5

    def test_returns_the_loops_transition_matrix(self):
        # the autonomous orbit is stepped at T / k, and its Phi is the one
        # that step gives along the returned loop, with the unit multiplier
        model = fitzhugh_nagumo()
        loop, phi = refine_periodic_orbit(model, None, np.array([1.0, 0.0]), 0.0, step=4e-3)
        h = (loop.t1 - loop.t0) / (loop.ts.size - 1)
        _, again = flow(model, None, loop.t0, loop.t1, loop.states[0], h)
        assert np.array_equal(phi, again)
        assert min(abs(np.linalg.eigvals(phi) - 1.0)) < 1e-8

    def test_repelling_orbit_is_unstable(self):
        # r' = -r (1 - r^2) / 20 around the unit circle: a closed orbit whose
        # nontrivial multiplier is exp(4 pi / 20) > 1
        def rhs(t, s, u):
            g = -0.05 * (1.0 - s[0] * s[0] - s[1] * s[1])
            return (g * s[0] - s[1], s[0] + g * s[1])

        def jac(t, s, u):
            g = -0.05 * (1.0 - s[0] * s[0] - s[1] * s[1])
            return ((g + 0.1 * s[0] * s[0], 0.1 * s[0] * s[1] - 1.0),
                    (1.0 + 0.1 * s[0] * s[1], g + 0.1 * s[1] * s[1]))

        with pytest.raises(PeriodUnstable, match="not attracting"):
            refine_periodic_orbit(PlainModel("repelling", 2, rhs, jac), None,
                                  np.array([1.0, 0.0]), 0.0, step=0.01)

    def test_no_crossings(self):
        with pytest.raises(NoCrossings):
            refine_periodic_orbit(leaky_integrator(1.0), Constant(0.5),
                                  np.array([0.0]), 0.0)

    def test_chaotic_system_has_no_stable_period(self):
        with pytest.raises(PeriodUnstable):
            refine_periodic_orbit(lorenz(10.0, 28.0, 8.0 / 3.0), None,
                                  np.array([1.0, 1.0, 1.0]), 0.0)
