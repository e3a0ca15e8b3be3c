import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condux.acceptance import bessel_j0
from condux.design import (
    OutputReference,
    averaged_gain,
    feedforward_from_reference,
    fhn_impulse_design,
    hh_certificate,
    hh_square_reference,
    kapitza_design,
    lorenz_region_check,
    orbit_scale,
)
from condux.errors import (
    InverseNotContracting,
    NoStabilizingAmplitude,
    RangeViolation,
)
from condux.integrate import Trajectory, build_grid, integrate
from condux.models import (
    ConductanceParams,
    InverseSystem,
    fitzhugh_nagumo,
    lorenz,
)
from condux.variational import NEWTON_TOL, flow, refine_periodic_orbit


class TestAveragedGain:
    def test_matches_bessel_series(self):
        for M in (0.5, 0.8 * math.pi, 2.0, 4.5):
            assert abs(averaged_gain(M) - bessel_j0(M)) <= 1e-9

    def test_frozen_design_value(self):
        assert averaged_gain(0.8 * math.pi) == pytest.approx(
            -0.054960360243452, abs=1e-12)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            averaged_gain(-1.0)


class TestKapitzaDesign:
    def test_selects_first_stabilizing_amplitude(self, kapitza_run):
        design = kapitza_run[0]["design"]
        assert design.M == pytest.approx(0.8 * math.pi, abs=1e-15)
        assert design.gain < 0
        assert len(design.rejected) == 7
        assert all(cbar >= 0 for _, cbar in design.rejected)
        assert design.verdict.stable

    def test_averaged_eigenvalues(self, kapitza_run):
        # roots of s^2 + gamma s - beta cbar: sum -gamma, product -beta cbar
        eigs = np.sort(kapitza_run[1]["averaged_eigenvalues"])
        cbar = kapitza_run[1]["averaged_gain"]
        assert eigs.sum() == pytest.approx(-1.0, abs=1e-12)
        assert eigs[0] * eigs[1] == pytest.approx(-cbar, abs=1e-12)
        assert np.all(eigs < 0)
        assert eigs[1] == pytest.approx(-0.0583671, abs=1e-6)

    def test_no_stabilizing_amplitude(self):
        with pytest.raises(NoStabilizingAmplitude):
            kapitza_design([0.1 * math.pi], omega=1000.0)

    def test_low_frequency_warns(self):
        with pytest.warns(UserWarning):
            kapitza_design([0.8 * math.pi], omega=10.0)

    def test_feedforward_tracks_closed_form(self, kapitza_run):
        # u = (ydd + beta sin y + gamma yd) / alpha along y = pi + M sin(w t)
        design = kapitza_run[0]["design"]
        M, w = design.M, 1000.0
        for t in np.linspace(0.0, 0.01, 7):
            y = math.pi + M * math.sin(w * t)
            yd = M * w * math.cos(w * t)
            ydd = -M * w * w * math.sin(w * t)
            u_exact = ydd + math.sin(y) + yd
            assert design.feedforward.value(t) == pytest.approx(
                u_exact, rel=1e-9, abs=1e-6)

    def test_simulation_settles_into_band_late(self, kapitza_run):
        r = kapitza_run[1]
        assert r["band_entry_time"] == pytest.approx(31.9394, abs=1e-2)
        assert r["deviation_at_deadline"] == pytest.approx(0.10029, abs=1e-4)
        assert r["measured_slow_decay"] == pytest.approx(-0.0582, abs=1e-3)


class TestImpulseDesign:
    @pytest.fixture(scope="class")
    def coarse_cycle(self):
        return refine_periodic_orbit(fitzhugh_nagumo(), None, np.array([1.0, 0.0]), 0.0,
                                     step=4e-3)[0]

    @pytest.mark.parametrize("phase_points", [256, 2])
    def test_free_window_keeps_the_unit_multiplier(self, coarse_cycle, phase_points):
        # phase_points = 2 anchors at the cycle start, which shifts the window
        # one period forward
        d = fhn_impulse_design(coarse_cycle, 0.5, phase_points=phase_points)
        lam = d.free_window_monodromy.eigenvalues
        assert min(abs(lam - 1.0)) < 1e-8

    @pytest.mark.parametrize("phase_points", [256, 2])
    def test_free_window_matches_a_direct_flow(self, coarse_cycle, phase_points):
        d = fhn_impulse_design(coarse_cycle, 0.5, phase_points=phase_points)
        w0, T = d.free_window_monodromy.t0, d.free_window_monodromy.period
        h = coarse_cycle.ts[1] - coarse_cycle.ts[0]
        model = fitzhugh_nagumo()
        x_w0 = integrate(model, None, coarse_cycle.t0, w0, coarse_cycle.states[0], h).states[-1]
        _, phi = flow(model, None, w0, w0 + T, x_w0, h)
        err = np.max(np.abs(d.free_window_monodromy.phi - phi)) / np.max(np.abs(phi))
        assert err < 1e-8

    def test_frozen_cycle_and_design(self, fhn_run):
        r, report, _ = fhn_run
        # DOP853 with event location (rtol = atol = 1e-12) gives the period
        # 3.290236938862108 and the anchor z -0.424542142
        assert report["period"] == pytest.approx(3.290236938862108, abs=1e-10)
        assert report["anchor"][0] == pytest.approx(0.0, abs=1e-9)
        assert report["anchor"][1] == pytest.approx(-0.42454214, abs=1e-6)
        d = r["design"]
        assert d.eps_n == pytest.approx(0.12909944487358055, rel=1e-12)
        # phase 1 of the 256-point grid, searched in its first half
        assert d.t0 - r["cycle"].t0 == pytest.approx(0.01285249, abs=1e-6)
        assert d.cross_exponent == pytest.approx(0.004218, abs=1e-5)
        assert d.tangent[0] == pytest.approx(4.764, abs=2e-3)
        assert d.tangent[1] == pytest.approx(0.4766, abs=2e-4)

    def test_predicted_monodromy(self, fhn_run):
        d = fhn_run[0]["design"]
        pred = np.sort(np.abs(d.predicted_monodromy.eigenvalues))[::-1]
        free = np.sort(np.abs(d.free_window_monodromy.eigenvalues))[::-1]
        # the impulse pulls the unity multiplier strictly inside the disk
        assert free[0] == pytest.approx(1.0, abs=1e-3)
        assert pred[0] == pytest.approx(0.700421, abs=1e-4)
        assert pred[0] < free[0]
        assert free[1] < 1e-6 and pred[1] < 1e-6

    def test_realized_monodromy_agreement(self, fhn_run):
        r = fhn_run[1]
        assert r["monodromy_entrywise_mismatch"] < 0.02
        assert r["monodromy_entrywise_mismatch"] == pytest.approx(0.00131, abs=2e-4)
        # DOP853 on the same window and impulse reads 0.697539
        rho = max(math.hypot(*lam) for lam in r["realized_monodromy"]["eigenvalues"])
        assert rho == pytest.approx(0.6975, abs=1e-3)

    def test_realized_orbit_closes(self, fhn_run):
        # zbar is the inverse system's periodic response over one period
        # from the window start, closed by Newton, so the realized orbit
        # closes down to the floor that the impulse's step cap leaves
        r, report, _ = fhn_run
        zbar = r["feedforward"].zbar
        train = r["design"].train
        assert zbar.t0 == train.t0 - 8.0 * train.width
        assert zbar.t1 - zbar.t0 == pytest.approx(report["period"], abs=1e-12)
        assert abs(zbar.states[-1, 0] - zbar.states[0, 0]) < NEWTON_TOL
        assert report["realized_closure_gap"] < 1e-5

    def test_feedforward_quality(self, fhn_run):
        report = fhn_run[1]
        assert report["feedforward_residual"] < 1e-10
        # g = y - z, so the inverse system's multiplier is exactly exp(-P)
        assert report["inverse_rate"] == pytest.approx(-1.0, abs=1e-12)

    def test_tabulated_feedforward_matches_pointwise(self, fhn_run):
        # the grid tabulation of u must give the bits of the scalar inversion,
        # in particular across the impulse support, where v* is largest
        r = fhn_run[0]
        sig, train = r["feedforward"].signal, r["design"].train
        ts = _with_neighbours(np.concatenate([
            r["feedforward"].zbar.ts[::97],
            np.linspace(train.t0 - 1e-3, train.t0 + 1e-3, 101),
        ]))
        _assert_bitwise(sig.values(ts), [sig.value(float(t)) for t in ts])


class TestConductanceCertificate:
    def test_exact_bounds(self, hh_run):
        rep = hh_run[1]["certificate"]
        assert rep["M_s"] == 0.5
        assert rep["G_tot"] == 49.0
        assert rep["a_bar"] == 49.5

    def test_frozen_measured_values(self, hh_run):
        rep = hh_run[1]["certificate"]
        assert rep["verdict"] is True
        assert rep["tau_unstable"] == pytest.approx(0.000575, abs=1e-6)
        assert rep["T_hat"] == pytest.approx(5.000425, abs=1e-6)
        assert rep["m_y_violation_measure"] == pytest.approx(0.001, abs=1e-9)
        assert rep["s_max_growth"] == pytest.approx(24.401, abs=1e-2)

    def test_range_violation_is_strict(self):
        params = ConductanceParams()
        ts = np.linspace(0.0, 1.0, 11)
        ys = np.full(11, 1.36)  # just above E_f - theta_prime = 1.35
        ref = Trajectory(ts=ts, states=np.column_stack([ys, np.zeros(11)]),
                         us=np.zeros(11))
        with pytest.raises(RangeViolation, match="1.36"):
            hh_certificate(params, ref, np.zeros(11))

    def test_margin_grows_with_plateau_length(self):
        # longer plateaus add stability time without touching the ramp cost
        params = ConductanceParams()
        margins = []
        for T_hat in (4.0, 5.0, 6.0):
            sq = hh_square_reference(T_hat=T_hat)
            ref = OutputReference(sq)
            ff = feedforward_from_reference(
                params_model(params), ref, 0.0, sq.period, zbar_ic=np.array([sq.value(0.0)]))
            grid = build_grid(0.0, sq.period, min(5e-4, 0.001 / 80.0), sq)
            ys = sq.values(grid)
            yd = sq.derivative(grid)
            zs = ff.zbar.interp_state(grid)[:, 0]
            traj = Trajectory(ts=grid, states=np.column_stack([ys, zs]),
                              us=np.zeros_like(grid))
            rep = hh_certificate(params, traj, yd)
            margins.append(params.eps * rep.T_hat - rep.a_bar * rep.tau_unstable)
        assert margins[0] < margins[1] < margins[2]

    def test_certificate_grid_size(self, hh_run):
        # the certificate grid steps every segment, plateaus included, at
        # min(base_step, tau / divisor): 400,000 steps at the defaults (T_hat
        # 5, tau 1e-3, divisor 80); the benchmark's T_hat 2.5, tau 5e-4 and
        # divisor 1 leave the base step 5e-4 and the ramps' quarter caps
        assert hh_run[0]["traces"]["reference"]["t"].size == 400_081
        sq = hh_square_reference(2.5, 5e-4)
        assert build_grid(0.0, sq.period, 5e-4, sq).size == 5_009

    def test_tabulated_feedforward_matches_pointwise(self):
        sq = hh_square_reference(2.5, 5e-4)
        ff = feedforward_from_reference(
            params_model(ConductanceParams()), OutputReference(sq),
            0.0, sq.period, zbar_ic=np.array([sq.value(0.0)]))
        ts = _with_neighbours(np.concatenate([
            ff.zbar.ts[::37], sq.breakpoints(0.0, 2.0 * sq.period)]))
        sig = ff.signal
        _assert_bitwise(sig.values(ts), [sig.value(float(t)) for t in ts])
        _assert_bitwise(sig.ref.x_fn(ts)[0], [sig.ref.x_fn(float(t))[0] for t in ts])
        _assert_bitwise(sig.ref.v_fn(ts), [sig.ref.v_fn(float(t)) for t in ts])

    def test_feedforward_quality(self, hh_run):
        # g = y - z, so the inverse system's multiplier is exactly exp(-P)
        assert hh_run[1]["inverse_rate"] == pytest.approx(-1.0, abs=1e-12)

    def test_zbar_closes_over_one_period(self, hh_run):
        zbar = hh_run[0]["feedforward"].zbar
        assert (zbar.t0, zbar.t1) == (0.0, hh_run[1]["period"])
        assert abs(zbar.states[-1, 0] - zbar.states[0, 0]) < NEWTON_TOL

    def test_delta_sweep_leaves_certified_range(self, hh_run):
        sweep = hh_run[1]["delta_sweep"]
        assert len(sweep) == 4
        assert all("range_violation" in entry for entry in sweep)

    def test_free_orbit_spans_certified_interval(self, hh_run):
        free = hh_run[1]["free_orbit"]
        # DOP853 reads 0.9522062739399928; the default step leaves +4.0e-6
        assert free["period"] == pytest.approx(0.9522102, abs=1e-6)
        lo, hi = free["y_range"]
        assert lo == pytest.approx(-1.45113, abs=1e-4)
        assert hi == pytest.approx(1.34931, abs=1e-4)


def params_model(params):
    from condux.models import hh_conductance

    return hh_conductance(params)


class TestInverseMultiplier:
    """hh with its internal drift g replaced, on the benchmark's square wave."""

    @staticmethod
    def _design(g, g_jac):
        sq = hh_square_reference(2.5, 5e-4)
        model = dataclasses.replace(params_model(ConductanceParams()), g=g, g_jac=g_jac)
        return model, sq, lambda: feedforward_from_reference(
            model, OutputReference(sq), 0.0, sq.period, zbar_ic=np.array([sq.value(0.0)]))

    def test_expanding_inverse_closes_but_is_rejected(self):
        # z' = z - y: I - Phi is nonsingular, so Newton closes the orbit, and
        # its multiplier exp(P) is what rejects it
        model, sq, design = self._design(lambda t, z, y: z - y, lambda t, z, y: (-1.0, 1.0))
        loop, phi = refine_periodic_orbit(InverseSystem(model), sq, np.array([sq.value(0.0)]),
                                          0.0, sq.period)
        assert abs(loop.states[-1, 0] - loop.states[0, 0]) < NEWTON_TOL
        assert phi[0, 0] == pytest.approx(math.exp(sq.period), rel=1e-9)
        with pytest.raises(InverseNotContracting, match="multiplier 12.18"):
            design()

    def test_underflowing_multiplier_counts_as_contracting(self):
        # z' = 2000 (y - z) at step 5e-4: each RK4 step scales Phi by 3/8,
        # which takes it through the subnormals to 0 within the period
        _, _, design = self._design(lambda t, z, y: 2000.0 * (y - z),
                                    lambda t, z, y: (2000.0, -2000.0))
        assert design().inverse_rate == -math.inf

    def test_neutral_inverse_is_rejected(self):
        # z' = y: Phi = 1 leaves Newton's I - Phi singular
        _, _, design = self._design(lambda t, z, y: y, lambda t, z, y: (1.0, 0.0))
        with pytest.raises(InverseNotContracting, match="neutral"):
            design()


class TestOutputReference:
    def test_fhn_feedforward_grid_is_the_reference_grid(self, fhn_run):
        # the feedforward's grid hooks are its reference signal's: the impulse
        # windows of the train, with nothing added by the free-cycle term
        r = fhn_run[0]
        sig, train = r["feedforward"].signal, r["design"].train
        t0 = train.t0 - 8.0 * train.width
        t1 = t0 + 2.0 * fhn_run[1]["period"]
        grid = build_grid(t0, t1, 5e-4, sig)
        assert np.array_equal(grid, build_grid(t0, t1, 5e-4, sig.ref.signal))
        inside = (grid >= train.t0 - 8.0 * train.width) & (grid <= train.t0 + 8.0 * train.width)
        assert np.max(np.diff(grid[inside])) <= train.width / 10.0 * (1.0 + 1e-9)

    def test_hh_feedforward_grid_is_the_reference_grid(self, hh_case):
        _, sig, _, t0, t1, h = hh_case
        grid = build_grid(t0, 2.0 * t1, h, sig)
        assert np.array_equal(grid, build_grid(t0, 2.0 * t1, h, sig.ref.signal))
        assert set(sig.ref.signal.breakpoints(t0, 2.0 * t1)) <= set(grid.tolist())

    def test_hh_feedforward_repeats_with_its_reference(self, hh_case):
        # one stored period of zbar is read modulo that period, so the input
        # repeats with its reference on every later period
        _, sig, _, t0, period, h = hh_case
        ts = build_grid(t0, t0 + period, h, sig)
        np.testing.assert_allclose(sig.values(ts + 3.0 * period), sig.values(ts),
                                   rtol=1e-9, atol=0.0)


def test_orbit_scale():
    ts = np.linspace(0.0, 1.0, 5)
    states = np.column_stack([np.sin(ts), np.cos(ts)])
    traj = Trajectory(ts=ts, states=states, us=np.zeros(5))
    scaled = orbit_scale(traj, 0.1)
    assert np.allclose(scaled.states, 1.1 * states)
    assert np.array_equal(scaled.ts, ts)


class TestLorenzRegion:
    def test_strict_boundary(self):
        sigma, beta = 10.0, 8.0 / 3.0
        z_c = sigma + beta
        x2_b = 2.0 * math.sqrt(sigma * beta / 2.0)
        z_b = 2.0 * math.sqrt(sigma / 2.0)
        assert lorenz_region_check(np.array([0.0, 0.0, z_c]), sigma, beta)
        assert lorenz_region_check(
            np.array([0.0, x2_b - 1e-9, z_c]), sigma, beta)
        assert not lorenz_region_check(
            np.array([0.0, x2_b + 1e-9, z_c]), sigma, beta)
        assert not lorenz_region_check(
            np.array([0.0, 0.0, z_c + z_b + 1e-9]), sigma, beta)
        assert not lorenz_region_check(
            np.array([0.0, 0.0, z_c - z_b - 1e-9]), sigma, beta)

    @given(
        x1=st.floats(-30.0, 30.0),
        x2=st.floats(-12.0, 12.0),
        z=st.floats(4.0, 22.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_region_implies_negative_definite(self, x1, x2, z):
        sigma, beta = 10.0, 8.0 / 3.0
        state = np.array([x1, x2, z])
        if not lorenz_region_check(state, sigma, beta):
            return
        model = lorenz(sigma, beta, beta)  # forcing level matching the region
        J = np.asarray(model.jac(0.0, state, 0.0))
        lam = np.max(np.linalg.eigvalsh(0.5 * (J + J.T)))
        assert lam < 0.0


def test_fhn_slow_multiplier_shrinks_with_timescale():
    # the non-unity multiplier collapses super-exponentially as the fast
    # subsystem gets faster; measured through the volume identity because
    # the raw multiplier underflows the monodromy eigensolve
    from scipy.integrate import simpson

    previous = None
    for eps, expected_period in ((0.1, 3.29023715), (0.05, 2.77665807),
                                 (0.02, 2.38653791)):
        model = fitzhugh_nagumo(eps=eps)
        loop, _ = refine_periodic_orbit(model, None, np.array([1.0, 0.0]), 0.0, step=1e-3)
        assert loop.t1 - loop.t0 == pytest.approx(expected_period, abs=1e-4)
        tr = np.array([np.trace(model.jac(t, s, 0.0))
                       for t, s in zip(loop.ts, loop.states)])
        exponent = float(simpson(tr, x=loop.ts))
        if previous is not None:
            assert exponent < previous - 10.0
        previous = exponent


def _with_neighbours(ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    return np.concatenate([ts, np.nextafter(ts, -np.inf), np.nextafter(ts, np.inf)])


def _assert_bitwise(a, b) -> None:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))
