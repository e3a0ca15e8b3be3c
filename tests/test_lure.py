import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condux.lure import (
    CHUA_DEN,
    CHUA_KINKS,
    CHUA_NUM,
    DescribingFunctionResult,
    chua_closed_form,
    chua_nonlinearity,
    chua_nonlinearity_slope,
    describing_function,
    lure_input_reconstruct,
    lure_stability,
)


class TestDescribingFunction:
    def test_linear_gain_literal(self):
        # the in-phase integral is divided by pi M omega
        for omega in (1.0, 3.0):
            df = describing_function(lambda y: y, 1.4, omega)
            assert df.p == pytest.approx(1.0 / omega, rel=1e-10)
            assert df.q == pytest.approx(0.0, abs=1e-12)

    def test_cubic_gain_literal(self):
        M, omega = 1.9, 2.0
        df = describing_function(lambda y: y ** 3, M, omega)
        assert df.p == pytest.approx(0.75 * M * M / omega, rel=1e-10)

    @given(
        a=st.floats(-3.0, 3.0),
        b=st.floats(-2.0, 2.0),
        M=st.floats(0.2, 5.0),
    )
    @example(a=1.0, b=1e-4, M=1.0)  # nearly linear: quad's default epsrel tripped the gate
    @settings(max_examples=50, deadline=None)
    def test_odd_nonlinearity_has_no_quadrature_gain(self, a, b, M):
        df = describing_function(lambda y: a * y + b * y ** 3, M, 1.0)
        assert abs(df.q) <= 1e-8


class TestChuaNonlinearity:
    def test_kink_values_and_slopes(self):
        assert chua_nonlinearity(1.0) == pytest.approx(-4.0)
        assert chua_nonlinearity(-1.0) == pytest.approx(4.0)
        assert chua_nonlinearity_slope(0.3) == pytest.approx(-4.0)
        assert chua_nonlinearity_slope(2.0) == pytest.approx(-0.1)
        assert CHUA_KINKS == (-1.0, 1.0)

    def test_closed_form_frozen_value(self):
        cf = chua_closed_form(200.0, 1.0)
        assert cf.p == pytest.approx(-0.02482806767123472, abs=1e-14)
        assert -0.05 < cf.p < 0.0

    def test_quadrature_matches_its_own_convention(self):
        # the sampled quadrature keeps the outer slope's direct term that the
        # closed form absorbs; both values are pinned, they are not equal
        df = describing_function(chua_nonlinearity, 200.0, 1.0, kinks=CHUA_KINKS)
        assert df.p == pytest.approx(-0.12482806767123471, abs=1e-12)
        assert abs(df.q) < 1e-12


class TestLureStability:
    def test_first_order_threshold(self):
        # loop den (s+1) + p: stable exactly for p > -1
        for p, stable in ((0.5, True), (-0.5, True), (-1.5, False)):
            df = DescribingFunctionResult(p=p, q=0.0, M=1.0, omega=1.0)
            v = lure_stability((1.0,), (1.0, 1.0), df)
            assert v.stable is stable
            assert (v.margin > 0) is stable

    def test_constant_gain_sweep_frozen(self, chua_run):
        sweep = {round(e["rho"], 4): e for e in chua_run[1]["threshold_sweep"]}
        assert sweep[-0.049]["stable"] is True
        assert sweep[-0.05]["stable"] is True
        # one grid point below: still (barely) stable, the true boundary
        # sits near -0.05118
        assert sweep[-0.051]["stable"] is True
        assert sweep[-0.051]["margin"] == pytest.approx(2.61e-5, abs=5e-6)
        assert sweep[-0.052]["stable"] is False


class TestInputReconstruction:
    def test_first_order_loop(self):
        # P = 1/(s+1), no nonlinearity: D e^{j theta} = M (1 + j omega)
        df = DescribingFunctionResult(p=0.0, q=0.0, M=1.0, omega=1.0)
        rec = lure_input_reconstruct((1.0,), (1.0, 1.0), df, 1.0, 1.0,
                                     lambda y: 0.0)
        assert rec.D == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert rec.theta == pytest.approx(math.pi / 4.0, rel=1e-12)

    def test_frozen_chua_drive(self, chua_run):
        report = chua_run[1]
        assert report["input_amplitude"] == pytest.approx(132.3454145783537, rel=1e-12)
        assert report["input_phase"] == pytest.approx(0.005869335694960121, rel=1e-9)

    def test_drive_invariant_to_gain_convention(self):
        # u(t) swaps p back out, so the reconstructed input cannot depend on
        # which gain, closed form or quadrature, the describing function holds
        M, omega = 200.0, 1.0
        cf = chua_closed_form(M, omega)
        qd = describing_function(chua_nonlinearity, M, omega, kinks=CHUA_KINKS)
        rec_a = lure_input_reconstruct(CHUA_NUM, CHUA_DEN, cf, M, omega,
                                       chua_nonlinearity)
        rec_b = lure_input_reconstruct(CHUA_NUM, CHUA_DEN, qd, M, omega,
                                       chua_nonlinearity)
        ts = np.linspace(0.0, 2.0 * math.pi, 101)
        ua = np.array([rec_a.value(t) for t in ts])
        ub = np.array([rec_b.value(t) for t in ts])
        assert np.max(np.abs(ua - ub)) < 1e-12 * np.max(np.abs(ua))


class TestDesignedOrbit:
    def test_exact_solution_tracks(self, chua_run):
        per = chua_run[1]["tracking_per_period"]
        assert max(per) < 1e-6

    def test_designed_orbit_is_unstable(self, chua_run):
        r = chua_run[1]
        assert r["orbit_spectral_radius"] == pytest.approx(1.09937, abs=1e-4)
        lam = r["orbit_monodromy_eigenvalues"]
        assert max(math.hypot(*z) for z in lam) > 1.0

    def test_from_rest_fundamental_far_from_target(self, chua_run):
        fr = chua_run[1]["from_rest"]
        assert fr["fundamental_amplitude"] == pytest.approx(1433.76, rel=1e-2)
        assert abs(fr["fundamental_amplitude"] - 200.0) / 200.0 > 0.03
