import dataclasses

import numpy as np
import pytest

from condux.errors import AntiderivativeMismatch, ConfigError, PeriodMismatch
from condux.integrate import Trajectory
from condux.models import neuron_family
from condux.observer import (
    coupled_system,
    observer_contraction_check,
    run_observer,
)
from condux.piecewise import GateStack
from condux.signals import SquarePulseTrain, Zero

THETA_STAR = np.array([0.5, 1.5])
PULSE = SquarePulseTrain(magnitude=-3.0, duration=0.002, period=2.8)


@pytest.fixture(scope="module")
def plant():
    return neuron_family()


class TestBuildObserver:
    def test_antiderivative_mismatch_rejected(self, plant):
        def bad_values(t, y, z, u):
            f0, g, h, _ = plant.values(t, y, z, u)
            return f0, g, h, (y, y)  # not an antiderivative of hu

        with pytest.raises(AntiderivativeMismatch):
            dataclasses.replace(plant, values=bad_values)

    def test_update_direction_matches_regressor_sign(self, plant):
        # the update regressor is the plant regressor without the 1/eps scale
        for y in (-0.8, -0.4, 0.5):
            _, _, _, h, hu = plant.derivatives(0.0, y, 0.5, 0.0)
            assert np.allclose(np.asarray(hu), np.asarray(h) * 0.02)

    def test_gate_lookups_per_call(self, plant, monkeypatch):
        # each hook reads every gate it needs with one stacked lookup per
        # state value: one values lookup per block for rhs, one derivatives
        # lookup per block for jac, which never calls values
        calls = []
        counted = dataclasses.replace(
            plant, values=lambda *a: calls.append("values") or plant.values(*a),
            derivatives=lambda *a: calls.append("derivatives") or plant.derivatives(*a))
        lookups = []
        call = GateStack.__call__
        monkeypatch.setattr(GateStack, "__call__",
                            lambda self, y: lookups.append(y) or call(self, y))
        coupled = coupled_system(counted, THETA_STAR)
        model = counted.model(THETA_STAR)
        s = (-0.3, 0.2, 0.1, 0.4, 0.45, 1.6)
        for field, state, blocks in ((coupled, s, 2), (model, s[:2], 1)):
            lookups.clear()
            calls.clear()
            field.rhs(0.0, state, 0.5)
            assert len(lookups) <= 2
            assert calls == ["values"] * blocks
            lookups.clear()
            calls.clear()
            field.jac(0.0, state, 0.5)
            assert len(lookups) <= 2
            assert calls == ["derivatives"] * blocks


class TestEmbedding:
    def test_matched_run_is_exact(self, plant):
        # converged_at needs an in-tolerance run spanning 3 input periods,
        # so the horizon must leave room for one.
        run = run_observer(plant, THETA_STAR, PULSE, horizon=4 * PULSE.period,
                           tolerance=0.0316, plant_ic=np.array([-0.7, 0.0]),
                           theta0=THETA_STAR.copy(), step=1e-3)
        st = run.traces.states
        assert np.array_equal(st[:, 0], st[:, 2])  # y == y_hat bitwise
        assert np.array_equal(st[:, 1], st[:, 3])
        assert np.all(st[:, 4:] == THETA_STAR)
        assert run.converged_at == 0.0

    def test_coupled_embedding_dimension(self, plant):
        model = coupled_system(plant, THETA_STAR)
        assert model.n == 6

    def test_antiderivative_shift_is_invisible(self, plant):
        # The estimate moves only through H(y) - H(y_hat), so adding a
        # constant to H cancels. With matched initial data the difference is
        # exactly zero at every integrator stage and the cancellation is
        # bitwise. With a parameter error it is only analytic: the shifted
        # hook rounds H(y) + 7.5 before the difference is taken, which
        # perturbs the update at the last-bit level, so we bound the drift
        # instead (measured 3.7e-14 over three input periods).
        def shifted_values(t, y, z, u):
            f0, g, h, H = plant.values(t, y, z, u)
            return f0, g, h, tuple(a + 7.5 for a in H)

        shifted = dataclasses.replace(plant, values=shifted_values)
        kw = dict(horizon=PULSE.period, tolerance=0.0316,
                  plant_ic=np.array([-0.7, 0.0]), step=1e-3)
        m1 = run_observer(plant, THETA_STAR, PULSE,
                          theta0=THETA_STAR.copy(), **kw)
        m2 = run_observer(shifted, THETA_STAR, PULSE,
                          theta0=THETA_STAR.copy(), **kw)
        assert np.array_equal(m1.traces.states, m2.traces.states)

        kw["horizon"] = 3 * PULSE.period
        a = run_observer(plant, THETA_STAR, PULSE,
                         theta0=np.array([0.3, 1.8]), **kw)
        b = run_observer(shifted, THETA_STAR, PULSE,
                         theta0=np.array([0.3, 1.8]), **kw)
        # plant states never see H at all
        assert np.array_equal(a.traces.states[:, :2], b.traces.states[:, :2])
        assert np.max(np.abs(a.traces.states - b.traces.states)) < 1e-12


class TestRunObserver:
    def test_requires_period(self, plant):
        with pytest.raises(ConfigError):
            run_observer(plant, THETA_STAR, Zero(), horizon=10.0,
                         tolerance=0.03, plant_ic=np.array([-0.7, 0.0]),
                         theta0=np.array([0.3, 1.8]))

    def test_unexcited_run_stalls(self, plant):
        # a zero-magnitude pulse train is the zero input with a period
        silent = SquarePulseTrain(magnitude=0.0, duration=0.002, period=2.8)
        run = run_observer(plant, THETA_STAR, silent, horizon=30.0,
                           tolerance=0.0316,
                           plant_ic=np.array([-0.7, 0.0]),
                           theta0=np.array([0.3, 1.8]), step=1e-3)
        assert run.converged_at is None
        assert float(run.theta_error.min()) > run.tolerance


class TestContractionCheck:
    def test_frozen_spectrum(self, observer_run):
        check = observer_run[0]["check"]
        lams = np.abs(check.monodromy.eigenvalues)
        assert float(np.max(lams)) == pytest.approx(0.95927, abs=5e-3)
        assert check.verdict.stable
        # depends only on the orbit anchor y at t0 = 112, a pulse edge
        assert check.q_min_eigenvalue == pytest.approx(0.872891, abs=1e-5)
        # the identity-metric one-period difference is an indefinite
        # diagnostic here (non-normal transient), recorded but not a verdict
        assert check.lyapunov_decreases is False
        assert check.lyapunov_shift > 0

    def test_reference_closes(self, observer_run):
        assert observer_run[0]["reference_closure_gap"] < 1e-10

    def test_zero_update_leaves_parameter_block_identity(self, plant,
                                                         observer_run):
        # the whole update is zero: H in the values hook that rhs reads, and
        # hu in the derivatives hook that jac reads
        def frozen_values(t, y, z, u):
            f0, g, h, _ = plant.values(t, y, z, u)
            return f0, g, h, (0.0, 0.0)

        def frozen_derivatives(t, y, z, u):
            df0, dg, dh, h, _ = plant.derivatives(t, y, z, u)
            return df0, dg, dh, h, (0.0, 0.0)

        frozen = dataclasses.replace(plant, values=frozen_values,
                                     derivatives=frozen_derivatives)
        ref = observer_run[0]["reference"]
        check = observer_contraction_check(frozen, THETA_STAR, ref, PULSE)
        phi = check.monodromy.phi
        n = plant.n
        assert np.array_equal(phi[n:, :n], np.zeros((2, n)))
        assert np.array_equal(phi[n:, n:], np.eye(2))

    def test_open_reference_is_rejected(self, plant, observer_run):
        # a window that does not close up is no period: the anchor check of
        # floquet rejects it, relative to the scale of the anchor
        ref = observer_run[0]["reference"]
        half = ref.ts.size // 2
        shifted = Trajectory(ts=ref.ts[half:] - ref.ts[half] + ref.ts[0],
                             states=ref.states[half:], us=ref.us[half:])
        with pytest.raises(PeriodMismatch):
            observer_contraction_check(plant, THETA_STAR, shifted, PULSE)

    def test_nominal_convergence_profile(self, observer_run):
        nominal = observer_run[0]["nominal"]
        assert nominal.converged_at is None  # horizon 200 is not enough
        assert float(nominal.theta_error[-1]) == pytest.approx(0.0737, abs=2e-3)
        # the error does decay: final quarter is well below the start
        q = nominal.theta_error.size // 4
        assert float(nominal.theta_error[-q:].max()) < 0.5 * float(
            nominal.theta_error[:q].max())

    def test_embedding_deviation_zero(self, observer_run):
        assert observer_run[0]["embedding_deviation"] == 0.0
