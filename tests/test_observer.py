import numpy as np
import pytest

from condux.errors import AntiderivativeMismatch, ConfigError
from condux.integrate import FixedStep
from condux.models import neuron_family
from condux.observer import (
    build_observer,
    coupled_system,
    observer_contraction_check,
    run_observer,
)
from condux.signals import SquarePulseTrain, Zero

THETA_STAR = np.array([0.5, 1.5])
PULSE = SquarePulseTrain(magnitude=-3.0, duration=0.002, period=2.8)


@pytest.fixture(scope="module")
def spec():
    return build_observer(neuron_family())


class TestBuildObserver:
    def test_default_theta0_is_box_midpoint(self, spec):
        assert np.allclose(spec.theta0, [0.5, 1.5])

    def test_antiderivative_mismatch_rejected(self):
        plant = neuron_family()
        bad_H = lambda y: np.array([y, y])  # not an antiderivative of h
        with pytest.raises(AntiderivativeMismatch):
            build_observer(plant, h=plant.update_regressor, H=bad_H)

    def test_update_direction_matches_regressor_sign(self, spec):
        # the update regressor is the plant regressor without the 1/eps scale
        plant = neuron_family()
        for y in (-0.8, -0.4, 0.5):
            assert np.allclose(np.asarray(spec.h_update(y)),
                               plant.regressor(y) * 0.02)


class TestEmbedding:
    def test_matched_run_is_exact(self, spec):
        # converged_at needs an in-tolerance run spanning 3 input periods,
        # so the horizon must leave room for one.
        run = run_observer(spec, THETA_STAR, PULSE, horizon=4 * PULSE.period,
                           tolerance=0.0316, plant_ic=np.array([-0.7, 0.0]),
                           theta0=THETA_STAR.copy(), policy=FixedStep(1e-3))
        st = run.traces.states
        assert np.array_equal(st[:, 0], st[:, 2])  # y == y_hat bitwise
        assert np.array_equal(st[:, 1], st[:, 3])
        assert np.all(st[:, 4:] == THETA_STAR)
        assert run.converged_at == 0.0

    def test_coupled_embedding_dimension(self, spec):
        model = coupled_system(spec, THETA_STAR)
        assert model.n == 6

    def test_antiderivative_shift_is_invisible(self):
        # The estimate moves only through H(y) - H(y_hat), so adding a
        # constant to H cancels. With matched initial data the difference is
        # exactly zero at every integrator stage and the cancellation is
        # bitwise. With a parameter error it is only analytic: the shifted
        # callable rounds H(y) + 7.5 before the difference is taken, which
        # perturbs the update at the last-bit level, so we bound the drift
        # instead (measured 3.7e-14 over three input periods).
        plant = neuron_family()
        base = build_observer(plant)
        shifted = build_observer(
            plant, h=plant.update_regressor,
            H=lambda y: np.asarray(plant.update_antiderivative(y)) + 7.5)
        kw = dict(horizon=PULSE.period, tolerance=0.0316,
                  plant_ic=np.array([-0.7, 0.0]), policy=FixedStep(1e-3))
        m1 = run_observer(base, THETA_STAR, PULSE,
                          theta0=THETA_STAR.copy(), **kw)
        m2 = run_observer(shifted, THETA_STAR, PULSE,
                          theta0=THETA_STAR.copy(), **kw)
        assert np.array_equal(m1.traces.states, m2.traces.states)

        kw["horizon"] = 3 * PULSE.period
        a = run_observer(base, THETA_STAR, PULSE,
                         theta0=np.array([0.3, 1.8]), **kw)
        b = run_observer(shifted, THETA_STAR, PULSE,
                         theta0=np.array([0.3, 1.8]), **kw)
        # plant states never see H at all
        assert np.array_equal(a.traces.states[:, :2], b.traces.states[:, :2])
        assert np.max(np.abs(a.traces.states - b.traces.states)) < 1e-12


class TestRunObserver:
    def test_requires_period(self, spec):
        with pytest.raises(ConfigError):
            run_observer(spec, THETA_STAR, Zero(), horizon=10.0,
                         tolerance=0.03)

    def test_unexcited_run_stalls(self, spec):
        run = run_observer(spec, THETA_STAR, Zero(), horizon=30.0,
                           tolerance=0.0316, input_period=2.8,
                           plant_ic=np.array([-0.7, 0.0]),
                           theta0=np.array([0.3, 1.8]), policy=FixedStep(1e-3))
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

    def test_zero_update_leaves_parameter_block_identity(self, spec,
                                                         observer_run):
        plant = neuron_family()
        frozen = build_observer(plant, h=lambda y: np.zeros(2),
                                H=lambda y: np.zeros(2))
        ref = observer_run[0]["reference"]
        check = observer_contraction_check(frozen, THETA_STAR, ref, PULSE)
        phi = check.monodromy.phi
        n = plant.n
        assert np.array_equal(phi[n:, :n], np.zeros((2, n)))
        assert np.array_equal(phi[n:, n:], np.eye(2))

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
