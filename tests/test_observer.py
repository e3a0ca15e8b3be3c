import dataclasses
import math

import numpy as np
import pytest

import condux.models
from condux.errors import AntiderivativeMismatch, ConfigError, PeriodMismatch
from condux.integrate import Trajectory
from condux.models import neuron_family
from condux.observer import (
    coupled_system,
    error_system,
    observer_contraction_check,
    run_observer,
)
from condux.signals import SquarePulseTrain, Zero
from condux.variational import floquet

THETA_STAR = np.array([0.5, 1.5])
PULSE = SquarePulseTrain(magnitude=-3.0, duration=0.002, period=2.8)


@pytest.fixture(scope="module")
def plant():
    return neuron_family()


class TestBuildObserver:
    def test_antiderivative_mismatch_rejected(self, plant):
        with pytest.raises(AntiderivativeMismatch):
            # not an antiderivative of hu
            dataclasses.replace(plant, update=lambda y: (y, y))

    def test_update_direction_matches_regressor_sign(self, plant):
        # the update regressor is the plant regressor without the 1/eps scale
        for y in (-0.8, -0.4, 0.5):
            _, _, _, _, h0, h1, hu0, hu1 = plant.derivatives(0.0, y, 0.5, 0.0, 0.5, 1.5)
            assert np.allclose([hu0, hu1], np.array([h0, h1]) * 0.02)

    def test_gate_lookups_per_call(self, plant, monkeypatch):
        # every hook call reads its gates with exactly one call of its own
        # compiled stack, and the fields make no lookup outside a hook: the
        # plant and error fields make one hook call per rhs or jac, the
        # coupled rhs one values and one update call per block and the
        # coupled jac one derivatives call per block
        own = {"values": "NEURON_GATES", "update": "NEURON_UPDATE_GATES",
               "derivatives": "NEURON_GATE_SLOPES"}
        lookups = []
        for name in own.values():
            stack = getattr(condux.models, name)
            monkeypatch.setattr(condux.models, name,
                                lambda y, name=name, stack=stack:
                                lookups.append(name) or stack(y))
        calls = []

        def counted(hook):
            def call(*args):
                before = len(lookups)
                out = getattr(plant, hook)(*args)
                calls.append((hook, lookups[before:]))
                return out
            return call

        counted_plant = dataclasses.replace(plant, **{hook: counted(hook) for hook in own})
        s = (-0.3, 0.2, 0.1, 0.4, 0.45, 1.6)
        for field, state, rhs_hooks, jac_hooks in (
                (coupled_system(counted_plant, THETA_STAR), s,
                 ["values", "values", "update", "update"], ["derivatives"] * 2),
                (counted_plant.model(THETA_STAR), s[:2], ["values"], ["derivatives"]),
                (error_system(counted_plant), s[2:], ["values"], ["derivatives"])):
            for fn, hooks in ((field.rhs, rhs_hooks), (field.jac, jac_hooks)):
                lookups.clear()
                calls.clear()
                fn(0.0, state, 0.5)
                assert calls == [(hook, [own[hook]]) for hook in hooks]
                assert len(lookups) == len(hooks)


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
        shifted = dataclasses.replace(
            plant, update=lambda y: tuple(a + 7.5 for a in plant.update(y)))
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
        report = observer_run[1]
        lams = [math.hypot(*lam) for lam in report["extended_monodromy"]["eigenvalues"]]
        assert max(lams) == pytest.approx(0.95927, abs=5e-3)
        assert report["contraction_verdict"]
        # depends only on the orbit anchor y at t0 = 112, a pulse edge
        assert report["q_min_eigenvalue"] == pytest.approx(0.872891, abs=1e-5)
        # the identity-metric one-period difference is an indefinite
        # diagnostic here (non-normal transient), recorded but not a verdict
        assert report["lyapunov_decreases"] is False
        assert report["lyapunov_shift"] > 0

    def test_reference_closes(self, observer_run):
        assert observer_run[1]["reference_closure_gap"] < 1e-10

    def test_zero_update_leaves_parameter_block_identity(self, plant,
                                                         observer_run):
        # the whole update is zero: H in the update hook, and hu in the
        # derivatives hook that jac reads
        def frozen_derivatives(t, y, z, u, th0, th1):
            return (*plant.derivatives(t, y, z, u, th0, th1)[:6], 0.0, 0.0)

        frozen = dataclasses.replace(plant, update=lambda y: (0.0, 0.0),
                                     derivatives=frozen_derivatives)
        ref = observer_run[0]["reference"]
        check = observer_contraction_check(frozen, THETA_STAR, ref, PULSE)
        phi = check.monodromy.phi
        n = plant.n
        assert np.array_equal(phi[n:, :n], np.zeros((2, n)))
        assert np.array_equal(phi[n:, n:], np.eye(2))

    def test_monodromy_is_the_coupled_lower_right_block_bitwise(self, plant,
                                                                observer_run):
        # the check steps the 4-state error system from (x0, theta_star); its
        # monodromy has the bits of the lower-right block of the 6-state
        # coupled system's, stepped from the embedding (x0, x0, theta_star)
        ref = observer_run[0]["reference"]
        x0 = ref.states[0]
        _, joint = floquet(coupled_system(plant, THETA_STAR), PULSE,
                           np.concatenate([x0, x0, THETA_STAR]), ref.t0, ref.t1 - ref.t0, 1e-3)
        check = observer_contraction_check(plant, THETA_STAR, ref, PULSE, 1e-3)
        n = plant.n
        assert ([v.hex() for v in check.monodromy.phi.ravel()]
                == [v.hex() for v in joint.phi[n:, n:].ravel()])

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
        report = observer_run[1]
        assert report["converged_at"] is None  # horizon 200 is not enough
        assert report["final_theta_error"] == pytest.approx(0.0737, abs=2e-3)
        # the error does decay: final quarter is well below the start
        err = observer_run[0]["traces"]["nominal"]["theta_error"]
        q = err.size // 4
        assert float(err[-q:].max()) < 0.5 * float(err[:q].max())

    def test_embedding_deviation_zero(self, observer_run):
        assert observer_run[1]["embedding_deviation"] == 0.0
