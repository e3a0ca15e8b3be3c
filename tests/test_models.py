import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condux.errors import GainFloorViolated
from condux.lure import chua_system
from condux.models import (
    ConductanceParams,
    InverseSystem,
    NormalFormModel,
    finite_difference_jacobian,
    fitzhugh_nagumo,
    hh_conductance,
    kapitza,
    leaky_integrator,
    lorenz,
    neuron_family,
    planar_limit_cycle,
)

BUILTINS = [
    kapitza(),
    fitzhugh_nagumo(),
    hh_conductance(ConductanceParams()),
    lorenz(10.0, 28.0, 8.0 / 3.0),
    chua_system(),
    planar_limit_cycle(),
    leaky_integrator(2.0),
]


@pytest.mark.parametrize("model", BUILTINS, ids=lambda m: m.name)
def test_jacobian_matches_finite_difference(model):
    rng = np.random.default_rng(11)
    box = model.sample_box or ((-1.0, 1.0),) * model.n
    lows = np.array([b[0] for b in box])
    highs = np.array([b[1] for b in box])
    for _ in range(40):
        s = rng.uniform(lows, highs)
        u = float(rng.uniform(-1.0, 1.0))
        J = model.jac(0.3, s, u)
        Jfd = finite_difference_jacobian(model, 0.3, s, u)
        scale = max(1.0, float(np.max(np.abs(J))))
        assert np.max(np.abs(J - Jfd)) / scale < 1e-5


class TestKapitza:
    def test_chain_structure(self):
        m = kapitza()
        s = np.array([0.4, -0.2])
        out = m.rhs(0.0, s, 0.7)
        assert out[0] == s[1]
        assert out[1] == pytest.approx(-math.sin(0.4) + 0.2 + 0.7)

    def test_f_inv_affine(self):
        m = kapitza(alpha=2.0, beta=1.0, gamma=0.5)
        x = np.array([0.9, -0.3])
        u = m.f_inv_solve(0.0, x, np.empty(0), 2.0)
        assert m.f(0.0, x, np.empty(0), u) == pytest.approx(2.0, abs=1e-12)

    def test_alpha_zero_rejected(self):
        with pytest.raises(Exception):
            kapitza(alpha=0.0)


def test_f_inv_unreachable_target():
    # bounded f: no u reaches v = 2, the bracket expansion must report it
    saturating = NormalFormModel(
        name="saturating",
        n=1,
        r=1,
        f=lambda t, x, z, u: math.tanh(u),
        f_jac=lambda t, x, z, u: (np.array([0.0]), np.empty(0),
                                  max(1.0 / math.cosh(u) ** 2, 1e-6)),
    )
    with pytest.raises(GainFloorViolated):
        saturating.f_inv_solve(0.0, np.array([0.0]), np.empty(0), 2.0)


class TestConductance:
    def setup_method(self):
        self.m = hh_conductance(ConductanceParams())

    @given(
        y=st.floats(-1.4, 1.3),
        z=st.floats(-0.8, 0.8),
        v=st.floats(-40.0, 40.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_f_inv_residual(self, y, z, v):
        x = np.array([y])
        zz = np.array([z])
        u = self.m.f_inv_solve(0.0, x, zz, v)
        assert abs(self.m.f(0.0, x, zz, u) - v) <= 1e-10 * max(1.0, abs(v))

    def test_parameter_ordering_enforced(self):
        with pytest.raises(Exception):
            hh_conductance(ConductanceParams(E_s=3.0))


def test_inverse_system_shape():
    inv = InverseSystem(fitzhugh_nagumo())
    assert inv.n == 1
    out = inv.rhs(0.0, np.array([0.2]), 0.5)
    # internal dynamics z' = -z + y with y replaced by the drive
    assert out[0] == pytest.approx(-0.2 + 0.5)


def test_neuron_plant_values():
    plant = neuron_family()
    model = plant.model(np.array([0.5, 1.5]))
    out = model.rhs(0.0, np.array([-0.7, 0.0]), 0.0)
    assert out[0] == pytest.approx(142.5, abs=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-15)


def test_neuron_update_antiderivative_consistency():
    plant = neuron_family()
    h = 1e-7
    for y in (-0.9, -0.6, -0.3, 0.2, 0.8):
        fd = (np.asarray(plant.update_antiderivative(y + h))
              - np.asarray(plant.update_antiderivative(y - h))) / (2 * h)
        assert np.allclose(fd, plant.update_regressor(y), atol=1e-6)


def test_neuron_theta_box_and_regressor_scaling():
    plant = neuron_family()
    assert plant.theta_box == ((0.3, 0.7), (1.1, 1.9))
    y = -0.2
    assert np.allclose(plant.regressor(y),
                       np.asarray(plant.update_regressor(y)) / plant_eps())


def plant_eps() -> float:
    # the plant regressor is the update regressor scaled by 1/eps with eps = 0.02
    return 0.02
