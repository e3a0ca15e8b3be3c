import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
)
from condux.observer import coupled_system
from condux.piecewise import GateStack, sat_poly
from conftest import planar_limit_cycle

BUILTINS = [
    kapitza(),
    fitzhugh_nagumo(),
    hh_conductance(ConductanceParams()),
    lorenz(10.0, 28.0, 8.0 / 3.0),
    chua_system(),
    planar_limit_cycle(),
    leaky_integrator(2.0),
    neuron_family().model(np.array([0.5, 1.5])),
    # the coupled Jacobian carries the observer contraction certificate
    coupled_system(neuron_family(), np.array([0.5, 1.5])),
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

    def test_alpha_zero_rejected(self):
        with pytest.raises(Exception):
            kapitza(alpha=0.0)


def _still(t, z, y):
    return 0.0


def _still_jac(t, z, y):
    return 0.0, 0.0


# bounded f = tanh(u): not affine in u, so the closed form misses every
# target but v = 0
SATURATING = NormalFormModel(
    name="saturating",
    f=lambda t, y, z, u: np.tanh(u),
    f_jac=lambda t, y, z, u: (0.0, 0.0, np.maximum(1.0 / np.cosh(u) ** 2, 1e-6)),
    g=_still,
    g_jac=_still_jac,
)


def test_f_inv_unreachable_target():
    # no u reaches v = 2, which must be reported alone or among reachable
    # targets
    with pytest.raises(ArithmeticError):
        SATURATING.f_inv(0.0, 0.0, 0.0, 2.0)
    with pytest.raises(ArithmeticError):
        SATURATING.f_inv(np.zeros(3), np.zeros(3), np.zeros(3), np.array([0.5, 2.0, -0.5]))


def test_f_inv_rejects_a_field_not_affine_in_u():
    assert SATURATING.f_inv(0.0, 0.0, 0.0, 0.0) == 0.0
    with pytest.raises(ArithmeticError, match="not affine in u"):
        SATURATING.f_inv(0.0, 0.0, 0.0, 0.5)
    with pytest.raises(ArithmeticError, match="not affine in u"):
        SATURATING.f_inv(np.zeros(3), np.zeros(3), np.zeros(3), np.array([0.0, 0.5, -0.5]))


def test_f_inv_names_the_first_time_below_the_gain_floor():
    # f = y u has no input gain where y = 0
    bilinear = NormalFormModel(
        name="bilinear",
        f=lambda t, y, z, u: y * u,
        f_jac=lambda t, y, z, u: (u, 0.0, y),
        g=_still, g_jac=_still_jac,
    )
    with pytest.raises(GainFloorViolated, match=r"at t=2\.0$"):
        bilinear.f_inv(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0]),
                       np.zeros(3), np.ones(3))


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
        u = self.m.f_inv(0.0, y, z, v)
        assert abs(self.m.f(0.0, y, z, u) - v) <= 1e-10 * max(1.0, abs(v))

    def test_parameter_ordering_enforced(self):
        with pytest.raises(Exception):
            hh_conductance(ConductanceParams(E_s=3.0))


@pytest.mark.parametrize("model", [hh_conductance(ConductanceParams()), fitzhugh_nagumo()],
                         ids=lambda m: m.name)
@given(pts=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-1.5, 1.5),
                              st.floats(-40.0, 40.0), st.floats(-10.0, 10.0)),
                    min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_f_inv_over_arrays_matches_pointwise(model, pts):
    # one call over whole arrays meets the residual bound at every point and
    # gives the bits of the per-point call; so do the gains of f_jac.
    # Hypothesis favours simple floats, on which even y**3 agrees, so every
    # example also carries 256 uniform points.
    rng = np.random.default_rng(len(pts))
    more = rng.uniform((-2.0, -1.5, -40.0, -10.0), (2.0, 1.5, 40.0, 10.0), (256, 4))
    y, z, v, t = np.concatenate([np.array(pts), more]).T
    u = model.f_inv(t, y, z, v)
    assert u.shape == v.shape
    assert np.all(np.abs(model.f(t, y, z, u) - v) <= 1e-10 * np.maximum(1.0, np.abs(v)))
    one = [model.f_inv(tk, yk, zk, vk) for yk, zk, vk, tk in zip(y, z, v, t)]
    assert np.array_equal(u.view(np.int64), np.array(one).view(np.int64))
    for k in range(2):
        tab = np.broadcast_to(model.f_jac(t, y, z, u)[k], y.shape)
        one = [model.f_jac(tk, yk, zk, uk)[k] for yk, zk, uk, tk in zip(y, z, u, t)]
        assert np.array_equal(tab.view(np.int64), np.array(one).view(np.int64))


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


# each stacked gate table and the gates it stacks, slot by slot
STACKS = {
    "NEURON_GATES": ("NEURON_M_INF", "NEURON_TAU", "NEURON_Z_INF", "NEURON_M_INT"),
    "NEURON_GATE_SLOPES": ("NEURON_M_INF", "NEURON_M_INF_PRIME", "NEURON_TAU",
                           "NEURON_TAU_PRIME", "NEURON_Z_INF", "NEURON_Z_INF_PRIME"),
}


@pytest.mark.parametrize("name", ["NEURON_M_INF", "NEURON_M_INF_PRIME", "NEURON_TAU",
                                  "NEURON_TAU_PRIME", "NEURON_Z_INF",
                                  "NEURON_Z_INF_PRIME", "NEURON_M_INT", *STACKS])
def test_piecewise_scalar_call_matches_vectorized(name):
    # the scalar Horner path must agree bit for bit with np.polyval on the
    # piece a vectorized lookup picks, on every piece, at the breakpoints
    # themselves (left piece applies) and one ulp to either side of them; a
    # stacked table gives in each slot the bits of the gate read alone
    import condux.models as m

    table = getattr(m, name)
    gates = [getattr(m, g) for g in STACKS.get(name, (name,))]
    assert all(type(b) is float for b in table.breaks)
    assert table.breaks == tuple(sorted({b for g in gates for b in g.breaks}))
    stack = table if name in STACKS else GateStack(table)
    edges = np.array(table.breaks)
    ys = np.concatenate([np.linspace(-1.5, 1.5, 20001), edges,
                         np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    rows = [stack(float(y)) for y in ys]
    for k, poly in enumerate(gates):
        piece = np.searchsorted(poly.breaks, ys, side="left")
        ref = np.array([np.polyval(poly.coeffs[i], y) for i, y in zip(piece, ys)])
        got = np.array([r[k] for r in rows])
        assert np.array_equal(got, ref)
        alone = GateStack(poly)
        assert got.tobytes() == np.array([alone(float(y))[0] for y in ys]).tobytes()


@given(
    coeffs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3),
    lead=st.floats(0.1, 5.0) | st.floats(-5.0, -0.1),
    lo=st.floats(-2.0, 2.0),
    gap=st.floats(0.1, 3.0),
    ys=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=50),
)
@settings(max_examples=100, deadline=None)
# a double root at 0 where p' is subnormal: its Newton polish overflowed to
# NaN, which dropped the crossing at 0.072 and left p unclamped beyond it
@example(coeffs=[0.2529699259029785, -2.2250738585072014e-308, -8.628728305945069e-159],
         lead=-3.5100717785978217, lo=-5.774788038689606e-114, gap=2.8105433535881876,
         ys=[-4.075401926728632, 5.0])
def test_sat_poly_equals_clamped_polynomial(coeffs, lead, lo, gap, ys):
    # away from its breakpoints (and from the levels, where a near-double
    # root may shift a break by the root solver's sqrt(eps)), the flattened
    # piecewise form is the clamp of the polynomial, bit for bit
    p = (lead, *coeffs)
    hi = lo + gap
    sat = sat_poly(lo, hi, p)
    ys = np.array([y for y in ys
                   if all(abs(y - b) > 1e-6 for b in sat.breaks)
                   and min(abs(np.polyval(p, y) - lo), abs(np.polyval(p, y) - hi)) > 1e-9])
    clamped = np.clip(np.polyval(p, ys), lo, hi)
    gate = GateStack(sat)
    assert np.array_equal(np.array([gate(float(y))[0] for y in ys]), clamped)


def test_neuron_update_antiderivative_consistency():
    plant = neuron_family()
    H = lambda y: np.asarray(plant.values(0.0, y, 0.5, 0.0)[4])
    h = 1e-7
    for y in (-0.9, -0.6, -0.3, 0.2, 0.8):
        fd = (H(y + h) - H(y - h)) / (2 * h)
        assert np.allclose(fd, plant.values(0.0, y, 0.5, 0.0)[3], atol=1e-6)


def test_neuron_theta_box_and_regressor_scaling():
    plant = neuron_family()
    assert plant.theta_box == ((0.3, 0.7), (1.1, 1.9))
    _, _, h, hu, _ = plant.values(0.0, -0.2, 0.5, 0.0)
    assert np.allclose(h, np.asarray(hu) / plant_eps())


def plant_eps() -> float:
    # the plant regressor is the update regressor scaled by 1/eps with eps = 0.02
    return 0.02
