import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm

from condux.errors import PeriodMismatch
from condux.integrate import FixedStep, integrate
from condux.models import PlainModel, fitzhugh_nagumo, leaky_integrator, planar_limit_cycle
from condux.signals import Constant
from condux.variational import (
    contraction_probe,
    floquet,
    flow,
    hurwitz,
    refine_periodic_orbit,
)


def test_transition_matrix_constant_field():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rot = PlainModel("rotation", 2, lambda t, s, u: A @ s, lambda t, s, u: A)
    _, phi = flow(rot, None, 0.0, 1.3, np.array([1.0, 0.0]), FixedStep(1e-3))
    assert np.max(np.abs(phi - expm(1.3 * A))) < 1e-8


def test_flow_states_match_integrate():
    model = fitzhugh_nagumo()
    x0 = np.array([1.0, 0.0])
    traj, _ = flow(model, None, 0.0, 2.0, x0, FixedStep(1e-2))
    plain = integrate(model, None, 0.0, 2.0, x0, FixedStep(1e-2))
    assert np.array_equal(traj.ts, plain.ts)
    assert np.array_equal(traj.states, plain.states)


def test_flow_composition_and_volume_identity():
    model = fitzhugh_nagumo()
    pol = FixedStep(1e-4)
    traj, full = flow(model, None, 0.0, 2.0, np.array([1.0, 0.0]), pol)
    first, phi_a = flow(model, None, 0.0, 1.0, traj.states[0], pol)
    _, phi_b = flow(model, None, 1.0, 2.0, first.states[-1], pol)
    half = phi_b @ phi_a
    assert np.max(np.abs(full - half)) / np.max(np.abs(full)) < 1e-7
    tr = np.array([np.trace(model.jac(t, s, 0.0))
                   for t, s in zip(traj.ts, traj.states)])
    liou = math.exp(float(simpson(tr, x=traj.ts)))
    assert abs(float(np.linalg.det(full)) - liou) / liou < 1e-6


def test_transition_matrix_is_fourth_order():
    # differences between steps h, h/2 and h/4 shrink 2^4 = 16x per halving
    # for a fourth-order Phi
    model = fitzhugh_nagumo()
    phis = [flow(model, None, 0.0, 2.0, np.array([1.0, 0.0]), FixedStep(h))[1]
            for h in (0.02, 0.01, 0.005)]
    d1 = np.max(np.abs(phis[0] - phis[1]))
    d2 = np.max(np.abs(phis[1] - phis[2]))
    assert d1 / d2 >= 12.0


def test_planar_cycle_multipliers():
    # unit circle at unit speed: multipliers are 1 (phase) and e^(-2 pi)
    model = planar_limit_cycle()
    _, mono = floquet(model, None, np.array([1.0, 0.0]), 0.0, 2.0 * math.pi,
                      FixedStep(0.001))
    lams = sorted(np.abs(mono.eigenvalues), reverse=True)
    assert lams[0] == pytest.approx(1.0, abs=1e-4)
    assert lams[1] == pytest.approx(math.exp(-2.0 * math.pi), abs=1e-4)


def test_floquet_rejects_a_window_that_is_not_a_period():
    with pytest.raises(PeriodMismatch):
        floquet(planar_limit_cycle(), None, np.array([1.0, 0.0]), 0.0, math.pi,
                FixedStep(0.01))


def test_monodromy_json_shape():
    _, mono = floquet(planar_limit_cycle(), None, np.array([1.0, 0.0]), 0.0,
                      2.0 * math.pi, FixedStep(0.01))
    d = mono.to_json_dict()
    assert len(d["phi"]) == 4
    assert all(len(pair) == 2 for pair in d["eigenvalues"])


def test_refine_periodic_orbit_closes_gap():
    model = planar_limit_cycle()
    loop = refine_periodic_orbit(model, None, np.array([1.05, 0.02]), 0.0,
                                 2.0 * math.pi, FixedStep(0.001))
    assert np.max(np.abs(loop.states[-1] - loop.states[0])) < 1e-10
    assert np.hypot(*loop.states[0]) == pytest.approx(1.0, abs=1e-6)


def test_refine_periodic_orbit_raises_when_loop_does_not_close():
    with pytest.raises(PeriodMismatch):
        refine_periodic_orbit(planar_limit_cycle(), None, np.array([2.0, 0.5]), 0.0,
                              2.0 * math.pi, FixedStep(0.001), max_iters=1)


def test_probe_recovers_rate():
    res = contraction_probe(leaky_integrator(1.0), Constant(0.5),
                            np.array([0.0]), np.array([0.5]), 0.0, 20.0)
    assert res.stable
    assert res.rate == pytest.approx(-1.0, abs=0.01)


def test_probe_flags_divergence():
    import condux.models as m

    unstable = m.PlainModel(
        "antileaky", 1,
        lambda t, s, u: np.array([s[0]]),
        lambda t, s, u: np.array([[1.0]]),
    )
    res = contraction_probe(unstable, None, np.array([0.1]), np.array([0.2]),
                            0.0, 10.0)
    assert not res.stable
    assert res.rate > 0


class TestHurwitz:
    def test_hand_cases(self):
        assert hurwitz([1.0, 3.0, 3.0, 1.0]).stable          # (s+1)^3
        assert not hurwitz([1.0, 0.0, 1.0]).stable           # s^2 + 1
        assert not hurwitz([1.0, -1.0, 1.0]).stable
        assert hurwitz([2.0, 2.0]).stable                    # 2s + 2

    @given(st.lists(st.floats(0.05, 50.0), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_products_of_stable_factors(self, roots):
        poly = np.array([1.0])
        for a in roots:
            poly = np.polymul(poly, [1.0, a])
        assert hurwitz(poly.tolist()).stable
        flipped = np.polymul(poly, [1.0, -roots[0] / 2.0])
        assert not hurwitz(flipped.tolist()).stable

