import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm

from condux.errors import PeriodMismatch
from condux.integrate import FixedStep, integrate
from condux.models import fitzhugh_nagumo, leaky_integrator, planar_limit_cycle
from condux.signals import Constant
from condux.variational import (
    contraction_probe,
    floquet,
    hurwitz,
    refine_periodic_orbit,
    state_transition,
    transition_matrix,
)


def test_transition_matrix_constant_field():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    grid = np.linspace(0.0, 1.3, 1301)
    phi = transition_matrix(lambda t: A, grid)
    assert np.max(np.abs(phi - expm(1.3 * A))) < 1e-8


def test_flow_composition_and_volume_identity():
    model = fitzhugh_nagumo()
    traj = integrate(model, None, 0.0, 2.0, np.array([1.0, 0.0]), FixedStep(1e-4))
    full = state_transition(model, traj, 0.0, 2.0)
    half = (state_transition(model, traj, 1.0, 2.0)
            @ state_transition(model, traj, 0.0, 1.0))
    assert np.max(np.abs(full - half)) / np.max(np.abs(full)) < 1e-7
    tr = np.array([np.trace(model.jac(t, s, 0.0))
                   for t, s in zip(traj.ts, traj.states)])
    liou = math.exp(float(simpson(tr, x=traj.ts)))
    assert abs(float(np.linalg.det(full)) - liou) / liou < 1e-6


def test_planar_cycle_multipliers():
    # unit circle at unit speed: multipliers are 1 (phase) and e^(-2 pi)
    model = planar_limit_cycle()
    traj = integrate(model, None, 0.0, 2.0 * math.pi, np.array([1.0, 0.0]),
                     FixedStep(0.001))
    mono = floquet(model, traj)
    lams = sorted(np.abs(mono.eigenvalues), reverse=True)
    assert lams[0] == pytest.approx(1.0, abs=1e-4)
    assert lams[1] == pytest.approx(math.exp(-2.0 * math.pi), abs=1e-4)


def test_monodromy_json_shape():
    model = planar_limit_cycle()
    traj = integrate(model, None, 0.0, 2.0 * math.pi, np.array([1.0, 0.0]),
                     FixedStep(0.01))
    d = floquet(model, traj).to_json_dict()
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

