"""Session fixtures: the expensive experiment pipelines run once and are
shared between the acceptance tests and the detailed value checks."""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import condux.experiments
from condux.acceptance import VERIFY
from condux.config import config_from_dict
from condux.design import (
    OutputReference,
    feedforward_from_reference,
    hh_square_reference,
    kapitza_design,
)
from condux.lure import chua_system
from condux.models import (
    ConductanceParams,
    PlainModel,
    hh_conductance,
    kapitza,
    leaky_integrator,
    lorenz,
    neuron_family,
)
from condux.observer import coupled_system
from condux.signals import InputSignal, SquarePulseTrain


# Test-only fields and signals: a harmonic drive and a planar field with a
# known cycle, for checks that need a closed form to compare against.

@dataclass(frozen=True)
class Sinusoid(InputSignal):
    """u(t) = offset + amplitude * sin(omega * t + phase)."""

    amplitude: float
    omega: float
    phase: float = 0.0
    offset: float = 0.0

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return self.offset + self.amplitude * np.sin(self.omega * ts + self.phase)

    def derivative(self, t):
        # d/dt shifts the phase by pi/2 and multiplies by omega.
        return (
            self.amplitude
            * self.omega
            * np.sin(self.omega * np.asarray(t, dtype=float) + self.phase + math.pi / 2.0)
        )

    def max_angular_frequency(self) -> float:
        return abs(self.omega)


def planar_limit_cycle() -> PlainModel:
    """Planar field with the unit circle as an attracting cycle of period 2 pi."""

    def rhs(t, s, u):
        x, y = s
        r = math.hypot(x, y)
        return (x * (1.0 - r) - y + u, y * (1.0 - r) + x)

    def jac(t, s, u):
        x, y = s
        r = math.hypot(x, y)
        return (
            (1.0 - r - x * x / r, -1.0 - x * y / r),
            (1.0 - x * y / r, 1.0 - r - y * y / r),
        )

    return PlainModel(
        name="planar",
        n=2,
        rhs=rhs,
        jac=jac,
        sample_box=((0.2, 1.5), (0.2, 1.5)),
    )


def pytest_collection_modifyitems(items):
    # Anything that needs a pipeline run is slow; `pytest -m "not slow"` is
    # the quick unit loop.
    for item in items:
        if any(name.endswith("_run") for name in getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


def _verify_run(name, tmp_path_factory):
    """(result, report, wall) of criterion `name`'s verify config, run
    through run_experiment as `condux verify` runs it. The pipeline's result
    dict (report, full-length traces and objects) is kept by wrapping the
    module-global pipeline that run_experiment looks up, as the benchmark
    worker does."""
    cfg = config_from_dict(VERIFY[name][0])
    attr = f"{cfg.experiment}_pipeline"
    pipeline = getattr(condux.experiments, attr)
    kept = []

    def keep(*args, **kwargs):
        kept.append(pipeline(*args, **kwargs))
        return kept[-1]

    t0 = time.monotonic()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(condux.experiments, attr, keep)
        report = condux.experiments.run_experiment(cfg, tmp_path_factory.mktemp(name))
    return kept[0], report, time.monotonic() - t0


@pytest.fixture(scope="session")
def kapitza_run(tmp_path_factory):
    return _verify_run("kapitza", tmp_path_factory)


@pytest.fixture(scope="session")
def fhn_run(tmp_path_factory):
    return _verify_run("fhn", tmp_path_factory)


@pytest.fixture(scope="session")
def hh_run(tmp_path_factory):
    return _verify_run("hh", tmp_path_factory)


@pytest.fixture(scope="session")
def chua_run(tmp_path_factory):
    return _verify_run("chua", tmp_path_factory)


@pytest.fixture(scope="session")
def observer_run(tmp_path_factory):
    return _verify_run("observer", tmp_path_factory)


@pytest.fixture(scope="session")
def properties_run(tmp_path_factory):
    return _verify_run("properties", tmp_path_factory)


# Short forced runs of the built-in fields, as (model, signal, x0, t0, t1,
# step), for checks that compare two ways of stepping the same problem.

@pytest.fixture(scope="session")
def kapitza_case():
    """The pendulum under its designed vibrational feedforward."""
    omega = 300.0
    design = kapitza_design([0.1 * math.pi * k for k in range(1, 10)], omega)
    x0 = np.array([math.pi + 0.3, design.M * omega])
    return kapitza(), design.feedforward, x0, 0.0, 0.3, 1e-4


@pytest.fixture(scope="session")
def hh_case():
    """The conductance model under the feedforward of its square-wave
    reference, over one period with both fast ramps."""
    model = hh_conductance(ConductanceParams())
    sq = hh_square_reference(2.5, 5e-4)
    ff = feedforward_from_reference(model, OutputReference(sq), 0.0, sq.period,
                                    zbar_ic=np.array([sq.value(0.0)]), step=2e-3)
    return model, ff.signal, np.array([1.0, 0.0]), 0.0, sq.period, 2e-3


@pytest.fixture(scope="session")
def lorenz_case():
    return (lorenz(), Sinusoid(amplitude=2.0, omega=3.0), np.array([1.0, 1.0, 1.0]),
            0.0, 1.0, 1e-3)


@pytest.fixture(scope="session")
def leaky_case():
    """The scalar fading-memory system under a pulse train."""
    return (leaky_integrator(0.5), SquarePulseTrain(magnitude=1.5, duration=0.3, period=1.0),
            np.array([0.2]), 0.0, 2.0, 1e-2)


_PULSE = SquarePulseTrain(magnitude=-3.0, duration=0.002, period=2.8)


@pytest.fixture(scope="session")
def neuron_case():
    """The neuron plant at the true parameters under the observer's pulses."""
    model = neuron_family().model(np.array([0.5, 1.5]))
    return model, _PULSE, np.array([-0.7, 0.0]), 0.0, 0.2, 1e-3


@pytest.fixture(scope="session")
def observer_case():
    """Plant and observer stacked, with a parameter error, under the pulses."""
    model = coupled_system(neuron_family(), np.array([0.5, 1.5]))
    x0 = np.array([-0.7, 0.0, -0.7, 0.0, 0.3, 1.8])
    return model, _PULSE, x0, 0.0, 0.2, 1e-3


@pytest.fixture(scope="session")
def chua_case():
    """Chua's loop crossing both switching planes under a sinusoid."""
    return (chua_system(), Sinusoid(amplitude=5.0, omega=1.0), np.array([0.1, 0.0, 0.0]),
            0.0, 2.0, 1e-3)
