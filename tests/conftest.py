"""Session fixtures: the expensive experiment pipelines run once and are
shared between the acceptance tests and the detailed value checks."""

import math
import time

import numpy as np
import pytest

from condux.acceptance import _params
from condux.design import (
    OutputReference,
    feedforward_from_reference,
    hh_square_reference,
    kapitza_design,
)
from condux.experiments import (
    chua_pipeline,
    fhn_pipeline,
    hh_pipeline,
    kapitza_pipeline,
    observer_pipeline,
)
from condux.lure import chua_system
from condux.models import (
    ConductanceParams,
    hh_conductance,
    kapitza,
    lorenz,
    neuron_family,
)
from condux.observer import coupled_system
from condux.signals import Sinusoid, SquarePulseTrain


def pytest_collection_modifyitems(items):
    # Anything that needs a pipeline run is slow; `pytest -m "not slow"` is
    # the quick unit loop.
    for item in items:
        if any(name.endswith("_run") for name in getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


def _timed(fn, params):
    t0 = time.monotonic()
    results = fn(params)
    return results, time.monotonic() - t0


@pytest.fixture(scope="session")
def kapitza_run():
    return _timed(kapitza_pipeline, _params("kapitza"))


@pytest.fixture(scope="session")
def fhn_run():
    return _timed(fhn_pipeline, _params("fhn"))


@pytest.fixture(scope="session")
def hh_run():
    return _timed(hh_pipeline, _params("hh"))


@pytest.fixture(scope="session")
def chua_run():
    p = _params("chua")
    p["from_rest"] = True
    return _timed(chua_pipeline, p)


@pytest.fixture(scope="session")
def observer_run():
    return _timed(observer_pipeline, _params("observer"))


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
    ff = feedforward_from_reference(model, OutputReference(sq),
                                    0.0, 2.0 * sq.period,
                                    zbar_ic=np.array([sq.value(0.0)]), step=2e-3)
    return model, ff.signal, np.array([1.0, 0.0]), 0.0, sq.period, 2e-3


@pytest.fixture(scope="session")
def lorenz_case():
    return (lorenz(), Sinusoid(amplitude=2.0, omega=3.0), np.array([1.0, 1.0, 1.0]),
            0.0, 1.0, 1e-3)


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
