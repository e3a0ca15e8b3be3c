"""Session fixtures: the expensive experiment pipelines run once and are
shared between the acceptance tests and the detailed value checks."""

import time

import pytest

from condux.acceptance import _params
from condux.experiments import (
    chua_pipeline,
    fhn_pipeline,
    hh_pipeline,
    kapitza_pipeline,
    observer_pipeline,
)


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
