import time

import pytest
from hypothesis import HealthCheck, settings

from bioctl import mcharness, planner
from bioctl.kernels import HollingII, KernelSet, Logistic, Proportional

#: arbitrary fixed seed for the reference scatter experiment; pinned so the
#: per-bin statistical checks in the acceptance suite stay reproducible
MC_SEED = 0

settings.register_profile(
    "suite", max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def reference_kernels():
    response = HollingII(1.0, 0.5)
    return KernelSet(growth=Logistic(1.0, 10.0), response=response,
                     numerical=Proportional(1.0, response), m=1.0)


@pytest.fixture(scope="session")
def reference_box():
    return planner.UncertaintyBox(1.0, 5.0, 1.0, 1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def mc_run_200k(reference_box):
    """The full-size reference scatter, shared between the harness tests
    and the acceptance suite; returns (trial columns, wall seconds)."""
    cfg = mcharness.McConfig(box=reference_box, mu=2.0, n_trials=200_000,
                             seed=MC_SEED)
    start = time.perf_counter()
    trials = mcharness.run_mc(cfg)
    return trials, time.perf_counter() - start
