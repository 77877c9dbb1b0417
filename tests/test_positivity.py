"""One positivity rule for every model parameter: each constructor and
function refuses nan, 0 and negative values of its positive parameters
with a DomainError that names the parameter, and nan and negative values
of its nonnegative ones."""

import math

import numpy as np
import pytest

from bioctl import impulsim, mcharness, planner
from bioctl.impulsim import SimConfig
from bioctl.kernels import (
    Allee,
    DomainError,
    HollingI,
    HollingII,
    HollingIV,
    KernelSet,
    Linear,
    Logistic,
    Proportional,
)
from bioctl.orbit import PestFreeOrbit, ReleaseProgram, floquet_multipliers

RESPONSE = HollingII(1.0, 0.5)
KERNELS = KernelSet(Logistic(1.0, 10.0), RESPONSE, Proportional(1.0, RESPONSE), 1.0)
PROGRAM = ReleaseProgram(2.0, 0.5)
Z = planner.ZParams(sigma=1.0, m=1.0, mu=2.0, T=0.5)
BOX = planner.UncertaintyBox(1.0, 5.0, 1.0, 1.0, 1.0, 1.0)
# sigma = -2 leaves budgets in (-2, 0] above sigma
BELOW_ZERO = planner.UncertaintyBox(1.0, 5.0, -2.0, -2.0, 1.0, 1.0)
NO_TRIALS = mcharness.Trials(*[np.empty(0)] * 6, failed=np.empty(0, dtype=bool),
                             engine="closed", deviation_error=np.empty(0))

# (the parameter's name, a call with the parameter set to v)
POSITIVE = [
    ("r", lambda v: Linear(v)),
    ("r", lambda v: Logistic(v, 10.0)),
    ("K", lambda v: Logistic(1.0, v)),
    ("r", lambda v: Allee(v, 2.0, 10.0)),
    ("lam", lambda v: HollingI(v)),
    ("lam", lambda v: HollingII(v, 0.5)),
    ("lam", lambda v: HollingIV(v, 0.5, 0.1)),
    ("b", lambda v: HollingIV(1.0, 0.5, v)),
    ("e", lambda v: Proportional(v, RESPONSE)),
    ("m", lambda v: KernelSet(KERNELS.growth, RESPONSE, KERNELS.numerical, v)),
    ("mu", lambda v: ReleaseProgram(v, 0.5)),
    ("T", lambda v: ReleaseProgram(2.0, v)),
    ("mu", lambda v: PestFreeOrbit(v, 0.5, 1.0)),
    ("T", lambda v: PestFreeOrbit(2.0, v, 1.0)),
    ("m", lambda v: PestFreeOrbit(2.0, 0.5, v)),
    ("m", lambda v: floquet_multipliers(1.0, 1.0, v, PROGRAM)),
    ("m", lambda v: planner.ZParams(sigma=1.0, m=v, mu=2.0, T=0.5)),
    ("T", lambda v: planner.ZParams(sigma=1.0, m=1.0, mu=2.0, T=v)),
    ("mu", lambda v: planner.ZParams(sigma=-2.0, m=1.0, mu=v, T=0.5)),
    ("x_ref", lambda v: planner.x_from_z_local(1.0, v, 1.0, 1.0)),
    ("x", lambda v: planner.z_from_x_global(v, 0.1, 1.0, RESPONSE)),
    ("x_ref", lambda v: planner.z_from_x_global(5.0, v, 1.0, RESPONSE)),
    ("m", lambda v: planner.max_decay_period(2.0, 1.0, v)),
    ("mu", lambda v: planner.max_decay_period(v, -2.0, 1.0)),
    ("z0", lambda v: planner.damage_time(Z, v)),
    ("z0", lambda v: planner.worst_invasion(Z, v)),
    ("z0", lambda v: planner.optimal_periods(v, 2.0, 1.0, 1.0)),
    ("mu", lambda v: planner.optimal_periods(1.0, v, -2.0, 1.0)),
    ("mu", lambda v: planner.t_limits(BELOW_ZERO, v)),
    ("T", lambda v: planner.robust_envelope([0.5, v], BOX, 2.0)),
    ("t_end", lambda v: SimConfig(t_end=v)),
    ("n_bins", lambda v: mcharness.bin_envelope(NO_TRIALS, v, 1.0)),
    ("t_upper", lambda v: mcharness.bin_envelope(NO_TRIALS, 50, v)),
]


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("name, call", POSITIVE)
def test_positive_parameters_refuse_nan_zero_and_negatives(name, call, value):
    with pytest.raises(DomainError, match=rf"must be positive, got {name}="):
        call(value)


NONNEGATIVE = [
    lambda v: HollingII(1.0, v),
    lambda v: HollingIV(1.0, v, 0.1),
    lambda v: PestFreeOrbit(2.0, 0.5, 1.0).eval(v),
    lambda v: impulsim.simulate(KERNELS, PROGRAM, v, 1.0, cfg=SimConfig(t_end=1.0)),
    lambda v: impulsim.simulate(KERNELS, PROGRAM, 1.0, v, cfg=SimConfig(t_end=1.0)),
]


@pytest.mark.parametrize("call", NONNEGATIVE)
def test_nonnegative_parameters_refuse_nan_and_negatives(call):
    call(0.0)
    for value in (math.nan, -1.0):
        with pytest.raises(DomainError):
            call(value)


def test_nan_never_reaches_the_arithmetic():
    # ordered comparisons refuse nan wherever two parameters meet
    with pytest.raises(DomainError):
        planner.ZParams(sigma=1.0, m=1.0, mu=math.nan, T=0.5)
    with pytest.raises(DomainError):
        planner.optimal_periods(1.0, math.nan, 0.0, 1.0)
    with pytest.raises(DomainError):
        planner.UncertaintyBox(1.0, 5.0, math.nan, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        planner.t_limits(BOX, math.nan)
