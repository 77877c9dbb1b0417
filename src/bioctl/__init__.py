"""Impulsive predator-release planning toolkit.

Simulates pest-predator dynamics under periodic predator releases,
verifies eradication thresholds, and plans release periods whose
worst-case pest-damage window meets a target, with robustness analysis
over uncertain growth parameters.
"""

from .kernels import (
    Allee,
    DomainError,
    HollingI,
    HollingII,
    HollingIV,
    InputOverflowError,
    KernelReport,
    KernelSet,
    Linear,
    Logistic,
    Proportional,
    UnboundedRatioError,
    ratio_supremum,
    validate_kernels,
)
from .orbit import (
    PestFreeOrbit,
    ReleaseProgram,
    StabilityAssessment,
    Verdict,
    floquet_multipliers,
    stability_verdict,
)
from .planner import (
    OptimalPeriods,
    PeriodTooLargeError,
    UncertaintyBox,
    WorstCaseReport,
    ZParams,
    damage_time,
    deviation_envelope,
    envelope_argmax,
    envelope_bound_curve,
    max_decay_period,
    optimal_periods,
    robust_envelope,
    t_limits,
    worst_invasion,
)
from .impulsim import (
    HorizonExceededError,
    IntegrationError,
    SimConfig,
    StateConsistencyError,
    Trajectory,
    damage_time_full,
    simulate,
)
from .mcharness import McConfig, Trials, bin_envelope, run_mc, verify_envelope

__version__ = "0.1.0"
