"""Pest-free periodic orbit of a release schedule, and its stability.

With no pests present the predator pool decays exponentially between
releases and jumps by mu*T at every release instant nT.  That sawtooth has
a single globally attracting T-periodic profile with closed-form peak and
floor.  Stability of the full model around (0, y_p) is decided by the two
budget thresholds from :mod:`bioctl.kernels`: mu > s_limit is equivalent
to local asymptotic stability, mu > s_sup is sufficient for global
asymptotic stability.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .kernels import DomainError, InputOverflowError, KernelReport

__all__ = [
    "ReleaseProgram",
    "PestFreeOrbit",
    "next_release",
    "Verdict",
    "StabilityAssessment",
    "floquet_multipliers",
    "stability_verdict",
]


@dataclass(frozen=True)
class ReleaseProgram:
    """Periodic impulsive releases: mu*T predators every T time units."""

    mu: float
    T: float

    def __post_init__(self):
        if self.mu <= 0:
            raise DomainError(f"budget rate must be positive, got mu={self.mu}")
        if self.T <= 0:
            raise DomainError(f"release period must be positive, got T={self.T}")

    @property
    def per_release(self) -> float:
        return self.mu * self.T


@dataclass(frozen=True)
class PestFreeOrbit:
    """The T-periodic predator profile when the pest is extinct.

    ``peak`` is the post-release level, ``floor`` the pre-release level one
    period later; peak - floor = mu*T exactly.
    """

    mu: float
    T: float
    m: float

    def __post_init__(self):
        if self.mu <= 0 or self.T <= 0 or self.m <= 0:
            raise DomainError("orbit needs mu > 0, T > 0, m > 0")

    @property
    def peak(self) -> float:
        return self.mu * self.T / -math.expm1(-self.m * self.T)

    @property
    def floor(self) -> float:
        return self.mu * self.T / math.expm1(self.m * self.T)

    def eval(self, t: float, post: bool = False) -> float:
        """Orbit value at t >= 0, its phase counted from the last release
        instant at or before t.  At a release instant the pre-release value
        is returned unless post=True asks for the level just after the jump."""
        if t < 0:
            raise DomainError("orbit is defined for t >= 0")
        phase = t - (next_release(t, self.T) - 1) * self.T
        if phase == 0.0:
            return self.peak if post else self.floor
        return self.peak * math.exp(-self.m * phase)


def next_release(t: float, T: float) -> int:
    """Index n of the first release instant after t: the smallest n with
    n*T > t in floats, the release instants being the float products n*T.
    t is itself one iff t == (n - 1)*T.  t/T can round either way, so the
    guess from it is stepped in both directions."""
    if not abs(t) / T < 2.0 ** 53:
        raise InputOverflowError(f"t={t:g} is too large for period T={T:g}: "
                                 "release counts past 2^53 do not fit a float")
    n = math.floor(t / T) + 1
    while (n - 1) * T > t:
        n -= 1
    while n * T <= t:
        n += 1
    return n


def floquet_multipliers(growth_slope0: float, response_slope0: float, m: float,
                        program: ReleaseProgram):
    """One-period multipliers of the model linearized around (0, y_p).

    Returns (pest multiplier, predator multiplier).  The pest direction
    carries exp(T*(f'(0) - g'(0)*mu/m)) because the orbit integrates to
    mu*T/m over a period; the predator direction always contracts by
    exp(-m*T).  A pest multiplier past the largest float is inf.
    """
    if m <= 0:
        raise DomainError("m must be positive")
    try:
        pest = math.exp(program.T * (growth_slope0 - response_slope0 * program.mu / m))
    except OverflowError:
        pest = math.inf
    predator = math.exp(-m * program.T)
    return pest, predator


class Verdict(enum.Enum):
    GAS = "GAS"
    LAS_ONLY = "LAS_only"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class StabilityAssessment:
    verdict: Verdict
    boundary: bool
    pest_multiplier: float
    s_limit: float
    s_sup: float
    note: str


def stability_verdict(report: KernelReport, program: ReleaseProgram) -> StabilityAssessment:
    """Classify the pest-free orbit for a validated kernel set.

    GAS needs mu strictly above s_sup; budgets in (s_limit, s_sup] are
    locally stable but the global question stays open there, so they are
    labeled LAS_only.  A budget sitting exactly on a threshold sets the
    ``boundary`` flag.  Refuses to judge a kernel set whose checks failed.
    """
    if not report.all_ok:
        bad = ", ".join(name for name, ok in report.checks.items() if not ok)
        raise DomainError(f"cannot judge stability, kernel checks failed: {bad}")
    mu = program.mu
    pest_mult, _ = floquet_multipliers(
        report.growth_slope0, report.response_slope0, report.m, program)
    on_limit = math.isclose(mu, report.s_limit, rel_tol=1e-12)
    on_sup = math.isclose(mu, report.s_sup, rel_tol=1e-12)
    boundary = on_limit or on_sup
    if mu > report.s_sup and not on_sup:
        verdict = Verdict.GAS
        note = "pest-free orbit globally asymptotically stable"
    elif mu > report.s_limit and not on_limit:
        verdict = Verdict.LAS_ONLY
        note = "locally asymptotically stable; global stability unknown"
    else:
        verdict = Verdict.UNSTABLE
        note = ("budget exactly on the local threshold: unit multiplier"
                if on_limit else
                "pest-free orbit unstable: budget below the local threshold")
    return StabilityAssessment(verdict, boundary, pest_mult,
                               report.s_limit, report.s_sup, note)
