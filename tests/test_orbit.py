import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

import helpers
from bioctl.kernels import (
    DomainError,
    HollingII,
    InputOverflowError,
    KernelSet,
    Linear,
    Logistic,
    Proportional,
    validate_kernels,
)
from bioctl.orbit import (
    PestFreeOrbit,
    ReleaseProgram,
    Verdict,
    floquet_multipliers,
    next_release,
    stability_verdict,
)

mus = st.floats(0.1, 10.0)
periods = st.floats(0.05, 5.0)
mortalities = st.floats(0.1, 4.0)


def test_program_validation():
    assert ReleaseProgram(2.0, 0.5).per_release == 1.0
    with pytest.raises(DomainError):
        ReleaseProgram(0.0, 0.5)
    with pytest.raises(DomainError):
        ReleaseProgram(2.0, -1.0)


@given(mu=mus, T=periods, m=mortalities)
def test_orbit_identities(mu, T, m):
    orb = PestFreeOrbit(mu, T, m)
    assert orb.peak > orb.floor > 0.0
    # each release tops the decayed floor back up to the peak
    assert math.isclose(orb.peak - orb.floor, mu * T, rel_tol=1e-12)
    assert math.isclose(orb.floor, orb.peak * math.exp(-m * T), rel_tol=1e-12)


@given(mu=mus, T=periods, m=mortalities,
       phase=st.floats(1e-6, 1.0, exclude_max=True), k=st.integers(0, 50))
def test_orbit_periodicity_and_decay(mu, T, m, phase, k):
    orb = PestFreeOrbit(mu, T, m)
    t = (k + phase) * T
    assert math.isclose(orb.eval(t), orb.eval(phase * T), rel_tol=1e-9)
    assert math.isclose(orb.eval(t), orb.peak * math.exp(-m * phase * T),
                        rel_tol=1e-9)


def test_orbit_release_instant_convention():
    orb = PestFreeOrbit(2.0, 0.5, 1.0)
    assert orb.eval(0.0) == orb.floor
    assert orb.eval(0.0, post=True) == orb.peak
    assert orb.eval(1.5) == orb.floor


@given(T=st.floats(1e-3, 10.0), k=st.integers(0, 10 ** 7))
def test_next_release_is_the_first_float_multiple_after_t(T, k):
    # the release instants are the float products n*T; a t one ulp either
    # side of one, or on it, gets the same release index and phase rule as
    # the simulator, so a release is never applied twice or skipped
    orb = PestFreeOrbit(1.0, T, 1.0)
    for t in (k * T, math.nextafter(k * T, 0.0), math.nextafter(k * T, math.inf)):
        n = next_release(t, T)
        assert (n - 1) * T <= t < n * T
        at_release = t == (n - 1) * T
        assert (orb.eval(t, post=True) != orb.eval(t)) == at_release
        if at_release:
            assert orb.eval(t) == orb.floor and orb.eval(t, post=True) == orb.peak


def test_next_release_refuses_release_counts_past_2_53():
    assert next_release(2.0 ** 52, 1.0) == 2 ** 52 + 1
    with pytest.raises(InputOverflowError):
        next_release(1e300, 0.5)
    with pytest.raises(InputOverflowError):
        PestFreeOrbit(2.0, 0.5, 1.0).eval(2.0 ** 53)


@given(mu=mus, T=periods, m=mortalities)
def test_orbit_period_integral(mu, T, m):
    # releases balance mortality over a cycle: int_0^T y_p = mu*T/m
    orb = PestFreeOrbit(mu, T, m)
    val, _ = quad(lambda t: orb.eval(t, post=True), 0.0, T, epsrel=1e-11)
    assert math.isclose(val, mu * T / m, rel_tol=1e-9)


@given(mu=mus, T=periods, m=mortalities, fp0=st.floats(-2.0, 3.0),
       gp0=st.floats(0.1, 4.0))
def test_floquet_closed_form(mu, T, m, fp0, gp0):
    program = ReleaseProgram(mu, T)
    pest, predator = floquet_multipliers(fp0, gp0, m, program)
    assert math.isclose(predator, math.exp(-m * T), rel_tol=1e-12)
    assert math.isclose(pest, math.exp(T * (fp0 - gp0 * mu / m)), rel_tol=1e-12)


def test_floquet_matches_monodromy_integration(reference_kernels):
    report = validate_kernels(reference_kernels)
    for mu, T in [(2.0, 0.5), (0.8, 1.0), (3.5, 0.2)]:
        pest, _ = floquet_multipliers(report.growth_slope0,
                                      report.response_slope0, report.m,
                                      ReleaseProgram(mu, T))
        numeric = helpers.monodromy_pest_multiplier(
            report.growth_slope0, report.response_slope0, report.m, mu, T)
        assert math.isclose(pest, numeric, rel_tol=1e-10)


def test_verdicts(reference_kernels):
    report = validate_kernels(reference_kernels)

    def verdict_for(mu):
        return stability_verdict(report, ReleaseProgram(mu, 0.5))

    assert verdict_for(2.0).verdict is Verdict.GAS
    assert not verdict_for(2.0).boundary
    las = verdict_for(1.4)
    assert las.verdict is Verdict.LAS_ONLY
    assert "global" in las.note
    unstable = verdict_for(0.9)
    assert unstable.verdict is Verdict.UNSTABLE
    assert unstable.pest_multiplier > 1.0


def test_verdict_boundaries(reference_kernels):
    report = validate_kernels(reference_kernels)
    at_limit = stability_verdict(report, ReleaseProgram(report.s_limit, 0.5))
    assert at_limit.verdict is Verdict.UNSTABLE and at_limit.boundary
    assert math.isclose(at_limit.pest_multiplier, 1.0, rel_tol=1e-12)
    at_sup = stability_verdict(report, ReleaseProgram(report.s_sup, 0.5))
    assert at_sup.boundary


def test_verdict_requires_clean_report():
    k = KernelSet(growth=Linear(1.0), response=HollingII(1.0, 0.5),
                  numerical=Proportional(1.0, HollingII(1.0, 0.5)), m=1.0)
    report = validate_kernels(k)
    with pytest.raises(DomainError):
        stability_verdict(report, ReleaseProgram(2.0, 0.5))
