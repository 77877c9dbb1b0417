import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from bioctl.kernels import (
    Allee,
    DomainError,
    HollingI,
    HollingII,
    HollingIV,
    InputOverflowError,
    KernelSet,
    Linear,
    Logistic,
    Proportional,
    UnboundedRatioError,
    ratio_supremum,
    real_roots,
    validate_kernels,
)

rates = st.floats(0.05, 20.0)


def make(growth, response, m=1.0, e=1.0):
    return KernelSet(growth=growth, response=response,
                     numerical=Proportional(e, response), m=m)


# --------------------------------------------------------------------------
# construction and basic rates


@pytest.mark.parametrize("bad", [
    lambda: Linear(0.0),
    lambda: Logistic(1.0, -3.0),
    lambda: Allee(1.0, 5.0, 5.0),
    lambda: Allee(1.0, 0.0, 5.0),
    lambda: HollingI(-1.0),
    lambda: HollingII(1.0, -0.1),
    lambda: HollingIV(1.0, 0.1, 0.0),
    lambda: Proportional(0.0, HollingI(1.0)),
])
def test_invalid_parameters_raise(bad):
    with pytest.raises(DomainError):
        bad()


def test_kernel_set_validation():
    with pytest.raises(DomainError):
        make(Linear(1.0), HollingI(1.0), m=0.0)
    with pytest.raises(DomainError):
        KernelSet(growth=Linear(1.0), response=HollingI(1.0),
                  numerical=Proportional(1.0, HollingI(2.0)), m=1.0)


def test_slopes_at_zero():
    assert Linear(2.5).slope0() == 2.5
    assert Logistic(1.5, 10.0).slope0() == 1.5
    assert Allee(2.0, 2.0, 10.0).slope0() == -2.0
    assert HollingI(0.7).slope0() == 0.7
    assert HollingII(1.2, 0.5).slope0() == 1.2
    assert HollingIV(0.9, 0.3, 0.1).slope0() == 0.9


@given(r=rates, K=st.floats(1.0, 50.0), lam=rates, a=st.floats(0.0, 2.0),
       x=st.floats(1e-9, 40.0))
def test_rates_positive_and_vanishing_at_zero(r, K, lam, a, x):
    k = make(Logistic(r, K), HollingII(lam, a))
    assert k.growth.rate(0.0) == k.response.rate(0.0) == k.numerical.rate(0.0) == 0.0
    assert k.response.rate(x) > 0.0 and k.numerical.rate(x) > 0.0


@given(r=rates, A=st.floats(0.5, 5.0), gap=st.floats(0.5, 20.0))
def test_allee_sign_structure(r, A, gap):
    growth = Allee(r, A, A + gap)
    assert growth.rate(0.5 * A) < 0.0
    assert growth.rate(0.5 * (A + A + gap)) > 0.0
    assert growth.rate(A) == 0.0


# --------------------------------------------------------------------------
# ratio supremum


def test_reference_thresholds(reference_kernels):
    report = validate_kernels(reference_kernels)
    assert report.all_ok
    assert math.isclose(report.s_limit, 1.0, rel_tol=1e-12)
    assert math.isclose(report.s_sup, 1.8, rel_tol=1e-12)
    assert math.isclose(report.s_argmax, 4.0, rel_tol=1e-12)


def test_reference_grid_matches_vertex(reference_kernels):
    s_closed, x_closed = ratio_supremum(reference_kernels)
    assert (s_closed, x_closed) == (1.8, 4.0)
    s_grid, x_grid = helpers.scan_ratio_supremum(reference_kernels)
    assert math.isclose(s_grid, s_closed, rel_tol=1e-6)
    assert math.isclose(x_grid, x_closed, rel_tol=1e-3)


def test_allee_closed_form():
    k = make(Allee(1.0, 2.0, 10.0), HollingI(1.0))
    s, x_star = ratio_supremum(k)
    assert math.isclose(s, 0.8, rel_tol=1e-12)
    assert math.isclose(x_star, 6.0, rel_tol=1e-12)
    s_grid, x_grid = helpers.scan_ratio_supremum(k)
    assert math.isclose(s_grid, s, rel_tol=1e-6)
    assert math.isclose(x_grid, x_star, rel_tol=1e-3)


def test_monotone_ratio_supremum_sits_at_zero():
    # logistic growth against plain proportional consumption: the ratio
    # only decreases, so the supremum is the x -> 0 limit
    k = make(Logistic(2.0, 10.0), HollingI(0.5), m=1.5)
    s, x_star = ratio_supremum(k)
    assert math.isclose(s, 1.5 * 2.0 / 0.5, rel_tol=1e-12)
    assert x_star == 0.0
    # same when the saturating coefficient is too weak for an interior vertex
    k2 = make(Logistic(1.0, 4.0), HollingII(1.0, 0.25))  # a*K = 1
    s2, x2 = ratio_supremum(k2)
    assert math.isclose(s2, 1.0, rel_tol=1e-12) and x2 == 0.0


def test_constant_ratio():
    k = make(Linear(2.0), HollingI(4.0), m=3.0)
    s, x_star = ratio_supremum(k)
    assert math.isclose(s, 1.5, rel_tol=1e-12)
    report = validate_kernels(k)
    assert report.all_ok and report.s_sup == report.s_limit


def test_unbounded_ratio_raises():
    for response in (HollingII(1.0, 0.5), HollingIV(1.0, 0.3, 0.05)):
        k = make(Linear(1.0), response)
        with pytest.raises(UnboundedRatioError):
            ratio_supremum(k)
        with pytest.raises(UnboundedRatioError):
            helpers.scan_ratio_supremum(k)


def test_unbounded_ratio_flagged_not_raised_in_report():
    report = validate_kernels(make(Linear(1.0), HollingII(1.0, 0.5)))
    assert not report.checks["ratio_bounded"]
    assert not report.all_ok
    assert math.isinf(report.s_sup) and math.isnan(report.s_argmax)
    assert report.checks["growth_zero"] and report.checks["consumption_ok"]


@given(r=rates, K=st.floats(2.0, 40.0), lam=rates, a=st.floats(0.01, 2.0),
       m=st.floats(0.2, 3.0))
def test_grid_agrees_with_closed_form(r, K, lam, a, m):
    k = make(Logistic(r, K), HollingII(lam, a), m=m)
    s_closed, _ = ratio_supremum(k)
    s_grid, _ = helpers.scan_ratio_supremum(k)
    assert math.isclose(s_grid, s_closed, rel_tol=1e-6)


@given(r=rates, K=st.floats(2.0, 40.0), lam=rates, a=st.floats(0.0, 2.0),
       m=st.floats(0.2, 3.0))
def test_sup_dominates_zero_limit(r, K, lam, a, m):
    k = make(Logistic(r, K), HollingII(lam, a), m=m)
    report = validate_kernels(k)
    assert report.s_sup >= report.s_limit * (1.0 - 1e-12)
    fp0, gp0 = k.growth.slope0(), k.response.slope0()
    assert math.isclose(report.s_limit, m * fp0 / gp0, rel_tol=1e-12)


_GROWTHS = {
    "linear": st.builds(Linear, rates),
    "logistic": st.builds(Logistic, rates, st.floats(0.5, 50.0)),
    "allee": st.builds(lambda r, K, frac: Allee(r, frac * K, K),
                       rates, st.floats(0.5, 50.0), st.floats(0.01, 0.95)),
}
_RESPONSES = {
    "holling1": st.builds(HollingI, rates),
    "holling2": st.builds(HollingII, rates, st.floats(0.0, 2.0)),
    "holling4": st.builds(HollingIV, rates, st.floats(0.0, 2.0),
                          st.floats(1e-3, 2.0)),
}


@pytest.mark.parametrize("response", sorted(_RESPONSES))
@pytest.mark.parametrize("growth", sorted(_GROWTHS))
@given(data=st.data(), m=st.floats(0.1, 5.0))
def test_supremum_matches_50_digit_maximum(growth, response, data, m):
    k = make(data.draw(_GROWTHS[growth]), data.draw(_RESPONSES[response]), m=m)
    # unbounded exactly when a linear growth law meets a response whose
    # consumption saturates (a > 0 or b > 0)
    if growth == "linear" and response != "holling1" and (
            response == "holling4" or k.response.a > 0.0):
        with pytest.raises(UnboundedRatioError):
            ratio_supremum(k)
        with mpmath.workdps(50):
            x = mpmath.mpf(1e300)
            assert k.m * k.growth.rate(2 * x) / k.response.rate(2 * x) > \
                k.m * k.growth.rate(x) / k.response.rate(x)
        return
    s, x_star = ratio_supremum(k)
    ref = helpers.mp_ratio_supremum(k)
    assert abs(s - ref) <= 1e-13 * abs(ref)
    if x_star > 0.0:
        assert s == k.m * k.growth.rate(x_star) / k.response.rate(x_star)
    else:
        assert s == k.m * k.growth.slope0() / k.response.slope0()


@pytest.mark.parametrize("growth, response", [
    (Logistic(1.0, 1e300), HollingIV(1.0, 0.5, 1e-30)),
    (Logistic(1.0, 1e307), HollingIV(1.0, 0.5, 0.1)),
    (Allee(1.0, 1.0, 1e307), HollingII(1.0, 0.5)),
    (Allee(1.0, 1e-10, 1e300), HollingI(1.0)),
])
def test_overflowing_supremum_is_an_input_error(growth, response):
    # the supremum itself overflows a float; a leading coefficient that
    # underflowed would instead have passed for an unbounded ratio
    with pytest.raises(InputOverflowError):
        ratio_supremum(make(growth, response))


@pytest.mark.parametrize("response", [
    HollingII(1.0, 5e-324),
    HollingIV(1.0, 0.5, 5e-324),
    HollingIV(1.0, 1e-300, 1e-310),
])
def test_subnormal_coefficients_keep_the_supremum(response):
    # a subnormal leading coefficient puts a derivative root beyond the
    # float range; the supremum stays that of the remaining terms
    k = make(Logistic(1.0, 10.0), response)
    s, _ = ratio_supremum(k)
    assert math.isclose(s, float(helpers.mp_ratio_supremum(k)), rel_tol=1e-13)


def test_supremum_fits_a_float_where_f_overflows():
    # m*f/g peaks at x = (A + K)/2 with value m*r/lam * (K - A)^2/(4*A*K),
    # but f(x) alone is about x^2 there and overflows
    k = make(Allee(1.0, 1.0, 1e307), HollingI(1.0), m=1.5)
    s, x_star = ratio_supremum(k)
    assert math.isclose(s, 1.5 * 1e307 / 4.0, rel_tol=1e-15)
    assert math.isclose(x_star, 0.5e307, rel_tol=1e-15)
    report = validate_kernels(k)
    assert report.all_ok and report.s_sup == s


def test_huge_carrying_capacity_keeps_the_checks():
    k = make(Logistic(1.0, 1e307), HollingII(1.0, 0.5))
    report = validate_kernels(k)
    assert report.all_ok
    assert math.isclose(report.s_sup, float(helpers.mp_ratio_supremum(k)),
                        rel_tol=1e-13)


def test_supremum_where_the_derivative_coefficients_overflow():
    # K/A = 1.5e308 is finite, but 2*K/A, the derivative's leading
    # coefficient, is not; the peak is m*r/lam * (K - A)^2/(4*A*K) at (A + K)/2
    k = make(Allee(1.0, 1.0, 1.5e308), HollingI(1.0))
    s, x_star = ratio_supremum(k)
    assert math.isclose(s, 1.5e308 / 4.0, rel_tol=1e-15)
    assert math.isclose(x_star, 0.75e308, rel_tol=1e-15)


# --------------------------------------------------------------------------
# the real-root routine


def _poly_from_roots(lead, roots):
    """Float coefficients of lead * prod(x - r), expanded at 60 digits."""
    with mpmath.workdps(60):
        c = [mpmath.mpf(lead)]
        for r in roots:
            r = mpmath.mpmathify(r)
            c = [a - r * b for a, b in zip(c + [0], [0] + c)]
        return [float(mpmath.re(a)) for a in c]


def _root_tol(c, z):
    """How far a root of c found in floats may lie from its exact root z:
    four times Horner's rounding bound at z over |c'(z)|, plus two ulps."""
    n = len(c) - 1
    with mpmath.workdps(60):
        size = sum(abs(mpmath.mpf(a)) * abs(z) ** (n - i) for i, a in enumerate(c))
        slope = abs(mpmath.polyval([mpmath.mpf((n - i) * a)
                                    for i, a in enumerate(c[:-1])], z))
        if slope == 0:
            return math.inf
        return (float(4 * (2 * n + 1) * mpmath.mpf(2) ** -53 * size / slope)
                + 2 * math.ulp(abs(float(mpmath.re(z)))))


def _random_polys(seed, count):
    """(coefficients, lo, hi) of random polynomials of degree 1 to 3: real
    roots anywhere in or near (lo, hi), close to its ends, repeated, or
    with a complex pair; leading coefficients from 1e-20 to 1e3."""
    rng = np.random.default_rng(seed)

    def real_root(lo, hi):
        w = hi - lo
        kind = rng.integers(5)
        if kind == 0:
            return lo + w * 10.0 ** -rng.uniform(1, 15)
        if kind == 1:
            return hi - w * 10.0 ** -rng.uniform(1, 15)
        if kind == 2:
            return lo + w * rng.uniform(-1, 2)
        return lo + w * rng.uniform()

    for _ in range(count):
        lo, hi = ((0.0, 1.0), (0.0, 40.0), (-3.0, 0.5))[rng.integers(3)]
        degree = int(rng.integers(1, 4))
        roots = [real_root(lo, hi) for _ in range(degree)]
        if degree >= 2 and rng.random() < 0.3:
            roots[1] = roots[0]                      # a double root
        if degree >= 2 and rng.random() < 0.2:
            re, im = real_root(lo, hi), (hi - lo) * 10.0 ** -rng.uniform(0, 8)
            roots[-2:] = [mpmath.mpc(re, im), mpmath.mpc(re, -im)]
        lead = (1.0 if rng.random() < 0.5 else
                float(rng.choice((-1, 1)) * 10.0 ** rng.uniform(-20, 3)))
        yield _poly_from_roots(lead, roots), lo, hi


def test_real_roots_against_60_digit_roots():
    n_checked = 0
    for c, lo, hi in _random_polys(7, 1500):
        found = real_roots(c, lo, hi)
        assert found == sorted(found) and all(lo < f < hi for f in found), (c, found)
        with mpmath.workdps(60):
            exact = mpmath.polyroots([mpmath.mpf(a) for a in c], maxsteps=500,
                                     extraprec=500)
        tols = [_root_tol(c, z) for z in exact]
        # every root found lies within its tolerance of an exact root
        for f in found:
            assert any(abs(f - z) <= t for z, t in zip(exact, tols)), (c, f, exact)
        # every exact real root that rounding leaves apart from the other
        # roots and from the ends of (lo, hi) is found, once
        for j, (z, t) in enumerate(zip(exact, tols)):
            if abs(mpmath.im(z)) > 0 or not lo + t < z < hi - t:
                continue
            if any(abs(z - w) <= t + u for i, (w, u) in enumerate(zip(exact, tols))
                   if i != j):
                continue
            assert sum(abs(f - z) <= t for f in found) == 1, (c, z, found)
            n_checked += 1
    assert n_checked > 1000


@pytest.mark.parametrize("r", [0.5, 0.25, 0.9375, 2.0 ** -40, 1.0 - 2.0 ** -40])
@pytest.mark.parametrize("s", [0.125, 0.75, 3.0, None])
def test_real_roots_finds_a_double_root_once(r, s):
    # (x - r)^2 (x - s) with exact coefficients: the double root is where
    # the derivative vanishes and c rounds to 0
    c = _poly_from_roots(1.0, [r, r] + ([s] if s is not None else []))
    found = real_roots(c, 0.0, 1.0)
    want = sorted({v for v in (r, s) if v is not None and 0.0 < v < 1.0})
    assert len(found) == len(want), (found, want)
    for f, w in zip(found, want):
        assert abs(f - w) <= 1e-12


def test_real_roots_of_a_constant_or_zero_polynomial():
    assert real_roots([0.0, 0.0, 2.0], 0.0, 1.0) == []
    assert real_roots([0.0], 0.0, 1.0) == []
    assert real_roots([], 0.0, 1.0) == []
    # a root at an end of the interval is outside it
    assert real_roots([1.0, -1.0], 0.0, 1.0) == []
    assert real_roots([2.0, -1.0], 0.0, 1.0) == [0.5]
