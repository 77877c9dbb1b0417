import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import helpers
from bioctl import planner
from bioctl.kernels import DomainError, HollingI, HollingII, HollingIV, InputOverflowError
from bioctl.planner import (
    PeriodTooLargeError,
    UncertaintyBox,
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
    x_from_z_local,
    z_from_x_global,
)
from helpers import z_trajectory

REF = ZParams(sigma=1.0, m=1.0, mu=2.0, T=0.8)


def draw_params(rng):
    """One random comparison-model configuration below its decay ceiling."""
    sigma = rng.uniform(0.5, 1.5)
    m = rng.uniform(0.6, 1.6)
    mu = sigma * rng.uniform(1.5, 2.5)
    T = rng.uniform(0.2, 0.8) * max_decay_period(mu, sigma, m)
    return ZParams(sigma=sigma, m=m, mu=mu, T=T)


# --------------------------------------------------------------------------
# changes of variables


@given(x=st.floats(1e-3, 1e3), x_ref=st.floats(1e-3, 10.0),
       m=st.floats(0.1, 4.0), gp0=st.floats(0.1, 4.0))
def test_local_transform_roundtrip(x, x_ref, m, gp0):
    # x_from_z_local inverts the logarithmic coordinate (m / g'(0)) ln(x / x_ref)
    z = m / gp0 * math.log(x / x_ref)
    assert math.isclose(x_from_z_local(z, x_ref, m, gp0), x, rel_tol=1e-12)


def test_global_transform_closed_forms():
    # plain proportional response reduces to the logarithmic coordinate
    assert math.isclose(z_from_x_global(1.0, 0.1, 1.0, HollingI(1.0)),
                        math.log(10.0), rel_tol=1e-12)
    # saturating response adds the linear handling term
    assert math.isclose(z_from_x_global(1.0, 0.1, 1.0, HollingII(1.0, 0.5)),
                        math.log(10.0) + 0.45, rel_tol=1e-12)
    got = z_from_x_global(2.0, 0.5, 1.3, HollingIV(0.8, 0.3, 0.1))
    want, _ = quad(lambda s: 1.3 / (0.8 * s / (1 + 0.3 * s + 0.1 * s * s)),
                   0.5, 2.0, epsrel=1e-12)
    assert math.isclose(got, want, rel_tol=1e-9)


def test_transform_domain_checks():
    with pytest.raises(DomainError):
        x_from_z_local(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        z_from_x_global(1.0, 0.0, 1.0, HollingI(1.0))


# --------------------------------------------------------------------------
# decay ceiling


def test_decay_ceiling_reference():
    t_hat = max_decay_period(2.0, 1.0, 1.0)
    assert abs(2.0 * t_hat / math.expm1(t_hat) - 1.0) < 1e-12
    lo, hi = helpers.scan_decay_ceiling(2.0, 1.0, 1.0, n=100_000)
    assert lo <= t_hat <= hi


def test_decay_ceiling_edge_cases():
    assert max_decay_period(2.0, 0.0, 1.0) == math.inf
    assert max_decay_period(2.0, -3.0, 1.0) == math.inf
    with pytest.raises(DomainError):
        max_decay_period(1.0, 1.0, 1.0)
    # the budget rule comes before the sigma <= 0 shortcut
    for mu, sigma in ((math.inf, 1.0), (math.inf, -1.0), (math.nan, 0.0), (-5.0, -10.0)):
        with pytest.raises(DomainError):
            max_decay_period(mu, sigma, 1.0)
    with pytest.raises(DomainError):
        max_decay_period(2.0, 1.0, 0.0)


@pytest.mark.parametrize("mu, sigma", [(math.inf, 1.0), (math.inf, -1.0), (math.nan, 0.0),
                                       (-5.0, -10.0), (1.0, 1.0), (2.0, 3.0)])
def test_zparams_refuses_the_budgets_the_decay_ceiling_refuses(mu, sigma):
    with pytest.raises(DomainError) as ceiling:
        max_decay_period(mu, sigma, 1.0)
    with pytest.raises(DomainError) as params:
        ZParams(sigma=sigma, m=1.0, mu=mu, T=0.5)
    assert str(params.value) == str(ceiling.value)


def test_decay_ceiling_matches_log_space_bisection():
    # sigma/mu from 1e-300 to 0.999, then on to 1 - 1e-8, where the root
    # x ~ 2(1 - sigma/mu) keeps fewer digits in floats on both sides
    ratios = np.concatenate([np.geomspace(1e-300, 0.999, 150),
                             1.0 - np.geomspace(1e-3, 1e-8, 20)])
    cases = [(0.3 + i % 7, r * (0.3 + i % 7), 0.5 + i % 5)
             for i, r in enumerate(ratios)]
    # subnormal thresholds put the ceiling past where e^{mT} overflows
    cases += [(0.2, 2.2e-309, 1.0), (0.2, 5e-324, 2.0), (2.0, 1e-8, 3.0)]
    for mu, sigma, m in cases:
        tol = 1e-12 if sigma / mu <= 0.999 else 1e-6
        assert math.isclose(max_decay_period(mu, sigma, m),
                            helpers.bisect_decay_ceiling(mu, sigma, m), rel_tol=tol)


def test_decay_ceiling_one_ulp_below_the_budget():
    # x = m*T is about 3e-16 here, where Newton's slope 1/x - 1/q rounds to
    # 0: the iteration stops at its start instead of dividing by it
    mu = 0.33763236396120916
    sigma = math.nextafter(mu, 0.0)
    assert math.isclose(max_decay_period(mu, sigma, 1.0), 2.0 * (mu - sigma) / mu,
                        rel_tol=1e-12)


@given(sigma=st.floats(0.2, 2.0), ratio=st.floats(1.05, 6.0),
       m=st.floats(0.2, 3.0))
def test_decay_ceiling_separates_floor(sigma, ratio, m):
    mu = sigma * ratio
    t_hat = max_decay_period(mu, sigma, m)
    for eps in (1e-6, 1e-3):
        below, above = t_hat * (1 - eps), t_hat * (1 + eps)
        assert mu * below / math.expm1(m * below) >= sigma / m
        assert mu * above / math.expm1(m * above) < sigma / m


# --------------------------------------------------------------------------
# trajectories and damage times


@given(z0=st.floats(0.2, 6.0), t0_frac=st.floats(0.0, 1.0, exclude_max=True),
       horizon=st.floats(0.01, 4.0), seed=st.integers(0, 10_000))
def test_z_trajectory_matches_quadrature(z0, t0_frac, horizon, seed):
    # the closed-form oracle of helpers against its midpoint quadrature
    p = draw_params(np.random.default_rng(seed))
    t0 = t0_frac * p.T
    t = t0 + horizon
    direct = helpers.midpoint_z_value(p.sigma, p.m, p.mu, p.T, z0, t0, t)
    assert math.isclose(z_trajectory(p, z0, t0, t), direct,
                        rel_tol=1e-7, abs_tol=1e-7)


def test_z_trajectory_vector_and_drop():
    ts = np.linspace(0.3, 8.0, 50)
    zs = z_trajectory(REF, 3.0, 0.3, ts)
    assert zs.shape == ts.shape
    assert zs[0] == 3.0
    # one full period later the path has lost exactly the net drop
    one_period = z_trajectory(REF, 3.0, 0.3, 0.3 + REF.T)
    assert math.isclose(3.0 - one_period, REF.net_drop, rel_tol=1e-12)


@given(z0=st.floats(0.05, 8.0), t0_frac=st.floats(0.0, 1.0, exclude_max=True),
       seed=st.integers(0, 10_000))
def test_damage_time_matches_oracle(z0, t0_frac, seed):
    p = draw_params(np.random.default_rng(seed))
    t0 = t0_frac * p.T
    pi = damage_time(p, z0, t0)
    oracle = helpers.oracle_damage_time(p.sigma, p.m, p.mu, p.T, z0, t0,
                                        n_grid=1 << 16)
    assert math.isclose(pi, oracle, rel_tol=5e-6, abs_tol=5e-7)
    # the path is positive up to the crossing and below zero just after
    assert z_trajectory(p, z0, t0, t0 + pi * (1 - 1e-6)) > 0.0
    assert z_trajectory(p, z0, t0, t0 + pi * (1 + 1e-6)) < 0.0


def test_damage_time_of_tiny_invasion_is_small_and_nonnegative():
    # z0 below the rounding of the fall at t0 can put the root before t0
    for T in (0.3, 0.8, 1.25):
        p = ZParams(sigma=1.0, m=1.0, mu=2.0, T=T)
        for t0 in np.linspace(0.0, T, 50, endpoint=False):
            for z0 in (1e-15, 1e-20):
                assert 0.0 <= damage_time(p, z0, float(t0)) < 1e-12


def test_damage_time_validation():
    with pytest.raises(DomainError):
        damage_time(REF, -1.0)
    with pytest.raises(DomainError):
        damage_time(REF, 3.0, t0=0.81)
    big = ZParams(sigma=1.0, m=1.0, mu=2.0, T=1.3)
    with pytest.raises(PeriodTooLargeError):
        damage_time(big, 3.0)


def _mp_draws(z0_hi, n, seed):
    """n comparison models and invasions, rows (T, t0, z0, sigma, m, mu)
    with z0 in [1, z0_hi]: T uniform below the decay ceiling in a third of
    them, within 1e-6 of it (relative) in the rest, half of which are
    planted so that the remainder over the drop lies 1e-17 to 1e-8 drops
    below the drop, as near as the float z0 allows: within the rounding of
    the remainder, which can then wrap to just above 0."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        mu = float(np.exp(rng.uniform(-2.0, 2.0)))
        sigma = mu * rng.uniform(0.01, 0.99)
        m = float(np.exp(rng.uniform(-2.0, 2.0)))
        T = max_decay_period(mu, sigma, m) * (
            1.0 - 10.0 ** rng.uniform(-9.0, -6.0) if i % 3 else rng.uniform())
        t0 = rng.uniform() * T
        z0 = 1.0 + rng.uniform() * (z0_hi - 1.0)
        if i % 3 == 2:
            with mpmath.workdps(50):
                T_, t0_, sigma_, m_, mu_ = map(mpmath.mpf, (T, t0, sigma, m, mu))
                drop = (mu_ - sigma_) * T_
                fall = helpers.mp_fall(t0_, T_, sigma_, m_, mu_)
                gap = mpmath.mpf(10) ** rng.uniform(-17.0, -8.0)
                z0 = float((mpmath.ceil((z0 + fall) / drop) - gap) * drop - fall)
        rows.append((T, t0, z0, sigma, m, mu))
    return np.array(rows).T


def _mp_errors(T, t0, z0, sigma, m, mu, dev):
    """|deviation - its 50-digit value|, elementwise."""
    return np.array([float(abs(mpmath.mpf(d) - helpers.mp_deviation(*row)))
                     for d, *row in zip(dev.tolist(), T.tolist(), t0.tolist(),
                                        z0.tolist(), sigma.tolist(), m.tolist(),
                                        mu.tolist())])


@pytest.mark.parametrize("z0_hi", [5.0, 1e6, 1e12])
def test_deviation_is_within_its_error_bound(z0_hi):
    # the bound's 1/F'(t_r) terms carry the error of the remainder into the
    # phase of the root, where F' falls to 0 at the decay ceiling; without
    # them the draws near the ceiling err by up to 1e5 times the rest.  A
    # remainder that rounds to just above 0 while the exact one lies just
    # below the drop is taken at the drop, where F' is least; taken at 0,
    # some planted draws err by 1e5 times their bound
    draws = _mp_draws(z0_hi, 45, seed=round(math.log10(z0_hi)))
    pi, dev, error = planner._damage_times(*draws)
    assert np.all(np.isfinite(pi)) and np.all(error > 0.0)
    assert np.all(_mp_errors(*draws, dev) <= error)


def test_remainder_reduction_corrects_a_quotient_rounded_across_a_multiple():
    # (z0 + F(t0))/drop is 350131361.99999999: its rounded quotient is the
    # next integer, whose remainder is just below 0 and takes a second pass
    # of the reduction to land just below the drop (without it the error is
    # 4e4 times the bound)
    T, t0, z0 = 0.09287020701322124, 0.005008555494552856, 32516772.06530643
    f0 = float(planner._fall(t0, planner._peak(T, 1.0, 2.0), 1.0, 1.0)[0])
    assert (z0 + f0) / T == 350131362.0
    with mpmath.workdps(50):
        exact = (z0 + helpers.mp_fall(*map(mpmath.mpf, (t0, T, 1.0, 1.0, 2.0)))) / T
        assert mpmath.floor(exact) == 350131361
    draws = tuple(np.array([v]) for v in (T, t0, z0, 1.0, 1.0, 2.0))
    _, dev, error = planner._damage_times(*draws)
    assert _mp_errors(*draws, dev) <= error


def test_remainder_reduction_past_2_53_periods():
    # z0 over the drop is about 3e16: the first pass leaves -1.1 drops
    # here, which the next removes (left in, the error is 1e9 times the bound)
    draws = tuple(np.array([v]) for v in (1e-3, 3e-4, 3e13 + 0.7, 1.0, 1.0, 2.0))
    pi, dev, error = planner._damage_times(*draws)
    assert pi > 2.0 ** 53 * 1e-3
    assert _mp_errors(*draws, dev) <= error


@pytest.mark.filterwarnings("error")
def test_invert_fall_where_the_rate_rounds_to_zero():
    # sigma/mu = 1 - 1.5e-12 and T within rounding of the decay ceiling:
    # F'(T) rounds to 0, and the fall's own value at T took a 0/0 Newton
    # step to nan (a remainder wrapped to the drop sends Newton to T)
    T, sigma, m, mu = 5.10398037875661e-13, 1.1468689842348965, 5.963396675646038, \
        1.146868984236642
    peak = planner._peak(T, m, mu)
    fall, rate = planner._fall(T, peak, sigma, m)
    assert rate == 0.0
    assert planner._invert_fall(np.array([fall]), T, sigma, m, peak).tolist() == [T]


def test_bound_curve_error_bound_against_mpmath():
    # u - 1 - ln u cancels at small m*T: the curve's own error, relative
    # to it, grows like 1/(m*T)
    rng = np.random.default_rng(7)
    for _ in range(30):
        mu = float(np.exp(rng.uniform(-2.0, 2.0)))
        sigma = mu * rng.uniform(0.01, 0.99)
        m = float(np.exp(rng.uniform(-2.0, 2.0)))
        box = UncertaintyBox(1.0, 2.0, sigma, sigma, m, m)
        Ts = 10.0 ** rng.uniform(-10.0, math.log10(5.0), 100) / m
        got = envelope_bound_curve(Ts, box, mu)
        error = planner._bound_curve_error(Ts, box, mu)
        with mpmath.workdps(50):
            for T, g, e in zip(Ts.tolist(), got.tolist(), error.tolist()):
                x = mpmath.mpf(m) * T
                u = x / -mpmath.expm1(-x)
                want = mu / (mpmath.mpf(mu) - sigma) * (u - 1 - mpmath.log(u)) / m
                assert abs(g - want) <= e


# --------------------------------------------------------------------------
# worst invasion instant


def test_worked_worst_case():
    w = worst_invasion(REF, 3.0)
    assert w.case == "interior"
    assert abs(w.t0_star - 0.1146) < 1e-3
    assert abs(w.pi_max - 3.0854) < 1e-3
    assert abs(damage_time(REF, 3.0, 0.0) - 2.8467) < 1e-3
    assert math.isclose(w.deviation, w.pi_max - w.t1, rel_tol=1e-12)
    # at the worst instant the deviation is F(t0*)/(mu - sigma) - t0*, with
    # F the fall of z over the phases [0, t0*]
    peak = planner._peak(REF.T, REF.m, REF.mu)
    fall, _ = planner._fall(w.t0_star, peak, REF.sigma, REF.m)
    assert math.isclose(fall / (REF.mu - REF.sigma) - w.t0_star, w.deviation,
                        rel_tol=1e-9)


def test_resonant_invasions_have_no_deviation():
    for n in range(3, 9):
        T = 3.0 / n
        w = worst_invasion(ZParams(sigma=1.0, m=1.0, mu=2.0, T=T), 3.0)
        assert w.case == "resonant"
        assert w.t0_star == 0.0
        assert abs(w.deviation) < 1e-9
        assert math.isclose(w.pi_max, w.t1, rel_tol=1e-12)


@given(z0=st.floats(0.05, 8.0), seed=st.integers(0, 10_000))
def test_worst_case_dominates_sampled_instants(z0, seed):
    p = draw_params(np.random.default_rng(seed))
    w = worst_invasion(p, z0)
    for frac in (0.0, 0.17, 0.5, 0.83):
        assert damage_time(p, z0, frac * p.T) <= w.pi_max * (1 + 1e-9)
    assert w.pi_max >= w.t1 * (1 - 1e-12)


@given(z0=st.floats(0.05, 8.0), seed=st.integers(0, 10_000))
def test_deviation_below_envelope(z0, seed):
    p = draw_params(np.random.default_rng(seed))
    w = worst_invasion(p, z0)
    bound = p.mu / (p.mu - p.sigma) * deviation_envelope(p.T, p.m)
    assert w.deviation <= bound + 1e-9


def test_worst_invasion_grid_cross_check():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = draw_params(rng)
        z0 = rng.uniform(0.3, 4.5) * p.net_drop
        w = worst_invasion(p, z0)
        grid = helpers.grid_pi_max(p.sigma, p.m, p.mu, p.T, z0,
                                   n_t0=500, n_grid=1 << 16)
        assert grid <= w.pi_max + 1e-6
        assert math.isclose(w.pi_max, grid, rel_tol=5e-4)


# --------------------------------------------------------------------------
# optimal periods


def test_optimal_periods_reference():
    result = optimal_periods(3.0, 2.0, 1.0, 1.0)
    assert result.t1 == 3.0
    assert result.n0 == 2
    assert result.periods[:3] == (1.0, 0.75, 0.6)
    assert len(result.periods) == 8


@given(z0=st.floats(0.1, 20.0), sigma=st.floats(0.2, 2.0),
       ratio=st.floats(1.05, 6.0), m=st.floats(0.2, 3.0))
def test_optimal_periods_straddle_ceiling(z0, sigma, ratio, m):
    mu = sigma * ratio
    result = optimal_periods(z0, mu, sigma, m)
    assert result.t1 / (result.n0 + 1) < result.decay_ceiling
    if result.n0 >= 1:
        assert result.t1 / result.n0 >= result.decay_ceiling
    assert all(T < result.decay_ceiling for T in result.periods)


@given(z0=st.floats(0.1, 20.0), mu=st.floats(0.1, 5.0))
def test_optimal_periods_without_ceiling(z0, mu):
    # nonpositive sigma: any period works, so subdivisions start at 1
    result = optimal_periods(z0, mu, 0.0, 1.0)
    assert result.n0 == 0 and math.isinf(result.decay_ceiling)
    assert result.periods[0] == result.t1


@pytest.mark.parametrize("quotient", [2.0 ** 52 + 3, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 60, 1e300])
def test_optimal_periods_terminate_for_huge_invasions(quotient):
    # t1/ceiling near and past 2^53, where n0 + 1 stops being exact
    ceiling = max_decay_period(2.0, 1.0, 1.0)
    result = optimal_periods(quotient * ceiling, 2.0, 1.0, 1.0)
    assert result.periods == ()
    assert abs(result.n0 - quotient) <= 4 + quotient * 1e-15
    if result.n0 < 2 ** 53:
        assert result.t1 / (result.n0 + 1) < result.decay_ceiling <= result.t1 / result.n0


def test_huge_invasions_overflow_into_input_errors():
    with pytest.raises(InputOverflowError, match="t1/decay_ceiling"):
        optimal_periods(1e308, 1.5, 1.0, 1.0)
    with pytest.raises(InputOverflowError, match="pest density"):
        x_from_z_local(1e300, 0.1, 1.0, 1.0)
    with pytest.raises(InputOverflowError, match="pest density"):
        x_from_z_local(800.0, 0.1, 1.0, 1.0)
    assert x_from_z_local(700.0, 0.1, 1.0, 1.0) < math.inf
    with pytest.raises(InputOverflowError, match="consumption-integral"):
        z_from_x_global(1e200, 0.1, 1.0, HollingIV(1.0, 0.5, 0.1))
    # z0 over the least drop of z in a period, at one invasion
    for routine in (damage_time, worst_invasion):
        with pytest.raises(InputOverflowError, match="z0 up to inf overflow a float at T=0.8"):
            routine(REF, math.inf)


def test_optimal_periods_yield_floor_damage():
    result = optimal_periods(3.0, 2.0, 1.0, 1.0)
    for T in result.periods[:4]:
        w = worst_invasion(ZParams(1.0, 1.0, 2.0, T), 3.0)
        assert abs(w.pi_max - result.t1) < 1e-9


# --------------------------------------------------------------------------
# envelope and robustness


def test_envelope_reference_values():
    assert math.isclose(deviation_envelope(1.0, 1.0), 0.12330156148224453,
                        rel_tol=1e-12)
    assert math.isclose(envelope_argmax(1.0, 1.0), 0.45867514538708193,
                        rel_tol=1e-12)
    assert math.isclose(deviation_envelope(0.8, 1.0), 0.07929884885810967,
                        rel_tol=1e-12)


@given(T=st.floats(1e-4, 4.0), m=st.floats(0.2, 3.0))
def test_envelope_argmax_interior(T, m):
    t_hat0 = envelope_argmax(T, m)
    assert 0.0 < t_hat0 < T


@given(T=st.floats(1e-4, 3.0), m=st.floats(0.2, 3.0),
       bump=st.floats(1e-3, 0.5))
def test_envelope_strictly_increasing(T, m, bump):
    assert deviation_envelope(T + bump, m) > deviation_envelope(T, m)
    assert deviation_envelope(T, m + bump) > deviation_envelope(T, m)


def test_envelope_vanishes_at_zero():
    assert deviation_envelope(1e-6, 1.0) < 1e-6
    assert deviation_envelope(1e-9, 0.3) < 1e-9


@given(z0_frac=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
@settings(max_examples=20)
def test_envelope_is_attained_supremum(z0_frac, seed):
    # the dense-grid worst deviation over a full resonance gap of invasion
    # sizes gets within a t0 grid step of the closed form, never above it
    p = draw_params(np.random.default_rng(seed))
    bound = p.mu / (p.mu - p.sigma) * deviation_envelope(p.T, p.m)
    z0_lo = (1.0 + z0_frac) * p.net_drop
    worst = helpers.grid_worst_deviation(p.sigma, p.m, p.mu, p.T,
                                         z0_lo, z0_lo + p.net_drop)
    assert worst <= bound + 1e-9
    assert worst >= bound - p.T / 2000


def test_uncertainty_box_validation():
    with pytest.raises(DomainError):
        UncertaintyBox(0.0, 5.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        UncertaintyBox(1.0, 5.0, 2.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        UncertaintyBox(1.0, 5.0, 1.0, 1.0, 1.0, 0.5)
    assert not UncertaintyBox(1.0, 5.0, 0.9, 1.1, 0.8, 1.2).singleton_params


def test_t_limits_reference(reference_box):
    t_lower, t_hat_min = t_limits(reference_box, 2.0)
    t_hat = max_decay_period(2.0, 1.0, 1.0)
    assert math.isclose(t_lower, t_hat, rel_tol=1e-12)
    assert math.isclose(t_hat_min, t_hat, rel_tol=1e-12)


def test_t_limits_narrow_invasion_range():
    # a narrow z0 range cannot span a resonance gap at large periods, so
    # the closed-form region shrinks below the decay ceiling
    box = UncertaintyBox(1.0, 1.5, 1.0, 1.0, 1.0, 1.0)
    t_lower, t_hat_min = t_limits(box, 2.0)
    assert math.isclose(t_lower, 0.25, rel_tol=1e-12)
    assert t_hat_min > t_lower
    with pytest.raises(DomainError):
        t_limits(UncertaintyBox(1.0, 5.0, 1.0, 2.5, 1.0, 1.0), 2.0)


def test_robust_envelope_branches(reference_box):
    # closed-form branch
    direct = robust_envelope(0.8, reference_box, 2.0)
    assert math.isclose(direct, 2.0 * deviation_envelope(0.8, 1.0),
                        rel_tol=1e-12)
    # exact-in-z0 branch above T_L, continuous across the switch
    box = UncertaintyBox(1.0, 1.5, 1.0, 1.0, 1.0, 1.0)
    t_lower, t_hat_min = t_limits(box, 2.0)
    below = robust_envelope(t_lower * 0.999, box, 2.0)
    above = robust_envelope(t_lower * 1.001, box, 2.0)
    assert math.isclose(below, above, rel_tol=5e-2)
    assert above <= 2.0 * deviation_envelope(t_lower * 1.001, 1.0) + 1e-12
    with pytest.raises(PeriodTooLargeError):
        robust_envelope(t_hat_min, box, 2.0)
    with pytest.raises(DomainError):
        robust_envelope(-0.1, box, 2.0)


@pytest.mark.filterwarnings("error")
def test_robust_envelope_of_no_period_is_empty(reference_box):
    got = robust_envelope([], reference_box, 2.0)
    assert got.dtype == np.float64 and got.shape == (0,)
    assert envelope_bound_curve([], reference_box, 2.0).shape == (0,)
    # the box and mu are still checked
    with pytest.raises(DomainError):
        robust_envelope([], reference_box, 0.5)


def test_envelope_bound_curve_monotone(reference_box):
    Ts = np.linspace(0.01, 1.2, 120)
    bounds = envelope_bound_curve(Ts, reference_box, 2.0)
    assert np.all(np.diff(bounds) > 0.0)
    wide = UncertaintyBox(1.0, 5.0, 0.8, 1.2, 0.7, 1.3)
    assert np.all(envelope_bound_curve(Ts, wide, 2.0) >= bounds - 1e-15)


def grid_t_limits(box, mu):
    # the 33x33 parameter scan t_limits replaced
    t_big = t_hat_min = math.inf
    for sig, mm in helpers.param_grid(box):
        t_hat = max_decay_period(mu, sig, mm)
        t_hat_min = min(t_hat_min, t_hat)
        t_big = min(t_big, t_hat, 0.5 * (box.z0_hi - box.z0_lo) / (mu - sig))
    return t_big, t_hat_min


def corner_libm(T, box, mu):
    u = box.m_hi * T / -math.expm1(-box.m_hi * T)
    return mu / (mu - box.sigma_hi) * (u - 1.0 - math.log(u)) / box.m_hi


@st.composite
def boxes(draw):
    """(box, mu) with sigma and m ranges that are either points or at least
    1% wide."""
    z0_lo = draw(st.floats(0.1, 5.0))
    z0_hi = z0_lo + draw(st.floats(0.0, 5.0))
    sig_lo = draw(st.floats(-0.5, 1.5))
    sig_hi = sig_lo + draw(st.just(0.0) | st.floats(0.01, 0.5))
    m_lo = draw(st.floats(0.3, 2.0))
    m_hi = m_lo * (1.0 + draw(st.just(0.0) | st.floats(0.01, 0.5)))
    mu = max(sig_hi, 0.1) * draw(st.floats(1.2, 3.0))
    return UncertaintyBox(z0_lo, z0_hi, sig_lo, sig_hi, m_lo, m_hi), mu


@given(bm=boxes())
@settings(max_examples=30)
def test_t_limits_equal_grid_minimum(bm):
    box, mu = bm
    assert t_limits(box, mu) == grid_t_limits(box, mu)


@given(bm=boxes(), T=st.floats(0.01, 3.0))
def test_envelope_bound_curve_equals_grid_maximum(bm, T):
    box, mu = bm
    Ts = np.array([T, 0.5 * T, 0.1 * T])
    grid = np.full(Ts.shape, -np.inf)
    for sig, mm in helpers.param_grid(box):
        np.maximum(grid, mu / (mu - sig) * deviation_envelope(Ts, mm), out=grid)
    assert np.array_equal(envelope_bound_curve(Ts, box, mu), grid)


@given(mu=st.floats(0.5, 5.0), frac=st.floats(0.05, 0.9), m=st.floats(0.2, 3.0),
       bump=st.floats(1e-3, 0.5))
def test_decay_ceiling_decreases_in_sigma_and_m(mu, frac, m, bump):
    sigma = frac * mu
    t_hat = max_decay_period(mu, sigma, m)
    assert max_decay_period(mu, sigma * (1.0 + bump * (1.0 - frac)), m) < t_hat
    assert max_decay_period(mu, sigma, m * (1.0 + bump)) < t_hat


@given(bm=boxes())
@settings(max_examples=30)
def test_robust_envelope_above_t_lower_below_corner(bm):
    box, mu = bm
    t_lower, t_hat_min = t_limits(box, mu)
    assume(t_lower < t_hat_min < math.inf)
    Ts = np.linspace(t_lower, t_hat_min, 13)[1:-1]
    got = robust_envelope(Ts, box, mu)
    assert got.shape == Ts.shape
    assert all(0.0 <= g <= corner_libm(T, box, mu) for T, g in zip(Ts, got))
    assert robust_envelope(float(Ts[3]), box, mu) == got[3]


@given(seed=st.integers(0, 10_000), lo=st.floats(0.5, 3.0), width=st.floats(0.01, 1.5))
@settings(max_examples=20)
def test_robust_envelope_is_exact_in_z0(seed, lo, width):
    # singleton parameters, z0 box inside one gap, across a multiple of the
    # per-period drop, or over a full gap: the dense grid lands within a t0
    # grid step below the exact value, never above it
    p = draw_params(np.random.default_rng(seed))
    box = UncertaintyBox(lo * p.net_drop, (lo + width) * p.net_drop,
                         p.sigma, p.sigma, p.m, p.m)
    exact = robust_envelope(p.T, box, p.mu)
    worst = helpers.grid_worst_deviation(p.sigma, p.m, p.mu, p.T,
                                         box.z0_lo, box.z0_hi)
    assert exact - p.T / 2000 <= worst <= exact + 1e-9


def test_robust_envelope_dominates_dense_grid_on_varying_box():
    # above T_L on a box where sigma and m vary, no parameter point of the
    # 33x33 grid has a dense-grid worst deviation above robust_envelope
    box, mu = UncertaintyBox(1.0, 1.3, 0.8, 1.0, 0.9, 1.1), 2.0
    t_lower, t_hat_min = t_limits(box, mu)
    grid = helpers.param_grid(box)
    rng = np.random.default_rng(5)
    picks = [grid[0], grid[32], grid[-33], grid[-1]] + \
        [grid[i] for i in rng.choice(len(grid), 4, replace=False)]
    for T in (0.5 * (t_lower + t_hat_min), 0.9 * t_hat_min):
        bound = robust_envelope(T, box, mu)
        assert t_lower < T and bound <= corner_libm(T, box, mu)
        for sig, mm in picks:
            worst = helpers.grid_worst_deviation(sig, mm, mu, T, box.z0_lo, box.z0_hi)
            assert worst <= bound + 1e-9


@given(bm=boxes(), frac=st.floats(0.0, 1.0))
@settings(max_examples=30)
def test_robust_envelope_reads_only_m_hi(bm, frac):
    # the deviation rises in m, so every robustness output is taken at m_hi:
    # moving m_lo up to m_hi, or to any value in between, changes no bit
    box, mu = bm
    t_lower, t_hat_min = t_limits(box, mu)
    top = t_hat_min if t_hat_min < math.inf else t_lower + 1.0
    Ts = np.linspace(0.0, top, 14)[1:-1]
    got = robust_envelope(Ts, box, mu)
    for m_lo in (box.m_hi, min(box.m_lo + frac * (box.m_hi - box.m_lo), box.m_hi)):
        moved = dataclasses.replace(box, m_lo=m_lo)
        assert t_limits(moved, mu) == (t_lower, t_hat_min)
        assert np.array_equal(robust_envelope(Ts, moved, mu), got)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=6, deadline=None)
def test_oracle_worst_deviation_rises_in_m(seed):
    # the fact robust_envelope's m_hi evaluation rests on, seen through the
    # oracle alone: at fixed sigma and z0 range, a larger m never gives a
    # smaller dense-grid worst deviation, up to a t0 grid step
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.5, 1.5)
    mu = sigma * rng.uniform(1.5, 2.5)
    m1 = rng.uniform(0.6, 1.6)
    m2 = m1 * rng.uniform(1.01, 1.5)
    T = rng.uniform(0.2, 0.9) * helpers.bisect_decay_ceiling(mu, sigma, m2)
    z0_lo = rng.uniform(0.5, 3.0) * (mu - sigma) * T
    z0_hi = z0_lo + rng.uniform(0.0, 1.5) * (mu - sigma) * T
    lower, upper = (helpers.grid_worst_deviation(sigma, m, mu, T, z0_lo, z0_hi)
                    for m in (m1, m2))
    assert lower <= upper + T / 2000
