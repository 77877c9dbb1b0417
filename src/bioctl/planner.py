"""Damage-time planning through the scalar comparison model.

Both changes of variables used in the analysis (logarithmic for the local
problem, consumption-integral for the global bound) collapse the pest
equation onto the same scalar form

    dz/dt = sigma - m * y_p(t)

with y_p the pest-free predator orbit and sigma one of the two budget
thresholds from :mod:`bioctl.kernels`.  z is a transformed pest excess
over the economic injury level x_ref: z = 0 means x = x_ref, and an
invasion of transformed size z0 > 0 at time t0 is cleared at the first
root of z(t).  The damage time is Pi = t_f - t0.

What the module provides:

* ``max_decay_period``: the period ceiling below which z strictly
  decreases, whatever the invasion instant;
* ``damage_time``: the exact damage time Pi of a given invasion instant,
  from the piecewise-analytic fall of z over a release period;
* ``worst_invasion``: the invasion instant in [0, T) maximizing Pi, with
  its resonant/interior case split;
* ``optimal_periods``: the periods T1/n whose worst case collapses to the
  theoretical floor T1 = z0/(mu - sigma);
* ``deviation_envelope`` / ``robust_envelope``: the closed-form worst
  deviation Pi_max - T1 over invasion sizes and over rectangular
  parameter uncertainty.

Every damage-time routine assumes the release budget clears the relevant
threshold (mu > sigma) and, where marked, that the period stays below
``max_decay_period``; violations raise :class:`PeriodTooLargeError`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .kernels import (_SPLIT, DomainError, HollingI, HollingII, InputOverflowError,
                      _positive, _split)

__all__ = [
    "PeriodTooLargeError",
    "ZParams",
    "WorstCaseReport",
    "OptimalPeriods",
    "UncertaintyBox",
    "x_from_z_local",
    "z_from_x_global",
    "max_decay_period",
    "damage_time",
    "worst_invasion",
    "optimal_periods",
    "envelope_argmax",
    "deviation_envelope",
    "t_limits",
    "envelope_bound_curve",
    "robust_envelope",
]

#: relative slack under which z0 counts as an exact multiple of the
#: per-period drop; exact resonance has measure zero in floating point and
#: near-misses fall through to the interior case continuously
RESONANCE_RTOL = 1e-12


class PeriodTooLargeError(ValueError):
    """Release period is at or above the ceiling guaranteeing decrease."""


@dataclass(frozen=True)
class ZParams:
    """Parameters of the comparison model dz/dt = sigma - m*y_p(t)."""

    sigma: float
    m: float
    mu: float
    T: float

    def __post_init__(self):
        _positive("mortality", "m", self.m)
        _positive("release period", "T", self.T)
        _check_budget(self.mu, self.sigma)

    @property
    def net_drop(self) -> float:
        # z loses exactly this much over any full release period
        return (self.mu - self.sigma) * self.T


# --------------------------------------------------------------------------
# changes of variables


def x_from_z_local(z: float, x_ref: float, m: float, response_slope0: float) -> float:
    """Pest density x_ref * exp(z * g'(0) / m) of the logarithmic local
    coordinate z = (m / g'(0)) * ln(x / x_ref)."""
    _positive("reference density", "x_ref", x_ref)
    try:
        x = x_ref * math.exp(z * response_slope0 / m)
    except OverflowError:
        x = math.inf
    if x == math.inf:
        raise InputOverflowError(
            f"z0={z:g} is too large: the pest density x_ref*exp(z0*g'(0)/m) "
            "overflows a float")
    return x


def z_from_x_global(x: float, x_ref: float, m: float, response) -> float:
    """Consumption-integral coordinate m * int_{x_ref}^{x} ds / g(s).

    Closed forms for the three Holling responses a ``KernelSet`` can hold.
    """
    _positive("density", "x", x)
    _positive("reference density", "x_ref", x_ref)
    if isinstance(response, HollingI):
        z = m / response.lam * math.log(x / x_ref)
    elif isinstance(response, HollingII):
        z = m / response.lam * (math.log(x / x_ref) + response.a * (x - x_ref))
    else:
        z = m / response.lam * (math.log(x / x_ref)           # HollingIV
                                + response.a * (x - x_ref)
                                + response.b * (x * x - x_ref * x_ref) / 2.0)
    if z == math.inf:
        raise InputOverflowError(
            f"x0={x:g} is too large: its consumption-integral coordinate "
            "overflows a float")
    return z


# --------------------------------------------------------------------------
# the decrease ceiling


def _check_budget(mu: float, sigma: float) -> None:
    """The budget rule of the comparison model: mu positive, finite and
    above sigma."""
    _positive("budget rate", "mu", mu)
    if not sigma < mu < math.inf:
        raise DomainError(
            f"budget rate must exceed sigma and be finite, got mu={mu} and sigma={sigma}")


def max_decay_period(mu: float, sigma: float, m: float) -> float:
    """Largest period below which z(t) is strictly decreasing.

    Unique root of mu*T / (e^{mT} - 1) = sigma/m: there the orbit floor
    touches sigma/m.  With x = m*T it solves x/(e^x - 1) = sigma/mu, taken
    in log form h(x) = ln(x/(1 - e^{-x})) - x - ln(sigma/mu) = 0.  h is
    decreasing and concave, so Newton steps from the right of the root stay
    right of it and fall monotonically to it, until a float fixed point.
    x = -2 ln(sigma/mu) is right of the root since x/(e^x - 1) <= e^{-x/2}.
    mu must pass the budget rule (``_check_budget``).  For sigma <= 0 the
    pest declines under any period; returns inf.  For sigma > 0 a ceiling
    x/m that overflows a float raises InputOverflowError.
    """
    _positive("mortality", "m", m)
    _check_budget(mu, sigma)
    if sigma <= 0:
        return math.inf
    # ln(sigma/mu) to full precision: sigma - mu is exact near the ratio 1;
    # far from it the quotient, which rates scaled alike leave unchanged,
    # unless it is subnormal or zero, where the logs are taken apart
    ratio = sigma / mu
    lr = (math.log1p((sigma - mu) / mu) if 2.0 * sigma > mu
          else math.log(ratio) if ratio >= sys.float_info.min
          else math.log(sigma) - math.log(mu))
    x = -2.0 * lr
    for _ in range(100):
        q = -math.expm1(-x)
        h = math.log(x / q) - x - lr
        slope = 1.0 / x - 1.0 / q
        # h' tends to -1/2 as x -> 0, but 1/x - 1/q cancels to 0 below
        # about x = 1e-15 (sigma within a few ulps of mu), where the start
        # -2 ln(sigma/mu) is already within O(x^2) of the root
        if not slope < 0.0:
            break
        x_next = min(x - h / slope, x)
        if x_next == x:
            break
        x = x_next
    ceiling = x / m
    if ceiling == math.inf:
        raise InputOverflowError(
            f"m={m:g} is too small for mu={mu:g} and sigma={sigma:g}: the "
            "decrease ceiling overflows a float")
    return ceiling


# --------------------------------------------------------------------------
# damage times


def _peak(T, m, mu):
    """The orbit peak P = mu*T/(1 - e^{-m T}) at period T, elementwise."""
    return mu * T / -np.expm1(-m * T)


def _fall(t, peak, sigma, m):
    """Fall of z over the phases [0, t] of a period, F(t) = P*(1 - e^{-m t})
    - sigma*t with P the orbit peak, and its rate F' = m*y_p - sigma."""
    return peak * -np.expm1(-m * t) - sigma * t, m * peak * np.exp(-m * t) - sigma


def _invert_fall(s, T, sigma, m, peak):
    """Phase t in [0, T] where the fall reaches s in [0, (mu - sigma)*T],
    elementwise, given the orbit peak of period T (``_peak``).  Below the
    decay ceiling F is concave and increasing on [0, T], so its tangents
    lie above it: Newton steps from t = 0 stay left of the root and rise
    monotonically to it (clipped to [t, T] in floats).  Within rounding of
    the ceiling F' can round to 0 near T: a step of 0/0 there stays at t.
    """
    t = np.zeros(np.broadcast(s, T, sigma, m).shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            f, rate = _fall(t, peak, sigma, m)
            # fmax and fmin clip as np.clip does, but drop a nan step
            t_next = np.fmin(np.fmax(t + (s - f) / rate, t), T)
            if np.array_equal(t_next, t):
                break
            t = t_next
    return t


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's
    two-sum), elementwise."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _two_product(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker's product
    of the ``_split`` halves), elementwise, barring underflow."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _check_fall_fits(box: UncertaintyBox, mu: float, t_least: float,
                     t_most: float) -> None:
    """Raise InputOverflowError unless ``_fall``, ``_invert_fall`` and the
    period count and exact products of ``_damage_times`` and
    ``robust_envelope`` fit a float at every period in [t_least, t_most]
    and every point of the box.

    They form m*T, the orbit peak P = mu*T/(1 - e^{-m*T}) and its rate
    m*P, all rising in T and in m, so largest at (t_most, m_hi); P divides
    by zero where m*T rounds to 0, first at (t_least, m_lo).  They form s =
    z0 + F(t0), at most z0_hi + (mu - sigma_lo)*t_most since F rises on
    [0, T] to the drop F(T) = (mu - sigma)*T, s over the drop, whose least
    is (mu - sigma_hi)*t_least, and the damage time, about s over mu -
    sigma, which also bounds T1 = z0/(mu - sigma).  The exact products
    split mu - sigma, T, the drop (at most s) and a period count (at most
    s over the drop), each times 2^27 + 1 (``_split``).  So all of them fit
    iff P and m_hi*P at t_most do and 2^27 + 1 times the largest of m_hi*
    t_most, mu - sigma_lo, t_most, s, s over the least drop and s over mu -
    sigma_hi does.
    """
    drop = (mu - box.sigma_hi) * t_least
    if box.m_lo * t_least > 0.0 and drop > 0.0:
        peak = mu * t_most / -math.expm1(-box.m_hi * t_most)
        s = box.z0_hi + (mu - box.sigma_lo) * t_most
        if max(1.0, box.m_hi) * peak < math.inf and _SPLIT * max(
                box.m_hi * t_most, mu - box.sigma_lo, t_most, s, s / drop,
                s / (mu - box.sigma_hi)) < math.inf:
            return
    periods = (f"T={t_most:g}" if t_least == t_most
               else f"the periods [{t_least:g}, {t_most:g}]")
    raise InputOverflowError(
        f"mu={mu:g} and z0 up to {box.z0_hi:g} overflow a float at {periods}: "
        "the orbit peak, its rate, or z0 over the least drop of z in a period "
        "does not fit one")


def _damage_times(T, t0, z0, sigma, m, mu):
    """(Pi, deviation, error) of invasions of size z0 > 0 at phases t0 in
    [0, T), elementwise, below the decay ceiling: the damage time, its
    deviation Pi - T1 from the floor T1 = z0/(mu - sigma), and a bound on
    the deviation's rounding error.

    Counting from the release at 0, z(j*T + phase) = s - j*drop -
    F(phase) with s = z0 + F(t0) and drop = F(T) = (mu - sigma)*T.  So z
    reaches zero in the period k where the remainder r = s - k*drop lies
    in [0, drop], at the phase t_r where the fall meets r, and Pi = k*T +
    t_r - t0, clamped at 0 (for z0 below the rounding of F(t0) the root can
    land just before t0).  The k*T terms cancel from Pi - T1, which is
    G(t0) - G(t_r) = (F(t0) - r)/(mu - sigma) + t_r - t0 with G(t) =
    F(t)/(mu - sigma) - t: terms of the size of T, not of z0.  G(0) = G(T)
    = 0, so the deviation is continuous where r wraps from 0 to drop and k
    drops by one; a remainder within its error of 0 is taken at drop,
    where F' is least, so that the bound below holds on either side.

    Only r needs care.  s is an exact two-sum (s, s_lo), and the drop a
    double-double (D, D_lo): the exact product of fl(mu - sigma) and T, its
    low part plus T times the two-sum residual of mu - sigma.  A pass of
    the reduction takes q = floor(s/D) and subtracts q*(D + D_lo) from (s,
    s_lo) with exact products and sums, rounding only the sum of the low
    parts.  Passes stop once every q is 0, or after one in which every |q|
    <= 1: a quotient rounded across a multiple leaves a remainder just
    outside [0, D] for one more pass, and past 2^53 a pass leaves up to
    eps*s/D drops for the next, so no float s/D takes over 21 passes.

    The error bound.  eps = 2^-52, each +, -, *, / rounds by at most eps/2,
    numpy's exp, expm1 and log by at most eps (an assumption: the measured
    worst is 0.74 ulp), no underflow, and ``_check_fall_fits`` excludes
    overflow.  Terms are to first order in eps (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002), with Fb(t) = P*(1 - e^{-m t})
    + |sigma|*t >= |F(t)|:

    1. The peak carries 5 roundings of eps/2 (m*T with condition at most 1
       in expm1, expm1, mu*T, the quotient), the product P*(1 - e^{-m t})
       4 more, and the difference with sigma*t 2: |F^(t) - F(t)| <=
       5*eps*Fb(t) for the computed F^.
    2. s + s_lo = z0 + F^(t0) exactly.  D + D_lo is the drop within
       2*eps^2*drop.  In a pass from (s, s_lo), the four low parts are at
       most 3, 1, 2 and 4 times eps/2*|s|, and their rounded sum errs by
       7.5*eps^2*|s|; q*(D + D_lo) errs by 4*eps^2*|s|.  |s| shrinks by eps
       or to 2*drop a pass, and the last clip, the rounding of s + s_lo and
       a wrap to the drop cost 3*eps*drop.  So r^ = r + e_0 + e_r with e_0 =
       F^(t0) - F(t0) and |e_r| <= 16*eps^2*s + 3*eps*drop, over the exact
       remainder r.
    3. ``_invert_fall`` stops at t where t + (r^ - F^(t))/F^'(t) rounds
       back to t, or after a step, at most t long, that can overshoot by
       the error of F^ and of the rate.  The rate errs by (4.5 + m*t/2)*
       eps*m*y_p(t), and m*y_p(t)*t <= Fb(t) and (m*t)^2*e^{-m t} <= 0.65*
       (1 - e^{-m t}) put that step's error under 5*eps*Fb(t): |F(t_r^) -
       r^| <= 10*eps*Fb(t_r^) + eps/2*t_r^*F'(t_r^).
    4. So t_r^ - t_r = (e_0 + e_r + F(t_r^) - r^)/F'(t_r), while F^(t0) -
       r^ = F(t0) - r - e_r: the error of F(t0) cancels from the first
       term but enters the second over F'(t_r), which falls to 0 at the
       decay ceiling.  The first term's difference (r^ is at most two
       drops), the division by fl(mu - sigma), t_r^ - t0 and the final sum
       round by 2*eps*(Fb(t0) + 2*drop)/(mu - sigma) + eps*T.

    Adding up, and with generous rounding of the constants:

        error = 10*eps*[(Fb(t0) + Fb(t_r) + drop + 2*eps*s)
                        * (1/(mu - sigma) + 1/F'(t_r)) + T],

    taken with the computed r^ for F(t_r); it is infinite where the
    computed F'(t_r) is not positive.
    """
    eps = sys.float_info.epsilon
    d, d_lo = _two_sum(mu, -sigma)
    drop, drop_lo = _two_product(d, T)
    drop_lo = drop_lo + d_lo * T
    peak = _peak(T, m, mu)
    f0 = _fall(t0, peak, sigma, m)[0]
    s, s_lo = _two_sum(z0, f0)
    hi, lo, k = s, s_lo, 0.0
    for _ in range(64):
        q = np.floor(hi / drop)
        if not q.any():
            break
        p, p_lo = _two_product(q, drop)
        a, b = _two_sum(hi, -p)
        hi, lo = _two_sum(a, b + (lo - p_lo - q * drop_lo))
        k = k + q
        if np.all(np.abs(q) <= 1.0):
            break
    r = np.clip(hi + lo, 0.0, drop)
    widen = sigma + abs(sigma)     # Fb(t) = F(t) + widen*t
    slack = f0 + widen * t0 + drop + 2.0 * eps * s
    low = r < 10.0 * eps * slack
    r = np.where(low, r + drop, r)
    k = k - low
    t = _invert_fall(r, T, sigma, m, peak)
    with np.errstate(divide="ignore"):
        inv_rate = 1.0 / np.maximum(m * peak * np.exp(-m * t) - sigma, 0.0)
    error = 10.0 * eps * ((slack + r + widen * t) * (1.0 / d + inv_rate) + T)
    return np.maximum(k * T + t - t0, 0.0), (f0 - r) / d + (t - t0), error


def damage_time(p: ZParams, z0: float, t0: float = 0.0) -> float:
    """Time for z to reach zero after an invasion of size z0 at t0 in [0, T):
    the damage time of ``_damage_times``.  An invasion whose fall of z
    overflows a float raises InputOverflowError (see ``_check_fall_fits``)."""
    _positive("invasion size", "z0", z0)
    if not 0.0 <= t0 < p.T:
        raise DomainError("t0 must lie in [0, T)")
    if p.T >= max_decay_period(p.mu, p.sigma, p.m):
        raise PeriodTooLargeError(
            "period at or above max_decay_period: z need not decrease")
    _check_fall_fits(UncertaintyBox(z0, z0, p.sigma, p.sigma, p.m, p.m), p.mu, p.T, p.T)
    return float(_damage_times(p.T, t0, z0, p.sigma, p.m, p.mu)[0])


# --------------------------------------------------------------------------
# worst invasion instant


@dataclass(frozen=True)
class WorstCaseReport:
    """Worst invasion instant and the resulting damage time.

    ``case`` is "resonant" when z0 is an integer multiple of the
    per-period drop (every t0 is equally bad and Pi = t1 exactly) and
    "interior" otherwise (unique worst t0 strictly inside [0, T)).
    """

    case: str
    k: int
    t0_star: float
    pi_max: float
    t1: float
    deviation: float


def worst_invasion(p: ZParams, z0: float) -> WorstCaseReport:
    """Maximize the damage time over the invasion instant t0 in [0, T).

    In the interior case the worst instant puts z's zero exactly at the
    release (k+1)*T: the fall of z over the phases [0, t0] of a period
    equals (k+1)*net_drop - z0, which lies strictly inside (0, net_drop).
    An invasion whose fall of z overflows a float raises InputOverflowError.
    """
    _positive("invasion size", "z0", z0)
    if p.T >= max_decay_period(p.mu, p.sigma, p.m):
        raise PeriodTooLargeError(
            "period at or above max_decay_period: worst case undefined")
    _check_fall_fits(UncertaintyBox(z0, z0, p.sigma, p.sigma, p.m, p.m), p.mu, p.T, p.T)
    t1 = z0 / (p.mu - p.sigma)
    rho = z0 / p.net_drop
    k_near = round(rho)
    if k_near >= 1 and abs(rho - k_near) <= RESONANCE_RTOL * max(1.0, rho):
        pi = k_near * p.T
        return WorstCaseReport("resonant", int(k_near), 0.0, pi, t1, pi - t1)
    k = math.ceil(rho) - 1
    t0_star = float(_invert_fall((k + 1) * p.net_drop - z0, p.T, p.sigma, p.m,
                                 _peak(p.T, p.m, p.mu)))
    pi = (k + 1) * p.T - t0_star
    return WorstCaseReport("interior", int(k), t0_star, pi, t1, pi - t1)


# --------------------------------------------------------------------------
# optimal periods


# the most subdivisions of T1 that optimal_periods lists
_N_MAX = 10


@dataclass(frozen=True)
class OptimalPeriods:
    """Periods T1/n achieving the worst-case floor t1 = z0/(mu - sigma).

    Subdivisions up to n0 are at or above the decay ceiling and invalid;
    ``periods`` lists T1/n for n = n0+1 .. _N_MAX.
    """

    t1: float
    n0: int
    periods: tuple
    decay_ceiling: float


def optimal_periods(z0: float, mu: float, sigma: float, m: float) -> OptimalPeriods:
    _positive("invasion size", "z0", z0)
    ceiling = max_decay_period(mu, sigma, m)
    t1 = z0 / (mu - sigma)
    if t1 == math.inf or t1 / ceiling == math.inf:
        raise InputOverflowError(
            f"z0={z0:g} is too large: t1/decay_ceiling overflows a float")
    n0 = int(t1 / ceiling)
    # guard the integer against float drift at exact quotients; past 2^53,
    # n0 + 1 rounds to n0 as a float and the quotient no longer moves
    if n0 < 2 ** 53:
        while n0 >= 1 and t1 / n0 < ceiling:
            n0 -= 1
        while t1 / (n0 + 1) >= ceiling:
            n0 += 1
    periods = tuple(t1 / n for n in range(n0 + 1, _N_MAX + 1))
    return OptimalPeriods(t1, n0, periods, ceiling)


# --------------------------------------------------------------------------
# worst-deviation envelope over uncertainty


def envelope_argmax(T, m):
    """Invasion instant at which the worst deviation over invasion sizes
    is reached; always strictly inside (0, T)."""
    u = m * np.asarray(T, dtype=float) / -np.expm1(-m * np.asarray(T, dtype=float))
    out = np.log(u) / m
    return out if out.shape else float(out)


def deviation_envelope(T, m):
    """Worst deviation over all invasion sizes, per unit of budget gain.

    The worst pi_max - t1 over z0 equals mu/(mu - sigma) times this
    factor.  Strictly increasing in T and vanishing as T -> 0+.
    """
    T = np.asarray(T, dtype=float)
    u = m * T / -np.expm1(-m * T)
    out = (u - 1.0 - np.log(u)) / m
    return out if out.shape else float(out)


@dataclass(frozen=True)
class UncertaintyBox:
    """Rectangular uncertainty on invasion size (z0) and parameters (sigma, m).
    Robustness outputs read m at m_hi alone, where every bound is largest."""

    z0_lo: float
    z0_hi: float
    sigma_lo: float
    sigma_hi: float
    m_lo: float
    m_hi: float

    def __post_init__(self):
        if not 0.0 < self.z0_lo <= self.z0_hi:
            raise DomainError("need 0 < z0_lo <= z0_hi")
        if not self.sigma_lo <= self.sigma_hi:
            raise DomainError("need sigma_lo <= sigma_hi")
        if not 0.0 < self.m_lo <= self.m_hi:
            raise DomainError("need 0 < m_lo <= m_hi")

    @property
    def singleton_params(self) -> bool:
        return self.sigma_lo == self.sigma_hi and self.m_lo == self.m_hi


def t_limits(box: UncertaintyBox, mu: float):
    """(T_L, T_hat_min) over the box, both corner values.

    T_L is the ceiling below which the closed-form envelope is the exact
    worst deviation over the whole box: the smaller of the decay ceiling
    and the z0 half-width over mu - sigma (the invasion-size sweep must
    span a full resonance gap).  T_hat_min is the least decrease ceiling.
    With x = m*T the ceiling solves x/(e^x - 1) = sigma/mu, whose left side
    decreases, so T_hat = x*(sigma/mu)/m falls in sigma and in m: least at
    (sigma_hi, m_hi).  The gap term is least at sigma_lo.
    """
    t_hat_min = max_decay_period(mu, box.sigma_hi, box.m_hi)
    half_gap = 0.5 * (box.z0_hi - box.z0_lo)
    return min(t_hat_min, half_gap / (mu - box.sigma_lo)), t_hat_min


def envelope_bound_curve(Ts, box: UncertaintyBox, mu: float):
    """Closed-form deviation bound maxed over the parameter box, per period;
    exact worst deviation only below T_L (callers gate the range).  The
    maximum is the (sigma_hi, m_hi) corner: mu/(mu - sigma) rises in sigma,
    and deviation_envelope, the max over theta in (0, 1) of T*(q(m*T) -
    theta) with q(a) = (1 - e^{-theta*a})/(1 - e^{-a}), rises in m since
    d ln q/da = (g(theta*a) - g(a))/a > 0 for decreasing g(y) = y/(e^y - 1).
    """
    return mu / (mu - box.sigma_hi) * deviation_envelope(Ts, box.m_hi)


def _bound_curve_error(Ts, box: UncertaintyBox, mu: float):
    """A bound on the rounding error of ``envelope_bound_curve`` at the
    periods Ts, 8*eps*mu*(u - 1)/((mu - sigma_hi)*m_hi) with u = x/(1 -
    e^{-x}) >= 1 and x = m_hi*T, under the assumptions of ``_damage_times``.
    The computed u is u*(1 + a) with |a| <= 2*eps (x, of condition at most 1
    in u, expm1 and the quotient), which moves v = u - 1 - ln u by (u -
    1)*a, as dv/du = 1 - 1/u.  u - 1 rounds by eps/2*(u - 1), ln u by
    eps*ln u, their difference by eps/2*v and the factor mu/((mu -
    sigma_hi)*m_hi) by 2*eps*v.  With ln u and v at most u - 1 that is
    6*eps*(u - 1) to first order.  Relative to the curve, about x^2/8 at
    small x, it grows like 1/x: u - 1 - ln u cancels there.
    """
    m = box.m_hi
    u = m * Ts / -np.expm1(-m * Ts)
    # (u - 1)/m last, about T/2 where m*T is tiny: no overflow at a tiny m
    return 8.0 * sys.float_info.epsilon * mu / (mu - box.sigma_hi) * (u - 1.0) / m


def robust_envelope(T, box: UncertaintyBox, mu: float):
    """Worst deviation pi_max - t1 over the whole uncertainty box at period T
    (a scalar, or an array of periods).

    Below T_L the corner closed form is exact.  Above it, up to the
    box-wide decrease ceiling, the value is exact in z0, taken at m_hi and
    maximized over 33 sigma values from sigma_lo to sigma_hi: a lower
    estimate in sigma.  The worst instant t0* for size z0 has fall
    F(t0*) = s = net_drop*ceil(z0/net_drop) - z0 (see ``worst_invasion``)
    and deviation D = s/(mu - sigma) - t0*, a concave G(t0*) =
    F(t0*)/(mu - sigma) - t0*, zero at 0 and T, peaked at
    ``envelope_argmax``.  s drops in z0 between multiples of net_drop, so
    with t_lo, t_hi the instants of z0_lo, z0_hi the box reaches
    [t_hi, t_lo] within one gap, [0, t_lo] u [t_hi, T] across one multiple,
    [0, T) over a full gap: the maximum is G at the peak if reached, else
    max(G(t_lo), G(t_hi)), capped by the corner closed form against rounding.
    Why m_hi alone: s does not depend on m, and F(t) = mu*T*(1 - e^{-m t})
    /(1 - e^{-m T}) - sigma*t rises in m at every phase in (0, T) (the q
    argument of ``envelope_bound_curve``), so t0* = F^{-1}(s) falls in m and
    D rises in m for every z0 and sigma: the box maximum lies at m = m_hi.
    A box whose fall of z overflows a float raises InputOverflowError (see
    ``_check_fall_fits``).  An empty array of periods gives an empty
    array, once ``t_limits`` has accepted the box and mu.
    """
    Ts = np.atleast_1d(np.asarray(T, dtype=float))
    if not Ts.size:
        t_limits(box, mu)
        return np.empty(0)
    _positive("release period", "T", float(Ts.min()))
    t_big, t_hat_min = t_limits(box, mu)
    if np.any(Ts >= t_hat_min):
        raise PeriodTooLargeError(
            "period at or above the box-wide decrease ceiling")
    _check_fall_fits(box, mu, float(Ts.min()), float(Ts.max()))
    out = envelope_bound_curve(Ts, box, mu)
    above = Ts >= t_big
    if np.any(above):
        sig = np.linspace(box.sigma_lo, box.sigma_hi,
                          1 if box.sigma_lo == box.sigma_hi else 33)
        m = box.m_hi
        Tg = Ts[above, None]
        peak = _peak(Tg, m, mu)
        drop = (mu - sig) * Tg
        c_lo, c_hi = np.ceil(box.z0_lo / drop), np.ceil(box.z0_hi / drop)
        s = np.clip([drop * c_lo - box.z0_lo, drop * c_hi - box.z0_hi], 0.0, drop)
        t_lo, t_hi = _invert_fall(s, Tg, sig, m, peak)
        t_star = envelope_argmax(Tg, m)
        in_range = np.where(c_hi > c_lo, (t_star <= t_lo) | (t_star >= t_hi),
                            (t_hi <= t_star) & (t_star <= t_lo))
        in_range |= box.z0_hi - box.z0_lo >= drop
        g = [_fall(t, peak, sig, m)[0] / (mu - sig) - t for t in (t_star, t_lo, t_hi)]
        worst = np.where(in_range, g[0], np.maximum(g[1], g[2])).max(axis=1)
        out[above] = np.minimum(np.maximum(worst, 0.0),
                                [_corner_bound(t, box, mu) for t in Ts[above]])
    return out if np.ndim(T) else float(out[0])


def _corner_bound(T: float, box: UncertaintyBox, mu: float) -> float:
    # the corner closed form through libm; numpy's vectorized log can be an ulp off
    u = box.m_hi * T / -math.expm1(-box.m_hi * T)
    return mu / (mu - box.sigma_hi) * (u - 1.0 - math.log(u)) / box.m_hi
