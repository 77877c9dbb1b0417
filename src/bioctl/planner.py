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
* ``z_trajectory`` / ``damage_time``: exact piecewise-analytic evaluation
  of z and of Pi for a given invasion instant;
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
from dataclasses import dataclass

import numpy as np

from .kernels import DomainError, HollingI, HollingII, InputOverflowError

__all__ = [
    "PeriodTooLargeError",
    "ZParams",
    "WorstCaseReport",
    "OptimalPeriods",
    "UncertaintyBox",
    "z_from_x_local",
    "x_from_z_local",
    "z_from_x_global",
    "max_decay_period",
    "z_trajectory",
    "damage_time",
    "worst_invasion",
    "deviation_closed_form",
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
        if self.m <= 0:
            raise DomainError(f"m must be positive, got {self.m}")
        if self.T <= 0:
            raise DomainError(f"T must be positive, got {self.T}")
        if self.mu <= self.sigma:
            raise DomainError(
                f"budget rate must exceed sigma, got mu={self.mu} <= sigma={self.sigma}")

    @property
    def pulse_peak(self) -> float:
        # post-release level of the pest-free orbit
        return self.mu * self.T / -math.expm1(-self.m * self.T)

    @property
    def net_drop(self) -> float:
        # z loses exactly this much over any full release period
        return (self.mu - self.sigma) * self.T


# --------------------------------------------------------------------------
# changes of variables


def z_from_x_local(x: float, x_ref: float, m: float, response_slope0: float) -> float:
    """Logarithmic pest coordinate (m / g'(0)) * ln(x / x_ref)."""
    if x <= 0 or x_ref <= 0:
        raise DomainError("densities must be positive")
    return m / response_slope0 * math.log(x / x_ref)


def x_from_z_local(z: float, x_ref: float, m: float, response_slope0: float) -> float:
    """Inverse of :func:`z_from_x_local`."""
    if x_ref <= 0:
        raise DomainError("reference density must be positive")
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
    if x <= 0 or x_ref <= 0:
        raise DomainError("densities must be positive")
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


def max_decay_period(mu: float, sigma: float, m: float) -> float:
    """Largest period below which z(t) is strictly decreasing.

    Unique root of mu*T / (e^{mT} - 1) = sigma/m: there the orbit floor
    touches sigma/m.  With x = m*T it solves x/(e^x - 1) = sigma/mu, taken
    in log form h(x) = ln(x/(1 - e^{-x})) - x - ln(sigma/mu) = 0.  h is
    decreasing and concave, so Newton steps from the right of the root stay
    right of it and fall monotonically to it, until a float fixed point.
    x = -2 ln(sigma/mu) is right of the root since x/(e^x - 1) <= e^{-x/2}.
    For sigma <= 0 the pest declines under any period; returns inf.
    """
    if not m > 0:
        raise DomainError("m must be positive")
    if sigma <= 0:
        return math.inf
    if not sigma < mu < math.inf:
        raise DomainError("mu must exceed sigma and be finite")
    # ln(sigma/mu) to full precision: sigma - mu is exact near the ratio 1,
    # and the quotient itself can underflow far from it
    lr = (math.log1p((sigma - mu) / mu) if 2.0 * sigma > mu
          else math.log(sigma) - math.log(mu))
    x = -2.0 * lr
    for _ in range(100):
        q = -math.expm1(-x)
        h = math.log(x / q) - x - lr
        x_next = min(x - h / (1.0 / x - 1.0 / q), x)
        if x_next == x:
            break
        x = x_next
    return x / m


# --------------------------------------------------------------------------
# trajectories and damage times


def _cum_orbit(p: ZParams, t):
    """int_0^t y_p(s) ds, vectorized; continuous across release instants."""
    k = np.floor(np.asarray(t, dtype=float) / p.T)
    phase = t - k * p.T
    return (k * p.mu * p.T - p.pulse_peak * np.expm1(-p.m * phase)) / p.m


def z_trajectory(p: ZParams, z0: float, t0: float, t):
    """Exact piecewise-analytic z(t) for scalar or array t >= t0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < t0):
        raise DomainError("t must not precede t0")
    out = z0 + p.sigma * (t - t0) - p.m * (_cum_orbit(p, t) - _cum_orbit(p, t0))
    return out if out.shape else float(out)


def _fall(t, T, sigma, m, mu):
    """Fall of z over the phases [0, t] of a period, F(t) = P*(1 - e^{-m t})
    - sigma*t with P the pulse peak, and its rate F' = m*y_p - sigma."""
    peak = mu * T / -np.expm1(-m * T)
    return peak * -np.expm1(-m * t) - sigma * t, m * peak * np.exp(-m * t) - sigma


def _invert_fall(s, T, sigma, m, mu):
    """Phase t in [0, T] where the fall reaches s in [0, (mu - sigma)*T],
    elementwise.  Below the decay ceiling F is concave and increasing on
    [0, T], so its tangents lie above it: Newton steps from t = 0 stay left
    of the root and rise monotonically to it (clipped to [t, T] in floats).
    """
    t = np.zeros(np.broadcast(s, T, sigma, m).shape)
    for _ in range(100):
        f, rate = _fall(t, T, sigma, m, mu)
        t_next = np.clip(t + (s - f) / rate, t, T)
        if np.array_equal(t_next, t):
            break
        t = t_next
    return t


def _damage_times(T, t0, z0, sigma, m, mu):
    """Damage times of invasions of size z0 > 0 at phases t0 in [0, T),
    elementwise, below the decay ceiling.

    Counting from the release at 0, z(j*T + phase) = S - j*net_drop -
    F(phase) with S = z0 + F(t0).  So z reaches zero in the period k where
    S - k*net_drop lies in (0, net_drop], at the phase where the fall meets
    that remainder (``_invert_fall`` clips a remainder rounded just outside
    the range).  For z0 below the rounding of F(t0) the root can land just
    before t0, so Pi is clamped at 0.
    """
    drop = (mu - sigma) * T
    s = z0 + _fall(t0, T, sigma, m, mu)[0]
    k = np.ceil(s / drop) - 1.0
    return np.maximum(k * T + _invert_fall(s - k * drop, T, sigma, m, mu) - t0, 0.0)


def damage_time(p: ZParams, z0: float, t0: float = 0.0,
                check_period: bool = True) -> float:
    """Time for z to reach zero after an invasion of size z0 at t0 in [0, T):
    one element of ``_damage_times``."""
    if z0 <= 0:
        raise DomainError("z0 must be positive")
    if not 0.0 <= t0 < p.T:
        raise DomainError("t0 must lie in [0, T)")
    if check_period and p.T >= max_decay_period(p.mu, p.sigma, p.m):
        raise PeriodTooLargeError(
            "period at or above max_decay_period: z need not decrease")
    return float(_damage_times(p.T, t0, z0, p.sigma, p.m, p.mu))


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
    """
    if z0 <= 0:
        raise DomainError("z0 must be positive")
    if p.T >= max_decay_period(p.mu, p.sigma, p.m):
        raise PeriodTooLargeError(
            "period at or above max_decay_period: worst case undefined")
    t1 = z0 / (p.mu - p.sigma)
    rho = z0 / p.net_drop
    k_near = round(rho)
    if k_near >= 1 and abs(rho - k_near) <= RESONANCE_RTOL * max(1.0, rho):
        pi = k_near * p.T
        return WorstCaseReport("resonant", int(k_near), 0.0, pi, t1, pi - t1)
    k = math.ceil(rho) - 1
    t0_star = float(_invert_fall((k + 1) * p.net_drop - z0, p.T, p.sigma, p.m, p.mu))
    pi = (k + 1) * p.T - t0_star
    return WorstCaseReport("interior", int(k), t0_star, pi, t1, pi - t1)


def deviation_closed_form(p: ZParams, t0_star: float) -> float:
    """Closed-form pi_max - t1 at the interior worst instant t0_star."""
    return float(_fall(t0_star, p.T, p.sigma, p.m, p.mu)[0] / (p.mu - p.sigma) - t0_star)


# --------------------------------------------------------------------------
# optimal periods


@dataclass(frozen=True)
class OptimalPeriods:
    """Periods T1/n achieving the worst-case floor t1 = z0/(mu - sigma).

    Subdivisions up to n0 are at or above the decay ceiling and invalid;
    ``periods`` lists T1/n for n = n0+1 .. n_max.
    """

    t1: float
    n0: int
    periods: tuple
    decay_ceiling: float


def optimal_periods(z0: float, mu: float, sigma: float, m: float,
                    n_max: int = 10) -> OptimalPeriods:
    if z0 <= 0:
        raise DomainError("z0 must be positive")
    if mu <= sigma:
        raise DomainError("mu must exceed sigma")
    t1 = z0 / (mu - sigma)
    ceiling = max_decay_period(mu, sigma, m)
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
    periods = tuple(t1 / n for n in range(n0 + 1, n_max + 1))
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
    """Rectangular uncertainty on invasion size (z0) and parameters (sigma, m)."""

    z0_lo: float
    z0_hi: float
    sigma_lo: float
    sigma_hi: float
    m_lo: float
    m_hi: float

    def __post_init__(self):
        if not 0.0 < self.z0_lo <= self.z0_hi:
            raise DomainError("need 0 < z0_lo <= z0_hi")
        if self.sigma_lo > self.sigma_hi:
            raise DomainError("need sigma_lo <= sigma_hi")
        if not 0.0 < self.m_lo <= self.m_hi:
            raise DomainError("need 0 < m_lo <= m_hi")

    @property
    def singleton_params(self) -> bool:
        return self.sigma_lo == self.sigma_hi and self.m_lo == self.m_hi

    def param_grid(self, n: int = 33):
        """(sigma, m) pairs on a dense grid containing all box corners."""
        sig = np.linspace(self.sigma_lo, self.sigma_hi,
                          1 if self.sigma_lo == self.sigma_hi else n)
        ms = np.linspace(self.m_lo, self.m_hi,
                         1 if self.m_lo == self.m_hi else n)
        return [(float(s), float(mm)) for s in sig for mm in ms]


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
    if mu <= box.sigma_hi:
        raise DomainError("mu must exceed sigma over the whole box")
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


def robust_envelope(T, box: UncertaintyBox, mu: float):
    """Worst deviation pi_max - t1 over the whole uncertainty box at period T
    (a scalar, or an array of periods).

    Below T_L the corner closed form is exact.  Above it, up to the
    box-wide decrease ceiling, the value is exact in z0 and maximized over
    the 33x33 (sigma, m) ``param_grid``.  Exact in z0: the worst instant
    t0* for size z0 has fall F(t0*) = net_drop*ceil(z0/net_drop) - z0 (see
    ``worst_invasion``), and G(t0*) = ``deviation_closed_form`` is concave,
    zero at 0 and T, peaked at ``envelope_argmax``.  The fall target drops
    in z0 between multiples of net_drop, so with t_lo, t_hi the instants of
    z0_lo, z0_hi the box reaches [t_hi, t_lo] within one gap,
    [0, t_lo] u [t_hi, T] across one multiple, [0, T) over a full gap: the
    maximum is G at the peak if reached, else max(G(t_lo), G(t_hi)).  That
    is at most the corner closed form, which caps it against rounding.
    """
    Ts = np.atleast_1d(np.asarray(T, dtype=float))
    if np.any(Ts <= 0):
        raise DomainError("T must be positive")
    t_big, t_hat_min = t_limits(box, mu)
    if np.any(Ts >= t_hat_min):
        raise PeriodTooLargeError(
            "period at or above the box-wide decrease ceiling")
    out = envelope_bound_curve(Ts, box, mu)
    above = Ts >= t_big
    if np.any(above):
        sig, m = np.array(box.param_grid()).T
        Tg = Ts[above, None]
        drop = (mu - sig) * Tg
        c_lo, c_hi = np.ceil(box.z0_lo / drop), np.ceil(box.z0_hi / drop)
        s = np.clip([drop * c_lo - box.z0_lo, drop * c_hi - box.z0_hi], 0.0, drop)
        t_lo, t_hi = _invert_fall(s, Tg, sig, m, mu)
        peak = envelope_argmax(Tg, m)
        in_range = np.where(c_hi > c_lo, (peak <= t_lo) | (peak >= t_hi),
                            (t_hi <= peak) & (peak <= t_lo))
        in_range |= box.z0_hi - box.z0_lo >= drop
        g = [_fall(t, Tg, sig, m, mu)[0] / (mu - sig) - t for t in (peak, t_lo, t_hi)]
        worst = np.where(in_range, g[0], np.maximum(g[1], g[2])).max(axis=1)
        out[above] = np.minimum(np.maximum(worst, 0.0),
                                [_corner_bound(t, box, mu) for t in Ts[above]])
    return out if np.ndim(T) else float(out[0])


def _corner_bound(T: float, box: UncertaintyBox, mu: float) -> float:
    # the corner closed form through libm; numpy's vectorized log can be an ulp off
    u = box.m_hi * T / -math.expm1(-box.m_hi * T)
    return mu / (mu - box.sigma_hi) * (u - 1.0 - math.log(u)) / box.m_hi
