"""Independent numeric oracles for the test suite.

Everything here recomputes model quantities by direct discretization
(midpoint-rule quadrature, dense scans, generic high-order ODE
integration), deliberately sharing no closed forms with the package, so
agreement between the two is meaningful evidence.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp


def orbit_peak(mu: float, T: float, m: float) -> float:
    return mu * T / -math.expm1(-m * T)


def oracle_damage_times(sigma, m, mu, T, z0, t0s, n_grid=1 << 18):
    """Damage times for an array of invasion instants in [0, T); an array
    of invasion sizes z0 broadcasts against them.

    Builds one cumulative midpoint-rule table of int_0^phi (sigma - m*y_p)
    over a dense phase grid, walks whole periods arithmetically (the path
    is strictly decreasing below the decay ceiling), and interpolates the
    root linearly inside its grid cell.
    """
    peak = orbit_peak(mu, T, m)
    dt = T / n_grid
    mids = (np.arange(n_grid) + 0.5) * dt
    rhs = sigma - m * peak * np.exp(-m * mids)
    assert rhs.max() < 0.0, "oracle assumes T below the decay ceiling"
    C = np.concatenate([[0.0], np.cumsum(rhs * dt)])
    nodes = np.arange(n_grid + 1) * dt
    drop = -float(C[-1])

    t0s = np.asarray(t0s, dtype=float)
    C_t0 = np.interp(t0s, nodes, C)
    z_b1 = z0 + (C[-1] - C_t0)        # path value at the release after t0
    first = z_b1 <= 0.0
    n = np.ceil(z_b1 / drop)
    n = np.where(z_b1 - (n - 1.0) * drop <= 0.0, n - 1.0, n)
    n = np.where(z_b1 - (n - 1.0) * drop > drop, n + 1.0, n)
    n = np.maximum(n, 1.0)
    z_seg = z_b1 - (n - 1.0) * drop
    # crossing where C(phi) first sinks to the target level
    target = np.where(first, C_t0 - z0, -z_seg)
    j = np.searchsorted(-C, -target, side="left")
    j = np.clip(j, 1, n_grid)
    c_prev, c_next = C[j - 1], C[j]
    phi = nodes[j - 1] + (c_prev - target) / (c_prev - c_next) * dt
    return np.where(first, phi - t0s, (T - t0s) + (n - 1.0) * T + phi)


def oracle_damage_time(sigma, m, mu, T, z0, t0, n_grid=1 << 18) -> float:
    return float(oracle_damage_times(sigma, m, mu, T, z0, [t0], n_grid)[0])


def grid_pi_max(sigma, m, mu, T, z0, n_t0=2000, n_grid=1 << 18) -> float:
    """Brute-force worst damage time over a dense grid of invasion instants."""
    t0s = np.linspace(0.0, T, n_t0, endpoint=False)
    return float(oracle_damage_times(sigma, m, mu, T, z0, t0s, n_grid).max())


def grid_worst_deviation(sigma, m, mu, T, z0_lo, z0_hi, n_z0=201, n_t0=2000,
                         n_grid=1 << 16) -> float:
    """Worst Pi - t1 over a dense grid of invasion sizes in [z0_lo, z0_hi]
    and invasion instants in [0, T), every Pi from oracle_damage_times.

    A grid maximum: below the supremum by the grid's resolution, above it
    only by the quadrature and interpolation error of the damage times.
    """
    z0s = np.linspace(z0_lo, z0_hi, n_z0)[:, None]
    t0s = np.linspace(0.0, T, n_t0, endpoint=False)
    pis = oracle_damage_times(sigma, m, mu, T, z0s, t0s, n_grid)
    return float((pis - z0s / (mu - sigma)).max())


def midpoint_z_value(sigma, m, mu, T, z0, t0, t, n_grid=1 << 16) -> float:
    """z(t) by period-by-period midpoint quadrature from (t0, z0)."""
    peak = orbit_peak(mu, T, m)

    def seg(a, b):
        # integral of the z right-hand side over phases [a, b] within one period
        nn = max(16, int(n_grid * (b - a) / T))
        h = (b - a) / nn
        mids = a + (np.arange(nn) + 0.5) * h
        return float(np.sum((sigma - m * peak * np.exp(-m * mids)) * h))

    z = z0
    cur = t0
    k = math.floor(t0 / T)
    while True:
        nxt = min((k + 1) * T, t)
        if nxt > cur:
            z += seg(cur - k * T, nxt - k * T)
        if nxt >= t:
            return z
        cur = nxt
        k += 1


def monodromy_pest_multiplier(growth_slope0, response_slope0, m, mu, T) -> float:
    """Pest Floquet multiplier by direct integration of the linearized pest
    equation along the pest-free orbit over one period."""
    peak = orbit_peak(mu, T, m)

    def rhs(t, u):
        return [(growth_slope0 - response_slope0 * peak * math.exp(-m * t)) * u[0]]

    sol = solve_ivp(rhs, (0.0, T), [1.0], method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return float(sol.y[0, -1])


def bisect_decay_ceiling(mu, sigma, m) -> float:
    """Decrease ceiling T = x/m with x the root of x/(e^x - 1) = sigma/mu,
    by bisection on ln x of the log-space residual, to a float fixed point."""
    log_ratio = math.log(sigma) - math.log(mu)

    def residual(x):
        if x < 700.0:
            return math.log(x / math.expm1(x)) - log_ratio
        return math.log(x) - x - math.log1p(-math.exp(-x)) - log_ratio

    lo, hi = math.log(1e-30), math.log(1e4)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return math.exp(mid) / m
        if residual(math.exp(mid)) > 0.0:
            lo = mid
        else:
            hi = mid


def scan_decay_ceiling(mu, sigma, m, n=1_000_000):
    """Bracket of the decrease ceiling from a dense scan of the orbit floor."""
    t_hi = 5.0 / m
    while mu * t_hi / math.expm1(m * t_hi) > sigma / m:
        t_hi *= 2.0
    ts = np.linspace(t_hi / n, t_hi, n)
    floor = mu * ts / np.expm1(m * ts)
    idx = int(np.argmax(floor <= sigma / m))
    assert idx > 0
    return float(ts[idx - 1]), float(ts[idx])
