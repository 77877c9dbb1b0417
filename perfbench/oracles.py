"""Reference values the output checks compare against.

None of these reuse a closed form of the package for the quantity being
checked: damage times come from midpoint quadrature of the comparison
model or from a high-order generic ODE solve of the full model with the
releases applied by hand.  The one shared formula is the pest-free orbit
peak mu*T / (1 - exp(-m*T)), which is the definition of the orbit (the
fixed point of the release map), not a result about damage times.
"""

from __future__ import annotations

import math

import numpy as np


def orbit_peak(mu: float, T: float, m: float) -> float:
    return mu * T / -math.expm1(-m * T)


def midpoint_damage_time(sigma, m, mu, T, z0, t0, n_grid=1 << 16) -> float:
    """Damage time of dz/dt = sigma - m*y_p(t) from z(t0) = z0 > 0.

    Tabulates the midpoint-rule integral of the right-hand side over one
    period, walks whole periods by the tabulated per-period drop, and
    interpolates the root linearly inside its grid cell.  Valid below the
    decay ceiling, where the right-hand side is negative throughout.
    """
    peak = orbit_peak(mu, T, m)
    h = T / n_grid
    mids = (np.arange(n_grid) + 0.5) * h
    rhs = sigma - m * peak * np.exp(-m * mids)
    if rhs.max() >= 0.0:
        raise ValueError("period at or above the decay ceiling")
    C = np.concatenate([[0.0], np.cumsum(rhs * h)])   # z change from phase 0
    nodes = np.arange(n_grid + 1) * h
    drop = -float(C[-1])

    def root_phase(z_start, a):
        # first phase p >= a with z_start + C(p) - C(a) <= 0
        target = float(np.interp(a, nodes, C)) - z_start
        j = int(np.searchsorted(-C, -target, side="left"))
        j = min(max(j, 1), n_grid)
        c0, c1 = C[j - 1], C[j]
        return max(a, float(nodes[j - 1] + (c0 - target) / (c0 - c1) * h))

    z_first = z0 + float(C[-1] - np.interp(t0, nodes, C))
    if z_first <= 0.0:
        return root_phase(z0, t0) - t0
    k = max(0, math.ceil(z_first / drop) - 1)
    while k > 0 and z_first - k * drop <= 0.0:
        k -= 1
    while z_first - (k + 1) * drop > 0.0:
        k += 1
    return (T - t0) + k * T + root_phase(z_first - k * drop, 0.0)


def robust_corner_bound(T: float, mu: float, sigma_hi: float, m_hi: float) -> float:
    """Closed-form worst deviation at the (sigma_hi, m_hi) corner of a box:
    mu/(mu - sigma_hi) * (u - 1 - ln u) / m_hi with u = m_hi*T/(1 - e^{-m_hi*T})."""
    u = m_hi * T / -math.expm1(-m_hi * T)
    return mu / (mu - sigma_hi) * (u - 1.0 - math.log(u)) / m_hi


def _rates(kernels: dict):
    """(f, g, h, g'(0)) of the config's kernels, for the families the workloads use."""
    gr, rs, nm = kernels["growth"], kernels["response"], kernels["numerical"]
    if (gr["type"], rs["type"], nm["type"]) != ("logistic", "holling2", "proportional"):
        raise ValueError("reference integration supports logistic/holling2/proportional")
    r, K, lam, a, e = gr["r"], gr["K"], rs["lam"], rs["a"], nm["e"]

    def f(x):
        return r * x * (1.0 - x / K)

    def g(x):
        return lam * x / (1.0 + a * x)

    return f, g, lambda x: e * g(x), lam


def full_model_damage_time(cfg: dict, T: float, t0: float, z0: float,
                           rtol: float = 1e-11) -> float:
    """Damage time of the full release model for one Monte Carlo trial.

    The invasion x0 = eil * exp(z0 * g'(0) / m) starts at t0 with the
    predators on the pest-free orbit; each release segment is integrated
    with DOP853 and the jump mu*T applied at its end, until x falls to eil.
    """
    from scipy.integrate import solve_ivp

    f, g, h, gp0 = _rates(cfg["kernels"])
    m = cfg["kernels"]["m"]
    mu = cfg["program"]["mu"]
    eil = cfg["eil"]
    x = eil * math.exp(z0 * gp0 / m)
    y = orbit_peak(mu, T, m) * math.exp(-m * t0)

    def rhs(_t, s):
        return (f(s[0]) - g(s[0]) * s[1], (h(s[0]) - m) * s[1])

    def hit(_t, s):
        return s[0] - eil
    hit.terminal = True
    hit.direction = -1.0

    horizon = t0 + 200.0 / m
    a, n = t0, math.floor(t0 / T) + 1
    while a < horizon:
        b = min(n * T, horizon)
        sol = solve_ivp(rhs, (a, b), (x, y), method="DOP853", rtol=rtol,
                        atol=1e-14, events=hit)
        if not sol.success:
            raise RuntimeError(sol.message)
        if sol.t_events[0].size:
            return float(sol.t_events[0][0]) - t0
        x, y = float(sol.y[0, -1]), float(sol.y[1, -1]) + mu * T
        a, n = b, n + 1
    raise RuntimeError("no crossing before the horizon")
