"""Independent numeric oracles for the test suite.

Everything here recomputes model quantities by direct discretization
(midpoint-rule quadrature, dense scans, generic high-order ODE
integration), deliberately sharing no closed forms with the package, so
agreement between the two is meaningful evidence.  The piecewise-analytic
z(t) of the comparison model, which the package no longer carries, is kept
here as a second oracle for its damage times.  The generic form of
the stepper's dense output is kept here as the bit-level reference for its
unrolled one, and the former ``csv.writer`` writers of the package's CSV
artifacts and its former whole-block ``%`` row builder as the byte-level
reference for its exact vectorised row formatter.  Last, a check that no
worker process outlived the pool that forked it.
"""

import csv
import functools
import math
import operator
import os

import mpmath
import numpy as np
from scipy.integrate import cumulative_simpson, solve_ivp

from bioctl.kernels import InputOverflowError, UnboundedRatioError


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


def param_grid(box, n=33):
    """(sigma, m) pairs on an n x n grid over the box, containing every
    corner; an axis the box pins gets its one value.  The parameter grid
    robust_envelope once scanned, kept as the reference for the corner and
    m_hi evaluations."""
    sig = np.linspace(box.sigma_lo, box.sigma_hi,
                      1 if box.sigma_lo == box.sigma_hi else n)
    ms = np.linspace(box.m_lo, box.m_hi, 1 if box.m_lo == box.m_hi else n)
    return [(float(s), float(mm)) for s in sig for mm in ms]


def z_trajectory(p, z0: float, t0: float, t):
    """Exact z(t) of dz/dt = sigma - m*y_p(t) from (t0, z0), for scalar or
    array t >= t0: y_p integrates to mu*T/m over each whole period, and to
    peak*(1 - e^{-m*phase})/m over the phases [0, phase] of one."""
    peak = orbit_peak(p.mu, p.T, p.m)

    def cum_orbit(t):
        # int_0^t y_p, continuous across release instants
        k = np.floor(t / p.T)
        return (k * p.mu * p.T - peak * np.expm1(-p.m * (t - k * p.T))) / p.m

    t = np.asarray(t, dtype=float)
    assert np.all(t >= t0), "t must not precede t0"
    out = z0 + p.sigma * (t - t0) - p.m * (cum_orbit(t) - cum_orbit(t0))
    return out if out.shape else float(out)


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


def dop853_release_run(k, mu, T, x0, y0, t0, t_end, eil=None, ts=()):
    """The full release model integrated by DOP853 at rtol 1e-11, one
    release segment at a time, with the jump mu*T added to y by hand at
    every release instant n*T in (t0, t_end].

    Returns (t_cross, xs, ys): the first instant x falls to eil (None if
    it does not, or if no eil is given), and the states at the sorted times
    ``ts`` in [t0, t_end] -- pre-release values at release instants --
    up to t_cross.
    """
    f, g, h, m = k.growth.rate, k.response.rate, k.numerical.rate, k.m

    def rhs(_t, s):
        return [f(s[0]) - g(s[0]) * s[1], (h(s[0]) - m) * s[1]]

    def hit(_t, s):
        return s[0] - eil
    hit.terminal = True
    hit.direction = -1.0

    ts = np.asarray(ts, dtype=float)
    xs, ys = np.full(len(ts), np.nan), np.full(len(ts), np.nan)
    state = [float(x0), float(y0)]
    a = float(t0)
    n = math.floor(a / T) + 1
    if n * T <= a:
        n += 1
    while a < t_end:
        b = min(n * T, t_end)
        sol = solve_ivp(rhs, (a, b), state, method="DOP853", rtol=1e-11,
                        atol=1e-14, dense_output=True,
                        events=hit if eil is not None else None)
        assert sol.success, sol.message
        inside = ((ts > a) if a > t0 else (ts >= a)) & (ts <= b)
        if inside.any():
            xs[inside], ys[inside] = sol.sol(ts[inside])
            at_end = ts == b
            xs[at_end], ys[at_end] = sol.y[0, -1], sol.y[1, -1]
        if eil is not None and sol.t_events[0].size:
            return float(sol.t_events[0][0]), xs, ys
        state = [float(sol.y[0, -1]), float(sol.y[1, -1])]
        if b == n * T:
            state[1] += mu * T
            n += 1
        a = b
    return None, xs, ys


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


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fun, a, b, tol, max_iter=200):
    # golden-section search for the maximum of a unimodal function on [a, b]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def scan_ratio_supremum(k, grid_n=4096):
    """sup over x >= 0 of m*f(x)/g(x) by a log-spaced scan of (0, x_max]
    refined by golden section, as (value, argmax); x_max is 100 times the
    carrying capacity where the growth law has one, else 1e4.

    A ratio still rising at x_max raises UnboundedRatioError; a finite
    scan cannot prove boundedness either way.
    """
    x_max = 100.0 * getattr(k.growth, "K", 1e2)
    s_limit = k.m * k.growth.slope0() / k.response.slope0()

    def ratio(x):
        return s_limit if x <= 0.0 else k.m * k.growth.rate(x) / k.response.rate(x)

    xs = np.geomspace(x_max * 1e-9, x_max, grid_n)
    vals = k.m * np.asarray(k.growth.rate(xs)) / np.asarray(k.response.rate(xs))
    if vals[-1] > vals[:-1].max() and vals[-1] > vals[-2]:
        raise UnboundedRatioError(f"m*f/g still increasing at x_max={x_max:g}")
    best = int(np.argmax(vals))
    if vals[best] <= s_limit:
        return s_limit, 0.0
    lo = xs[best - 1] if best > 0 else 0.0
    hi = xs[best + 1] if best + 1 < len(xs) else xs[-1]
    x_star = _golden_max(ratio, lo, hi, 1e-10)
    s = ratio(x_star)
    if s <= s_limit:
        return s_limit, 0.0
    return float(s), float(x_star)


def mp_ratio_supremum(k, grid_n=4096):
    """sup over x >= 0 of m*f(x)/g(x) to about 50 digits, as an mpf.

    The kernels' own rate methods evaluate at mpmath precision when given
    an mpf.  A float scan of (0, X], log and linear spaced, brackets every
    local maximum (an Allee hump between A and K included), and each
    is refined by golden section at 50 digits to a width of 1e-25; the
    x -> 0 limit m*f'(0)/g'(0) competes.  X is the carrying capacity where
    the growth law has one (f <= 0 beyond it), else 1e4.
    """
    with mpmath.workdps(50):
        def ratio(x):
            return k.m * k.growth.rate(x) / k.response.rate(x)

        best = mpmath.mpf(k.m) * k.growth.slope0() / k.response.slope0()
        x_hi = getattr(k.growth, "K", 1e4)
        xs = np.union1d(np.geomspace(x_hi * 1e-9, x_hi, grid_n),
                        np.linspace(0.0, x_hi, grid_n)[1:])
        vals = k.m * k.growth.rate(xs) / k.response.rate(xs)
        inner = vals[1:-1]
        # a flat ratio's rounding noise makes spurious peaks near the limit
        # at 0; a true peak that low is within 1e-14 of it anyway
        s0 = float(best)
        peaks = (inner > vals[:-2]) & (inner >= vals[2:]) & (inner > s0 + 1e-14 * abs(s0))
        for i in np.flatnonzero(peaks) + 1:
            x = _golden_max(ratio, mpmath.mpf(xs[i - 1]), mpmath.mpf(xs[i + 1]),
                            mpmath.mpf("1e-25"))
            best = max(best, ratio(x))
        return best


# --------------------------------------------------------------------------
# the closed engine's quadrature oracle: scipy's cumulative Simpson on fixed
# grids, with no closed form shared with bioctl.planner


def _scipy_zsim_cross(grid, z, sigma, m, peak):
    # first root of a sampled z path: sign-change cell, re-quadrated on a
    # 129-node grid, then linear interpolation
    if z[0] <= 0.0:
        return float(grid[0])
    i = int(np.argmax(z <= 0.0))
    a, b = grid[i - 1], grid[i]
    sub = np.linspace(a, b, 129)
    rhs = sigma - m * peak * np.exp(-m * sub)
    zs = z[i - 1] + cumulative_simpson(rhs, x=sub, initial=0.0)
    if zs[0] <= 0.0:
        return float(a)
    j = int(np.argmax(zs <= 0.0))
    za, zb = zs[j - 1], zs[j]
    w = za / (za - zb)
    return float(sub[j - 1] + w * (sub[j] - sub[j - 1]))


def scipy_zsim_damage_time(T, t0, z0, sigma, m, mu) -> float:
    """Damage time of one trial by scipy's cumulative Simpson on a 513-node
    grid: the first partial segment, then whole periods counted from one
    quadrated period, then the crossing segment."""
    peak = orbit_peak(mu, T, m)
    grid = np.linspace(t0, T, 513)
    rhs = sigma - m * peak * np.exp(-m * grid)
    z = z0 + cumulative_simpson(rhs, x=grid, initial=0.0)
    if z[-1] <= 0.0:
        return _scipy_zsim_cross(grid, z, sigma, m, peak) - t0
    pgrid = np.linspace(0.0, T, 513)
    prhs = sigma - m * peak * np.exp(-m * pgrid)
    pz = cumulative_simpson(prhs, x=pgrid, initial=0.0)
    drop = -float(pz[-1])
    z_b1 = float(z[-1])
    periods = z_b1 / drop
    if not periods < 2.0 ** 53:
        raise InputOverflowError(
            f"z0={z0:g} is too large for the quadrature oracle: at T={T:g} the "
            "invasion outlasts 2^53 release periods")
    n = math.ceil(periods)
    while n > 1 and z_b1 - (n - 1) * drop <= 0.0:
        n -= 1
    while z_b1 - (n - 1) * drop > drop:
        n += 1
    zpath = (z_b1 - (n - 1) * drop) + pz
    s = _scipy_zsim_cross(pgrid, zpath, sigma, m, peak)
    return (T - t0) + (n - 1) * T + s


def scipy_zsim_damage_times(Ts, t0s, z0s, sigma, m, mu) -> np.ndarray:
    return np.array([scipy_zsim_damage_time(T, t0, z0, sigma, m, mu)
                     for T, t0, z0 in zip(Ts.tolist(), t0s.tolist(), z0s.tolist())])


def dense_reference(h, ks, P) -> tuple:
    """The generic form of ``impulsim._dense``: coefficient j is h times
    the sum over all seven stages of ks[i] * P[i][j], folded left to right
    from 0.  The fold is spelled out because ``sum`` of floats is
    compensated from Python 3.12 on, and so not bit-for-bit this order."""
    return tuple(h * functools.reduce(operator.add,
                                      (kv * row[j] for kv, row in zip(ks, P)), 0)
                 for j in range(4))


# --------------------------------------------------------------------------
# the former row builders of the artifacts, kept as the byte-level reference
# for bioctl.tables


def rows_reference(fmt: str, *columns) -> bytes:
    """The former ``tables.rows``: one ``%`` over the whole stacked block."""
    block = np.column_stack(columns)
    return ((fmt * len(block)) % tuple(block.ravel().tolist())).encode()


def _fmt(v) -> str:
    return f"{v:.17g}"


def csv_trajectory(traj, path) -> None:
    """trajectory.csv: t, x, y, is_impulse, plus a post-release row at each
    release."""
    post = {t: y_post for t, _, y_post in traj.impulses}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "x", "y", "is_impulse"])
        for t, x, y in zip(traj.ts, traj.xs, traj.ys):
            w.writerow([_fmt(t), _fmt(x), _fmt(y), 0])
            if t in post:
                w.writerow([_fmt(t), _fmt(x), _fmt(post[t]), 1])


def csv_period_sweep(periods, worst, path) -> None:
    """period_sweep.csv from the periods and their worst-case reports."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["T", "pi_max", "deviation"])
        for T, report in zip(periods, worst):
            w.writerow([f"{T:.17g}", f"{report.pi_max:.17g}",
                        f"{report.deviation:.17g}"])


def csv_robust_bound(Ts, bounds, t_lower, path) -> None:
    """robust_bound.csv from the periods, their bounds and T_L."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["T", "bound", "T_L_flag"])
        for T, bound in zip(Ts, bounds):
            w.writerow([f"{T:.17g}", f"{bound:.17g}", int(T < t_lower)])


def csv_envelope(report, path) -> None:
    """mc_envelope.csv from an EnvelopeReport."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["bin_mid", "max_dev", "min_dev", "bound", "count"])
        for mid, hi, lo, bound, count in zip(
                report.bin_mid.tolist(), report.max_dev.tolist(),
                report.min_dev.tolist(), report.bound.tolist(), report.count.tolist()):
            w.writerow([_fmt(mid), _fmt(hi), _fmt(lo), _fmt(bound), count])


def assert_same_text(got, want) -> None:
    """got == want for two texts (str or bytes), failing with the first line
    that differs rather than a diff of the whole texts, which for a
    4,000-point SVG takes pytest minutes to build."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            raise AssertionError(f"line {i + 1} differs:\n  got  {g!r}\n  want {w!r}")
    raise AssertionError(f"{len(got_lines)} lines, want {len(want_lines)}, all "
                         "shared lines agree: the lengths or line endings differ")


def assert_no_child_processes() -> None:
    """This process has no child left, running or unreaped.  It sees bare
    os.fork children, which multiprocessing.active_children does not."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"a child process is left: {pid or 'still running'}")
