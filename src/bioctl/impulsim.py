"""Integration of the full nonlinear release model.

Between releases the system is a smooth planar ODE; at every release
instant nT the predator pool jumps by mu*T.  One adaptive Dormand-Prince
5(4) stepper (the RK45 pair: Dormand & Prince 1980; Hairer, Norsett &
Wanner, *Solving ODEs I*, II.4-6) runs on Python floats through the whole
horizon, with scipy's RK45 step control (RMS error norm over (x, y),
safety 0.9, step factor clamped to [0.2, 10], exponent -1/5) except for
the first step, which proposes one release period, and for the error
weights, rtol*max(|u|, |u_new|) per component with no absolute tolerance.
So no time or density constant is absolute: T and t0 times a power of
two, with the rates divided by it, give every time times it, exactly; the
pest or the predator densities times a power of two, with the kernel
constants to match, give every density times it (above the subnormals)
and every time as it is.  A component at exactly 0 stays there.  Each
stage evaluates g once and f once: the numerical response is h = e*g.

Release instants and error control alone bound the step: the step that
would pass nT, or end short of it by under a millionth of the step, lands
on it exactly, the jump is applied there, and the step size proposed
before that adjustment carries on, so no step is longer than T.  Every
accepted step has a quartic dense-output polynomial in s = (t' - t)/h.
Threshold crossings are found on it with ``kernels``' root routines.  A
step that ends on the side of eil it starts on, further from eil than the
sum of the quartic's coefficient magnitudes (the most it strays from the
step's start), is skipped.  On any other step the step ends and the
quartic's interior critical points (``real_roots``) cut [0, 1] into
monotone pieces, and a piece whose ends lie on either side of eil is
bisected (``_bisect``) to adjacent floats in s, so a dip below eil that
starts and ends inside one step is found too.  ``simulate`` reads its
samples off the same polynomials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tables
from .kernels import (DomainError, InputOverflowError, KernelSet, _bisect,
                      _derivative, _positive, real_roots)
from .orbit import PestFreeOrbit, ReleaseProgram, next_release

__all__ = [
    "IntegrationError",
    "StateConsistencyError",
    "HorizonExceededError",
    "SimConfig",
    "Trajectory",
    "simulate",
    "damage_time_full",
    "trajectory_to_csv",
]

_SAMPLES_PER_PERIOD = 64


def __getattr__(name):
    # PEP 562: ``impulsim.solve_ivp`` imports scipy's solver on first
    # access.  No bioctl code reads it, and scipy is not a runtime
    # dependency; perfbench's tracer is the only caller, wrapping it as the
    # boundary to scipy, which perfbench's output oracles need anyway.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Dormand-Prince 5(4) tableau, without the stage nodes c: the rhs is
# autonomous.  The seventh stage is the derivative at the step end (first
# same as last); it enters the error estimate and the dense output only.
_A = ((),
      (1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# 5th-order minus embedded 4th-order weights, over all seven stages
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
      1 / 40)
# dense output (Shampine 1986): u(t + s*h) = u + h * sum_j s^(j+1) * sum_i K_i * _P[i][j]
_P = ((1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
       -12715105075 / 11282082432),
      (0.0, 0.0, 0.0, 0.0),
      (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
       87487479700 / 32700410799),
      (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
       -10690763975 / 1880347072),
      (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
       701980252875 / 199316789632),
      (0.0, -282668133 / 205662961, 2019193451 / 616988883,
       -1453857185 / 822651844),
      (0.0, 40617522 / 29380423, -110615467 / 29380423,
       69997945 / 29380423))
# the columns after the first without the second stage, whose row is 0
_P_COL1, _P_COL2, _P_COL3 = (tuple(row[j] for row in _P[:1] + _P[2:])
                              for j in (1, 2, 3))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_LAND_SLACK = 1e-6
# stiffness test of Hairer's DOPRI5 code (Hairer & Wanner, *Solving ODEs
# II*, IV.2); a stiff stretch that eases (a large predator pool decays) is
# sat out, and the run stops only if the held step would need more than
# 1e8 steps to reach the horizon
_STIFF_EVERY, _STIFF_HITS, _STIFF_CALM, _STIFF_STEP_BUDGET = 1000, 15, 6, 1e8
_SQRT_HALF = math.sqrt(0.5)
# release budgets: the stepper lands on every release instant, about 13 us
# each on one core of a 2-vCPU host, so 10^7 releases take about two
# minutes; simulate also keeps and writes 64 samples a release, about
# 0.6 ms and 28 kB of peak RSS each, so 2^14 releases (2^20 samples) take
# about 10 s and 460 MB
DAMAGE_RELEASES, SIMULATE_RELEASES = 10 ** 7, 2 ** 14


class IntegrationError(RuntimeError):
    """The adaptive integrator failed: a non-finite state, a step size
    below 10 ulp of t, or a stiff stretch that would hold the explicit
    stepper to tiny steps."""


class StateConsistencyError(RuntimeError):
    """A component of the integrated state fell below zero by more than
    rtol times its value at the step's start."""


class HorizonExceededError(RuntimeError):
    """No threshold crossing happened before the simulation horizon."""


@dataclass(frozen=True)
class SimConfig:
    rtol: float = 1e-8
    t_end: Optional[float] = None      # horizon measured from t0; defaults to 200/m

    def __post_init__(self):
        if not 0.0 < self.rtol <= 1e-3:
            raise DomainError(f"rtol must be in (0, 1e-3], got {self.rtol}")
        if self.t_end is not None:
            _positive("horizon", "t_end", self.t_end)


@dataclass
class Trajectory:
    """Dense samples plus the exact release bookkeeping.

    Samples hold pre-release values at release instants; the post-release
    levels live in ``impulses`` as (t, y_pre, y_post) triples.  ``events``
    lists (t, label) threshold crossings when an injury level was given.
    """

    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    impulses: list = field(default_factory=list)
    events: list = field(default_factory=list)


def _per(d, scale):
    """d in units of a component's scale rtol*max(|u|, |u_new|).  A scale of
    0 (the component sits at exactly 0) weighs a d of 0 as 0 and any other
    as inf, which rejects the step."""
    return d / scale if scale else (0.0 if d == 0.0 else math.inf)


def _steps(k: KernelSet, program: ReleaseProgram, x, y, t, t_end, cfg):
    """Accepted Dormand-Prince steps from state (x, y) at t up to t_end.

    Yields ``(t, h, t_new, x, y, kx, ky, x_new, y_new, released)`` per
    step, with kx, ky the seven stage derivatives of each component; the
    state at t_new is the pre-release one, and ``released`` says that the
    jump mu*T is applied there before the next step.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A[1:]
    b1, _, b3, b4, b5, b6 = _B
    e1, _, e3, e4, e5, e6, e7 = _E
    rtol = cfg.rtol
    T, m, jump = program.T, k.m, program.per_release
    f, g, e = k.growth.rate, k.response.rate, k.numerical.e

    def rhs(x, y):
        gx = g(x)
        return f(x) - gx * y, (e * gx - m) * y

    fx, fy = rhs(x, y)
    # the first proposal is one release period, landed on the next release
    # or the horizon below, and shrunk by error control like any other
    h_abs = min(T, t_end - t)
    n = next_release(t, T)
    stop = min(n * T, t_end)
    err = 0.0
    accepted = stiff_hits = calm = 0
    while t < t_end:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(
                    f"step size {h_abs:g} fell below 10 ulp of t={t:g}"
                    + ("" if math.isfinite(err) else
                       " (the right-hand side is not finite there)"))
            h_prop = h_abs
            t_new = t + h_abs
            # a step that would end short of stop by under _LAND_SLACK of its
            # length lands on stop: rounding in t + h_abs leaves gaps of a
            # few ulp, which would otherwise cost a sliver step of their own
            if stop - t_new < _LAND_SLACK * h_abs:
                t_new = stop
            h = t_new - t
            k2x, k2y = rhs(x + (a21 * fx) * h, y + (a21 * fy) * h)
            k3x, k3y = rhs(x + (a31 * fx + a32 * k2x) * h,
                           y + (a31 * fy + a32 * k2y) * h)
            k4x, k4y = rhs(x + (a41 * fx + a42 * k2x + a43 * k3x) * h,
                           y + (a41 * fy + a42 * k2y + a43 * k3y) * h)
            k5x, k5y = rhs(
                x + (a51 * fx + a52 * k2x + a53 * k3x + a54 * k4x) * h,
                y + (a51 * fy + a52 * k2y + a53 * k3y + a54 * k4y) * h)
            x6 = x + (a61 * fx + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x) * h
            y6 = y + (a61 * fy + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y) * h
            k6x, k6y = rhs(x6, y6)
            xn = x + h * (b1 * fx + b3 * k3x + b4 * k4x + b5 * k5x + b6 * k6x)
            yn = y + h * (b1 * fy + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y)
            k7x, k7y = rhs(xn, yn)
            # the RMS norm over (x, y) of the error relative to each component
            ex = h * (e1 * fx + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x + e7 * k7x)
            ey = h * (e1 * fy + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * k7y)
            sx, sy = max(abs(x), abs(xn)) * rtol, max(abs(y), abs(yn)) * rtol
            err = math.hypot(_per(ex, sx), _per(ey, sy)) * _SQRT_HALF
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR,
                                                            _SAFETY * err ** -0.2)
                if rejected:
                    factor = min(1.0, factor)
                h_abs = h * factor
                if t_new == stop:
                    h_abs = max(h_abs, h_prop)
                break
            # a non-finite error (overflow in a too-long trial step) also
            # shrinks the step, by the largest factor
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            rejected = True
        if not (math.isfinite(xn) and math.isfinite(yn)):
            raise IntegrationError(f"non-finite state at t={t_new:g}")
        if xn < -rtol * abs(x) or yn < -rtol * abs(y):
            raise StateConsistencyError(
                f"state fell below -rtol times its value at the step's start, "
                f"at t={t_new:g}")
        accepted += 1
        if accepted % _STIFF_EVERY == 0 or stiff_hits:
            # h times a Lipschitz estimate |k7 - k6| / |u_new - u6|, each
            # component in units of its error scale, against 3.25, about
            # where the stability region ends on the real axis;
            # 15 hits with no run of 6 misses between them mean stability,
            # not accuracy, holds the step size
            den = math.hypot(_per(xn - x6, sx), _per(yn - y6, sy))
            if den > 0.0 and h * math.hypot(_per(k7x - k6x, sx),
                                            _per(k7y - k6y, sy)) > 3.25 * den:
                stiff_hits, calm = stiff_hits + 1, 0
            else:
                calm += 1
                stiff_hits = 0 if calm == _STIFF_CALM else stiff_hits
            if stiff_hits == _STIFF_HITS:
                if (t_end - t_new) / h > _STIFF_STEP_BUDGET:
                    raise IntegrationError(
                        f"the model is stiff at t={t_new:g}: stability, not "
                        f"accuracy, holds the steps near h={h:g}, too short "
                        f"to reach t={t_end:g}")
                stiff_hits = 0
        released = t_new == n * T
        yield (t, h, t_new, x, y, (fx, k2x, k3x, k4x, k5x, k6x, k7x),
               (fy, k2y, k3y, k4y, k5y, k6y, k7y), xn, yn, released)
        t, x, y, fx, fy = t_new, xn, yn, k7x, k7y
        if released:
            y += jump
            fx, fy = rhs(x, y)
            n += 1
            stop = min(n * T, t_end)


def _dense(h, ks):
    """Coefficients of the step's quartic for one component, times h.

    Each is h * (0.0 + k_1*_P[0][j] + ... + k_7*_P[6][j]) summed left to
    right; the terms whose _P entry is 0 are left out, which changes no
    bit when the stages are finite, as those of an accepted step are.
    """
    k1, _, k3, k4, k5, k6, k7 = ks
    p11, p31, p41, p51, p61, p71 = _P_COL1
    p12, p32, p42, p52, p62, p72 = _P_COL2
    p13, p33, p43, p53, p63, p73 = _P_COL3
    return (h * (0.0 + k1),
            h * (0.0 + k1 * p11 + k3 * p31 + k4 * p41 + k5 * p51 + k6 * p61 + k7 * p71),
            h * (0.0 + k1 * p12 + k3 * p32 + k4 * p42 + k5 * p52 + k6 * p62 + k7 * p72),
            h * (0.0 + k1 * p13 + k3 * p33 + k4 * p43 + k5 * p53 + k6 * p63 + k7 * p73))


def _poly(u, q, s):
    return u + s * (q[0] + s * (q[1] + s * (q[2] + s * q[3])))


def _crossings(t, h, x, xn, q, eil):
    """Crossings of eil by the step's x polynomial, in time order, as
    (t, "down" | "up") pairs; q = ``_dense(h, kx)`` is its quartic.  On
    [0, 1] it strays from x by at most sum|q_j|, so a step that ends on the
    side of eil it starts on, further than that from eil, is skipped.  The
    columns j >= 1 of _P sum to 0, so sum|q_j| <= h*(|k_1| + (N - 1)*max_i
    |k_i - k_1|), N = sum|_P[i][j]|: it skips every step that bound skips."""
    if (x > eil) == (xn > eil) and abs(x - eil) > sum(map(abs, q)):
        return []
    # the quartic in s minus eil is monotone between its critical points,
    # and each piece that changes sign holds one root, bisected in s
    c = (q[3], q[2], q[1], q[0], x - eil)
    ss = [0.0, *real_roots(_derivative(c), 0.0, 1.0), 1.0]
    xs = [x, *(_poly(x, q, s) for s in ss[1:-1]), xn]
    out = []
    for lo, hi, x_lo, x_hi in zip(ss, ss[1:], xs, xs[1:]):
        if (x_lo > eil) != (x_hi > eil):
            out.append((t + _bisect(c, lo, hi, x_lo <= eil) * h,
                        "down" if x_lo > eil else "up"))
    return out


def _check_start(k: KernelSet, x0, y0):
    """(x0, y0) as floats, refused unless nonnegative with finite rates."""
    if not (x0 >= 0 and y0 >= 0):
        raise DomainError("initial state must be nonnegative")
    x0, y0 = float(x0), float(y0)
    gx = k.response.rate(x0)
    if not (math.isfinite(k.growth.rate(x0) - gx * y0)
            and math.isfinite((k.numerical.e * gx - k.m) * y0)):
        raise InputOverflowError(
            f"initial state (x0={x0:g}, y0={y0:g}) is too large: the model "
            "rates there overflow a float")
    return x0, y0


def _sample_times(t0: float, t_end: float, T: float) -> np.ndarray:
    """64 points per period on each release segment, releases included
    once, from t0 to t_end."""
    parts = []
    a, n = t0, next_release(t0, T)
    while a < t_end:
        b = min(n * T, t_end)
        n_pts = max(2, int(round(_SAMPLES_PER_PERIOD * (b - a) / T)) + 1)
        parts.append(np.linspace(a, b, n_pts)[1 if parts else 0:])
        a, n = b, n + 1
    return np.concatenate(parts)


def _t_end(k: KernelSet, program: ReleaseProgram, t0: float, cfg: SimConfig) -> float:
    """t0 plus the horizon, 200/m unless cfg sets one.  The stepper lands
    on every release before it, so a horizon of 2^53 release periods or
    more is refused (InputOverflowError), as ``next_release`` refuses t0."""
    t_end = t0 + (cfg.t_end if cfg.t_end is not None else 200.0 / k.m)
    next_release(t_end, program.T)
    return t_end


def _check_releases(t0: float, t1: float, T: float, budget: int) -> None:
    """Refuse a run from t0 to t1 that would pass more than ``budget``
    release instants of period T (InputOverflowError), before it starts;
    past 2^53 periods ``next_release`` refuses first."""
    n = next_release(t1, T) - next_release(t0, T)
    if n > budget:
        raise InputOverflowError(
            f"the run from t={t0:g} to t={t1:g} passes {n} releases of period "
            f"T={T:g}, more than the budget of {budget}; raise the period or "
            "shorten the run")


def simulate(k: KernelSet, program: ReleaseProgram, x0, y0, t0=0.0,
             cfg: Optional[SimConfig] = None, eil=None) -> Trajectory:
    """Integrate from state (x0, y0) at t0, releasing at every nT > t0.

    y0 is taken as the post-release level if t0 itself is a release
    instant.  Dense sampling at 64 points per period; samples carry the
    pre-release value at release instants.  A horizon of more than
    SIMULATE_RELEASES periods is refused (InputOverflowError).
    """
    x0, y0 = _check_start(k, x0, y0)
    cfg = cfg or SimConfig()
    t0 = float(t0)
    t_end = _t_end(k, program, t0, cfg)
    _check_releases(t0, t_end, program.T, SIMULATE_RELEASES)
    ts = _sample_times(t0, t_end, program.T)
    xs, ys = np.empty_like(ts), np.empty_like(ts)
    xs[0], ys[0] = x0, y0
    j = 1
    impulses, events = [], []
    for t, h, t_new, x, y, kx, ky, xn, yn, released in _steps(
            k, program, x0, y0, t0, t_end, cfg):
        qx, qy = _dense(h, kx), _dense(h, ky)
        if eil is not None:
            events += _crossings(t, h, x, xn, qx, eil)
        while j < len(ts) and ts[j] < t_new:
            s = (ts[j] - t) / h
            xs[j], ys[j] = _poly(x, qx, s), _poly(y, qy, s)
            j += 1
        if j < len(ts) and ts[j] == t_new:
            xs[j], ys[j] = xn, yn
            j += 1
        if released:
            impulses.append((t_new, yn, yn + program.per_release))
    return Trajectory(ts, xs, ys, impulses, events)


def damage_time_full(k: KernelSet, program: ReleaseProgram, x0, eil,
                     t0=0.0, cfg: Optional[SimConfig] = None, bound=None):
    """Damage time of the full model: first t with x(t) <= eil, minus t0.

    Predators start on the release orbit; starting at or above it keeps
    the predators above it forever, which is what makes the
    comparison-model damage time an upper bound (``simulate`` with its y0
    starts them anywhere).  Given that bound, a run that would pass more
    than DAMAGE_RELEASES releases before t0 + bound is refused before it
    steps (InputOverflowError).  Returns (Pi, t_cross).
    """
    if not x0 > eil > 0.0:
        raise DomainError("need x0 > eil > 0")
    cfg = cfg or SimConfig()
    y0 = PestFreeOrbit(program.mu, program.T, k.m).eval(t0, post=True)
    x0, y0 = _check_start(k, x0, y0)
    t0 = float(t0)
    t_end = _t_end(k, program, t0, cfg)
    if bound is not None:
        _check_releases(t0, t0 + bound, program.T, DAMAGE_RELEASES)
    # every step starts above eil, so the first crossing is the way down
    for t, h, _, x, _, kx, _, xn, _, _ in _steps(k, program, x0, y0, t0, t_end, cfg):
        for t_cross, _ in _crossings(t, h, x, xn, _dense(h, kx), eil):
            return t_cross - t0, t_cross
    raise HorizonExceededError(
        f"no crossing of eil={eil:g} before t={t_end:g}; "
        "raise the horizon or the budget")


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Columns t, x, y, is_impulse; each release adds a second row at the
    same t carrying the post-release predator level."""
    # a sample matches a release time as a dict key does (-0.0 is 0.0,
    # nan is nothing), and the last release at a time wins
    post = {t: y_post for t, _, y_post in traj.impulses}
    times = np.array([*post, math.nan])
    order = np.argsort(times)   # the nan sorts last: every index below is in range
    times, levels = times[order], np.array([*post.values(), math.nan])[order]
    i = np.searchsorted(times, traj.ts)
    at = np.flatnonzero(times[i] == traj.ts)   # samples with a release row
    after = at + 1
    tables.write({path: itertools.chain(
        [b"t,x,y,is_impulse\n"],
        tables.row_chunks("%.17g,%.17g,%.17g,%d\n",
                          np.insert(traj.ts, after, traj.ts[at]),
                          np.insert(traj.xs, after, traj.xs[at]),
                          np.insert(traj.ys, after, levels[i[at]]),
                          np.insert(np.zeros(len(traj.ts)), after, 1)))})
