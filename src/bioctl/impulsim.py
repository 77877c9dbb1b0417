"""Integration of the full nonlinear release model.

Between releases the system is a smooth planar ODE; at every release
instant nT the predator pool jumps by mu*T.  One adaptive Dormand-Prince
5(4) stepper (the RK45 pair: Dormand & Prince 1980; Hairer, Norsett &
Wanner, *Solving ODEs I*, II.4-6) runs on Python floats through the whole
horizon, with scipy's RK45 step control: RMS error norm over (x, y),
safety 0.9, step factor clamped to [0.2, 10], exponent -1/5.

Release instants are hard step ends: the step that would pass nT, or end
short of it by under a millionth of the step, lands on it exactly, the jump
is applied there, and the step size proposed before that adjustment carries
on.  Every accepted step has a quartic dense-output polynomial.  Threshold
crossings are found on it: the step ends and the quartic's interior
critical points cut the step into monotone pieces, and a piece whose ends
lie on either side of eil is bisected, so a dip below eil that starts and
ends inside one step is found too.  ``simulate`` reads its samples off the
same polynomials.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernels import DomainError, InputOverflowError, KernelSet
from .orbit import PestFreeOrbit, ReleaseProgram

__all__ = [
    "IntegrationError",
    "StateConsistencyError",
    "HorizonExceededError",
    "SimConfig",
    "Trajectory",
    "AtOrbit",
    "OrbitPlus",
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


# Dormand-Prince 5(4) tableau.  The seventh stage is the derivative at the
# step end (first same as last); it enters the error estimate and the dense
# output only.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
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
# The columns of _P after the first sum to 0, so for 0 <= s <= 1:
# |u(t + s*h) - u| <= h * (|K_1| + _P_NORM * max_i |K_i - K_1|)
_P_NORM = sum(abs(p) for row in _P for p in row)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_LAND_SLACK = 1e-6
# stiffness test of Hairer's DOPRI5 code (Hairer & Wanner, *Solving ODEs
# II*, IV.2); a stiff stretch that eases (a large predator pool decays) is
# sat out, and the run stops only if the held step would need more than
# 1e8 steps to reach the horizon
_STIFF_EVERY, _STIFF_HITS, _STIFF_CALM, _STIFF_STEP_BUDGET = 1000, 15, 6, 1e8
_SQRT_HALF = math.sqrt(0.5)


class IntegrationError(RuntimeError):
    """The adaptive integrator failed: a non-finite state, a step size
    below 10 ulp of t, or a stiff stretch that would hold the explicit
    stepper to tiny steps."""


class StateConsistencyError(RuntimeError):
    """The integrated state left the nonnegative quadrant beyond -atol."""


class HorizonExceededError(RuntimeError):
    """No threshold crossing happened before the simulation horizon."""


@dataclass(frozen=True)
class SimConfig:
    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: Optional[float] = None   # defaults to T/20 at call time
    t_end: Optional[float] = None      # horizon measured from t0; defaults to 200/m
    crossing_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.rtol <= 1e-3:
            raise DomainError(f"rtol must be in (0, 1e-3], got {self.rtol}")
        if self.atol <= 0:
            raise DomainError(f"atol must be positive, got {self.atol}")
        if self.crossing_tol <= 0:
            raise DomainError(f"crossing_tol must be positive, got {self.crossing_tol}")
        if self.max_step is not None and self.max_step <= 0:
            raise DomainError("max_step must be positive when given")
        if self.t_end is not None and self.t_end <= 0:
            raise DomainError("t_end must be positive when given")


@dataclass(frozen=True)
class AtOrbit:
    """Predators start exactly on the pest-free orbit at the invasion."""


@dataclass(frozen=True)
class OrbitPlus:
    """Predators start delta above the orbit; delta >= 0 keeps the
    comparison bound applicable."""

    delta: float

    def __post_init__(self):
        if self.delta < 0:
            raise DomainError("delta must be nonnegative")


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


def _first_release(t0: float, T: float) -> int:
    """Index n of the first release instant n*T strictly after t0."""
    n = math.floor(t0 / T) + 1
    return n + 1 if n * T <= t0 else n


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
    rtol, atol = cfg.rtol, cfg.atol
    T, m, jump = program.T, k.m, program.per_release
    max_step = cfg.max_step if cfg.max_step is not None else T / 20.0
    f, g, hn = k.growth.rate, k.response.rate, k.numerical.rate

    def rhs(x, y):
        return f(x) - g(x) * y, (hn(x) - m) * y

    def rms(u, v):
        return math.hypot(u, v) * _SQRT_HALF

    fx, fy = rhs(x, y)
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise InputOverflowError(
            f"initial state (x0={x:g}, y0={y:g}) is too large: the model "
            "rates there overflow a float")
    # initial step size: Hairer, Norsett & Wanner II.4, as in scipy
    sx, sy = atol + abs(x) * rtol, atol + abs(y) * rtol
    d0, d1 = rms(x / sx, y / sy), rms(fx / sx, fy / sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t)
    gx, gy = rhs(x + h0 * fx, y + h0 * fy)
    d2 = rms((gx - fx) / sx, (gy - fy) / sy) / h0 if h0 > 0.0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h1, t_end - t, max_step)

    n = _first_release(t, T)
    stop = min(n * T, t_end)
    err = 0.0
    accepted = stiff_hits = calm = 0
    while t < t_end:
        min_step = 10.0 * math.ulp(t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
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
            err = rms(
                h * (e1 * fx + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x + e7 * k7x)
                / (atol + max(abs(x), abs(xn)) * rtol),
                h * (e1 * fy + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * k7y)
                / (atol + max(abs(y), abs(yn)) * rtol))
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
        if xn < -atol or yn < -atol:
            raise StateConsistencyError(
                f"state fell below -atol={-atol:g} at t={t_new:g}")
        accepted += 1
        if accepted % _STIFF_EVERY == 0 or stiff_hits:
            # h times a Lipschitz estimate |k7 - k6| / |u_new - u6| against
            # 3.25, about where the stability region ends on the real axis;
            # 15 hits with no run of 6 misses between them mean stability,
            # not accuracy, holds the step size
            den = math.hypot(xn - x6, yn - y6)
            if den > 0.0 and h * math.hypot(k7x - k6x, k7y - k6y) > 3.25 * den:
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
    """Coefficients of the step's quartic for one component, times h."""
    return tuple(h * sum(kv * row[j] for kv, row in zip(ks, _P)) for j in range(4))


def _poly(u, q, s):
    return u + s * (q[0] + s * (q[1] + s * (q[2] + s * q[3])))


def _bisect_crossing(t, h, x, q, eil, tol, lo, hi, above):
    """Where the step's x polynomial crosses eil between s = lo and s = hi,
    to within tol in t or to adjacent floats in s; ``above`` says on which
    side of eil it is at lo, and it is on the other side at hi."""
    while (hi - lo) * h > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if (_poly(x, q, mid) > eil) == above:
            lo = mid
        else:
            hi = mid
    return t + 0.5 * (lo + hi) * h


def _crossings(t, h, x, xn, ks, eil, tol):
    """Crossings of eil by the step's x polynomial, in time order, as
    (t, "down" | "up") pairs; ks are the step's stage derivatives of x."""
    # cheap bounds on how far the polynomial strays from x rule out most
    # steps that end on the side they start on
    same_side = (x > eil) == (xn > eil)
    k1 = ks[0]
    if same_side and abs(x - eil) > h * (
            abs(k1) + _P_NORM * max(abs(v - k1) for v in ks)):
        return []
    q = _dense(h, ks)
    if same_side and abs(x - eil) > sum(map(abs, q)):
        return []
    # the quartic is monotone between its critical points; real parts of
    # complex roots only add cut points, which does no harm
    crit = np.roots((4.0 * q[3], 3.0 * q[2], 2.0 * q[1], q[0])).real
    ss = [0.0, *sorted(float(s) for s in crit if 0.0 < s < 1.0), 1.0]
    xs = [x, *(_poly(x, q, s) for s in ss[1:-1]), xn]
    out = []
    for lo, hi, x_lo, x_hi in zip(ss, ss[1:], xs, xs[1:]):
        if (x_lo > eil) != (x_hi > eil):
            out.append((_bisect_crossing(t, h, x, q, eil, tol, lo, hi, x_lo > eil),
                        "down" if x_lo > eil else "up"))
    return out


def _check_start(x0, y0):
    if x0 < 0 or y0 < 0:
        raise DomainError("initial state must be nonnegative")
    return float(x0), float(y0)


def _sample_times(t0: float, t_end: float, T: float) -> np.ndarray:
    """64 points per period on each release segment, releases included
    once, from t0 to t_end."""
    parts = []
    a, n = t0, _first_release(t0, T)
    while a < t_end:
        b = min(n * T, t_end)
        n_pts = max(2, int(round(_SAMPLES_PER_PERIOD * (b - a) / T)) + 1)
        parts.append(np.linspace(a, b, n_pts)[1 if parts else 0:])
        a, n = b, n + 1
    return np.concatenate(parts)


def simulate(k: KernelSet, program: ReleaseProgram, x0, y0, t0=0.0,
             cfg: Optional[SimConfig] = None, eil=None) -> Trajectory:
    """Integrate from state (x0, y0) at t0, releasing at every nT > t0.

    y0 is taken as the post-release level if t0 itself is a release
    instant.  Dense sampling at 64 points per period; samples carry the
    pre-release value at release instants.
    """
    x0, y0 = _check_start(x0, y0)
    cfg = cfg or SimConfig()
    t0 = float(t0)
    horizon = cfg.t_end if cfg.t_end is not None else 200.0 / k.m
    t_end = t0 + horizon
    ts = _sample_times(t0, t_end, program.T)
    xs, ys = np.empty_like(ts), np.empty_like(ts)
    xs[0], ys[0] = x0, y0
    j = 1
    impulses, events = [], []
    for t, h, t_new, x, y, kx, ky, xn, yn, released in _steps(
            k, program, x0, y0, t0, t_end, cfg):
        qx, qy = _dense(h, kx), _dense(h, ky)
        if eil is not None:
            events += _crossings(t, h, x, xn, kx, eil, cfg.crossing_tol)
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
                     t0=0.0, y_policy=AtOrbit(),
                     cfg: Optional[SimConfig] = None):
    """Damage time of the full model: first t with x(t) <= eil, minus t0.

    The predator start level comes from the release orbit (AtOrbit, or
    OrbitPlus(delta) for sensitivity runs); starting at or above the
    orbit keeps the predators above it forever, which is what makes the
    comparison-model damage time an upper bound.  Returns (Pi, t_cross).
    """
    if not x0 > eil > 0.0:
        raise DomainError("need x0 > eil > 0")
    cfg = cfg or SimConfig()
    orb = PestFreeOrbit(program.mu, program.T, k.m)
    y0 = orb.eval(t0, post=True)
    if isinstance(y_policy, OrbitPlus):
        y0 += y_policy.delta
    elif not isinstance(y_policy, AtOrbit):
        raise DomainError(f"unknown predator start policy: {y_policy!r}")
    x0, y0 = _check_start(x0, y0)
    t0 = float(t0)
    t_end = t0 + (cfg.t_end if cfg.t_end is not None else 200.0 / k.m)
    # every step starts above eil, so the first crossing is the way down
    for t, h, _, x, _, kx, _, xn, _, _ in _steps(k, program, x0, y0, t0, t_end, cfg):
        for t_cross, _ in _crossings(t, h, x, xn, kx, eil, cfg.crossing_tol):
            return t_cross - t0, t_cross
    raise HorizonExceededError(
        f"no crossing of eil={eil:g} before t={t_end:g}; "
        "raise the horizon or the budget")


def _fmt(v) -> str:
    return f"{v:.17g}"


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Columns t, x, y, is_impulse; each release adds a second row at the
    same t carrying the post-release predator level."""
    post = {t: y_post for t, _, y_post in traj.impulses}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "x", "y", "is_impulse"])
        for t, x, y in zip(traj.ts, traj.xs, traj.ys):
            w.writerow([_fmt(t), _fmt(x), _fmt(y), 0])
            if t in post:
                w.writerow([_fmt(t), _fmt(x), _fmt(post[t]), 1])
