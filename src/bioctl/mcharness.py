"""Monte Carlo reproduction of the worst-case deviation envelope.

Draws (T, t0, z0) triples from a counter-based deterministic stream,
computes the damage time of every trial with one of three engines, and
checks the deviation scatter Pi - T1 against the closed-form envelope
from :mod:`bioctl.planner`.

Engines:

* ``closed``: the comparison model's piecewise-analytic damage time from
  :mod:`bioctl.planner`, one Newton inversion per trial (default);
* ``zsim``: independent numerical route, cumulative Simpson quadrature of
  the comparison model with local grid refinement at the crossing;
* ``full``: nonlinear simulation via :mod:`bioctl.impulsim`, the invasion
  size mapped back to a pest density through the local change of
  variables.

Determinism contract: trial i derives its three uniforms from counters
3i, 3i+1, 3i+2 through a keyed splitmix-style 64-bit mixer, so the trial
columns for a given (seed, n_trials) are identical whatever the chunking,
thread count or evaluation order.  Chunk size is a fixed constant for the
same reason.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_simpson

from . import impulsim, planner
from .kernels import ConfigError, DomainError, KernelSet
from .orbit import ReleaseProgram

__all__ = [
    "McConfig",
    "Trials",
    "BinStat",
    "BinReport",
    "EnvelopeReport",
    "stream_uniforms",
    "run_mc",
    "bin_envelope",
    "verify_envelope",
    "write_records_csv",
    "write_envelope_csv",
]

_GOLDEN64 = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: fixed chunk length so that chunk boundaries never depend on thread count
_CHUNK = 16384

_ZSIM_NODES = 513
_ZSIM_SUBNODES = 129


def _mix64(v: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, vectorized over uint64 arrays
    v = v.copy()
    with np.errstate(over="ignore"):
        v ^= v >> np.uint64(30)
        v *= _MIX1
        v ^= v >> np.uint64(27)
        v *= _MIX2
        v ^= v >> np.uint64(31)
    return v


def stream_uniforms(seed: int, counters) -> np.ndarray:
    """Uniforms strictly inside (0, 1), one per counter value.

    Counter-based: value i depends only on (seed, i), never on how many
    values were drawn before it.
    """
    counters = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keyed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (counters + np.uint64(1)) * _GOLDEN64
    bits = _mix64(keyed)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _thread_count() -> int:
    env = os.environ.get("BIOCTL_THREADS", "").strip() or str(min(4, os.cpu_count() or 1))
    if not env.isdecimal() or int(env) < 1:
        raise ConfigError(f"BIOCTL_THREADS must be a positive integer, got {env!r}")
    return int(env)


@dataclass(frozen=True)
class McConfig:
    """Harness configuration.  The scatter's period range is (0, T_L) with
    T_L computed from the box, never user-set; sigma and m are pinned to
    single values (the parameter rectangle collapses for the scatter)."""

    box: planner.UncertaintyBox
    mu: float
    n_trials: int = 200_000
    seed: int = 0
    engine: str = "closed"                 # closed | zsim | full
    kernels: Optional[KernelSet] = None    # full engine only
    eil: Optional[float] = None            # full engine only
    sim: Optional[impulsim.SimConfig] = None

    def __post_init__(self):
        if self.n_trials < 1:
            raise DomainError("n_trials must be at least 1")
        if self.engine not in ("closed", "zsim", "full"):
            raise DomainError(f"unknown engine {self.engine!r}")
        if self.engine == "full" and (self.kernels is None or self.eil is None):
            raise DomainError("the full engine needs kernels and eil")
        if not self.box.singleton_params:
            raise DomainError("the harness pins sigma and m to single values")


@dataclass(frozen=True, eq=False)
class Trials:
    """Monte Carlo trials as columns: entry i of each array is trial i.

    Failed trials have Pi and deviation nan.  ``x0`` holds the initial pest
    densities of the full engine (None for the others); it is not a CSV
    column.
    """

    T: np.ndarray
    t0: np.ndarray
    z0: np.ndarray
    Pi: np.ndarray
    T1: np.ndarray
    deviation: np.ndarray
    failed: np.ndarray
    engine: str
    x0: Optional[np.ndarray] = None


# --------------------------------------------------------------------------
# engines


def _zsim_cross(grid, z, sigma, m, peak):
    """First root of a sampled z path: locate the sign-change cell, then
    re-quadrate a finer local grid and interpolate linearly."""
    if z[0] <= 0.0:
        return float(grid[0])
    i = int(np.argmax(z <= 0.0))
    a, b = grid[i - 1], grid[i]
    sub = np.linspace(a, b, _ZSIM_SUBNODES)
    rhs = sigma - m * peak * np.exp(-m * sub)
    zs = z[i - 1] + cumulative_simpson(rhs, x=sub, initial=0.0)
    if zs[0] <= 0.0:
        return float(a)
    j = int(np.argmax(zs <= 0.0))
    za, zb = zs[j - 1], zs[j]
    w = za / (za - zb)
    return float(sub[j - 1] + w * (sub[j] - sub[j - 1]))


def _pi_zsim_one(T, t0, z0, sigma, m, mu):
    """Quadrature route for a single trial.

    The comparison model's right-hand side is the same exponential on
    every post-release segment, so the per-period balance is quadrated
    once and reused; only the first partial segment and the crossing
    segment get their own grids.
    """
    peak = mu * T / -math.expm1(-m * T)
    grid = np.linspace(t0, T, _ZSIM_NODES)
    rhs = sigma - m * peak * np.exp(-m * grid)
    z = z0 + cumulative_simpson(rhs, x=grid, initial=0.0)
    if z[-1] <= 0.0:
        return _zsim_cross(grid, z, sigma, m, peak) - t0
    pgrid = np.linspace(0.0, T, _ZSIM_NODES)
    prhs = sigma - m * peak * np.exp(-m * pgrid)
    pz = cumulative_simpson(prhs, x=pgrid, initial=0.0)
    drop = -float(pz[-1])
    z_b1 = float(z[-1])
    n = math.ceil(z_b1 / drop)
    while n > 1 and z_b1 - (n - 1) * drop <= 0.0:
        n -= 1
    while z_b1 - (n - 1) * drop > drop:
        n += 1
    zpath = (z_b1 - (n - 1) * drop) + pz
    s = _zsim_cross(pgrid, zpath, sigma, m, peak)
    return (T - t0) + (n - 1) * T + s


def _pi_zsim_vec(Ts, t0s, z0s, sigma, m, mu):
    out = np.empty(len(Ts))
    for j in range(len(Ts)):
        out[j] = _pi_zsim_one(float(Ts[j]), float(t0s[j]), float(z0s[j]),
                              sigma, m, mu)
    return out


def _map_chunks(fun, n, threads, *arrays):
    """Apply fun to fixed-size chunks of the argument arrays, in order."""
    spans = [(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)]
    if threads <= 1 or len(spans) == 1:
        parts = [fun(*(a[s:e] for a in arrays)) for s, e in spans]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(
                lambda span: fun(*(a[span[0]:span[1]] for a in arrays)), spans))
    return np.concatenate(parts)


# --------------------------------------------------------------------------
# harness


def run_mc(cfg: McConfig) -> Trials:
    """Run the scatter experiment.

    Trial i draws T uniform in (0, T_L), t0 uniform in (0, T) and z0
    uniform in the z0 box.  Full-engine trials that exceed the horizon,
    fail to integrate or leave the state space are flagged failed with
    Pi = nan, never dropped.
    """
    t_upper, _ = planner.t_limits(cfg.box, cfg.mu)
    if not 0.0 < t_upper < math.inf:
        raise DomainError(
            "envelope ceiling must be positive and finite; widen the z0 box")
    sigma, m = cfg.box.sigma_lo, cfg.box.m_lo
    idx = np.arange(cfg.n_trials, dtype=np.uint64)
    three = np.uint64(3) * idx
    Ts = stream_uniforms(cfg.seed, three) * t_upper
    t0s = stream_uniforms(cfg.seed, three + np.uint64(1)) * Ts
    z0s = cfg.box.z0_lo + stream_uniforms(cfg.seed, three + np.uint64(2)) \
        * (cfg.box.z0_hi - cfg.box.z0_lo)
    t1s = z0s / (cfg.mu - sigma)
    threads = _thread_count()
    failed = np.zeros(cfg.n_trials, dtype=bool)
    x0s = None
    if cfg.engine == "closed":
        pis = _map_chunks(
            lambda a, b, c: planner._damage_times(a, b, c, sigma, m, cfg.mu),
            cfg.n_trials, threads, Ts, t0s, z0s)
    elif cfg.engine == "zsim":
        pis = _map_chunks(lambda a, b, c: _pi_zsim_vec(a, b, c, sigma, m, cfg.mu),
                          cfg.n_trials, threads, Ts, t0s, z0s)
    else:
        gp0 = cfg.kernels.response.slope0()
        sim_cfg = cfg.sim or impulsim.SimConfig()
        pis = np.empty(cfg.n_trials)
        # every invasion density first, so a z0 box too large for a float
        # stops the run before any trial is integrated
        x0s = np.array([planner.x_from_z_local(z0, cfg.eil, cfg.kernels.m, gp0)
                        for z0 in z0s.tolist()])
        for i in range(cfg.n_trials):
            program = ReleaseProgram(cfg.mu, float(Ts[i]))
            try:
                pis[i], _ = impulsim.damage_time_full(
                    cfg.kernels, program, float(x0s[i]), cfg.eil,
                    t0=float(t0s[i]), cfg=sim_cfg)
            except (impulsim.HorizonExceededError, impulsim.IntegrationError,
                    impulsim.StateConsistencyError):
                pis[i] = math.nan
                failed[i] = True
    return Trials(T=Ts, t0=t0s, z0=z0s, Pi=pis, T1=t1s, deviation=pis - t1s,
                  failed=failed, engine=cfg.engine, x0=x0s)


# --------------------------------------------------------------------------
# envelope statistics


@dataclass(frozen=True)
class BinStat:
    bin_mid: float
    max_dev: float
    min_dev: float
    count: int


@dataclass(frozen=True)
class BinReport:
    bin_mid: float
    max_dev: float
    min_dev: float
    bound: float
    count: int
    coverage_ratio: float


@dataclass(frozen=True)
class EnvelopeReport:
    violations: int
    t_upper: float
    bins: list


def bin_envelope(trials: Trials, n_bins: int, t_upper: float) -> list:
    """Deviation extremes per equal-width period bin over (0, t_upper).

    Empty bins (and bins whose only trials failed) report count 0 with nan
    extremes.
    """
    if n_bins < 1:
        raise DomainError("n_bins must be positive")
    if t_upper <= 0:
        raise DomainError("t_upper must be positive")
    devs, ok = trials.deviation, ~trials.failed
    edges = np.linspace(0.0, t_upper, n_bins + 1)
    which = np.clip(np.searchsorted(edges, trials.T, side="right") - 1, 0, n_bins - 1)
    stats = []
    for b in range(n_bins):
        mid = 0.5 * (edges[b] + edges[b + 1])
        sel = ok & (which == b)
        cnt = int(sel.sum())
        if cnt:
            stats.append(BinStat(float(mid), float(devs[sel].max()),
                                 float(devs[sel].min()), cnt))
        else:
            stats.append(BinStat(float(mid), math.nan, math.nan, 0))
    return stats


def verify_envelope(trials: Trials, box: planner.UncertaintyBox, mu: float,
                    n_bins: int = 50) -> EnvelopeReport:
    """Compare the scatter against the closed-form deviation bound.

    ``violations`` counts comparison-model trials above the bound at
    their own T (must be zero: the bound is their exact maximum).  The
    full engine is only locally approximated by the comparison model and
    is exempt.  Per bin, ``coverage_ratio`` is max_dev over the bound at
    the bin midpoint; it approaches 1 from below as trials accumulate.
    """
    t_upper, _ = planner.t_limits(box, mu)
    violations = 0
    if trials.engine != "full":
        bounds = planner.envelope_bound_curve(trials.T, box, mu)
        violations = int(np.sum(trials.deviation > bounds + 1e-9))
    bins = []
    for st in bin_envelope(trials, n_bins, t_upper):
        bound = planner.envelope_bound_curve(st.bin_mid, box, mu)
        cov = st.max_dev / bound if st.count and bound > 0 else math.nan
        bins.append(BinReport(st.bin_mid, st.max_dev, st.min_dev, bound,
                              st.count, cov))
    return EnvelopeReport(violations, t_upper, bins)


# --------------------------------------------------------------------------
# CSV output


def _fmt(v) -> str:
    return f"{v:.17g}"


def write_records_csv(trials: Trials, path) -> None:
    """One row per trial, formatted a fixed-size chunk at a time."""
    cols = (trials.T, trials.t0, trials.z0, trials.Pi, trials.T1,
            trials.deviation, trials.failed)
    row = "%d" + ",%.17g" * 6 + f",{trials.engine},%d\n"
    n = len(trials.T)
    with open(path, "w", newline="") as fh:
        fh.write("trial,T,t0,z0,Pi,T1,deviation,engine,failed\n")
        for s in range(0, n, _CHUNK):
            e = min(s + _CHUNK, n)
            block = np.column_stack([np.arange(s, e)] + [c[s:e] for c in cols])
            fh.write((row * (e - s)) % tuple(block.ravel().tolist()))


def write_envelope_csv(report: EnvelopeReport, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["bin_mid", "max_dev", "min_dev", "bound", "count"])
        for b in report.bins:
            w.writerow([_fmt(b.bin_mid), _fmt(b.max_dev), _fmt(b.min_dev),
                        _fmt(b.bound), b.count])
