"""Monte Carlo reproduction of the worst-case deviation envelope.

Draws (T, t0, z0) triples from a counter-based deterministic stream,
computes the damage time of every trial with one of three engines, and
checks the deviation scatter Pi - T1 against the closed-form envelope
from :mod:`bioctl.planner`.

Engines:

* ``closed``: the comparison model's piecewise-analytic damage time from
  :mod:`bioctl.planner`, one Newton inversion per trial (default);
* ``zsim``: independent numerical route, cumulative Simpson quadrature of
  the comparison model on fixed uniform grids with local grid refinement
  at the crossing, a block of trials at a time as 2-D numpy arrays; it
  shares no closed form with :mod:`bioctl.planner`, so it cross-checks
  the closed engine;
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
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import impulsim, planner
from .kernels import ConfigError, DomainError, InputOverflowError, KernelSet
from .orbit import ReleaseProgram

__all__ = [
    "MAX_BINS",
    "MAX_SEED",
    "MAX_TRIALS",
    "McConfig",
    "Trials",
    "BinStat",
    "BinReport",
    "EnvelopeReport",
    "stream_uniforms",
    "run_mc",
    "bin_envelope",
    "verify_envelope",
    "RecordsWriteError",
    "write_records_csv",
    "write_envelope_csv",
]

_GOLDEN64 = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: most trials whose counters 3i..3i+2 fit a uint64 without wrapping
MAX_TRIALS = (2 ** 64 - 1) // 3
#: the seed keys the stream as a uint64
MAX_SEED = 2 ** 64 - 1
#: most envelope bins; the binning allocates a few arrays of this length
MAX_BINS = 2 ** 20

#: fixed chunk length so that chunk boundaries never depend on thread count
_CHUNK = 16384
#: rows per CSV formatting job: a job's text (about 0.5 MB) and its copies
#: in transit between processes stay below the peak memory of the engines
_CSV_ROWS = 4096

_ZSIM_NODES = 513
_ZSIM_SUBNODES = 129
#: trials per zsim block: bounded memory, 1 MB (256 x 513 floats) an array
_ZSIM_BLOCK = 256

#: absolute slack of ``verify_envelope`` for rounding in Pi - T1
_ENVELOPE_SLACK = 1e-9


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
    values were drawn before it.  The seed is a uint64, in [0, 2^64 - 1].
    """
    counters = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keyed = np.uint64(seed) + (counters + np.uint64(1)) * _GOLDEN64
    bits = _mix64(keyed)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a container can report the host's CPUs in ``os.cpu_count``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count() -> int:
    """Workers for the engine threads and the CSV processes: BIOCTL_THREADS
    (default 4), capped at the usable CPUs."""
    env = os.environ.get("BIOCTL_THREADS", "").strip() or "4"
    if not env.isdecimal() or int(env) < 1:
        raise ConfigError(f"BIOCTL_THREADS must be a positive integer, got {env!r}")
    return min(int(env), _usable_cpus())


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
        if not 0 <= self.seed <= MAX_SEED:
            raise DomainError(f"seed must be in [0, {MAX_SEED}], got {self.seed}")
        if self.engine not in ("closed", "zsim", "full"):
            raise DomainError(f"unknown engine {self.engine!r}")
        if self.engine == "full" and (self.kernels is None or self.eil is None):
            raise DomainError("the full engine needs kernels and eil")
        if not self.box.singleton_params:
            raise DomainError("the harness pins sigma and m to single values")
        # comparison-model Pi and T1 are both about t1 = z0/(mu - sigma), so
        # Pi - T1 carries rounding noise of about ulp(t1)
        sigma = self.box.sigma_lo
        if self.engine != "full" and self.mu > sigma and not math.ulp(
                self.box.z0_hi / (self.mu - sigma)) <= _ENVELOPE_SLACK:
            raise InputOverflowError(
                f"z0={self.box.z0_hi:g} is too large for the {self.engine} "
                "engine: one ulp of z0/(mu - sigma) exceeds the "
                f"{_ENVELOPE_SLACK:g} slack of the envelope check")


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


def _cum_simpson(f, h):
    """Cumulative composite Simpson from 0 along each row of f, which
    samples an odd number of nodes h apart (h one per row).  The first
    interval of each pair is (h/12)(5f_0 + 8f_1 - f_2), the second its
    mirror image (h/12)(-f_0 + 8f_1 + 5f_2)."""
    out, eight = np.zeros_like(f), 8.0 * f[:, 1::2]
    np.subtract(5.0 * f[:, :-2:2] + eight, f[:, 2::2], out=out[:, 1::2])
    np.subtract(5.0 * f[:, 2::2] + eight, f[:, :-2:2], out=out[:, 2::2])
    out[:, 1:] *= (h / 12.0)[:, None]
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    return out


def _zsim_path(a, b, z_a, nodes, sigma, m, peak):
    """Comparison-model path from z_a at phase a to phase b, one trial a
    row, on a uniform grid of the given node count."""
    grid = np.linspace(a, b, nodes, axis=1)
    rhs = sigma - m * peak[:, None] * np.exp(-m * grid)
    return grid, z_a[:, None] + _cum_simpson(rhs, (b - a) / (nodes - 1))


def _zsim_cross(grid, z, sigma, m, peak):
    """First root along each row of a sampled z path: find the sign-change
    cell, re-quadrate it on a finer grid and interpolate linearly."""
    rows = np.arange(len(z))
    i = np.argmax(z <= 0.0, axis=1)
    sub, zs = _zsim_path(grid[rows, i - 1], grid[rows, i], z[rows, i - 1],
                         _ZSIM_SUBNODES, sigma, m, peak)
    j = np.argmax(zs <= 0.0, axis=1)
    za, zb, lo = zs[rows, j - 1], zs[rows, j], sub[rows, j - 1]
    return np.where(z[:, 0] <= 0.0, grid[:, 0],
                    lo + za / (za - zb) * (sub[rows, j] - lo))


def _pi_zsim(Ts, t0s, z0s, sigma, m, mu):
    """Quadrature route, a block of trials at a time as 2-D arrays.  One
    quadrated period per trial serves every whole period after the first
    partial segment; the crossing cell gets its own finer grid."""
    out = np.empty(len(Ts))
    for s in range(0, len(Ts), _ZSIM_BLOCK):
        T, t0, z0 = (c[s:s + _ZSIM_BLOCK] for c in (Ts, t0s, z0s))
        peak = mu * T / -np.expm1(-m * T)
        grid, z = _zsim_path(t0, T, z0, _ZSIM_NODES, sigma, m, peak)
        pgrid, pz = _zsim_path(0.0 * T, T, 0.0 * T, _ZSIM_NODES, sigma, m, peak)
        z_b1, drop, first = z[:, -1], -pz[:, -1], z[:, -1] <= 0.0
        periods = np.where(first, 1.0, z_b1 / drop)
        # past 2^53 a float can no longer count periods: n - 1 rounds, and
        # the drift guards below would never move the remainder
        if not (counted := periods < 2.0 ** 53).all():
            k = int(np.argmin(counted))
            raise InputOverflowError(
                f"z0={z0[k]:g} is too large for the zsim engine: at "
                f"T={T[k]:g} the invasion outlasts 2^53 release periods")
        n = np.ceil(periods)
        while (down := (n > 1.0) & (z_b1 - (n - 1.0) * drop <= 0.0)).any():
            n[down] -= 1.0
        while (up := z_b1 - (n - 1.0) * drop > drop).any():
            n[up] += 1.0
        seg = first[:, None]
        cross = _zsim_cross(np.where(seg, grid, pgrid), np.where(
            seg, z, (z_b1 - (n - 1.0) * drop)[:, None] + pz), sigma, m, peak)
        out[s:s + _ZSIM_BLOCK] = np.where(
            first, cross - t0, (T - t0) + (n - 1.0) * T + cross)
    return out


def _map_chunks(fun, n, threads, *arrays):
    """Apply fun to fixed-size chunks of the argument arrays, in order."""
    spans = [(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)]
    if threads <= 1 or len(spans) == 1:
        parts = [fun(*(a[s:e] for a in arrays)) for s, e in spans]
    else:
        # leaving the block joins the threads, so write_records_csv never
        # forks its workers while these are alive
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
    threads = _thread_count()
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
    failed = np.zeros(cfg.n_trials, dtype=bool)
    x0s = None
    if cfg.engine == "closed":
        pis = _map_chunks(
            lambda a, b, c: planner._damage_times(a, b, c, sigma, m, cfg.mu),
            cfg.n_trials, threads, Ts, t0s, z0s)
    elif cfg.engine == "zsim":
        pis = _map_chunks(lambda a, b, c: _pi_zsim(a, b, c, sigma, m, cfg.mu),
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
    ok = ~trials.failed
    devs = trials.deviation[ok]
    edges = np.linspace(0.0, t_upper, n_bins + 1)
    which = np.clip(np.searchsorted(edges, trials.T[ok], side="right") - 1,
                    0, n_bins - 1)
    counts = np.bincount(which, minlength=n_bins)
    hi, lo = np.full(n_bins, -np.inf), np.full(n_bins, np.inf)
    np.maximum.at(hi, which, devs)
    np.minimum.at(lo, which, devs)
    hi[counts == 0] = lo[counts == 0] = np.nan
    mids = 0.5 * (edges[:-1] + edges[1:])
    return [BinStat(*row) for row in zip(mids.tolist(), hi.tolist(),
                                         lo.tolist(), counts.tolist())]


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
        violations = int(np.sum(trials.deviation > bounds + _ENVELOPE_SLACK))
    stats = bin_envelope(trials, n_bins, t_upper)
    bin_bounds = planner.envelope_bound_curve([st.bin_mid for st in stats], box, mu)
    bins = [BinReport(st.bin_mid, st.max_dev, st.min_dev, bound, st.count,
                      st.max_dev / bound if st.count and bound > 0 else math.nan)
            for st, bound in zip(stats, bin_bounds.tolist())]
    return EnvelopeReport(violations, t_upper, bins)


# --------------------------------------------------------------------------
# CSV output


def _fmt(v) -> str:
    return f"{v:.17g}"


class RecordsWriteError(RuntimeError):
    """Writing the records CSV failed: the file, a fork or a CSV worker.
    The partial file has been removed."""


def _format_rows(start, engine, T, t0, z0, Pi, T1, deviation, failed) -> bytes:
    """CSV rows of the trials numbered from start, as ASCII bytes."""
    row = "%d" + ",%.17g" * 6 + f",{engine},%d\n"
    block = np.column_stack((np.arange(start, start + len(T)), T, t0, z0, Pi,
                             T1, deviation, failed))
    return ((row * len(T)) % tuple(block.ravel().tolist())).encode()


def _write_rows(fh, jobs, workers) -> None:
    # %.17g costs about 1 us a float under the GIL, so blocks are formatted
    # in processes.  fork, not spawn: a worker inherits the imported package
    # instead of importing numpy again.
    if workers == 1 or len(jobs) == 1 or not hasattr(os, "fork"):
        for job in jobs:
            fh.write(_format_rows(*job))
        return
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor
    with ProcessPoolExecutor(min(workers, len(jobs)),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        for block in pool.map(_format_rows, *zip(*jobs)):
            fh.write(block)


def write_records_csv(trials: Trials, path) -> None:
    """One row per trial.  Fixed-size blocks of rows are formatted by up to
    BIOCTL_THREADS worker processes and written in trial order, so the
    bytes never depend on the worker count.  If the file, a fork or a
    worker fails, the partial file is removed and RecordsWriteError raised.
    """
    workers = _thread_count()
    cols = (trials.T, trials.t0, trials.z0, trials.Pi, trials.T1,
            trials.deviation, trials.failed)
    jobs = [(s, trials.engine, *(c[s:s + _CSV_ROWS] for c in cols))
            for s in range(0, len(trials.T), _CSV_ROWS)]
    try:
        fh = open(path, "wb")
    except OSError as e:
        raise RecordsWriteError(f"cannot write {path}: {e}") from e
    try:
        with fh:
            fh.write(b"trial,T,t0,z0,Pi,T1,deviation,engine,failed\n")
            _write_rows(fh, jobs, workers)
    except (OSError, BrokenExecutor) as e:
        os.remove(path)
        raise RecordsWriteError(
            f"writing {path} failed ({type(e).__name__}: {e}); the partial "
            "file was removed") from e


def write_envelope_csv(report: EnvelopeReport, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["bin_mid", "max_dev", "min_dev", "bound", "count"])
        for b in report.bins:
            w.writerow([_fmt(b.bin_mid), _fmt(b.max_dev), _fmt(b.min_dev),
                        _fmt(b.bound), b.count])
