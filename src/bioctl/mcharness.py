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
columns for a given (seed, n_trials) are identical whatever the job size,
worker count or evaluation order.  Job sizes are fixed constants for the
same reason.

A run is cut into jobs of consecutive trials.  ``stream_mc`` hands each
job to a worker of ``forkpool``, a forked copy of this process that
draws, solves, checks, bins and formats its trials and sends back only
the rows and the partials; the parent writes the rows in trial order and
folds the per-job counts, maxima and minima, which do not depend on
order.  So the parent never holds the trial columns, and its memory does
not grow with the trial count.  Processes, not threads: formatting alone
costs about 0.2 us a field under the GIL (see ``tables.rows``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import forkpool, impulsim, planner, tables
from .kernels import DomainError, InputOverflowError, KernelSet
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
    "stream_mc",
    "bin_envelope",
    "verify_envelope",
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

#: trials per job of the closed and zsim engines, and rows per formatting
#: job of ``write_records_csv``: a job's text is about 0.5 MB
_CSV_ROWS = 4096
#: trials per full-engine job.  A trial costs about a millisecond and far
#: more at short periods, so small jobs keep the workers balanced, and
#: runs of up to 256 trials stay one job in this process.
_FULL_ROWS = 256
#: the record columns, in CSV order
_COLUMNS = ("T", "t0", "z0", "Pi", "T1", "deviation", "failed")

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


@dataclass(frozen=True)
class McConfig:
    """Harness configuration.  The scatter's period range is (0, T_L) with
    T_L computed from the box, never user-set, and kept as ``t_upper``;
    sigma and m are pinned to single values (the parameter rectangle
    collapses for the scatter).  Construction checks everything that must
    stop a run before its first trial."""

    box: planner.UncertaintyBox
    mu: float
    n_trials: int = 200_000
    seed: int = 0
    engine: str = "closed"                 # closed | zsim | full
    kernels: Optional[KernelSet] = None    # full engine only
    eil: Optional[float] = None            # full engine only
    sim: Optional[impulsim.SimConfig] = None
    t_upper: float = field(init=False, repr=False, compare=False)

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
        t_upper, _ = planner.t_limits(self.box, self.mu)
        if not 0.0 < t_upper < math.inf:
            raise DomainError(
                "envelope ceiling must be positive and finite; widen the z0 box")
        object.__setattr__(self, "t_upper", t_upper)
        # comparison-model Pi and T1 are both about t1 = z0/(mu - sigma), so
        # Pi - T1 carries rounding noise of about ulp(t1)
        if self.engine != "full" and not math.ulp(
                self.box.z0_hi / (self.mu - self.box.sigma_lo)) <= _ENVELOPE_SLACK:
            raise InputOverflowError(
                f"z0={self.box.z0_hi:g} is too large for the {self.engine} "
                "engine: one ulp of z0/(mu - sigma) exceeds the "
                f"{_ENVELOPE_SLACK:g} slack of the envelope check")
        if self.engine == "full":
            # the invasion density rises with z0: a box whose largest one
            # overflows a float stops the run before any trial is integrated
            planner.x_from_z_local(self.box.z0_hi, self.eil, self.kernels.m,
                                   self.kernels.response.slope0())


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


def _solve(cfg: McConfig, start: int, stop: int) -> Trials:
    """Trials [start, stop) of a run: their draws from the counter stream
    and their damage times from the engine."""
    sigma, m = cfg.box.sigma_lo, cfg.box.m_lo
    three = np.uint64(3) * np.arange(start, stop, dtype=np.uint64)
    Ts = stream_uniforms(cfg.seed, three) * cfg.t_upper
    t0s = stream_uniforms(cfg.seed, three + np.uint64(1)) * Ts
    z0s = cfg.box.z0_lo + stream_uniforms(cfg.seed, three + np.uint64(2)) \
        * (cfg.box.z0_hi - cfg.box.z0_lo)
    t1s = z0s / (cfg.mu - sigma)
    failed = np.zeros(len(Ts), dtype=bool)
    x0s = None
    if cfg.engine == "closed":
        pis = planner._damage_times(Ts, t0s, z0s, sigma, m, cfg.mu)
    elif cfg.engine == "zsim":
        pis = _pi_zsim(Ts, t0s, z0s, sigma, m, cfg.mu)
    else:
        gp0 = cfg.kernels.response.slope0()
        sim_cfg = cfg.sim or impulsim.SimConfig()
        pis = np.empty(len(Ts))
        x0s = np.array([planner.x_from_z_local(z0, cfg.eil, cfg.kernels.m, gp0)
                        for z0 in z0s.tolist()])
        for i in range(len(Ts)):
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


def _job_starts(cfg: McConfig) -> range:
    """First trial of every job of a run."""
    return range(0, cfg.n_trials, _FULL_ROWS if cfg.engine == "full" else _CSV_ROWS)


# --------------------------------------------------------------------------
# harness


def run_mc(cfg: McConfig) -> Trials:
    """Run the scatter experiment in this process and return every trial.

    Trial i draws T uniform in (0, T_L), t0 uniform in (0, T) and z0
    uniform in the z0 box.  Full-engine trials that exceed the horizon,
    fail to integrate or leave the state space are flagged failed with
    Pi = nan, never dropped.  The trials are solved job by job, as in
    ``stream_mc``.
    """
    starts = _job_starts(cfg)
    parts = [_solve(cfg, s, min(s + starts.step, cfg.n_trials)) for s in starts]
    cols = {c: np.concatenate([getattr(p, c) for p in parts]) for c in _COLUMNS}
    x0 = np.concatenate([p.x0 for p in parts]) if cfg.engine == "full" else None
    return Trials(**cols, engine=cfg.engine, x0=x0)


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


def _bin_partial(trials: Trials, n_bins: int, t_upper: float):
    """(bins, count, max, min) of the trials' deviations over the bins they
    fall in, of n_bins equal-width period bins over (0, t_upper); failed
    trials drop out.  Its size is bounded by the trials', not by n_bins."""
    ok = ~trials.failed
    edges = np.linspace(0.0, t_upper, n_bins + 1)
    which = np.clip(np.searchsorted(edges, trials.T[ok], side="right") - 1,
                    0, n_bins - 1)
    bins, slot, count = np.unique(which, return_inverse=True, return_counts=True)
    hi, lo = np.full(len(bins), -np.inf), np.full(len(bins), np.inf)
    np.maximum.at(hi, slot, trials.deviation[ok])
    np.minimum.at(lo, slot, trials.deviation[ok])
    return bins, count, hi, lo


class _Bins:
    """Per-bin trial count and deviation extremes, folded from partials of
    ``_bin_partial``.  Sum, max and min do not depend on the fold order."""

    def __init__(self, n_bins: int):
        self.count = np.zeros(n_bins, dtype=np.int64)
        self.hi, self.lo = np.full(n_bins, -np.inf), np.full(n_bins, np.inf)

    def fold(self, part) -> None:
        bins, count, hi, lo = part
        self.count[bins] += count
        self.hi[bins] = np.maximum(self.hi[bins], hi)
        self.lo[bins] = np.minimum(self.lo[bins], lo)

    def stats(self, t_upper: float) -> list:
        empty = self.count == 0
        hi, lo = np.where(empty, np.nan, self.hi), np.where(empty, np.nan, self.lo)
        edges = np.linspace(0.0, t_upper, len(self.count) + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        return [BinStat(*row) for row in zip(mids.tolist(), hi.tolist(),
                                             lo.tolist(), self.count.tolist())]


def _check_bins(n_bins: int, t_upper: float) -> None:
    if n_bins < 1:
        raise DomainError("n_bins must be positive")
    if t_upper <= 0:
        raise DomainError("t_upper must be positive")


def bin_envelope(trials: Trials, n_bins: int, t_upper: float) -> list:
    """Deviation extremes per equal-width period bin over (0, t_upper).

    Empty bins (and bins whose only trials failed) report count 0 with nan
    extremes.
    """
    _check_bins(n_bins, t_upper)
    acc = _Bins(n_bins)
    acc.fold(_bin_partial(trials, n_bins, t_upper))
    return acc.stats(t_upper)


def _violations(trials: Trials, box: planner.UncertaintyBox, mu: float) -> int:
    """Comparison-model trials above the bound at their own T; the full
    engine is exempt."""
    if trials.engine == "full":
        return 0
    bounds = planner.envelope_bound_curve(trials.T, box, mu)
    return int(np.sum(trials.deviation > bounds + _ENVELOPE_SLACK))


def _envelope_report(violations: int, t_upper: float, stats: list,
                     box: planner.UncertaintyBox, mu: float) -> EnvelopeReport:
    bin_bounds = planner.envelope_bound_curve([st.bin_mid for st in stats], box, mu)
    bins = [BinReport(st.bin_mid, st.max_dev, st.min_dev, bound, st.count,
                      st.max_dev / bound if st.count and bound > 0 else math.nan)
            for st, bound in zip(stats, bin_bounds.tolist())]
    return EnvelopeReport(violations, t_upper, bins)


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
    return _envelope_report(_violations(trials, box, mu), t_upper,
                            bin_envelope(trials, n_bins, t_upper), box, mu)


# --------------------------------------------------------------------------
# CSV output

_RECORDS_HEADER = b"trial,T,t0,z0,Pi,T1,deviation,engine,failed\n"


def _format_rows(start, engine, T, t0, z0, Pi, T1, deviation, failed) -> bytes:
    """CSV rows of the trials numbered from start, as ASCII bytes."""
    return tables.rows("%d" + ",%.17g" * 6 + f",{engine},%d\n",
                       np.arange(start, start + len(T)), T, t0, z0, Pi, T1,
                       deviation, failed)


def write_records_csv(trials: Trials, path) -> None:
    """One row per trial.  Fixed-size blocks of rows are formatted by up to
    BIOCTL_THREADS worker processes and written in trial order, so the
    bytes never depend on the worker count.  The file is written whole or
    removed (see ``tables.write``).
    """
    cols = [getattr(trials, c) for c in _COLUMNS]
    starts = range(0, len(trials.T), _CSV_ROWS)
    workers = forkpool.thread_count()

    def job(k):
        s = starts[k]
        return _format_rows(s, trials.engine, *(c[s:s + starts.step] for c in cols))

    def chunks():
        yield _RECORDS_HEADER
        yield from forkpool.map_jobs(job, len(starts), workers)

    tables.write(path, chunks())


def write_envelope_csv(report: EnvelopeReport, path) -> None:
    fields = ("bin_mid", "max_dev", "min_dev", "bound", "count")
    cols = ([getattr(b, f) for b in report.bins] for f in fields)
    tables.write(path, [b"bin_mid,max_dev,min_dev,bound,count\n",
                        tables.rows("%.17g,%.17g,%.17g,%.17g,%d\n", *cols)])


# --------------------------------------------------------------------------
# streamed run


def _run_chunk(cfg: McConfig, n_bins: int, start: int, stop: int):
    """One job of ``stream_mc``: trials [start, stop) drawn and solved, then
    (their CSV rows, their envelope violations, their bin partial, their
    failed count)."""
    trials = _solve(cfg, start, stop)
    return (_format_rows(start, trials.engine, *(getattr(trials, c) for c in _COLUMNS)),
            _violations(trials, cfg.box, cfg.mu),
            _bin_partial(trials, n_bins, cfg.t_upper),
            int(trials.failed.sum()))


def stream_mc(cfg: McConfig, path, n_bins: int = 50, stale=()):
    """``run_mc``, ``verify_envelope`` and ``write_records_csv`` in one pass
    that never holds the trial columns: returns (the envelope report, the
    failed trial count) and writes the same bytes to path.

    Each job draws, solves, checks, bins and formats its own trials in a
    worker process (see ``forkpool``); the rows are written in trial
    order and the per-job partials folded, so neither the bytes nor the
    report depend on the worker count.  Any failure removes the partial
    file, as in ``write_records_csv``.  The files named in ``stale`` (a
    previous run's other artifacts) are removed once the up-front checks
    pass, before path is opened, so a run that fails part-way leaves none
    of them next to a missing path.
    """
    _check_bins(n_bins, cfg.t_upper)
    starts = _job_starts(cfg)
    workers = forkpool.thread_count()
    for name in stale:
        try:
            os.remove(name)
        except OSError:
            pass   # missing, or not removable: writing it later reports that
    acc, violations, failed = _Bins(n_bins), 0, 0

    def fold(result):
        nonlocal violations, failed
        rows, job_violations, part, job_failed = result
        violations += job_violations
        failed += job_failed
        acc.fold(part)
        return rows

    def job(k):
        s = starts[k]
        return _run_chunk(cfg, n_bins, s, min(s + starts.step, cfg.n_trials))

    def chunks():
        yield _RECORDS_HEADER
        yield from map(fold, forkpool.map_jobs(job, len(starts), workers))

    tables.write(path, chunks())
    report = _envelope_report(violations, cfg.t_upper, acc.stats(cfg.t_upper),
                              cfg.box, cfg.mu)
    return report, failed
