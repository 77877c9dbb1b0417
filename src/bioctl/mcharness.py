"""Monte Carlo reproduction of the worst-case deviation envelope.

Draws (T, t0, z0) triples from a counter-based deterministic stream,
computes the damage time of every trial with one of two engines, and
checks the deviation scatter Pi - T1 against the closed-form envelope
from :mod:`bioctl.planner`.

Engines:

* ``closed``: the comparison model's piecewise-analytic damage time from
  :mod:`bioctl.planner`, one Newton inversion per trial (default);
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
draws, solves and formats its trials and sends back only the rows and
its partial of the run's one ``_Tally`` (bin counts and deviation
extremes, violations, failed trials, and the (T, deviation) pairs of its
trials in the scatter sample ``plot`` draws); the parent writes the rows
in trial order and folds the partials, whose sums and extremes do not
depend on order, and whose samples it keeps in trial order.  So the
parent never holds the trial columns, and its memory does not grow with
the trial count.  Processes, not threads: formatting alone
costs about 0.1 us a field under the GIL (see ``tables.row_chunks``).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import forkpool, impulsim, planner, tables
from .kernels import ConfigError, DomainError, KernelSet, _positive
from .orbit import ReleaseProgram

__all__ = [
    "ENGINES",
    "MAX_BINS",
    "MAX_SEED",
    "MAX_TRIALS",
    "McConfig",
    "Trials",
    "scatter_t_upper",
    "EnvelopeReport",
    "stream_uniforms",
    "run_mc",
    "stream_mc",
    "read_sample",
    "bin_envelope",
    "verify_envelope",
    "write_records_csv",
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
#: the damage-time engines, the default first
ENGINES = ("closed", "full")

#: trials per job of the closed engine: a job's text is about 0.5 MB, and
#: one pass of ``tables.row_chunks``
_CSV_ROWS = 4096
#: trials per full-engine job.  A trial costs about a millisecond and far
#: more at short periods, so small jobs keep the workers balanced, and
#: runs of up to 256 trials stay one job in this process.
_FULL_ROWS = 256
#: the record columns, in CSV order
_COLUMNS = ("T", "t0", "z0", "Pi", "T1", "deviation", "failed")
#: most trials in the scatter sample: it keeps every g-th trial, g the
#: least power of two with ceil(n_trials/g) <= _SAMPLE_POINTS
_SAMPLE_POINTS = 4000

#: the least uniform ``stream_uniforms`` returns
_LEAST_UNIFORM = 2.0 ** -54


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


def scatter_t_upper(box: planner.UncertaintyBox, mu: float) -> float:
    """T_L of ``planner.t_limits``: the scatter draws its periods from
    (0, T_L).  Raises ``DomainError`` unless the box pins sigma and m to
    single values and T_L is positive and finite, and
    ``InputOverflowError`` unless the damage times of every draw fit a
    float (``planner._check_fall_fits`` over the periods [2^-54*T_L, T_L],
    2^-54 being the least uniform of ``stream_uniforms``).
    """
    if not box.singleton_params:
        raise DomainError("the harness pins sigma and m to single values")
    t_upper, _ = planner.t_limits(box, mu)
    if not 0.0 < t_upper < math.inf:
        raise DomainError(
            f"envelope ceiling T_L={t_upper:g} is not positive and finite; "
            "widen the z0 box")
    planner._check_fall_fits(box, mu, _LEAST_UNIFORM * t_upper, t_upper)
    return t_upper


@dataclass(frozen=True)
class McConfig:
    """Harness configuration.  The scatter's period range is (0, T_L) with
    T_L computed from the box, never user-set, and kept as ``t_upper``;
    sigma and m are pinned to single values (the parameter rectangle
    collapses for the scatter).  Construction checks everything that must
    stop a run before its first trial (see ``scatter_t_upper``)."""

    box: planner.UncertaintyBox
    mu: float
    n_trials: int = 200_000
    seed: int = 0
    engine: str = "closed"                 # one of ENGINES
    kernels: Optional[KernelSet] = None    # full engine only
    eil: Optional[float] = None            # full engine only
    sim: Optional[impulsim.SimConfig] = None
    t_upper: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_trials < 1:
            raise DomainError("n_trials must be at least 1")
        if not 0 <= self.seed <= MAX_SEED:
            raise DomainError(f"seed must be in [0, {MAX_SEED}], got {self.seed}")
        if self.engine not in ENGINES:
            raise DomainError(f"unknown engine {self.engine!r}")
        if self.engine == "full" and (self.kernels is None or self.eil is None):
            raise DomainError("the full engine needs kernels and eil")
        if self.engine == "full":
            # the invasion density rises with z0: a box whose largest one
            # overflows a float stops the run before any trial is integrated
            planner.x_from_z_local(self.box.z0_hi, self.eil, self.kernels.m,
                                   self.kernels.response.slope0())
        object.__setattr__(self, "t_upper", scatter_t_upper(self.box, self.mu))


@dataclass(frozen=True, eq=False)
class Trials:
    """Monte Carlo trials as columns: entry i of each array is trial i.

    Failed trials have Pi and deviation nan.  ``deviation_error`` bounds the
    rounding error of each closed-engine deviation (``planner._damage_times``);
    it is nan in the full engine, whose deviations have no such bound.
    """

    T: np.ndarray
    t0: np.ndarray
    z0: np.ndarray
    Pi: np.ndarray
    T1: np.ndarray
    deviation: np.ndarray
    failed: np.ndarray
    engine: str
    deviation_error: np.ndarray


# --------------------------------------------------------------------------
# engines


def _solve(cfg: McConfig, start: int, stop: int) -> Trials:
    """Trials [start, stop) of a run: their draws from the counter stream
    and their damage times from the engine."""
    sigma, m = cfg.box.sigma_lo, cfg.box.m_lo
    u = stream_uniforms(cfg.seed, np.arange(3 * start, 3 * stop, dtype=np.uint64))
    Ts = u[0::3] * cfg.t_upper
    t0s = u[1::3] * Ts
    z0s = cfg.box.z0_lo + u[2::3] * (cfg.box.z0_hi - cfg.box.z0_lo)
    t1s = z0s / (cfg.mu - sigma)
    failed = np.zeros(len(Ts), dtype=bool)
    if cfg.engine == "closed":
        pis, devs, errors = planner._damage_times(Ts, t0s, z0s, sigma, m, cfg.mu)
    else:
        gp0 = cfg.kernels.response.slope0()
        pis = np.empty(len(Ts))
        x0s = np.array([planner.x_from_z_local(z0, cfg.eil, cfg.kernels.m, gp0)
                        for z0 in z0s.tolist()])
        for i in range(len(Ts)):
            program = ReleaseProgram(cfg.mu, float(Ts[i]))
            try:
                pis[i], _ = impulsim.damage_time_full(
                    cfg.kernels, program, float(x0s[i]), cfg.eil,
                    t0=float(t0s[i]), cfg=cfg.sim)
            except (impulsim.HorizonExceededError, impulsim.IntegrationError,
                    impulsim.StateConsistencyError, DomainError):
                pis[i] = math.nan
                failed[i] = True
        devs, errors = pis - t1s, np.full(len(Ts), math.nan)
    return Trials(T=Ts, t0=t0s, z0=z0s, Pi=pis, T1=t1s, deviation=devs,
                  failed=failed, engine=cfg.engine, deviation_error=errors)


def _job_starts(cfg: McConfig) -> range:
    """First trial of every job of a run."""
    return range(0, cfg.n_trials, _FULL_ROWS if cfg.engine == "full" else _CSV_ROWS)


# --------------------------------------------------------------------------
# harness


def run_mc(cfg: McConfig) -> Trials:
    """Run the scatter experiment in this process and return every trial.

    Trial i draws T uniform in (0, T_L), t0 uniform in (0, T) and z0
    uniform in the z0 box.  Full-engine trials that exceed the horizon,
    fail to integrate, leave the state space, overflow a float (a horizon
    of 2^53 release periods, say) or start at eil (a z0 so small that the
    density eil*exp(z0*g'(0)/m) rounds to eil) are flagged failed with
    Pi = nan, never dropped.  The trials are solved job by job, as in
    ``stream_mc``.
    """
    starts = _job_starts(cfg)
    parts = [_solve(cfg, s, min(s + starts.step, cfg.n_trials)) for s in starts]
    cols = {c: np.concatenate([getattr(p, c) for p in parts])
            for c in (*_COLUMNS, "deviation_error")}
    return Trials(**cols, engine=cfg.engine)


# --------------------------------------------------------------------------
# envelope statistics


@dataclass(frozen=True, eq=False)
class EnvelopeReport:
    """The envelope check, its bins as columns: entry j of each array is
    period bin j.  Empty bins have count 0 and nan extremes and ratio."""

    violations: int
    t_upper: float
    bin_mid: np.ndarray
    max_dev: np.ndarray
    min_dev: np.ndarray
    bound: np.ndarray
    count: np.ndarray
    coverage_ratio: np.ndarray


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


def _violations(trials: Trials, box: planner.UncertaintyBox, mu: float) -> int:
    """Comparison-model trials whose deviation lies above the bound curve at
    their own T by more than its proven error: the trial's
    ``deviation_error`` plus the curve's own (``planner._bound_curve_error``).
    The full engine is exempt."""
    if trials.engine == "full":
        return 0
    bounds = planner.envelope_bound_curve(trials.T, box, mu)
    slack = planner._bound_curve_error(trials.T, box, mu) + trials.deviation_error
    return int(np.sum(trials.deviation - bounds > slack))


def _sample_stride(n_trials: int) -> int:
    """The least power of two g with ceil(n_trials/g) <= _SAMPLE_POINTS."""
    g = 1
    while -(-n_trials // g) > _SAMPLE_POINTS:
        g *= 2
    return g


class _Tally:
    """The envelope check of a run of n_trials, folded from one partial per
    job: per period bin the trial count and deviation extremes, over n_bins
    equal-width bins of (0, t_upper), the run's violations and failed
    trials, and its scatter sample, the (T, deviation) pairs of the
    non-failed trials whose index is a multiple of ``_sample_stride``.
    Sums, maxima and minima do not depend on the fold order; the sample
    is kept in fold order."""

    def __init__(self, n_bins: int, t_upper: float, n_trials: int):
        _positive("bin count", "n_bins", n_bins)
        _positive("period range", "t_upper", t_upper)
        self.t_upper = t_upper
        self.stride = _sample_stride(n_trials)
        self.count = np.zeros(n_bins, dtype=np.int64)
        self.hi, self.lo = np.full(n_bins, -np.inf), np.full(n_bins, np.inf)
        self.violations = self.failed = 0
        # room for every trial the sample can keep, taken before the run
        self.sample = np.empty((2, -(-n_trials // self.stride)))
        self.sampled = 0

    def partial(self, trials: Trials, start: int, box: planner.UncertaintyBox,
                mu: float):
        """(bin partial, violations, failed count, sample) of the trials
        numbered from start, small enough to send back from a worker (see
        ``_bin_partial``)."""
        picked = slice(-start % self.stride, None, self.stride)
        ok = ~trials.failed[picked]
        return (_bin_partial(trials, len(self.count), self.t_upper),
                _violations(trials, box, mu), int(trials.failed.sum()),
                (trials.T[picked][ok], trials.deviation[picked][ok]))

    def fold(self, part) -> None:
        (bins, count, hi, lo), violations, failed, (Ts, devs) = part
        self.count[bins] += count
        self.hi[bins] = np.maximum(self.hi[bins], hi)
        self.lo[bins] = np.minimum(self.lo[bins], lo)
        self.violations += violations
        self.failed += failed
        self.sample[:, self.sampled:self.sampled + len(Ts)] = Ts, devs
        self.sampled += len(Ts)

    def columns(self) -> tuple:
        """(bin_mid, max_dev, min_dev, count), with nan extremes in empty bins."""
        empty = self.count == 0
        edges = np.linspace(0.0, self.t_upper, len(self.count) + 1)
        return (0.5 * (edges[:-1] + edges[1:]), np.where(empty, np.nan, self.hi),
                np.where(empty, np.nan, self.lo), self.count)

    def report(self, box: planner.UncertaintyBox, mu: float) -> EnvelopeReport:
        bin_mid, max_dev, min_dev, count = self.columns()
        bound = planner.envelope_bound_curve(bin_mid, box, mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where((count > 0) & (bound > 0), max_dev / bound, np.nan)
        return EnvelopeReport(self.violations, self.t_upper, bin_mid, max_dev,
                              min_dev, bound, count, ratio)


def bin_envelope(trials: Trials, n_bins: int, t_upper: float) -> tuple:
    """Deviation extremes per equal-width period bin over (0, t_upper), as
    the columns (bin_mid, max_dev, min_dev, count); entry j is bin j.

    Empty bins (and bins whose only trials failed) report count 0 with nan
    extremes.
    """
    tally = _Tally(n_bins, t_upper, len(trials.T))
    tally.fold((_bin_partial(trials, n_bins, t_upper), 0, 0, ((), ())))
    return tally.columns()


def verify_envelope(trials: Trials, box: planner.UncertaintyBox, mu: float,
                    n_bins: int = 50) -> EnvelopeReport:
    """Compare the scatter against the closed-form deviation bound.

    ``violations`` counts comparison-model trials above the bound at
    their own T by more than its proven error (must be zero: the bound is
    their exact maximum; see ``_violations``).  The full engine is only
    locally approximated by the comparison model and is exempt.  Per bin,
    ``coverage_ratio`` is max_dev over the bound at the bin midpoint; it
    approaches 1 from below as trials accumulate.  The bins are columns,
    as in ``bin_envelope``.
    """
    tally = _Tally(n_bins, scatter_t_upper(box, mu), len(trials.T))
    tally.fold(tally.partial(trials, 0, box, mu))
    return tally.report(box, mu)


# --------------------------------------------------------------------------
# CSV output

_RECORDS_HEADER = b"trial,T,t0,z0,Pi,T1,deviation,engine,failed\n"


def _row_chunks(trials: Trials, start: int = 0):
    """CSV rows of the trials numbered from start, as ASCII byte chunks
    (see ``tables.row_chunks``)."""
    return tables.row_chunks("%d" + ",%.17g" * 6 + f",{trials.engine},%d\n",
                             np.arange(start, start + len(trials.T)),
                             *(getattr(trials, c) for c in _COLUMNS))


def write_records_csv(trials: Trials, path) -> None:
    """One row per trial, formatted in this process as the rows are written;
    ``stream_mc`` writes the same bytes.  The file is written whole or not
    at all (see ``tables.write``).
    """
    tables.write({path: itertools.chain([_RECORDS_HEADER], _row_chunks(trials))})


def _envelope_chunks(report: EnvelopeReport):
    """The envelope CSV of the report, as ASCII byte chunks."""
    return itertools.chain(
        [b"bin_mid,max_dev,min_dev,bound,count\n"],
        tables.row_chunks("%.17g,%.17g,%.17g,%.17g,%d\n", report.bin_mid,
                          report.max_dev, report.min_dev, report.bound,
                          report.count))


#: the line after the sample's leading ``# points=<n>`` line
_SAMPLE_HEADER = b"T,deviation\n"


def _sample_chunks(tally: _Tally):
    """The sample CSV of the tally, as ASCII byte chunks: a ``# points=<n>``
    line with the count n of non-failed trials, the header, and the
    sample's rows."""
    yield b"# points=%d\n" % tally.count.sum() + _SAMPLE_HEADER
    yield from tables.row_chunks("%.17g,%.17g\n", *tally.sample[:, :tally.sampled])


def read_sample(path) -> tuple:
    """(n, Ts, devs) of the sample file ``stream_mc`` wrote: the count n of
    the run's non-failed trials and the sample's T and deviation columns.
    A file that is missing or not such a sample raises ``ConfigError``."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise ConfigError(f"{path}: not found (rerun montecarlo with the same "
                          "--out to write it)") from None
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from None
    with fh:
        points, header = fh.readline(), fh.readline()
        if not (points.startswith(b"# points=") and points[9:-1].isdigit()
                and header == _SAMPLE_HEADER):
            raise ConfigError(f"{path}: not a montecarlo sample (its first lines "
                              "must be '# points=<n>' and 'T,deviation')")
        try:
            with warnings.catch_warnings():
                # a run whose trials all failed samples none
                warnings.simplefilter("ignore", UserWarning)
                Ts, devs = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=(0, 1),
                                      encoding="utf-8").T
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from None
    return int(points[9:]), Ts, devs


# --------------------------------------------------------------------------
# streamed run


def stream_mc(cfg: McConfig, records_path, envelope_path, sample_path,
              n_bins: int = 50):
    """``run_mc``, ``verify_envelope`` and ``write_records_csv`` in one pass
    that never holds the trial columns: returns (the envelope report, the
    failed trial count), writes the same bytes to records_path, the
    report's bins to envelope_path and the scatter sample ``read_sample``
    reads to sample_path.

    Each job draws, solves, formats and tallies its own trials in a worker
    process (see ``forkpool``) and sends back its rows and its partial of
    the one ``_Tally``; the rows are written and the partials folded in
    trial order, so neither the bytes nor the report depend on the worker
    count.  The three files are one commit: a run that fails leaves them
    all as they were (see ``tables.write``).
    """
    tally = _Tally(n_bins, cfg.t_upper, cfg.n_trials)
    starts = _job_starts(cfg)
    workers = forkpool.thread_count()
    report = None

    def job(k):
        s = starts[k]
        trials = _solve(cfg, s, min(s + starts.step, cfg.n_trials))
        return list(_row_chunks(trials, s)), tally.partial(trials, s, cfg.box, cfg.mu)

    def records():
        yield _RECORDS_HEADER
        for rows, part in forkpool.map_jobs(job, len(starts), workers):
            tally.fold(part)
            yield from rows

    def envelope():
        # written after the records, whose jobs fold the tally
        nonlocal report
        report = tally.report(cfg.box, cfg.mu)
        yield from _envelope_chunks(report)

    tables.write({records_path: records(), envelope_path: envelope(),
                  sample_path: _sample_chunks(tally)})
    return report, tally.failed
