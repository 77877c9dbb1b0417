import csv
import dataclasses
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import helpers
from bioctl import forkpool, impulsim, mcharness, planner, tables
from bioctl.impulsim import SimConfig
from bioctl.kernels import (
    DomainError,
    HollingI,
    KernelSet,
    Linear,
    Proportional,
)
from bioctl.mcharness import (
    McConfig,
    bin_envelope,
    run_mc,
    stream_uniforms,
    verify_envelope,
    write_records_csv,
)

MU = 2.0
COLUMNS = ("T", "t0", "z0", "Pi", "T1", "deviation", "failed")
BIN_COLUMNS = ("bin_mid", "max_dev", "min_dev", "bound", "count", "coverage_ratio")


def small_cfg(box, **kw):
    kw.setdefault("n_trials", 2000)
    kw.setdefault("seed", 11)
    return McConfig(box=box, mu=MU, **kw)


def collapsing_kernels():
    # vanishing predator feedback: the nonlinear run reproduces the
    # comparison model
    response = HollingI(1.0)
    return KernelSet(growth=Linear(1.0), response=response,
                     numerical=Proportional(1e-9, response), m=1.0)


# --------------------------------------------------------------------------
# reference implementations the harness replaced, kept as oracles


def bisection_damage_times(Ts, t0s, z0s, sigma, m, mu):
    """The former closed engine: locate the crossing segment arithmetically
    and bisect the in-segment root of the comparison model in 80 steps."""
    peak = mu * Ts / -np.expm1(-m * Ts)
    drop = (mu - sigma) * Ts
    e_t0 = np.exp(-m * t0s)
    z_b1 = z0s + sigma * (Ts - t0s) - peak * (e_t0 - np.exp(-m * Ts))
    first = z_b1 <= 0.0
    n = np.ceil(z_b1 / drop)
    n = np.where(z_b1 - (n - 1.0) * drop <= 0.0, n - 1.0, n)
    n = np.where(z_b1 - (n - 1.0) * drop > drop, n + 1.0, n)
    n = np.maximum(n, 1.0)
    z_seg = z_b1 - (n - 1.0) * drop
    z_start = np.where(first, z0s, z_seg)
    a0 = np.where(first, t0s, 0.0)
    e_a0 = np.where(first, e_t0, 1.0)
    length = np.where(first, Ts - t0s, Ts)
    lo = np.zeros_like(Ts)
    hi = length.copy()
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        val = z_start + sigma * mid - peak * (e_a0 - np.exp(-m * (a0 + mid)))
        pos = val > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    s = 0.5 * (lo + hi)
    return np.where(first, s, (Ts - t0s) + (n - 1.0) * Ts + s)


def row_by_row_records_csv(trials, path):
    """The former records writer: one csv.writer row per trial."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["trial", "T", "t0", "z0", "Pi", "T1", "deviation",
                    "engine", "failed"])
        for i in range(len(trials.T)):
            w.writerow([i] + [f"{float(getattr(trials, c)[i]):.17g}"
                              for c in COLUMNS[:-1]]
                       + [trials.engine, int(trials.failed[i])])


# --------------------------------------------------------------------------
# the deterministic stream


def test_stream_values_are_open_unit_uniforms():
    u = stream_uniforms(123, np.arange(100_000))
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 5e-3
    assert abs(np.quantile(u, 0.25) - 0.25) < 5e-3


def test_stream_is_counter_based():
    full = stream_uniforms(7, np.arange(1000))
    window = stream_uniforms(7, np.arange(400, 450))
    assert np.array_equal(full[400:450], window)
    assert not np.array_equal(stream_uniforms(8, np.arange(1000)), full)


# --------------------------------------------------------------------------
# running trials


def test_run_mc_draws_respect_the_box(reference_box):
    trials = run_mc(small_cfg(reference_box))
    t_upper, _ = planner.t_limits(reference_box, MU)
    assert all(getattr(trials, c).shape == (2000,) for c in COLUMNS)
    assert np.all((0.0 < trials.T) & (trials.T < t_upper))
    assert np.all((0.0 < trials.t0) & (trials.t0 < trials.T))
    assert np.all((reference_box.z0_lo <= trials.z0)
                  & (trials.z0 <= reference_box.z0_hi))
    np.testing.assert_allclose(trials.T1, trials.z0 / (MU - 1.0), rtol=1e-12)
    np.testing.assert_allclose(trials.deviation, trials.Pi - trials.T1,
                               rtol=1e-9, atol=1e-12)
    assert trials.engine == "closed"
    assert not trials.failed.any()


def test_closed_engine_matches_planner(reference_box):
    trials = run_mc(small_cfg(reference_box, n_trials=300))
    p_kw = dict(sigma=1.0, m=1.0, mu=MU)
    for i in range(0, 300, 7):
        direct = planner.damage_time(
            planner.ZParams(T=trials.T[i], **p_kw), trials.z0[i], t0=trials.t0[i])
        assert math.isclose(trials.Pi[i], direct, rel_tol=1e-10, abs_tol=1e-10)


def test_closed_engine_matches_bisection_reference(mc_run_200k):
    trials, _ = mc_run_200k
    ref = bisection_damage_times(trials.T, trials.t0, trials.z0, 1.0, 1.0, MU)
    np.testing.assert_allclose(trials.Pi, ref, rtol=1e-14, atol=0.0)


def test_engines_agree(reference_box):
    # the quadrature oracle shares no closed form with the closed engine
    trials = run_mc(small_cfg(reference_box, seed=0))
    ref = helpers.scipy_zsim_damage_times(trials.T, trials.t0, trials.z0,
                                          1.0, 1.0, MU)
    np.testing.assert_allclose(trials.Pi, ref, rtol=1e-9, atol=0.0)


def test_full_engine_on_collapsing_kernels():
    # both engines must agree on these kernels
    box = planner.UncertaintyBox(1.0, 3.0, 1.0, 1.0, 1.0, 1.0)
    closed = run_mc(McConfig(box=box, mu=MU, n_trials=20, seed=3))
    full = run_mc(McConfig(box=box, mu=MU, n_trials=20, seed=3, engine="full",
                           kernels=collapsing_kernels(), eil=0.1))
    assert not full.failed.any()
    np.testing.assert_allclose(full.Pi, closed.Pi, rtol=1e-4)


def test_full_engine_flags_horizon_failures():
    box = planner.UncertaintyBox(4.0, 5.0, 1.0, 1.0, 1.0, 1.0)
    trials = run_mc(McConfig(box=box, mu=MU, n_trials=8, seed=1,
                             engine="full", kernels=collapsing_kernels(), eil=0.1,
                             sim=SimConfig(t_end=2.0)))
    assert trials.failed.shape == (8,) and trials.failed.all()
    assert np.isnan(trials.Pi).all() and np.isnan(trials.deviation).all()


def test_full_engine_flags_horizons_past_2_53_periods():
    # the stepper would land on every one of about 1e20/T releases
    box = planner.UncertaintyBox(1.0, 3.0, 1.0, 1.0, 1.0, 1.0)
    trials = run_mc(McConfig(box=box, mu=MU, n_trials=4, seed=3, engine="full",
                             kernels=collapsing_kernels(), eil=0.1,
                             sim=SimConfig(t_end=1e20)))
    assert trials.failed.all() and np.isnan(trials.Pi).all()


@pytest.mark.parametrize("error", [impulsim.IntegrationError,
                                   impulsim.StateConsistencyError])
def test_full_engine_failure_marks_one_trial(monkeypatch, error):
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise error("injected")
        return 1.0, 0.0

    monkeypatch.setattr(impulsim, "damage_time_full", flaky)
    box = planner.UncertaintyBox(1.0, 3.0, 1.0, 1.0, 1.0, 1.0)
    trials = run_mc(McConfig(box=box, mu=MU, n_trials=6, seed=3, engine="full",
                             kernels=collapsing_kernels(), eil=0.1))
    assert trials.failed.tolist() == [False, False, True, False, False, False]
    assert math.isnan(trials.Pi[2]) and math.isnan(trials.deviation[2])
    assert np.array_equal(np.delete(trials.Pi, 2), np.ones(5))


def test_mc_config_validation(reference_box):
    with pytest.raises(DomainError):
        McConfig(box=reference_box, mu=MU, engine="magic")
    with pytest.raises(DomainError):
        McConfig(box=reference_box, mu=MU, n_trials=0)
    with pytest.raises(DomainError):
        McConfig(box=reference_box, mu=MU, engine="full")  # kernels missing
    wide = planner.UncertaintyBox(1.0, 5.0, 0.9, 1.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        McConfig(box=wide, mu=MU)


@pytest.fixture
def csv_pools(monkeypatch):
    """Two usable CPUs whatever the machine, and a list that gets one entry
    per process pool started."""
    started = []

    class CountingPool(forkpool._Workers):
        def start(self, job, n):
            started.append(n)
            super().start(job, n)

    monkeypatch.setattr(forkpool, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(forkpool, "_Workers", CountingPool)
    return started


def test_determinism_across_thread_counts(reference_box, tmp_path, monkeypatch,
                                          csv_pools):
    # the run spans ten jobs of 4096 trials
    paths = []
    for threads in ("1", "2"):
        monkeypatch.setenv("BIOCTL_THREADS", threads)
        path = tmp_path / f"records_{threads}.csv"
        sample = tmp_path / f"sample_{threads}.csv"
        mcharness.stream_mc(small_cfg(reference_box, n_trials=40_000), path,
                            tmp_path / "envelope.csv", sample)
        paths.append((path.read_bytes(), sample.read_bytes()))
    assert paths[0] == paths[1]
    assert len(csv_pools) == 1   # at two workers
    helpers.assert_no_child_processes()


def test_thread_count_is_capped_at_usable_cpus(monkeypatch):
    # the count alone: a huge value must never start that many workers
    monkeypatch.setenv("BIOCTL_THREADS", "100000000000000000000")
    assert forkpool.thread_count() == forkpool._usable_cpus()
    monkeypatch.setattr(forkpool, "_usable_cpus", lambda: 3)
    assert forkpool.thread_count() == 3
    monkeypatch.setenv("BIOCTL_THREADS", "2")
    assert forkpool.thread_count() == 2
    monkeypatch.delenv("BIOCTL_THREADS")
    assert forkpool.thread_count() == 3
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert forkpool._usable_cpus() == 7


def test_csv_workers_fork_after_the_engine_threads_end(reference_box, tmp_path,
                                                       monkeypatch, csv_pools):
    # Python 3.12+ warns when a multi-threaded process forks
    monkeypatch.setenv("BIOCTL_THREADS", "2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mcharness.stream_mc(small_cfg(reference_box, n_trials=20_000),
                            tmp_path / "records.csv", tmp_path / "envelope.csv",
                            tmp_path / "sample.csv")
    assert len(csv_pools) == 1


def test_streamed_run_memory_does_not_grow_with_the_trial_count(
        reference_box, tmp_path, monkeypatch):
    # in this process, so tracemalloc sees every job
    monkeypatch.setenv("BIOCTL_THREADS", "1")
    peaks = []
    for n_trials in (40_000, 160_000):
        cfg = small_cfg(reference_box, n_trials=n_trials)
        tracemalloc.start()
        try:
            mcharness.stream_mc(cfg, tmp_path / "records.csv", tmp_path / "envelope.csv",
                                tmp_path / "sample.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 ** 20


def test_a_warm_pass_of_records_allocates_little_beyond_its_bytes(reference_box):
    # the word array and the compaction buffer of a pass are this thread's
    # scratch, reused from pass to pass: once warm, a 4,096-row pass
    # allocates its temporaries and its own bytes
    trials = mcharness._solve(small_cfg(reference_box), 0, mcharness._CSV_ROWS)
    next(mcharness._row_chunks(trials))
    tracemalloc.start()
    try:
        chunk = next(mcharness._row_chunks(trials))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chunk.count(b"\n") == mcharness._CSV_ROWS == tables._PASS
    assert peak <= 4 * len(chunk)


@pytest.mark.parametrize("engine", ["closed"])
def test_job_size_never_changes_a_byte(reference_box, tmp_path, monkeypatch, engine):
    # a sample stride of 32, which no job size but 4096 is a multiple of
    monkeypatch.setattr(mcharness, "_SAMPLE_POINTS", 100)
    outputs = []
    for rows in (4096, 1000, 333):
        monkeypatch.setattr(mcharness, "_CSV_ROWS", rows)
        path, sample = tmp_path / f"records_{rows}.csv", tmp_path / f"sample_{rows}.csv"
        report, failed = mcharness.stream_mc(
            small_cfg(reference_box, n_trials=3000, engine=engine), path,
            tmp_path / "envelope.csv", sample, n_bins=7)
        outputs.append(((path.read_bytes(), sample.read_bytes()), report, failed))
    (data, report, failed), *others = outputs
    assert data[1].count(b"\n") == 2 + 94
    for other_data, other, other_failed in others:
        assert (other_data, other_failed) == (data, failed)
        assert (other.violations, other.t_upper) == (report.violations, report.t_upper)
        for name in BIN_COLUMNS:
            assert np.array_equal(getattr(other, name), getattr(report, name),
                                  equal_nan=True)


@pytest.mark.parametrize("engine", ["closed", "full"])
def test_fold_order_never_changes_the_report(reference_box, monkeypatch, engine):
    # the workers return their partials in any order the pool likes
    if engine == "closed":
        cfg = small_cfg(reference_box, n_trials=20_000)
    else:
        real, calls = impulsim.damage_time_full, []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) == 20:
                raise impulsim.IntegrationError("planted")
            return real(*args, **kwargs)

        monkeypatch.setattr(impulsim, "damage_time_full", flaky)
        monkeypatch.setattr(mcharness, "_FULL_ROWS", 8)
        cfg = small_cfg(reference_box, n_trials=40, engine="full",
                        kernels=collapsing_kernels(), eil=0.1)
    starts = mcharness._job_starts(cfg)
    assert len(starts) == 5
    order = list(np.random.default_rng(7).permutation(len(starts)))
    assert order != sorted(order)
    tally = mcharness._Tally(50, cfg.t_upper, cfg.n_trials)
    parts = [tally.partial(mcharness._solve(cfg, s, min(s + starts.step, cfg.n_trials)),
                           s, cfg.box, cfg.mu) for s in starts]
    reports = []
    for sequence in (range(len(parts)), order):
        tally = mcharness._Tally(50, cfg.t_upper, cfg.n_trials)
        for k in sequence:
            tally.fold(parts[k])
        reports.append((tally.report(cfg.box, cfg.mu), tally.failed))
    (report, failed), (shuffled, shuffled_failed) = reports
    assert failed == shuffled_failed == (1 if engine == "full" else 0)
    assert (shuffled.violations, shuffled.t_upper) == (report.violations, report.t_upper)
    assert report.count.sum() == cfg.n_trials - failed
    for name in BIN_COLUMNS:
        assert np.array_equal(getattr(shuffled, name), getattr(report, name),
                              equal_nan=True)


def test_repeat_run_is_identical(reference_box):
    a = run_mc(small_cfg(reference_box, n_trials=500))
    b = run_mc(small_cfg(reference_box, n_trials=500))
    assert a.engine == b.engine
    for c in COLUMNS:
        assert np.array_equal(getattr(a, c), getattr(b, c))


# --------------------------------------------------------------------------
# envelope statistics


def test_bin_envelope_counts_and_gaps(reference_box):
    trials = run_mc(small_cfg(reference_box))
    t_upper, _ = planner.t_limits(reference_box, MU)
    cols = bin_envelope(trials, 40, t_upper)
    assert all(c.shape == (40,) for c in cols)
    mid, hi, lo, count = cols
    assert count.dtype == np.int64 and count.sum() == len(trials.T)
    full = count > 0
    assert np.all(lo[full] <= hi[full])
    assert np.isnan(hi[~full]).all() and np.isnan(lo[~full]).all()
    # failed trials drop out; every bin matches a direct mask over the trials
    failed = np.arange(len(trials.T)) % 7 == 0
    trials = dataclasses.replace(
        trials, failed=failed, deviation=np.where(failed, np.nan, trials.deviation))
    edges = np.linspace(0.0, t_upper, 41)
    mid, hi, lo, count = bin_envelope(trials, 40, t_upper)
    for b in range(40):
        sel = ~failed & (trials.T >= edges[b]) & ((trials.T < edges[b + 1]) | (b == 39))
        assert count[b] == sel.sum()
        assert mid[b] == 0.5 * (edges[b] + edges[b + 1])
        if count[b]:
            assert (hi[b], lo[b]) == (trials.deviation[sel].max(),
                                      trials.deviation[sel].min())
    # far-right bins beyond every draw stay empty rather than vanishing
    _, hi, lo, count = bin_envelope(trials, 10, 4.0 * t_upper)
    assert len(count) == 10 and count[-1] == 0
    assert math.isnan(hi[-1]) and math.isnan(lo[-1])
    with pytest.raises(DomainError):
        bin_envelope(trials, 0, t_upper)
    with pytest.raises(DomainError):
        bin_envelope(trials, 10, 0.0)


def test_verify_envelope_reference(reference_box):
    trials = run_mc(small_cfg(reference_box, n_trials=5000))
    report = verify_envelope(trials, reference_box, MU, n_bins=25)
    assert report.violations == 0
    t_upper, _ = planner.t_limits(reference_box, MU)
    assert math.isclose(report.t_upper, t_upper, rel_tol=1e-12)
    for name in BIN_COLUMNS:
        assert getattr(report, name).shape == (25,)
    for j in range(25):
        assert report.bound[j] == planner.envelope_bound_curve(
            float(report.bin_mid[j]), reference_box, MU)
    assert np.all(report.bound > 0.0)
    busy = report.count >= 100
    assert busy.any()
    assert np.all(report.min_dev[busy] <= 0.0)   # early invasions beat the mean time
    assert np.all(report.coverage_ratio[busy] > 0.0)
    assert np.array_equal(report.coverage_ratio,
                          np.where(report.count > 0, report.max_dev / report.bound, np.nan),
                          equal_nan=True)
    populated = report.count >= 200
    assert populated.any() and report.coverage_ratio[populated].max() > 0.6


def test_envelope_memory_is_bounded_at_max_bins(reference_box):
    # the bins stay numpy columns: no per-bin Python object at 2^20 bins
    trials = run_mc(small_cfg(reference_box, n_trials=20_000))
    tracemalloc.start()
    try:
        report = verify_envelope(trials, reference_box, MU, n_bins=mcharness.MAX_BINS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for name in BIN_COLUMNS:
        assert getattr(report, name).shape == (mcharness.MAX_BINS,)
    assert report.count.sum() == 20_000
    assert peak < 100 * 2 ** 20


def test_envelope_csv_layout(reference_box, tmp_path):
    trials = run_mc(small_cfg(reference_box, n_trials=400))
    report = verify_envelope(trials, reference_box, MU, n_bins=10)
    rec_path = tmp_path / "records.csv"
    env_path = tmp_path / "envelope.csv"
    write_records_csv(trials, rec_path)
    tables.write({env_path: mcharness._envelope_chunks(report)})
    rec_lines = rec_path.read_text().splitlines()
    assert rec_lines[0] == "trial,T,t0,z0,Pi,T1,deviation,engine,failed"
    assert len(rec_lines) == 401
    first = rec_lines[1].split(",")
    assert first[0] == "0" and first[7] == "closed" and first[8] == "0"
    assert float(first[1]) == trials.T[0]   # %.17g round-trips doubles
    env_lines = env_path.read_text().splitlines()
    assert env_lines[0] == "bin_mid,max_dev,min_dev,bound,count"
    assert len(env_lines) == 11


def test_chunked_writer_matches_row_by_row_writer(reference_box, tmp_path):
    # several CSV jobs, the last one partial, and failed rows with nan values
    closed = run_mc(small_cfg(reference_box, n_trials=20_000))
    failed = closed.failed.copy()
    failed[[0, 16_384, 19_999]] = True
    pis = np.where(failed, math.nan, closed.Pi)
    full = dataclasses.replace(closed, Pi=pis, deviation=pis - closed.T1,
                               failed=failed, engine="full")
    for trials in (closed, full):
        new, old = tmp_path / "chunked.csv", tmp_path / "row_by_row.csv"
        write_records_csv(trials, new)
        row_by_row_records_csv(trials, old)
        assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("workers", ["1", "2", "no fork"])
def test_formatter_matches_per_row_formatting(reference_box, tmp_path, monkeypatch,
                                              csv_pools, workers):
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308,
               0.1, 1.0 / 3.0, 2.0 ** 53, 1e-300]
    cols = {c: np.roll(np.array(special), k) for k, c in enumerate(COLUMNS[:-1])}
    failed = np.isnan(cols["Pi"]) | (np.arange(len(special)) % 5 == 0)
    trials = mcharness.Trials(**cols, failed=failed, engine="full")
    # stream_mc's jobs solve these trials, in three jobs, the last partial
    monkeypatch.setattr(mcharness, "_solve", lambda cfg, start, stop: mcharness.Trials(
        **{c: getattr(trials, c)[start:stop] for c in COLUMNS}, engine="full"))
    monkeypatch.setattr(mcharness, "_CSV_ROWS", 5)
    monkeypatch.setenv("BIOCTL_THREADS", "1" if workers == "1" else "2")
    if workers == "no fork":
        monkeypatch.delattr(os, "fork")
    new, old = tmp_path / "chunked.csv", tmp_path / "row_by_row.csv"
    with np.errstate(over="ignore"):    # max_dev / bound of the report, at 1e308
        mcharness.stream_mc(small_cfg(reference_box, n_trials=len(special)), new,
                            tmp_path / "envelope.csv", tmp_path / "sample.csv")
    row_by_row_records_csv(trials, old)
    assert new.read_bytes() == old.read_bytes()
    assert len(csv_pools) == (workers == "2")
