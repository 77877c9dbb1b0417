"""Metamorphic tests from the model's exact scale symmetries.

Time: T, t0 -> a*T, a*t0 with every rate constant (sigma, m, mu, and the
kernels' r and lam) divided by a multiplies every time by a and leaves
every density, every invasion size z0 and every predator level as it is.
Size: z0, mu, sigma -> b*z0, b*mu, b*sigma leaves every time as it is.
The full model has two density symmetries as well.  Pest density x ->
c*x: K, A, eil and x0 times c, Holling a over c and b over c^2, and the
conversion efficiency e over c.  Predator density y -> d*y: lam over d, e
and mu times d (in z it is the size symmetry, with z0 and sigma times d).
Neither moves a time.  With a, b, c and d powers of two every scaled input
and every scaled answer is exact, so each check is bit-equality: an
absolute constant or a unit-dependent heuristic anywhere on the way breaks
it, which no example-based test can see.
"""

import csv
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import parse_kv, write_config

from bioctl import cli, impulsim, mcharness, planner
from bioctl.impulsim import SimConfig
from bioctl.kernels import (
    Allee,
    HollingI,
    HollingII,
    HollingIV,
    KernelSet,
    Linear,
    Logistic,
    Proportional,
)
from bioctl.orbit import ReleaseProgram

POW2 = st.integers(-10, 10).map(lambda k: 2.0 ** k)
DENSITY = st.sampled_from([2.0 ** -20, 2.0 ** -4, 2.0 ** 4, 2.0 ** 20])
SEEDS = st.integers(0, 2 ** 32 - 1)


# --------------------------------------------------------------------------
# the comparison model


def _draws(seed, n=256):
    """n random comparison models below their decay ceilings, and their
    invasions: (T, t0, z0, sigma, m, mu) with mu a scalar."""
    rng = np.random.default_rng(seed)
    mu = float(np.exp(rng.uniform(-2.0, 2.0)))
    sigma = mu * rng.uniform(0.01, 0.99, n)
    m = np.exp(rng.uniform(-2.0, 2.0, n))
    ceiling = np.array([planner.max_decay_period(mu, s, k)
                        for s, k in zip(sigma.tolist(), m.tolist())])
    T = rng.uniform(0.0, 1.0, n) * ceiling
    return T, rng.uniform(0.0, 1.0, n) * T, np.exp(rng.uniform(-3.0, 3.0, n)), \
        sigma, m, mu


@given(seed=SEEDS, a=POW2, b=POW2)
@settings(max_examples=30)
def test_comparison_damage_times_scale_exactly(seed, a, b):
    # Pi, its deviation and the deviation's error bound are all times
    T, t0, z0, sigma, m, mu = _draws(seed)
    want = planner._damage_times(T, t0, z0, sigma, m, mu)
    in_time = planner._damage_times(a * T, a * t0, z0, sigma / a, m / a, mu / a)
    in_size = planner._damage_times(T, t0, b * z0, b * sigma, m, b * mu)
    for col, time_col, size_col in zip(want, in_time, in_size):
        assert np.array_equal(time_col, a * col)
        assert np.array_equal(size_col, col)


@given(mu=st.floats(1e-3, 1e3), ratio=st.floats(1e-6, 0.999999),
       m=st.floats(1e-3, 1e3), a=POW2, b=POW2)
@settings(max_examples=200)
def test_max_decay_period_scales_exactly(mu, ratio, m, a, b):
    # far from sigma/mu = 1 the log of the quotient, which scaling leaves
    # as it is, not the difference of two logs, which it shifts
    sigma = ratio * mu
    ceiling = planner.max_decay_period(mu, sigma, m)
    assert planner.max_decay_period(mu / a, sigma / a, m / a) == a * ceiling
    assert planner.max_decay_period(b * mu, b * sigma, m) == ceiling


@given(seed=SEEDS, a=POW2)
@settings(max_examples=30)
def test_deviation_envelope_scales_exactly_in_time(seed, a):
    T, _, _, _, m, _ = _draws(seed)
    for k in m[:8].tolist():
        assert np.array_equal(planner.deviation_envelope(a * T, k / a),
                              a * planner.deviation_envelope(T, k))


def _box(rng):
    mu = float(np.exp(rng.uniform(-2.0, 2.0)))
    sigma_lo = mu * float(rng.uniform(0.05, 0.9))
    sigma_hi = sigma_lo + (mu - sigma_lo) * float(rng.uniform(0.0, 0.5))
    m_lo = float(np.exp(rng.uniform(-2.0, 2.0)))
    z0_lo = float(np.exp(rng.uniform(-2.0, 2.0)))
    box = planner.UncertaintyBox(z0_lo, z0_lo * float(np.exp(rng.uniform(0.0, 2.0))),
                                 sigma_lo, sigma_hi,
                                 m_lo, m_lo * float(np.exp(rng.uniform(0.0, 1.0))))
    return box, mu


def _scaled_box(box, z0=1.0, rate=1.0, m=1.0):
    return planner.UncertaintyBox(z0 * box.z0_lo, z0 * box.z0_hi,
                                  rate * box.sigma_lo, rate * box.sigma_hi,
                                  m * box.m_lo, m * box.m_hi)


@given(seed=SEEDS, a=POW2, b=POW2)
@settings(max_examples=40)
def test_box_limits_and_robust_envelope_scale_exactly(seed, a, b):
    box, mu = _box(np.random.default_rng(seed))
    in_time = _scaled_box(box, rate=1.0 / a, m=1.0 / a)
    in_size = _scaled_box(box, z0=b, rate=b)
    t_big, t_hat_min = planner.t_limits(box, mu)
    assert planner.t_limits(in_time, mu / a) == (a * t_big, a * t_hat_min)
    assert planner.t_limits(in_size, b * mu) == (t_big, t_hat_min)
    # periods on both sides of T_L: the corner closed form and the scan
    Ts = np.linspace(0.0, t_hat_min, 42)[1:-1]
    bounds = planner.robust_envelope(Ts, box, mu)
    assert np.array_equal(planner.robust_envelope(a * Ts, in_time, mu / a), a * bounds)
    assert np.array_equal(planner.robust_envelope(Ts, in_size, b * mu), bounds)


def _report(w):
    return (w.case, w.k, w.t0_star, w.pi_max, w.t1, w.deviation)


@given(seed=SEEDS, a=POW2, b=POW2)
@settings(max_examples=40)
def test_worst_invasion_and_optimal_periods_scale_exactly(seed, a, b):
    T, _, z0, sigma, m, mu = _draws(seed, n=8)
    for T, z0, sigma, m in zip(T.tolist(), z0.tolist(), sigma.tolist(), m.tolist()):
        case, k, t0_star, pi_max, t1, deviation = _report(
            planner.worst_invasion(planner.ZParams(sigma, m, mu, T), z0))
        assert _report(planner.worst_invasion(
            planner.ZParams(sigma / a, m / a, mu / a, a * T), z0)) == (
            case, k, a * t0_star, a * pi_max, a * t1, a * deviation)
        assert _report(planner.worst_invasion(
            planner.ZParams(b * sigma, m, b * mu, T), b * z0)) == (
            case, k, t0_star, pi_max, t1, deviation)
        best = planner.optimal_periods(z0, mu, sigma, m)
        in_time = planner.optimal_periods(z0, mu / a, sigma / a, m / a)
        assert (in_time.t1, in_time.n0, in_time.periods, in_time.decay_ceiling) == (
            a * best.t1, best.n0, tuple(a * p for p in best.periods),
            a * best.decay_ceiling)
        assert planner.optimal_periods(b * z0, b * mu, b * sigma, m) == best


# --------------------------------------------------------------------------
# the full model


_GROWTHS = (lambda rng: Linear(rng.uniform(0.5, 1.5)),
            lambda rng: Logistic(rng.uniform(0.5, 1.5), rng.uniform(5.0, 20.0)),
            lambda rng: Allee(rng.uniform(0.5, 1.5), rng.uniform(0.05, 0.2),
                              rng.uniform(5.0, 20.0)))
_RESPONSES = (lambda rng: HollingI(rng.uniform(0.5, 2.0)),
              lambda rng: HollingII(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)),
              lambda rng: HollingIV(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0),
                                    rng.uniform(0.05, 0.5)))


def _kernels(growth, response, m, a):
    """The kernel set with its rate constants r, lam and m divided by a."""
    growth = dataclasses.replace(growth, r=growth.r / a)
    response = dataclasses.replace(response, lam=response.lam / a)
    return KernelSet(growth=growth, response=response,
                     numerical=Proportional(1.0, response), m=m / a)


#: the nine (growth, response) index pairs
PAIRS = list(itertools.product(range(3), range(3)))


def _in_density(growth, response, m, c=1.0, d=1.0):
    """The kernel set in pest units of 1/c and predator units of 1/d:
    K and A times c, Holling a over c and b over c^2, lam over d, and the
    conversion efficiency e = 1 times d/c."""
    growth = dataclasses.replace(growth, **{
        f.name: c * getattr(growth, f.name)
        for f in dataclasses.fields(growth) if f.name in ("A", "K")})
    scaled = {"lam": response.lam / d}
    if hasattr(response, "a"):
        scaled["a"] = response.a / c
    if hasattr(response, "b"):
        scaled["b"] = response.b / (c * c)
    response = dataclasses.replace(response, **scaled)
    return KernelSet(growth=growth, response=response,
                     numerical=Proportional(d / c, response), m=m)


def _scenario(seed, pair=None):
    """Random kernels and a release program whose budget clears the pest's
    local growth: (growth, response, m, mu, T, t0); ``pair`` picks the
    growth and response types, which are drawn otherwise."""
    rng = np.random.default_rng(seed)
    growth = _GROWTHS[rng.integers(3) if pair is None else pair[0]](rng)
    response = _RESPONSES[rng.integers(3) if pair is None else pair[1]](rng)
    m = rng.uniform(0.5, 1.5)
    T = rng.uniform(0.05, 1.0)
    mu = m * growth.r / response.lam * rng.uniform(2.0, 6.0)
    return growth, response, m, mu, T, rng.uniform(0.0, 1.0) * T


def _outcome(call):
    """The call's value, or the class of what it raised."""
    try:
        return call()
    except (impulsim.HorizonExceededError, impulsim.IntegrationError,
            impulsim.StateConsistencyError) as e:
        return type(e)


@given(seed=SEEDS, a=POW2, x0=st.floats(0.2, 12.0))
@settings(max_examples=25)
def test_full_damage_time_scales_exactly_in_time(seed, a, x0):
    growth, response, m, mu, T, t0 = _scenario(seed)
    got = _outcome(lambda: impulsim.damage_time_full(
        _kernels(growth, response, m, a), ReleaseProgram(mu / a, a * T), x0, 0.1,
        t0=a * t0))
    want = _outcome(lambda: impulsim.damage_time_full(
        _kernels(growth, response, m, 1.0), ReleaseProgram(mu, T), x0, 0.1, t0=t0))
    assert got == (want if isinstance(want, type) else (a * want[0], a * want[1]))


# a power of two scales a float exactly only above the subnormal range,
# which a tiny predator level would reach
@given(seed=SEEDS, a=POW2, x0=st.floats(0.2, 12.0),
       y0=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)))
@settings(max_examples=15)
def test_simulate_scales_exactly_in_time(seed, a, x0, y0):
    growth, response, m, mu, T, t0 = _scenario(seed)
    traj = impulsim.simulate(
        _kernels(growth, response, m, 1.0), ReleaseProgram(mu, T), x0, y0, t0=t0,
        cfg=SimConfig(t_end=3.0 * T), eil=0.1)
    scaled = impulsim.simulate(
        _kernels(growth, response, m, a), ReleaseProgram(mu / a, a * T), x0, y0,
        t0=a * t0, cfg=SimConfig(t_end=a * (3.0 * T)), eil=0.1)
    assert np.array_equal(scaled.ts, a * traj.ts)
    assert np.array_equal(scaled.xs, traj.xs)
    assert np.array_equal(scaled.ys, traj.ys)
    # the post-release levels too: the jump mu*T is the same number
    assert scaled.impulses == [(a * t, y_pre, y_post) for t, y_pre, y_post in traj.impulses]
    assert scaled.events == [(a * t, label) for t, label in traj.events]


@pytest.mark.parametrize("pair", PAIRS)
@given(seed=SEEDS, c=DENSITY, d=DENSITY, x0=st.floats(0.2, 12.0))
@settings(max_examples=8)
def test_full_damage_time_is_exact_under_density_scalings(pair, seed, c, d, x0):
    # the predators start on the release orbit, whose levels mu*d scales by d
    growth, response, m, mu, T, t0 = _scenario(seed, pair)
    want = _outcome(lambda: impulsim.damage_time_full(
        _in_density(growth, response, m), ReleaseProgram(mu, T), x0, 0.1, t0=t0))
    assert _outcome(lambda: impulsim.damage_time_full(
        _in_density(growth, response, m, c=c), ReleaseProgram(mu, T), c * x0, c * 0.1,
        t0=t0)) == want
    assert _outcome(lambda: impulsim.damage_time_full(
        _in_density(growth, response, m, d=d), ReleaseProgram(d * mu, T), x0, 0.1,
        t0=t0)) == want


@pytest.mark.parametrize("pair", PAIRS)
@given(seed=SEEDS, c=DENSITY, d=DENSITY, x0=st.floats(0.2, 12.0),
       y0=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)))
@settings(max_examples=4)
def test_simulate_is_exact_under_density_scalings(pair, seed, c, d, x0, y0):
    growth, response, m, mu, T, t0 = _scenario(seed, pair)
    cfg = SimConfig(t_end=3.0 * T)
    traj = impulsim.simulate(_in_density(growth, response, m), ReleaseProgram(mu, T),
                             x0, y0, t0=t0, cfg=cfg, eil=0.1)
    in_pest = impulsim.simulate(_in_density(growth, response, m, c=c),
                                ReleaseProgram(mu, T), c * x0, y0, t0=t0, cfg=cfg,
                                eil=c * 0.1)
    in_predator = impulsim.simulate(_in_density(growth, response, m, d=d),
                                    ReleaseProgram(d * mu, T), x0, d * y0, t0=t0,
                                    cfg=cfg, eil=0.1)
    for scaled in (in_pest, in_predator):
        assert np.array_equal(scaled.ts, traj.ts)
        assert scaled.events == traj.events
    assert np.array_equal(in_pest.xs, c * traj.xs)
    assert np.array_equal(in_pest.ys, traj.ys)
    assert in_pest.impulses == traj.impulses
    assert np.array_equal(in_predator.xs, traj.xs)
    assert np.array_equal(in_predator.ys, d * traj.ys)
    assert in_predator.impulses == [(t, d * y_pre, d * y_post)
                                    for t, y_pre, y_post in traj.impulses]


# --------------------------------------------------------------------------
# the CSV artifacts


_TIMES = ("T", "t0", "Pi", "T1", "deviation")
# the robust-box benchmark's box: 10 of its 200 rows lie above T_L
_ROBUST_BOX = {"box.z0": [1.0, 3.6], "box.sigma": [0.8, 1.0], "box.m": [0.9, 1.1]}


def _run(tmp_path, capsys, name, overrides, *argv):
    """``cli.main`` on the reference scenario with ``overrides``, in a
    directory of its own: its key=value stdout and the rows of its CSV."""
    out = tmp_path / name
    out.mkdir()
    cli.main([*argv, "--config", write_config(out, overrides), "--out", str(out)])
    kv = parse_kv(capsys.readouterr().out)
    with open(kv.get("records_csv") or kv["bound_csv"], newline="") as fh:
        return kv, list(csv.DictReader(fh))


def _column(rows, key, a=1.0):
    return [a * float(row[key]) for row in rows]


def _mc_checks(base, scaled, a):
    """The run's counts are equal, and every time column is a times."""
    (kv, rows), (kv_a, rows_a) = base, scaled
    assert (kv_a["violations"], kv_a["failed"]) == (kv["violations"], kv["failed"])
    assert kv["failed"] == "0"
    for key in _TIMES:
        assert _column(rows_a, key) == _column(rows, key, a), key


def test_closed_mc_records_scale_exactly(tmp_path, capsys):
    argv = ("montecarlo", "--trials", "20000")
    base = _run(tmp_path, capsys, "base", {}, *argv)
    in_size = _run(tmp_path, capsys, "size", {
        "box.z0": [4.0, 20.0], "box.sigma": [4.0, 4.0], "program.mu": 8.0}, *argv)
    in_time = _run(tmp_path, capsys, "time", {
        "box.sigma": [0.5, 0.5], "box.m": [0.5, 0.5], "program.mu": 1.0}, *argv)
    for key in _TIMES:
        assert [r[key] for r in in_size[1]] == [r[key] for r in base[1]], key
    assert _column(in_size[1], "z0") == _column(base[1], "z0", 4.0)
    assert in_size[0]["violations"] == base[0]["violations"]
    _mc_checks(base, in_time, 2.0)
    assert [r["z0"] for r in in_time[1]] == [r["z0"] for r in base[1]]


def _planted(solve):
    """``mcharness._solve`` with trial 0 put half its error above the bound
    curve, where the envelope check must not count it, and trial 1 twice
    its error above, where it must."""
    def solve_planted(cfg, start, stop):
        trials = solve(cfg, start, stop)
        if start == 0:
            Ts = trials.T[:2]
            error = (planner._bound_curve_error(Ts, cfg.box, cfg.mu)
                     + trials.deviation_error[:2])
            trials.deviation[:2] = (planner.envelope_bound_curve(Ts, cfg.box, cfg.mu)
                                    + np.array([0.5, 2.0]) * error)
        return trials
    return solve_planted


@pytest.mark.parametrize("a", [2.0 ** -10, 2.0 ** 10])
def test_closed_mc_violations_are_exact_in_time(tmp_path, capsys, monkeypatch, a):
    # the deviations, their error bounds and the bound curve are all times,
    # so a trial within its error of the curve stays within it
    monkeypatch.setattr(mcharness, "_solve", _planted(mcharness._solve))
    argv = ("montecarlo", "--trials", "20000")
    base = _run(tmp_path, capsys, "base", {}, *argv)
    in_time = _run(tmp_path, capsys, "time", {
        "box.sigma": [1.0 / a, 1.0 / a], "box.m": [1.0 / a, 1.0 / a],
        "program.mu": 2.0 / a}, *argv)
    assert base[0]["violations"] == "1"
    _mc_checks(base, in_time, a)


def test_full_mc_records_scale_exactly_in_time(tmp_path, capsys):
    # guards the crossing's bisection, which runs in the unit interval of
    # each step and so holds no time unit
    argv = ("montecarlo", "--engine", "full", "--trials", "300")
    base = _run(tmp_path, capsys, "base", {}, *argv)
    in_time = _run(tmp_path, capsys, "time", {
        "kernels.growth.r": 0.5, "kernels.response.lam": 0.5, "kernels.m": 0.5,
        "box.sigma": [0.5, 0.5], "box.m": [0.5, 0.5], "program.mu": 1.0}, *argv)
    _mc_checks(base, in_time, 2.0)


@pytest.mark.parametrize("d", [2.0 ** -20, 2.0 ** -4, 2.0 ** 4, 2.0 ** 20])
def test_full_mc_records_are_exact_in_predator_density(tmp_path, capsys, d):
    # lam over d, e and mu times d, and the box in z (z0 and sigma) times d:
    # each trial starts at the same pest density x0 = eil*exp(z0*lam/m)
    argv = ("montecarlo", "--engine", "full", "--trials", "300")
    kv, rows = _run(tmp_path, capsys, "base", {}, *argv)
    kv_d, rows_d = _run(tmp_path, capsys, "scaled", {
        "kernels.response.lam": 1.0 / d, "kernels.numerical.e": d, "program.mu": 2.0 * d,
        "box.z0": [d, 5.0 * d], "box.sigma": [d, d]}, *argv)
    assert (kv_d["violations"], kv_d["failed"]) == (kv["violations"], kv["failed"]) \
        == ("0", "0")
    assert _column(rows_d, "z0") == _column(rows, "z0", d)
    for row in rows + rows_d:
        del row["z0"]
    assert rows_d == rows


def test_robust_bound_scales_exactly(tmp_path, capsys):
    _, rows = _run(tmp_path, capsys, "base", _ROBUST_BOX, "robustness")
    _, in_size = _run(tmp_path, capsys, "size", {
        "box.z0": [4.0, 14.4], "box.sigma": [3.2, 4.0], "box.m": [0.9, 1.1],
        "program.mu": 8.0}, "robustness")
    _, in_time = _run(tmp_path, capsys, "time", {
        "box.z0": [1.0, 3.6], "box.sigma": [0.4, 0.5], "box.m": [0.45, 0.55],
        "program.mu": 1.0}, "robustness")
    assert [r["T_L_flag"] for r in rows].count("0") == 10
    assert in_size == rows
    for key in ("T", "bound"):
        assert _column(in_time, key) == _column(rows, key, 2.0), key
    assert [r["T_L_flag"] for r in in_time] == [r["T_L_flag"] for r in rows]
