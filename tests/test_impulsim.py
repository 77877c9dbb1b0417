import csv
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bioctl import impulsim, planner
from bioctl.impulsim import (
    AtOrbit,
    HorizonExceededError,
    IntegrationError,
    OrbitPlus,
    SimConfig,
    StateConsistencyError,
    damage_time_full,
    simulate,
    trajectory_to_csv,
)
from bioctl.kernels import (
    Allee,
    DomainError,
    HollingI,
    HollingII,
    HollingIV,
    InputOverflowError,
    KernelSet,
    Linear,
    Logistic,
    Proportional,
)
from bioctl.orbit import PestFreeOrbit, ReleaseProgram
from helpers import dop853_release_run, orbit_peak

PROGRAM = ReleaseProgram(2.0, 0.8)


def nearly_linear_kernels(r=1.0, lam=1.0, m=1.0):
    """Linear growth with proportional consumption and a vanishing
    conversion efficiency: predators then ride the release orbit and the
    full model collapses onto the scalar comparison model exactly."""
    response = HollingI(lam)
    return KernelSet(growth=Linear(r), response=response,
                     numerical=Proportional(1e-9, response), m=m)


def test_sim_config_validation():
    with pytest.raises(DomainError):
        SimConfig(rtol=0.0)
    with pytest.raises(DomainError):
        SimConfig(rtol=1e-2)
    with pytest.raises(DomainError):
        SimConfig(atol=-1.0)
    with pytest.raises(DomainError):
        SimConfig(max_step=0.0)
    with pytest.raises(DomainError):
        SimConfig(t_end=-5.0)
    with pytest.raises(DomainError):
        OrbitPlus(-0.1)


def test_pest_free_state_is_invariant(reference_kernels):
    orb = PestFreeOrbit(PROGRAM.mu, PROGRAM.T, reference_kernels.m)
    traj = simulate(reference_kernels, PROGRAM, 0.0, orb.peak,
                    cfg=SimConfig(t_end=8.0))
    assert np.all(traj.xs == 0.0)
    # the start value is post-release, while sample() reports pre-release
    # levels at release instants; skip the first point
    assert traj.ys[0] == orb.peak
    assert np.allclose(traj.ys[1:], orb.sample(traj.ts[1:]),
                       rtol=1e-6, atol=1e-9)


def test_release_bookkeeping(reference_kernels):
    traj = simulate(reference_kernels, PROGRAM, 1.0, 0.5,
                    cfg=SimConfig(t_end=4.0))
    assert [t for t, _, _ in traj.impulses] == [n * PROGRAM.T
                                                for n in range(1, 6)]
    for t, y_pre, y_post in traj.impulses:
        assert y_post == y_pre + PROGRAM.per_release
        # samples keep the pre-release level at the release instant
        idx = int(np.searchsorted(traj.ts, t))
        assert traj.ts[idx] == t and traj.ys[idx] == y_pre
    assert np.all(np.diff(traj.ts) > 0.0)
    assert traj.ts[0] == 0.0 and traj.ts[-1] == 4.0


def test_mid_period_start(reference_kernels):
    traj = simulate(reference_kernels, PROGRAM, 1.0, 0.5, t0=0.3,
                    cfg=SimConfig(t_end=2.0))
    assert traj.ts[0] == 0.3
    assert [t for t, _, _ in traj.impulses] == [0.8, 1.6]


def test_full_model_matches_comparison_when_feedback_vanishes():
    k = nearly_linear_kernels()
    p = planner.ZParams(sigma=1.0, m=1.0, mu=2.0, T=0.8)
    for t0, z0 in [(0.0, 3.0), (0.1146, 3.0), (0.4, 1.2)]:
        x0 = planner.x_from_z_local(z0, 0.1, 1.0, 1.0)
        pi_full, t_cross = damage_time_full(k, PROGRAM, x0, 0.1, t0=t0)
        pi_z = planner.damage_time(p, z0, t0=t0)
        assert math.isclose(pi_full, pi_z, rel_tol=1e-5)
        assert math.isclose(t_cross, t0 + pi_full, rel_tol=1e-12)


def test_more_predators_never_hurt():
    k = nearly_linear_kernels()
    x0 = planner.x_from_z_local(2.0, 0.1, 1.0, 1.0)
    base, _ = damage_time_full(k, PROGRAM, x0, 0.1)
    boosted, _ = damage_time_full(k, PROGRAM, x0, 0.1, y_policy=OrbitPlus(1.0))
    assert boosted <= base + 1e-9
    same, _ = damage_time_full(k, PROGRAM, x0, 0.1, y_policy=OrbitPlus(0.0))
    assert math.isclose(same, base, rel_tol=1e-9)


def test_damage_time_validation(reference_kernels):
    with pytest.raises(DomainError):
        damage_time_full(reference_kernels, PROGRAM, 0.05, 0.1)
    with pytest.raises(DomainError):
        damage_time_full(reference_kernels, PROGRAM, 1.0, -0.1)
    with pytest.raises(HorizonExceededError):
        damage_time_full(reference_kernels, PROGRAM, 5.0, 1e-6,
                         cfg=SimConfig(t_end=1.0))


def test_crossing_events_recorded(reference_kernels):
    traj = simulate(reference_kernels, PROGRAM, 5.0, 0.0, eil=4.0,
                    cfg=SimConfig(t_end=6.0))
    labels = [lab for _, lab in traj.events]
    assert "down" in labels
    down_t = [t for t, lab in traj.events if lab == "down"][0]
    # pest density sits at the injury level at the reported instant
    assert abs(float(np.interp(down_t, traj.ts, traj.xs)) - 4.0) < 0.01


def test_eradication_under_sufficient_budget(reference_kernels):
    program = ReleaseProgram(2.0, 0.5)
    y0 = PestFreeOrbit(program.mu, program.T, reference_kernels.m).peak
    traj = simulate(reference_kernels, program, 2.0, y0,
                    cfg=SimConfig(t_end=40.0))
    assert traj.xs[-1] < 1e-6


def test_trajectory_csv_roundtrip(tmp_path, reference_kernels):
    traj = simulate(reference_kernels, PROGRAM, 1.0, 0.5,
                    cfg=SimConfig(t_end=2.0))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "is_impulse"]
    body = rows[1:]
    assert len(body) == len(traj.ts) + len(traj.impulses)
    impulse_rows = [r for r in body if r[3] == "1"]
    assert len(impulse_rows) == len(traj.impulses)
    got_posts = [float(r[2]) for r in impulse_rows]
    assert got_posts == [y_post for _, _, y_post in traj.impulses]
    # 17 significant digits survive the round trip bit-exactly
    assert [float(r[0]) for r in body[:5]] == list(traj.ts[:5])


# --------------------------------------------------------------------------
# the Dormand-Prince 5(4) tableau


def _tableau():
    """c, the 7x7 stage matrix (last row = the 5th-order weights, the FSAL
    stage), b and the embedded 4th-order weights b_hat, as float arrays."""
    A = np.zeros((7, 7))
    for i, row in enumerate(impulsim._A):
        A[i, :len(row)] = row
    A[6, :6] = impulsim._B
    c = np.array(impulsim._C + (1.0,))
    b = np.append(impulsim._B, 0.0)
    b_hat = b - np.array(impulsim._E)
    return c, A, b, b_hat


def _order_conditions(A, c, order):
    """(weights -> value, exact) for the Runge-Kutta order conditions up to
    ``order`` (Hairer, Norsett & Wanner, Table II.2.2)."""
    Ac, Ac2, Ac3 = A @ c, A @ c ** 2, A @ c ** 3
    AAc, AAc2, A_cAc = A @ Ac, A @ Ac2, A @ (c * Ac)
    conds = [(np.ones_like(c), 1), (c, Fraction(1, 2)),
             (c ** 2, Fraction(1, 3)), (Ac, Fraction(1, 6)),
             (c ** 3, Fraction(1, 4)), (c * Ac, Fraction(1, 8)),
             (Ac2, Fraction(1, 12)), (AAc, Fraction(1, 24))]
    if order >= 5:
        conds += [(c ** 4, Fraction(1, 5)), (c ** 2 * Ac, Fraction(1, 10)),
                  (c * Ac2, Fraction(1, 15)), (c * AAc, Fraction(1, 30)),
                  (Ac * Ac, Fraction(1, 20)), (Ac3, Fraction(1, 20)),
                  (A_cAc, Fraction(1, 40)), (AAc2, Fraction(1, 60)),
                  (A @ AAc, Fraction(1, 120))]
    return conds


def test_tableau_satisfies_its_order_conditions():
    c, A, b, b_hat = _tableau()
    # row sums: every stage is evaluated at its own abscissa
    assert np.allclose(A.sum(axis=1), c, rtol=0.0, atol=1e-15)
    assert math.isclose(sum(impulsim._B), 1.0, abs_tol=1e-15)
    assert math.isclose(b_hat.sum(), 1.0, abs_tol=1e-15)
    for weights, order in ((b, 5), (b_hat, 4)):
        for g, exact in _order_conditions(A, c, order):
            assert math.isclose(weights @ g, float(exact), abs_tol=1e-15)
    # b_hat is only 4th order: it fails the first 5th-order condition
    assert abs(b_hat @ c ** 4 - 0.2) > 1e-4


def test_dense_output_reproduces_the_step():
    P = np.array(impulsim._P)
    # at s = 1 the quartic gives u + h * sum_i b_i K_i, the 5th-order result
    assert np.allclose(P.sum(axis=1), np.append(impulsim._B, 0.0),
                       rtol=0.0, atol=1e-15)
    # its derivative at s = 0 is the first stage, and at s = 1 the FSAL stage
    assert np.allclose(P[:, 0], np.eye(7)[0], rtol=0.0, atol=0.0)
    assert np.allclose(P @ np.arange(1, 5), np.eye(7)[6], rtol=0.0, atol=1e-14)


# --------------------------------------------------------------------------
# failure modes of the stepper (HorizonExceededError: test_damage_time_validation)


class _Explosive:
    """Pest growth r*x^2: the pest blows up in finite time at 1/(r*x0)."""

    def __init__(self, r):
        self.r = r

    def rate(self, x):
        return self.r * x * x


class _NanBelow:
    """Linear growth whose rate turns into nan under a density floor."""

    def __init__(self, floor):
        self.floor = floor

    def rate(self, x):
        return 0.5 * x if x >= self.floor else math.nan


class _Sink:
    """A growth rate that stays at -1 at and below zero density."""

    def rate(self, x):
        return -1.0


def _with_growth(growth):
    response = HollingI(1.0)
    return KernelSet(growth=growth, response=response,
                     numerical=Proportional(0.5, response), m=1.0)


def test_failure_step_size_collapses():
    k = _with_growth(_Explosive(1.0))
    with pytest.raises(IntegrationError, match="fell below 10 ulp"):
        damage_time_full(k, PROGRAM, 5.0, 0.1)


def test_failure_non_finite_rates_mid_run():
    k = _with_growth(_NanBelow(0.5))
    with pytest.raises(IntegrationError, match="not finite"):
        damage_time_full(k, ReleaseProgram(4.0, 0.5), 2.0, 0.1)


def test_failure_state_below_minus_atol():
    k = _with_growth(_Sink())
    with pytest.raises(StateConsistencyError, match="below -atol"):
        simulate(k, PROGRAM, 0.5, 1.0, cfg=SimConfig(t_end=4.0))


def test_initial_rates_that_overflow_are_an_input_error(reference_kernels):
    program = ReleaseProgram(2.0, 0.1)
    with pytest.raises(InputOverflowError, match="too large"):
        damage_time_full(reference_kernels, program, 1e200, 0.1)
    # a DomainError, so library callers that catch that still see it
    with pytest.raises(DomainError):
        simulate(reference_kernels, program, 1e200, 1.0)


# --------------------------------------------------------------------------
# against an independent DOP853 re-integration


_GROWTHS = {
    "linear": lambda rng: Linear(rng.uniform(0.5, 1.5)),
    "logistic": lambda rng: Logistic(rng.uniform(0.5, 1.5), rng.uniform(5.0, 20.0)),
    "allee": lambda rng: Allee(rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0),
                               rng.uniform(5.0, 20.0)),
}
_RESPONSES = {
    "holling1": lambda rng: HollingI(rng.uniform(0.5, 2.0)),
    "holling2": lambda rng: HollingII(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)),
    "holling4": lambda rng: HollingIV(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0),
                                      rng.uniform(0.05, 0.5)),
}


def _scenario(growth, response, seed, T=None, on_release=False):
    """Random kernels and program with a budget well above the pest's
    local growth, so the invasion falls to the injury level."""
    rng = np.random.default_rng(seed)
    g = _GROWTHS[growth](rng)
    resp = _RESPONSES[response](rng)
    m = rng.uniform(0.5, 1.5)
    k = KernelSet(growth=g, response=resp,
                  numerical=Proportional(rng.uniform(0.05, 1.0), resp), m=m)
    mu = m * g.r / resp.lam * rng.uniform(2.5, 4.0)
    T = math.exp(rng.uniform(math.log(0.02), math.log(0.4))) if T is None else T
    phase = 0.0 if on_release else rng.uniform(0.0, T)
    t0 = int(rng.integers(0, 4)) * T + phase
    eil = rng.uniform(0.05, 0.2)
    x0 = eil * rng.uniform(1.5, 8.0)
    y0 = orbit_peak(mu, T, m) * math.exp(-m * phase)
    return k, ReleaseProgram(mu, T), x0, y0, t0, eil


_CASES = [(g, r, 100 + i) for i, (g, r) in enumerate(itertools.product(_GROWTHS, _RESPONSES))]


@pytest.mark.parametrize("growth, response, seed", _CASES)
def test_damage_time_matches_dop853(growth, response, seed):
    k, program, x0, y0, t0, eil = _scenario(growth, response, seed)
    pi, t_cross = damage_time_full(k, program, x0, eil, t0=t0)
    ref, _, _ = dop853_release_run(k, program.mu, program.T, x0, y0, t0,
                                   t0 + 200.0 / k.m, eil=eil)
    assert pi == t_cross - t0
    assert math.isclose(t_cross - t0, ref - t0, rel_tol=1e-6)


@pytest.mark.parametrize("growth, response, seed, T, on_release", [
    ("logistic", "holling2", 7, 0.004, False),
    ("allee", "holling4", 8, 0.0045, True),
    ("linear", "holling1", 9, 0.3, True),
    ("logistic", "holling4", 10, 0.05, True),
])
def test_damage_time_matches_dop853_short_period_and_release_start(
        growth, response, seed, T, on_release):
    k, program, x0, y0, t0, eil = _scenario(growth, response, seed, T, on_release)
    if on_release:
        assert t0 == round(t0 / T) * T
    pi, _ = damage_time_full(k, program, x0, eil, t0=t0)
    ref, _, _ = dop853_release_run(k, program.mu, program.T, x0, y0, t0,
                                   t0 + 200.0 / k.m, eil=eil)
    assert math.isclose(pi, ref - t0, rel_tol=1e-6)


def test_dip_inside_one_step_matches_dop853():
    # Predators on the release orbit with m = 3: in each period x falls
    # while y > r/lam and recovers after, so its first minimum is a dip.
    # With eil 1e-5 above that minimum, x stays below eil for about T/200,
    # inside one step of the stepper (T/65 at rtol 1e-10).  A graze is ill
    # conditioned: the crossing moves by the state error over the slope of
    # x there, about 1e-3, hence the tighter rtol.
    k = nearly_linear_kernels(m=3.0)
    program = ReleaseProgram(3.3, 1.0)
    y0 = orbit_peak(3.3, 1.0, 3.0)

    def dop853_x(ts):
        return dop853_release_run(k, 3.3, 1.0, 1.0, y0, 0.0, ts[-1], ts=ts)[1]

    ts = np.linspace(0.0, 1.0, 100_001)
    xs = dop853_x(ts)
    eil = xs.min() * (1.0 + 1e-5)
    below = np.flatnonzero(xs <= eil)
    assert np.all(np.diff(below) == 1) and xs[-1] > eil
    assert ts[below[-1]] - ts[below[0]] < program.T / 100

    def refine(i, j):
        fine = np.linspace(ts[i], ts[j], 10_001)
        return fine[np.flatnonzero(np.diff(dop853_x(fine) <= eil))[0]]

    ref_down, ref_up = refine(below[0] - 1, below[0]), refine(below[-1], below[-1] + 1)
    cfg = SimConfig(rtol=1e-10, t_end=1.0)
    pi, _ = damage_time_full(k, program, 1.0, eil, cfg=cfg)
    assert math.isclose(pi, ref_down, rel_tol=1e-6)
    traj = simulate(k, program, 1.0, y0, eil=eil, cfg=cfg)
    assert [label for _, label in traj.events] == ["down", "up"]
    (t_down, _), (t_up, _) = traj.events
    assert math.isclose(t_down, ref_down, rel_tol=1e-6)
    assert math.isclose(t_up, ref_up, rel_tol=1e-6)


@pytest.mark.parametrize("growth, response, seed", _CASES[::4])
def test_simulate_samples_match_dop853(growth, response, seed):
    k, program, x0, y0, t0, eil = _scenario(growth, response, seed)
    t_end = 6.0 * program.T
    traj = simulate(k, program, x0, y0, t0=t0, eil=eil,
                    cfg=SimConfig(t_end=t_end))
    _, xs, ys = dop853_release_run(k, program.mu, program.T, x0, y0, t0,
                                   t0 + t_end, ts=traj.ts)
    assert np.allclose(traj.xs, xs, rtol=1e-6, atol=1e-9)
    assert np.allclose(traj.ys, ys, rtol=1e-6, atol=1e-9)
    # pre-release samples at every release, and the same first crossing
    for t, y_pre, _ in traj.impulses:
        assert math.isclose(y_pre, ys[traj.ts == t][0], rel_tol=1e-6)
    down = [t for t, label in traj.events if label == "down"]
    ref, _, _ = dop853_release_run(k, program.mu, program.T, x0, y0, t0,
                                   t0 + t_end, eil=eil)
    assert (ref is None) == (not down)
    if down:
        assert math.isclose(down[0], ref, rel_tol=1e-6)
