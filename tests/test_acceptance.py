"""Acceptance suite: nine headline behaviors, one test each.

Each test pins a user-facing guarantee of the toolkit at a stated
tolerance, from the closed-form thresholds through the Monte Carlo
envelope and CLI determinism.  Budgeted tests assert their own wall
time so a performance regression fails loudly instead of silently
slowing the suite down.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import helpers
from bioctl import planner
from bioctl.impulsim import SimConfig, damage_time_full, simulate
from bioctl.kernels import (
    HollingII,
    KernelSet,
    Logistic,
    Proportional,
    ratio_supremum,
    validate_kernels,
)
from bioctl.mcharness import verify_envelope
from bioctl.orbit import PestFreeOrbit, ReleaseProgram, floquet_multipliers

MU_REF = 2.0


def test_01_threshold_closed_forms_and_grid_search(reference_kernels):
    start = perf_counter()
    report = validate_kernels(reference_kernels)
    assert math.isclose(report.s_limit, 1.0, rel_tol=1e-12)
    assert math.isclose(report.s_sup, 1.8, rel_tol=1e-12)
    s_grid, x_grid = helpers.scan_ratio_supremum(reference_kernels)
    assert math.isclose(s_grid, 1.8, rel_tol=1e-6)
    assert math.isclose(x_grid, 4.0, rel_tol=1e-3)
    assert perf_counter() - start < 1.0


def test_02_decay_ceiling_root_against_scan():
    start = perf_counter()
    t_hat = planner.max_decay_period(MU_REF, 1.0, 1.0)
    residual = abs(MU_REF * t_hat / math.expm1(t_hat) - 1.0)
    assert residual < 1e-10
    lo, hi = helpers.scan_decay_ceiling(MU_REF, 1.0, 1.0, n=1_000_000)
    assert lo <= t_hat <= hi
    assert abs(t_hat - 1.2564) < 5e-4
    assert perf_counter() - start < 1.0


def test_03_worst_case_matches_brute_force_grid():
    start = perf_counter()
    rng = np.random.default_rng(123)
    for _ in range(500):
        sigma = rng.uniform(0.5, 1.5)
        m = rng.uniform(0.6, 1.6)
        mu = sigma * rng.uniform(1.5, 2.5)
        T = rng.uniform(0.2, 0.8) * planner.max_decay_period(mu, sigma, m)
        p = planner.ZParams(sigma=sigma, m=m, mu=mu, T=T)
        z0 = rng.uniform(0.3, 4.5) * p.net_drop
        wc = planner.worst_invasion(p, z0)
        grid = helpers.grid_pi_max(sigma, m, mu, T, z0, n_t0=2000)
        assert grid <= wc.pi_max + 1e-6
        assert math.isclose(grid, wc.pi_max, rel_tol=5e-4)
    # period at an exact divisor of the minimal damage time: no overshoot
    for n in range(3, 9):
        wc = planner.worst_invasion(
            planner.ZParams(sigma=1.0, m=1.0, mu=MU_REF, T=3.0 / n), 3.0)
        assert abs(wc.deviation) < 1e-9
    assert perf_counter() - start < 30.0


def test_04_reference_worst_invasion_values():
    p = planner.ZParams(sigma=1.0, m=1.0, mu=MU_REF, T=0.8)
    wc = planner.worst_invasion(p, 3.0)
    assert abs(wc.t0_star - 0.1146) < 1e-3
    assert abs(wc.pi_max - 3.0854) < 1e-3
    assert abs(planner.damage_time(p, 3.0, t0=0.0) - 2.8467) < 1e-3


def test_05_floquet_agreement_and_eradication(reference_kernels):
    start = perf_counter()
    for mu, T in ((2.0, 0.5), (0.5, 0.5), (1.3, 0.9)):
        closed, _ = floquet_multipliers(1.0, 1.0, 1.0, ReleaseProgram(mu, T))
        numeric = helpers.monodromy_pest_multiplier(1.0, 1.0, 1.0, mu, T)
        assert abs(closed - numeric) < 1e-8

    program = ReleaseProgram(2.0, 0.5)
    y_start = PestFreeOrbit(2.0, 0.5, 1.0).eval(0.0, post=True)
    cfg = SimConfig(t_end=40.0)
    for x0 in (0.5, 2.0, 5.0):
        traj = simulate(reference_kernels, program, x0, y_start, cfg=cfg)
        assert traj.xs[-1] < 1e-6

    weak = ReleaseProgram(0.5, 0.5)
    y_weak = PestFreeOrbit(0.5, 0.5, 1.0).eval(0.0, post=True)
    traj = simulate(reference_kernels, weak, 0.01, y_weak, cfg=cfg)
    assert float(np.max(traj.xs)) > 0.1
    assert perf_counter() - start < 30.0


def test_06_full_damage_time_below_certified_bound():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        r, K = rng.uniform(0.6, 1.4), rng.uniform(5.0, 12.0)
        lam, a = rng.uniform(0.8, 1.5), rng.uniform(0.1, 0.3)
        m = rng.uniform(0.7, 1.3)
        response = HollingII(lam, a)
        k = KernelSet(growth=Logistic(r, K), response=response,
                      numerical=Proportional(rng.uniform(0.6, 1.4), response),
                      m=m)
        sigma, _ = ratio_supremum(k)
        mu = sigma * rng.uniform(1.7, 2.3)
        T = rng.uniform(0.25, 0.7) * planner.max_decay_period(mu, sigma, m)
        eil = K * rng.uniform(0.03, 0.08)
        x0 = eil * rng.uniform(2.0, 6.0)
        t0 = rng.uniform(0.0, T)

        z0 = planner.z_from_x_global(x0, eil, m, response)
        pi_z = planner.damage_time(
            planner.ZParams(sigma=sigma, m=m, mu=mu, T=T), z0, t0=t0)
        pi_full, _ = damage_time_full(
            k, ReleaseProgram(mu, T), x0, eil, t0=t0,
            cfg=SimConfig(t_end=1.1 * pi_z + 5.0 * T))
        assert pi_full <= pi_z + 1e-6


def test_07_monte_carlo_envelope_statistics(mc_run_200k, reference_box):
    trials, gen_seconds = mc_run_200k
    start = perf_counter()
    report = verify_envelope(trials, reference_box, MU_REF, n_bins=50)
    elapsed = gen_seconds + (perf_counter() - start)

    assert report.violations == 0
    busy = report.count >= 1000
    assert busy.any()
    assert np.all(report.coverage_ratio[busy] >= 0.9)

    tops = report.max_dev[report.count > 0]
    inversions = int(np.sum(tops[1:] < tops[:-1]))
    assert inversions <= len(report.count) // 10

    near = report.max_dev[np.argmin(np.abs(report.bin_mid - 0.8))]
    assert 0.95 * 0.1586 <= near <= 1.0 * 0.1586
    assert elapsed < 60.0


def test_08_montecarlo_cli_is_deterministic(tmp_path):
    scenario = Path(__file__).resolve().parent.parent / "scripts" \
        / "reference_scenario.json"
    outputs = []
    for tag, threads in (("a", None), ("b", None), ("c", "1"), ("d", "5")):
        out = tmp_path / tag
        env = dict(os.environ)
        if threads is not None:
            env["BIOCTL_THREADS"] = threads
        res = subprocess.run(
            [sys.executable, "-m", "bioctl", "montecarlo",
             "--config", str(scenario), "--out", str(out),
             "--trials", "20000", "--seed", "7", "--bins", "25"],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        outputs.append(((out / "mc_records.csv").read_bytes(),
                        (out / "mc_envelope.csv").read_bytes()))
    assert all(pair == outputs[0] for pair in outputs[1:])


def test_09_envelope_shape(reference_box):
    assert planner.deviation_envelope(1e-6, 1.0) < 1e-6
    t_lower, _ = planner.t_limits(reference_box, MU_REF)
    grid = np.linspace(0.0, t_lower, 102)[1:-1]
    values = [planner.deviation_envelope(T, 1.0) for T in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    for m in (0.5, 1.0, 1.7):
        for T in grid:
            t_star = planner.envelope_argmax(T, m)
            assert 0.0 < t_star < T
