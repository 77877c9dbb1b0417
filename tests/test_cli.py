"""End-to-end checks of the command line front end.

Every test shells out through ``python3 -m bioctl`` so the argparse wiring,
config loading and exit codes are exercised exactly as a user would hit them.
Numeric output is compared against direct module calls: the CLI must stay a
thin adapter with no arithmetic of its own.
"""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bioctl import cli, impulsim, mcharness, planner
from bioctl.impulsim import SimConfig, damage_time_full
from bioctl.kernels import (
    HollingII,
    InputOverflowError,
    KernelSet,
    Logistic,
    Proportional,
    ratio_supremum,
    validate_kernels,
)
from bioctl.orbit import PestFreeOrbit, ReleaseProgram, floquet_multipliers

REFERENCE = {
    "kernels": {
        "growth": {"type": "logistic", "r": 1.0, "K": 10.0},
        "response": {"type": "holling2", "lam": 1.0, "a": 0.5},
        "numerical": {"type": "proportional", "e": 1.0},
        "m": 1.0,
    },
    "program": {"mu": 2.0, "T": 0.5},
    "eil": 0.1,
    "box": {"z0": [1.0, 5.0], "sigma": [1.0, 1.0], "m": [1.0, 1.0]},
}


def run_cli(*argv, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "bioctl", *argv],
        capture_output=True, text=True, env=env, timeout=timeout)


def parse_kv(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("=")
        assert _ == "=", f"stdout line is not key=value: {line!r}"
        out[key] = value
    return out


def write_config(tmp_path, overrides=None, **top_level):
    cfg = json.loads(json.dumps(REFERENCE))
    if overrides:
        for dotted, value in overrides.items():
            node = cfg
            *parents, leaf = dotted.split(".")
            for part in parents:
                node = node[part]
            node[leaf] = value
    cfg.update(top_level)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def reference_kernelset() -> KernelSet:
    response = HollingII(1.0, 0.5)
    return KernelSet(growth=Logistic(1.0, 10.0), response=response,
                     numerical=Proportional(1.0, response), m=1.0)


# --------------------------------------------------------------------------
# validate / stability


def test_validate_is_a_thin_adapter(tmp_path):
    res = run_cli("validate", "--config", write_config(tmp_path))
    assert res.returncode == 0, res.stderr
    kv = parse_kv(res.stdout)
    report = validate_kernels(reference_kernelset())
    assert float(kv["s_limit"]) == report.s_limit
    assert float(kv["s_sup"]) == report.s_sup
    assert float(kv["s_argmax"]) == report.s_argmax
    assert kv["all_ok"] == "true"
    for name, ok in report.checks.items():
        assert kv[f"check_{name}"] == ("true" if ok else "false")


def test_validate_rejects_unbounded_ratio(tmp_path):
    cfg = write_config(tmp_path, {"kernels.growth": {"type": "linear", "r": 1.0}})
    res = run_cli("validate", "--config", cfg)
    assert res.returncode == 1
    kv = parse_kv(res.stdout)
    assert kv["check_ratio_bounded"] == "false"
    assert kv["all_ok"] == "false"
    assert float(kv["s_sup"]) == math.inf


_GROWTH_CFG = {
    "linear": {"type": "linear", "r": 1.0},
    "logistic": {"type": "logistic", "r": 1.0, "K": 10.0},
    "allee": {"type": "allee", "r": 1.0, "A": 2.0, "K": 10.0},
}
_RESPONSE_CFG = {
    "holling1": {"type": "holling1", "lam": 1.0},
    "holling2": {"type": "holling2", "lam": 1.0, "a": 0.5},
    "holling4": {"type": "holling4", "lam": 1.0, "a": 0.5, "b": 0.05},
}


def validate_in_process(tmp_path, capsys, growth, response):
    """Exit code, stdout keys, stderr and the library's kernels for one
    ``validate`` run; any warning fails the run."""
    cfg = write_config(tmp_path, {"kernels.growth": growth,
                                  "kernels.response": response})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["validate", "--config", cfg])
    out, err = capsys.readouterr()
    with open(cfg) as fh:
        k = cli.build_kernels(json.load(fh))
    return code, parse_kv(out), err, k


@pytest.mark.parametrize("response", sorted(cli._RESPONSE))
@pytest.mark.parametrize("growth", sorted(cli._GROWTH))
def test_validate_every_kernel_pair(tmp_path, capsys, growth, response):
    code, kv, err, k = validate_in_process(
        tmp_path, capsys, _GROWTH_CFG[growth], _RESPONSE_CFG[response])
    # linear growth against a saturating response outgrows every budget
    bounded = growth != "linear" or response == "holling1"
    assert err == ""
    assert code == (0 if bounded else 1)
    assert kv["check_ratio_bounded"] == ("true" if bounded else "false")
    assert float(kv["s_sup"]) == validate_kernels(k).s_sup
    if bounded:
        assert float(kv["s_sup"]) == ratio_supremum(k)[0]
    for name in ("growth_zero", "consumption_ok", "reproduction_ok"):
        assert kv[f"check_{name}"] == "true"


@pytest.mark.parametrize("response", sorted(cli._RESPONSE))
@pytest.mark.parametrize("growth", ["logistic", "allee"])
def test_validate_huge_carrying_capacity(tmp_path, capsys, growth, response):
    # K = 1e307 once put the old scan ceiling at 100*K = inf: warnings on
    # stderr, false positivity checks and s_sup=nan next to a bounded ratio
    growth_cfg = dict(_GROWTH_CFG[growth], K=1e307, **(
        {"A": 1.0} if growth == "allee" else {}))
    code, kv, err, k = validate_in_process(
        tmp_path, capsys, growth_cfg, _RESPONSE_CFG[response])
    try:
        s_sup, _ = ratio_supremum(k)
    except InputOverflowError:
        assert code == 2
        assert "error: the kernel parameters are too large" in err
        assert "Warning" not in err and "Traceback" not in err
        return
    assert err == ""
    assert code == 0
    assert kv["all_ok"] == "true"
    assert float(kv["s_sup"]) == s_sup and math.isfinite(s_sup)


def test_stability_reference_is_gas(tmp_path):
    res = run_cli("stability", "--config", write_config(tmp_path))
    assert res.returncode == 0, res.stderr
    kv = parse_kv(res.stdout)
    assert kv["verdict"] == "GAS"
    pest, predator = floquet_multipliers(
        1.0, 1.0, 1.0, ReleaseProgram(2.0, 0.5))
    assert float(kv["pest_multiplier"]) == pytest.approx(pest, rel=1e-15)
    assert float(kv["predator_multiplier"]) == pytest.approx(predator, rel=1e-15)


def test_stability_unstable_budget_exits_nonzero(tmp_path):
    cfg = write_config(tmp_path, {"program.mu": 0.9})
    res = run_cli("stability", "--config", cfg)
    assert res.returncode == 1
    kv = parse_kv(res.stdout)
    assert kv["verdict"] == "Unstable"
    assert float(kv["pest_multiplier"]) > 1.0
    assert "threshold" in kv["note"]


# --------------------------------------------------------------------------
# config errors


def test_truncated_json_is_a_usage_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(REFERENCE)[:-25])
    res = run_cli("validate", "--config", str(path))
    assert res.returncode == 2
    assert "config error" in res.stderr
    assert "line" in res.stderr


def test_unknown_top_level_key_is_rejected(tmp_path):
    cfg = write_config(tmp_path, mystery=1)
    res = run_cli("validate", "--config", cfg)
    assert res.returncode == 2
    assert "mystery" in res.stderr


def test_unknown_kernel_field_is_rejected(tmp_path):
    cfg = write_config(
        tmp_path, {"kernels.growth": {"type": "logistic", "r": 1.0,
                                      "K": 10.0, "q": 3}})
    res = run_cli("validate", "--config", cfg)
    assert res.returncode == 2
    assert "q" in res.stderr


def test_bad_parameter_value_is_a_domain_error(tmp_path):
    cfg = write_config(tmp_path, {"kernels.m": -1.0})
    res = run_cli("validate", "--config", cfg)
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_missing_config_flag_is_usage_error():
    res = run_cli("validate")
    assert res.returncode == 2


@pytest.mark.parametrize("argv, overrides, message", [
    (["optimize", "--z0", "nan"], None, "not a finite number: 'nan'"),
    (["optimize", "--z0", "inf"], None, "not a finite number: 'inf'"),
    (["optimize", "--z0", "1e400"], None, "not a finite number: '1e400'"),
    (["simulate", "--x0", "nan"], None, "not a finite number"),
    (["simulate", "--x0", "1", "--y0=-inf"], None, "not a finite number"),
    (["damage", "--z0", "1", "--t0", "nan"], None, "not a finite number"),
    (["stability", "--period", "nan"], None, "not a finite number"),
    (["stability", "--period", "abc"], None, "not a number: 'abc'"),
    (["robustness"], {"program.mu": math.nan}, "mu must be a finite number"),
    (["validate"], {"kernels.m": math.inf}, "m must be a finite number"),
    (["validate"], {"kernels.m": 10 ** 400}, "m must be a finite number"),
    (["montecarlo"], {"box.z0": [1.0, math.inf]}, "pair of finite numbers"),
    (["robustness"], {"box.sigma": [math.nan, 1.0]}, "pair of finite numbers"),
])
def test_non_finite_input_exits_2(tmp_path, capsys, argv, overrides, message):
    # in-process: argparse usage errors leave through SystemExit(2)
    argv = [argv[0], "--config", write_config(tmp_path, overrides), *argv[1:]]
    if argv[0] in ("robustness", "montecarlo", "optimize", "simulate"):
        argv += ["--out", str(tmp_path / "out")]
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


_HOLLING4 = {"type": "holling4", "lam": 1.0, "a": 0.5, "b": 0.1}


@pytest.mark.parametrize("argv, overrides, message", [
    (["damage", "--z0", "1e300"], None,
     "z0=1e+300 is too large: the pest density"),
    (["damage", "--x0", "1e200", "--period", "0.1"], None,
     "initial state (x0=1e+200, y0="),
    (["damage", "--x0", "1e200"], {"kernels.response": _HOLLING4},
     "x0=1e+200 is too large: its consumption-integral coordinate"),
    (["montecarlo", "--engine", "full", "--trials", "3"],
     {"box.z0": [1.0, 1e300]}, "is too large: the pest density"),
    (["optimize", "--z0", "1e308"], {"box.sigma": [1.9, 1.9]},
     "z0=1e+308 is too large: t1/decay_ceiling overflows"),
])
def test_huge_finite_input_exits_2(tmp_path, capsys, argv, overrides, message):
    # finite, so past the flag and config checks, but the model overflows
    argv = [argv[0], "--config", write_config(tmp_path, overrides), *argv[1:]]
    if argv[0] in ("montecarlo", "optimize"):
        argv += ["--out", str(tmp_path / "out")]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_optimize_huge_invasion_terminates(tmp_path):
    # n0 = t1/ceiling is far past 2^53 here: n0 + 1 rounds to n0 as a float
    cfg = write_config(tmp_path)
    res = run_cli("optimize", "--config", cfg, "--z0", "1e308",
                  "--out", str(tmp_path), timeout=60)
    assert res.returncode == 0, res.stderr
    kv = parse_kv(res.stdout)
    assert int(kv["n0"]) == int(float(kv["t1"]) / float(kv["decay_ceiling"]))
    assert int(kv["n0"]) > 2 ** 1000
    assert kv["periods"] == ""
    with open(kv["sweep_csv"]) as fh:
        assert fh.read() == "T,pi_max,deviation\n"


@pytest.mark.parametrize("z0_hi", [1e12, 1e300, 1e308])
def test_zsim_huge_invasion_box_terminates(tmp_path, z0_hi):
    # as for the closed engine, Pi - T1 is rounding noise above the envelope
    # check's slack: 26 false violations in 2000 trials at 1e12; at 1e300
    # the period count is also past 2^53, and at 1e308 it overflows a float
    cfg = write_config(tmp_path, {"box.z0": [1.0, z0_hi]})
    res = run_cli("montecarlo", "--config", cfg, "--engine", "zsim",
                  "--trials", "2000", "--out", str(tmp_path / "out"), timeout=60)
    assert res.returncode == 2, res.stderr
    assert "too large for the zsim engine" in res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("z0_hi", [1e300, 1e308])
def test_closed_engine_refuses_huge_invasion_box(tmp_path, z0_hi):
    # Pi and T1 are both about z0 there, so Pi - T1 is rounding noise far
    # above the envelope check's slack: 88 false violations at 1e300, and
    # Pi = inf with a RuntimeWarning at 1e308
    cfg = write_config(tmp_path, {"box.z0": [1.0, z0_hi]})
    res = run_cli("montecarlo", "--config", cfg, "--trials", "2000",
                  "--out", str(tmp_path / "out"), timeout=60)
    assert res.returncode == 2, res.stderr
    assert "too large for the closed engine" in res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------------------
# simulate / damage


def test_simulate_writes_trajectory(tmp_path):
    cfg = write_config(tmp_path, sim={"t_end": 10.0})
    res = run_cli("simulate", "--config", cfg, "--x0", "2.0",
                  "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    kv = parse_kv(res.stdout)
    assert float(kv["t_start"]) == 0.0
    assert float(kv["t_end"]) == 10.0
    assert int(kv["releases"]) == 20
    with open(kv["trajectory_csv"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "is_impulse"]
    assert len(rows) == int(kv["samples"]) + int(kv["releases"]) + 1


@pytest.mark.parametrize("y0", [[], ["--y0", "1.0"]])
def test_simulate_start_past_2_53_periods_is_an_input_error(tmp_path, capsys, y0):
    # past 2^53 periods the release instants n*T can no longer be counted
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", cfg, "--x0", "2.0", "--t0", "1e300",
                     *y0, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "release counts past 2^53" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_damage_matches_direct_calls(tmp_path):
    cfg = write_config(tmp_path)
    res = run_cli("damage", "--config", cfg, "--x0", "5.0",
                  "--period", "0.15")
    assert res.returncode == 0, res.stderr
    kv = parse_kv(res.stdout)
    k = reference_kernelset()
    report = validate_kernels(k)
    z0 = planner.z_from_x_global(5.0, 0.1, 1.0, k.response)
    assert float(kv["z0"]) == pytest.approx(z0, rel=1e-12)
    assert float(kv["sigma"]) == report.s_sup

    p = planner.ZParams(sigma=report.s_sup, m=1.0, mu=2.0, T=0.15)
    pi_z = planner.damage_time(p, z0)
    pi_full, t_cross = damage_time_full(
        k, ReleaseProgram(2.0, 0.15), 5.0, 0.1, delta=0.0)
    assert float(kv["pi_z"]) == pytest.approx(pi_z, rel=1e-12)
    assert float(kv["pi_full"]) == pytest.approx(pi_full, rel=1e-12)
    assert float(kv["crossing_t"]) == pytest.approx(t_cross, rel=1e-12)
    assert kv["bound_ok"] == "true"
    assert float(kv["pi_full"]) <= float(kv["pi_z"]) + 1e-6


@pytest.mark.parametrize("command, flags", [
    ("damage", ("--x0", "5.0", "--period", "0.15")),
    ("simulate", ("--x0", "5.0", "--period", "0.15")),
])
def test_crossing_is_found_to_float_resolution(tmp_path, command, flags):
    # the bisection runs until both ends of its bracket round to the same t
    # (or to adjacent floats in s), so it terminates, and the step's quartic
    # lies on either side of eil within 2 ulp of each crossing it returns
    cfg = write_config(tmp_path, sim={"t_end": 20.0})
    if command == "simulate":
        flags += ("--out", str(tmp_path))
    res = run_cli(command, "--config", cfg, *flags, timeout=60)
    assert res.returncode == 0, res.stderr
    kv = parse_kv(res.stdout)
    t_cross = float(kv["crossing_t" if command == "damage" else "first_crossing"])

    program = ReleaseProgram(2.0, 0.15)
    y0 = PestFreeOrbit(2.0, 0.15, 1.0).eval(0.0, post=True)
    crossings = []
    for t, h, _, x, _, kx, _, xn, _, _ in impulsim._steps(
            reference_kernelset(), program, 5.0, y0, 0.0, 20.0, SimConfig()):
        q = impulsim._dense(h, kx)
        for tc, label in impulsim._crossings(t, h, x, xn, kx, 0.1):
            u = 2.0 * math.ulp(tc)
            before, after = (impulsim._poly(x, q, (tc + d - t) / h) for d in (-u, u))
            if label == "down":
                assert before > 0.1 >= after
            else:
                assert before <= 0.1 < after
            crossings.append((tc, label))
    assert crossings[0] == (t_cross, "down")


@pytest.mark.parametrize("key", ["max_step", "crossing_tol"])
def test_removed_sim_keys_are_config_errors(tmp_path, capsys, key):
    cfg = write_config(tmp_path, sim={key: 0.01})
    code = cli.main(["damage", "--config", cfg, "--x0", "5.0", "--period", "0.15"])
    out, err = capsys.readouterr()
    assert code == 2
    assert f"config error: sim: unknown key(s): {key}" in err
    assert out == ""


@pytest.mark.parametrize("flags, message", [
    (("--x0", "0.05"), "damage: x0=0.05 must be above eil=0.1"),
    (("--x0", "5.0", "--period", "0.15", "--t0", "0.15"),
     "t0 must lie in [0, T)"),
])
def test_damage_checks_its_inputs_before_printing(tmp_path, capsys, flags, message):
    code = cli.main(["damage", "--config", write_config(tmp_path), *flags])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert f"error: {message}" in err


def test_stiff_simulation_ends_with_an_error(tmp_path):
    # y0 = 1e200 makes the pest equation stiff (rate about lam*y0): the
    # explicit stepper is held to steps near 3e-200 and never reached t_end
    res = run_cli("simulate", "--config", write_config(tmp_path), "--x0", "1",
                  "--y0", "1e200", "--out", str(tmp_path), timeout=60)
    assert res.returncode == 1, res.stderr
    assert "error: the model is stiff at t=" in res.stderr
    assert "Traceback" not in res.stderr


def test_damage_default_period_exceeds_ceiling(tmp_path):
    # with the reference budget the conservative model only certifies
    # periods below ~0.207, so the configured T=0.5 must be refused
    res = run_cli("damage", "--config", write_config(tmp_path), "--x0", "5.0")
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert res.stdout == ""


# --------------------------------------------------------------------------
# optimize / robustness


def test_optimize_reference_schedule(tmp_path):
    out = tmp_path / "out"
    res = run_cli("optimize", "--config", write_config(tmp_path),
                  "--z0", "3.0", "--out", str(out))
    assert res.returncode == 0, res.stderr
    kv = parse_kv(res.stdout)
    assert float(kv["t1"]) == pytest.approx(3.0, rel=1e-12)
    assert int(kv["n0"]) == 2
    periods = [float(s) for s in kv["periods"].split(",")]
    assert periods[:3] == pytest.approx([1.0, 0.75, 0.6], rel=1e-12)
    with open(kv["sweep_csv"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(periods) == 8
    for row in rows:
        assert abs(float(row["deviation"])) < 1e-9
        assert float(row["pi_max"]) == pytest.approx(3.0, abs=1e-9)


def test_robustness_bound_table(tmp_path):
    out = tmp_path / "out"
    res = run_cli("robustness", "--config", write_config(tmp_path),
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    kv = parse_kv(res.stdout)
    t_lower, t_hat_min = planner.t_limits(
        planner.UncertaintyBox(1.0, 5.0, 1.0, 1.0, 1.0, 1.0), 2.0)
    assert float(kv["t_lower"]) == pytest.approx(t_lower, rel=1e-12)
    with open(kv["bound_csv"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 200
    bounds = [float(r["bound"]) for r in rows]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(r["T_L_flag"] == "1" for r in rows)  # grid sits below T_L here
    direct = planner.robust_envelope(float(rows[99]["T"]),
                                     planner.UncertaintyBox(1, 5, 1, 1, 1, 1),
                                     2.0)
    assert bounds[99] == pytest.approx(direct, rel=1e-12)


# --------------------------------------------------------------------------
# montecarlo / plot


def mc_args(cfg, out):
    return ("montecarlo", "--config", cfg, "--out", str(out),
            "--trials", "800", "--seed", "42", "--bins", "20")


def test_montecarlo_outputs_are_reproducible(tmp_path):
    cfg = write_config(tmp_path)
    blobs = []
    for tag, threads in (("a", None), ("b", None), ("c", "1"), ("d", "3")):
        out = tmp_path / tag
        env = {"BIOCTL_THREADS": threads} if threads else None
        res = run_cli(*mc_args(cfg, out), env_extra=env)
        assert res.returncode == 0, res.stderr
        kv = parse_kv(res.stdout)
        assert kv["violations"] == "0"
        assert kv["failed"] == "0"
        blobs.append(((out / "mc_records.csv").read_bytes(),
                      (out / "mc_envelope.csv").read_bytes()))
    assert all(b == blobs[0] for b in blobs[1:])
    with open(tmp_path / "a" / "mc_envelope.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    assert sum(int(r["count"]) for r in rows) == 800


@pytest.mark.parametrize("threads", ["abc", "0", "-3"])
def test_bad_thread_count_is_a_config_error(tmp_path, threads):
    res = run_cli(*mc_args(write_config(tmp_path), tmp_path / "out"),
                  env_extra={"BIOCTL_THREADS": threads})
    assert res.returncode == 2
    assert "config error" in res.stderr
    assert f"BIOCTL_THREADS must be a positive integer, got '{threads}'" in res.stderr
    assert "Traceback" not in res.stderr


def _exit_in_worker(*job):
    os._exit(3)


def _fork_fails(*args, **kwargs):
    raise OSError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("failure", ["fork fails", "worker dies"])
def test_csv_pool_failure_is_a_clean_error(tmp_path, capsys, monkeypatch, failure):
    from concurrent.futures import process
    monkeypatch.setenv("BIOCTL_THREADS", "2")
    monkeypatch.setattr(mcharness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(mcharness, "_CSV_ROWS", 256)   # four CSV jobs
    if failure == "fork fails":
        monkeypatch.setattr(process, "ProcessPoolExecutor", _fork_fails)
    else:
        # a forked worker finds this module's function under the patched name
        monkeypatch.setattr(mcharness, "_format_rows", _exit_in_worker)
    out = tmp_path / "out"
    code = cli.main(list(mc_args(write_config(tmp_path), out)))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: writing ")
    assert "the partial file was removed" in captured.err
    assert "records_csv=" not in captured.out
    assert not (out / "mc_records.csv").exists()


def test_unwritable_records_csv_is_a_clean_error(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "mc_records.csv").mkdir(parents=True)
    code = cli.main(list(mc_args(write_config(tmp_path), out)))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: cannot write {out / 'mc_records.csv'}: ")
    assert captured.out == ""
    assert (out / "mc_records.csv").is_dir()


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_seed_outside_uint64_is_a_config_error(tmp_path, capsys, seed, source):
    # the seed keys the draw stream as a uint64; -1 would otherwise alias
    # 2^64 - 1 and run the same draws
    if source == "flag":
        argv = ["--seed", str(seed)]
        cfg = write_config(tmp_path)
    else:
        argv = []
        cfg = write_config(tmp_path, {"mc": {"seed": seed}})
    out = tmp_path / "out"
    code = cli.main(["montecarlo", "--config", cfg, "--out", str(out), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: mc: seed must be in [0, {2 ** 64 - 1}]" in err
    assert not out.exists()


@pytest.mark.parametrize("trials", [10 ** 20, 2 ** 63])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_trial_count_past_the_counter_space_is_a_config_error(
        tmp_path, capsys, trials, source):
    # trial i draws uint64 counters 3i..3i+2; past (2^64 - 1)/3 they wrap.
    # Both counts are refused before any trial column is allocated.
    if source == "flag":
        argv = ["--trials", str(trials)]
        cfg = write_config(tmp_path)
    else:
        argv = []
        cfg = write_config(tmp_path, {"mc": {"trials": trials}})
    out = tmp_path / "out"
    code = cli.main(["montecarlo", "--config", cfg, "--out", str(out), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert f"mc: trials must be at most {(2 ** 64 - 1) // 3}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bins", [2 ** 20 + 1, 10 ** 20])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bin_count_past_max_bins_is_a_config_error(tmp_path, capsys, bins, source):
    # refused before the bin edges are allocated
    if source == "flag":
        argv = ["--bins", str(bins)]
        cfg = write_config(tmp_path)
    else:
        argv = []
        cfg = write_config(tmp_path, {"mc": {"bins": bins}})
    out = tmp_path / "out"
    code = cli.main(["montecarlo", "--config", cfg, "--out", str(out), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: mc: bins must be at most {2 ** 20}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_plot_renders_svg(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(*mc_args(cfg, out)).returncode == 0
    res = run_cli("plot", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    svg = (out / "envelope.svg").read_text()
    assert svg.startswith("<svg")
    assert "<polyline" in svg and "<circle" in svg
    assert svg.rstrip().endswith("</svg>")


def _records_with_failures(cfg_path, out):
    """A closed-engine records file in which every seventh trial failed."""
    cfg = cli.load_config(cfg_path)
    trials = mcharness.run_mc(mcharness.McConfig(
        box=cli._build_box(cfg), mu=2.0, n_trials=5000, seed=3))
    failed = np.arange(5000) % 7 == 0
    trials = dataclasses.replace(
        trials, failed=failed, Pi=np.where(failed, np.nan, trials.Pi),
        deviation=np.where(failed, np.nan, trials.deviation))
    out.mkdir()
    mcharness.write_records_csv(trials, out / "mc_records.csv")
    return failed


def test_plot_matches_row_by_row_reader(tmp_path, capsys):
    # the reader cmd_plot had before it read the columns in one numpy pass
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    failed = _records_with_failures(cfg, out)
    Ts, devs = [], []
    with open(out / "mc_records.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["failed"] == "0":
                Ts.append(float(row["T"]))
                devs.append(float(row["deviation"]))
    assert len(Ts) == int((~failed).sum())
    assert cli.main(["plot", "--config", cfg, "--out", str(out)]) == 0
    assert parse_kv(capsys.readouterr().out)["points"] == str(len(Ts))
    box = cli._build_box(cli.load_config(cfg))
    t_upper, _ = planner.t_limits(box, 2.0)
    curve_x = np.array([t_upper * (i + 1) / 201 for i in range(200)])
    curve_y = planner.envelope_bound_curve(curve_x, box, 2.0)
    expected = cli.render_scatter_svg(
        Ts, devs, curve_x, curve_y,
        title="Damage-time deviation vs release period",
        x_label="release period T", y_label="Pi - T1")
    assert (out / "envelope.svg").read_text() == expected


def test_plot_of_header_only_records_has_no_points(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "mc_records.csv").write_text(
        "trial,T,t0,z0,Pi,T1,deviation,engine,failed\n")
    assert cli.main(["plot", "--config", cfg, "--out", str(out)]) == 0
    assert parse_kv(capsys.readouterr().out)["points"] == "0"
    svg = (out / "envelope.svg").read_text()
    assert "<polyline" in svg and "<circle" not in svg


@pytest.mark.parametrize("records, message", [
    ("trial,T,t0,z0,Pi,T1,engine,failed\n0,0.5,0.1,2,3,2,closed,0\n",
     "no deviation column"),
    ("trial,t0,z0\n", "no T, deviation, failed column"),
    ("trial,T,t0,z0,Pi,T1,deviation,engine,failed\n"
     "0,0.5,0.1,2,3,2,1,closed,0\n1,abc,0.1,2,3,2,1,closed,0\n",
     "could not convert string 'abc'"),
], ids=["no-deviation", "no-columns", "bad-number"])
def test_plot_of_unreadable_records_exits_2(tmp_path, capsys, records, message):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "mc_records.csv").write_text(records)
    assert cli.main(["plot", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert "Traceback" not in err
    assert not (out / "envelope.svg").exists()


def test_plot_without_records_is_a_config_error(tmp_path):
    res = run_cli("plot", "--config", write_config(tmp_path),
                  "--out", str(tmp_path / "empty"))
    assert res.returncode == 2
    assert "config error" in res.stderr
