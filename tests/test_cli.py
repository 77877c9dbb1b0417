"""End-to-end checks of the command line front end.

Every test shells out through ``python3 -m bioctl`` so the argparse wiring,
config loading and exit codes are exercised exactly as a user would hit them.
Numeric output is compared against direct module calls: the CLI must stay a
thin adapter with no arithmetic of its own.
"""

import csv
import dataclasses
import errno
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import helpers
import numpy as np
import pytest

from bioctl import cli, forkpool, impulsim, mcharness, planner, tables
from bioctl.impulsim import SimConfig, damage_time_full
from bioctl.kernels import (
    DomainError,
    HollingII,
    InputOverflowError,
    KernelSet,
    Logistic,
    Proportional,
    ratio_supremum,
    validate_kernels,
)
from bioctl.orbit import PestFreeOrbit, ReleaseProgram, floquet_multipliers, next_release

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


_FREEZE_ONCE = """
import gc, sys
from bioctl import cli
count = gc.get_freeze_count
assert count() == 0
argv = ["validate", "--config", sys.argv[1]]
# main keeps a flag: gc.get_freeze_count() walks the whole frozen generation
gc.get_freeze_count = None
assert cli.main(argv) == 0
frozen = count()
assert frozen > 0, frozen
assert cli.main(argv) == 0
assert count() == frozen, (count(), frozen)
"""


def test_main_freezes_the_import_heap_once(tmp_path):
    res = subprocess.run([sys.executable, "-c", _FREEZE_ONCE, write_config(tmp_path)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


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


#: with K = 1e307 the supremum itself overflows a float for these pairs
_HUGE_K_OVERFLOWS = {("logistic", "holling4"), ("allee", "holling2"),
                     ("allee", "holling4")}


@pytest.mark.parametrize("response", sorted(cli._RESPONSE))
@pytest.mark.parametrize("growth", ["logistic", "allee"])
def test_validate_huge_carrying_capacity(tmp_path, capsys, growth, response):
    # K = 1e307 once put the old scan ceiling at 100*K = inf: warnings on
    # stderr, false positivity checks and s_sup=nan next to a bounded ratio.
    # Allee growth against holling1 peaks at K/4 = 2.5e306, a float,
    # although f(x) alone overflows there.
    growth_cfg = dict(_GROWTH_CFG[growth], K=1e307, **(
        {"A": 1.0} if growth == "allee" else {}))
    code, kv, err, k = validate_in_process(
        tmp_path, capsys, growth_cfg, _RESPONSE_CFG[response])
    if (growth, response) in _HUGE_K_OVERFLOWS:
        with pytest.raises(InputOverflowError):
            ratio_supremum(k)
        assert code == 2
        assert "error: the kernel parameters are too large" in err
        assert "Warning" not in err and "Traceback" not in err
        return
    s_sup, _ = ratio_supremum(k)
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


@pytest.mark.parametrize("text", [
    b'{"kernels": \xff}', b'{"kernels": {"m": ' + b"9" * 5000 + b"}}", b"[" * 200_000,
], ids=["not UTF-8", "5000 digits", "200k nested"])
def test_unparseable_config_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert cli.main(["validate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # Python 3.10 parses any number of digits, and the kernels check refuses them
    prefix = "config error: " if sys.version_info < (3, 11) else f"config error: {path}: "
    assert captured.err.startswith(prefix)


_OUT_COMMANDS = ("simulate", "optimize", "robustness", "montecarlo", "plot")


@pytest.mark.parametrize("config", ["missing", "invalid JSON"])
@pytest.mark.parametrize("argv", [
    ["validate"], ["stability"], ["simulate", "--x0", "5"], ["damage", "--x0", "5"],
    ["optimize", "--z0", "3"], ["robustness"], ["montecarlo"], ["plot"],
], ids=lambda argv: argv[0])
def test_config_errors_come_first_for_every_subcommand(tmp_path, capsys, argv, config):
    # plot, with no records under --out either, names the config
    path = tmp_path / "scenario.json"
    if config == "invalid JSON":
        path.write_text(json.dumps(REFERENCE)[:-25])
    out = ["--out", str(tmp_path / "out")] if argv[0] in _OUT_COMMANDS else []
    assert cli.main([*argv, "--config", str(path), *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {path}: ")
    assert os.listdir(tmp_path) == ([] if config == "missing" else ["scenario.json"])


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


@pytest.mark.parametrize("flags, overrides", [
    (["--engine", "zsim"], None), ([], {"mc": {"engine": "zsim"}})],
    ids=["flag", "config"])
def test_unknown_engine_is_refused(tmp_path, flags, overrides):
    cfg = write_config(tmp_path, overrides)
    res = run_cli("montecarlo", "--config", cfg, *flags, "--trials", "10",
                  "--out", str(tmp_path / "out"), timeout=60)
    assert res.returncode == 2, res.stderr
    assert "zsim" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("z0_hi", [1e12, 1e300, 1e308])
def test_closed_engine_refuses_huge_invasion_box(tmp_path, z0_hi):
    # Pi and T1 are both about z0 there, so Pi - T1 is rounding noise
    # above the envelope check's slack: ulp(1e12) is about 1.2e-4, there
    # are 88 false violations at 1e300, and Pi = inf with a RuntimeWarning
    # at 1e308
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
    pi_full, t_cross = damage_time_full(k, ReleaseProgram(2.0, 0.15), 5.0, 0.1)
    assert float(kv["pi_z"]) == pytest.approx(pi_z, rel=1e-12)
    assert float(kv["pi_full"]) == pytest.approx(pi_full, rel=1e-12)
    assert float(kv["crossing_t"]) == pytest.approx(t_cross, rel=1e-12)
    assert kv["bound_ok"] == "true"
    assert float(kv["pi_full"]) <= float(kv["pi_z"]) + 1e-6


@pytest.mark.parametrize("a", [1.0, 2.0 ** -20])
def test_bound_ok_does_not_depend_on_the_time_unit(tmp_path, capsys, monkeypatch, a):
    # a full-model damage time 0.1% past the bound breaks it in any time
    # unit: an absolute allowance of 1e-6 would forgive it once the times
    # are about a millionth
    def planted(k, program, x0, eil, t0, cfg, bound):
        return bound * 1.001, t0 + bound * 1.001

    monkeypatch.setattr(impulsim, "damage_time_full", planted)
    cfg = write_config(tmp_path, {"kernels.growth.r": 1.0 / a,
                                  "kernels.response.lam": 1.0 / a,
                                  "kernels.m": 1.0 / a, "program.mu": 2.0 / a})
    code = cli.main(["damage", "--config", cfg, "--x0", "5.0",
                     "--period", repr(0.15 * a), "--t0", repr(0.05 * a)])
    kv = parse_kv(capsys.readouterr().out)
    assert code == 0
    assert float(kv["pi_full"]) == float(kv["pi_z"]) * 1.001
    assert kv["bound_ok"] == "false"


@pytest.mark.parametrize("command, flags", [
    ("damage", ("--x0", "5.0", "--period", "0.15")),
    ("simulate", ("--x0", "5.0", "--period", "0.15")),
])
def test_crossing_is_found_to_float_resolution(tmp_path, command, flags):
    # the bisection runs in s on the step's unit interval until the ends of
    # its bracket are adjacent floats, at most about 1,100 halvings (one a
    # binade) for a root near s = 0, so it terminates, and the step's
    # quartic lies on either side of eil within 2 ulp of each crossing
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
        for tc, label in impulsim._crossings(t, h, x, xn, q, 0.1):
            u = 2.0 * math.ulp(tc)
            before, after = (impulsim._poly(x, q, (tc + d - t) / h) for d in (-u, u))
            if label == "down":
                assert before > 0.1 >= after
            else:
                assert before <= 0.1 < after
            crossings.append((tc, label))
    assert crossings[0] == (t_cross, "down")


@pytest.mark.parametrize("key", ["max_step", "crossing_tol", "atol"])
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


@pytest.mark.parametrize("flags, message", [
    (("--x0", "5", "--z0", "1"), "argument --z0: not allowed with argument --x0"),
    ((), "one of the arguments --x0 --z0 is required"),
], ids=["both", "neither"])
def test_damage_takes_exactly_one_of_x0_and_z0(tmp_path, capsys, flags, message):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["damage", "--config", write_config(tmp_path),
                  "--period", "0.15", *flags])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2
    assert out == ""
    assert message in err


def test_reference_script_exits_with_the_failing_steps_code(tmp_path):
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                          "run_reference_experiment.py")
    res = subprocess.run(
        [sys.executable, script, "--config", str(tmp_path / "missing.json"),
         "--out", str(tmp_path)], capture_output=True, text=True)
    assert res.returncode == 2
    assert res.stderr.startswith("config error: ")
    assert res.stderr.endswith("step 'validate' exited with code 2\n")


def test_stiff_simulation_ends_with_an_error(tmp_path):
    # growth r = 1e8 makes the pest equation stiff near its carrying
    # capacity: the explicit stepper is held to steps near 3e-8, 1e10 of
    # them to reach t_end
    res = run_cli("simulate", "--config",
                  write_config(tmp_path, {"kernels.growth.r": 1e8}), "--x0", "1",
                  "--out", str(tmp_path), timeout=60)
    assert res.returncode == 1, res.stderr
    assert "error: the model is stiff at t=" in res.stderr
    assert "Traceback" not in res.stderr


def test_huge_predator_pool_is_answered(tmp_path):
    # y0 = 1e200 kills the pest at rate about lam*y0 = 1e200 while the
    # predators decay at m = 1: x = exp(-1e200*t) crosses eil = 0.1 at
    # ln(10)*1e-200, plus the handling time a*(x0 - eil) = 0.45 over lam*y0.
    # Once x has underflowed to 0 the stepper steps on at the predators' pace
    res = run_cli("simulate", "--config", write_config(tmp_path), "--x0", "1",
                  "--y0", "1e200", "--out", str(tmp_path), timeout=60)
    assert res.returncode == 0, res.stderr
    crossing = float(parse_kv(res.stdout)["first_crossing"])
    assert math.isclose(crossing, (math.log(10.0) + 0.45) * 1e-200, rel_tol=1e-8)


def test_eradication_tail_stays_nonnegative(tmp_path):
    # mu = 200 drives the pest to extinction: x decays through the
    # subnormals to 0, and error control relative to x never oversteps it
    res = run_cli("simulate", "--config", write_config(tmp_path, {"program.mu": 200.0}),
                  "--x0", "5", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    with open(parse_kv(res.stdout)["trajectory_csv"], newline="") as fh:
        xs = [float(row["x"]) for row in csv.DictReader(fh)]
    assert min(xs) == 0.0
    assert xs[-1] == 0.0


def test_damage_default_period_exceeds_ceiling(tmp_path):
    # with the reference budget the conservative model only certifies
    # periods below ~0.207, so the configured T=0.5 must be refused
    res = run_cli("damage", "--config", write_config(tmp_path), "--x0", "5.0")
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("argv", [["damage", "--z0", "1"],
                                  ["simulate", "--x0", "1"]])
def test_horizon_past_2_53_periods_is_an_input_error(tmp_path, argv):
    # the 200/m horizon is about 2e302 periods of 1e-300, and the stepper
    # and the sampling would visit every release
    if argv[0] == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    res = run_cli(*argv, "--config", write_config(tmp_path), "--period", "1e-300",
                  timeout=60)
    assert res.returncode == 2, res.stderr
    assert "release counts past 2^53" in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, releases", [
    (["damage", "--z0", "1", "--period", "1e-9"], 5429570457),
    (["simulate", "--x0", "1", "--period", "1e-4"], 2000000),
])
def test_countable_but_endless_runs_are_refused_up_front(tmp_path, argv, releases):
    # damage steps through the pi_z/T releases of its comparison-model bound
    # (5.43 here), simulate through its 200/m horizon over T; both are far
    # below 2^53 periods, and ran for hours before
    if argv[0] == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    res = run_cli(*argv, "--config", write_config(tmp_path), timeout=30)
    assert res.returncode == 2, res.stderr
    assert f"passes {releases} releases of period" in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""
    assert not (tmp_path / "out").exists()


def test_release_budgets_count_the_releases_passed(reference_kernels, monkeypatch,
                                                   tmp_path, capsys):
    # t_end = 10 at T = 0.5 passes the releases at 0.5, 1, ..., 10: 20
    monkeypatch.setattr(impulsim, "SIMULATE_RELEASES", 20)
    cfg = impulsim.SimConfig(t_end=10.0)
    traj = impulsim.simulate(reference_kernels, ReleaseProgram(2.0, 0.5), 1.0, 1.0,
                             cfg=cfg)
    assert len(traj.impulses) == 20
    with pytest.raises(InputOverflowError, match="passes 22 releases"):
        impulsim.simulate(reference_kernels, ReleaseProgram(2.0, 0.45), 1.0, 1.0,
                          cfg=cfg)
    # damage's count runs from t0 to t0 + pi_z: a budget one below it refuses
    argv = ["damage", "--config", write_config(tmp_path), "--z0", "1", "--period", "0.05"]
    assert cli.main(argv) == 0
    pi_z = float(parse_kv(capsys.readouterr().out)["pi_z"])
    n = next_release(pi_z, 0.05) - next_release(0.0, 0.05)
    assert n == 108
    monkeypatch.setattr(impulsim, "DAMAGE_RELEASES", n - 1)
    assert cli.main(argv) == 2
    assert f"passes {n} releases" in capsys.readouterr().err


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


def test_robustness_without_a_finite_ceiling_is_refused(tmp_path, capsys):
    # sigma_hi <= 0: the pest declines under any period, t_hat_min is inf
    cfg = write_config(tmp_path, {"box.sigma": [-1.0, 0.0]})
    out = tmp_path / "out"
    code = cli.main(["robustness", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "error: robustness: sigma_hi=0 <= 0 gives no finite decrease ceiling, "
        "so there is no period range to tabulate\n")
    assert captured.out == ""
    assert not (out / "robust_bound.csv").exists()


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
                      (out / "mc_envelope.csv").read_bytes(),
                      (out / "mc_sample.csv").read_bytes()))
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


def test_bad_thread_count_keeps_the_previous_run(tmp_path, capsys, monkeypatch):
    cfg, out = write_config(tmp_path), tmp_path / "out"
    assert cli.main(list(mc_args(cfg, out))) == 0
    names = ("mc_records.csv", "mc_envelope.csv", "mc_sample.csv")
    before = [(out / name).read_bytes() for name in names]
    capsys.readouterr()
    monkeypatch.setenv("BIOCTL_THREADS", "abc")
    assert cli.main(["montecarlo", "--config", cfg, "--out", str(out),
                     "--trials", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "BIOCTL_THREADS must be a positive integer" in captured.err
    for name, old in zip(names, before):
        helpers.assert_same_text((out / name).read_bytes(), old)


def _exit_in_worker(*job):
    os._exit(3)


def _fork_fails():
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize("failure", ["fork fails", "worker dies"])
def test_csv_pool_failure_is_a_clean_error(tmp_path, capsys, monkeypatch, failure):
    monkeypatch.setenv("BIOCTL_THREADS", "2")
    monkeypatch.setattr(forkpool, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(mcharness, "_CSV_ROWS", 256)   # four CSV jobs
    if failure == "fork fails":
        monkeypatch.setattr(os, "fork", _fork_fails)
    else:
        # a forked worker finds this module's function under the patched name
        monkeypatch.setattr(mcharness, "_row_chunks", _exit_in_worker)
    out = tmp_path / "out"
    code = cli.main(list(mc_args(write_config(tmp_path), out)))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: writing ")
    assert "(PoolBroken: " in captured.err
    assert "the partial file was removed" in captured.err
    assert captured.out == ""
    assert not (out / "mc_records.csv").exists()
    helpers.assert_no_child_processes()


def test_workers_leave_the_parents_stdout_buffer_alone(tmp_path):
    # text buffered in sys.stdout at the fork is in every worker's copy of
    # the buffer; a worker that exited through the interpreter would flush
    # it.  stdout is a pipe here, so it is block-buffered unless
    # PYTHONUNBUFFERED is set.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    script = (
        "import sys\n"
        "from bioctl import cli, forkpool, mcharness\n"
        "mcharness._CSV_ROWS = 256\n"
        "forkpool._usable_cpus = lambda: 2\n"
        "sys.stdout.write('unflushed before the fork\\n')\n"
        "sys.exit(cli.main(sys.argv[1:]))\n")
    out = tmp_path / "out"
    res = subprocess.run(
        [sys.executable, "-c", script, *mc_args(write_config(tmp_path), out)],
        capture_output=True, text=True, env=dict(env, BIOCTL_THREADS="2"),
        timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("unflushed before the fork") == 1
    assert res.stdout.startswith("unflushed before the fork\ntrials=800\n")


def test_unwritable_records_csv_is_a_clean_error(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "mc_records.csv").mkdir(parents=True)
    code = cli.main(list(mc_args(write_config(tmp_path), out)))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: cannot write {out / 'mc_records.csv'}: ")
    assert captured.out == ""
    assert (out / "mc_records.csv").is_dir()


def _library_montecarlo(mc_cfg, out, bins):
    """What cmd_montecarlo printed and wrote before it streamed: the trial
    columns through run_mc, verify_envelope and the two CSV writers."""
    trials = mcharness.run_mc(mc_cfg)
    report = mcharness.verify_envelope(trials, mc_cfg.box, mc_cfg.mu, n_bins=bins)
    out.mkdir()
    mcharness.write_records_csv(trials, out / "mc_records.csv")
    tables.write({out / "mc_envelope.csv": mcharness._envelope_chunks(report)})
    return trials, "".join(f"{k}={cli._fmt(v)}\n" for k, v in (
        ("trials", mc_cfg.n_trials), ("seed", mc_cfg.seed),
        ("engine", mc_cfg.engine), ("t_upper", report.t_upper),
        ("violations", report.violations), ("failed", int(trials.failed.sum()))))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("engine, n_trials", [
    ("closed", 10_000), ("full", 40)])
def test_streamed_montecarlo_matches_library_path(tmp_path, capsys, monkeypatch,
                                                  engine, n_trials, threads):
    monkeypatch.setenv("BIOCTL_THREADS", threads)
    monkeypatch.setattr(forkpool, "_usable_cpus", lambda: 2)
    cfg = write_config(tmp_path)
    raw = cli.load_config(cfg)
    kw = {}
    if engine == "full":
        # five jobs, and a failing trial in the fourth
        monkeypatch.setattr(mcharness, "_FULL_ROWS", 8)
        kw = dict(kernels=cli.build_kernels(raw), eil=cli._build_eil(raw))
    mc_cfg = mcharness.McConfig(box=cli._build_box(raw), mu=2.0, n_trials=n_trials,
                                seed=9, engine=engine, **kw)
    if engine == "full":
        bad_T = float(mcharness.stream_uniforms(9, [3 * 29])[0] * mc_cfg.t_upper)
        real = impulsim.damage_time_full

        def flaky(k, program, *args, **kwargs):
            if program.T == bad_T:
                raise impulsim.IntegrationError("planted")
            return real(k, program, *args, **kwargs)

        monkeypatch.setattr(impulsim, "damage_time_full", flaky)
    trials, expected = _library_montecarlo(mc_cfg, tmp_path / "library", 20)
    if engine == "full":
        assert trials.failed.tolist() == [i == 29 for i in range(n_trials)]
    out = tmp_path / "out"
    code = cli.main(["montecarlo", "--config", cfg, "--out", str(out),
                     "--engine", engine, "--trials", str(n_trials), "--seed", "9",
                     "--bins", "20"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == expected + (
        f"records_csv={out / 'mc_records.csv'}\nenvelope_csv={out / 'mc_envelope.csv'}\n")
    for name in ("mc_records.csv", "mc_envelope.csv"):
        helpers.assert_same_text((out / name).read_bytes(),
                                 (tmp_path / "library" / name).read_bytes())


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("error, code", [
    (DomainError, 1), (InputOverflowError, 2)])
def test_error_in_a_montecarlo_job_is_clean(tmp_path, capsys, monkeypatch,
                                            threads, error, code):
    monkeypatch.setenv("BIOCTL_THREADS", threads)
    monkeypatch.setattr(forkpool, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(mcharness, "_CSV_ROWS", 256)   # four jobs
    real = mcharness._solve

    def fails_late(cfg, start, stop):
        if start >= 512:
            raise error("planted in the third job")
        return real(cfg, start, stop)

    monkeypatch.setattr(mcharness, "_solve", fails_late)
    out = tmp_path / "out"
    assert cli.main(list(mc_args(write_config(tmp_path), out))) == code
    captured = capsys.readouterr()
    assert captured.err == "error: planted in the third job\n"
    assert captured.out == ""
    assert not (out / "mc_records.csv").exists()
    helpers.assert_no_child_processes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_full_trial_whose_density_rounds_to_eil_fails_alone(tmp_path, capsys,
                                                           monkeypatch, threads):
    # eil*exp(z0*g'(0)/m) rounds to eil at z0 = 1e-17, so damage_time_full
    # refuses every x0 of this box; 300 trials are two jobs of 256, so at 2
    # workers they go through the pool.  A run in which every trial failed
    # checked nothing: it exits 1, with its lines and both CSVs
    monkeypatch.setenv("BIOCTL_THREADS", threads)
    monkeypatch.setattr(forkpool, "_usable_cpus", lambda: 2)
    cfg, out = write_config(tmp_path, {"box.z0": [1e-17, 2e-17]}), tmp_path / "out"
    assert cli.main(["montecarlo", "--config", cfg, "--out", str(out),
                     "--engine", "full", "--trials", "300"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert parse_kv(captured.out)["failed"] == "300"
    with open(out / "mc_records.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 300
    assert all(r["failed"] == "1" and r["Pi"] == "nan" for r in rows)
    assert (out / "mc_envelope.csv").is_file()


_MC_FILES = ("mc_records.csv", "mc_envelope.csv", "mc_sample.csv")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failed_run_over_a_finished_one_leaves_its_files_as_they_were(
        tmp_path, capsys, monkeypatch, threads):
    cfg, out = write_config(tmp_path), tmp_path / "out"
    assert cli.main(list(mc_args(cfg, out))) == 0
    before = [(out / name).read_bytes() for name in _MC_FILES]
    capsys.readouterr()
    monkeypatch.setenv("BIOCTL_THREADS", threads)
    monkeypatch.setattr(forkpool, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(mcharness, "_CSV_ROWS", 256)   # four jobs
    real = mcharness._solve

    def fails_in_second_job(cfg, start, stop):
        if start >= 256:
            raise DomainError("planted in the second job")
        return real(cfg, start, stop)

    monkeypatch.setattr(mcharness, "_solve", fails_in_second_job)
    # another seed, so that rows of this run differ from the previous ones
    assert cli.main([*mc_args(cfg, out), "--seed", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: planted in the second job\n"
    assert captured.out == ""
    for name, old in zip(_MC_FILES, before):
        helpers.assert_same_text((out / name).read_bytes(), old)
    assert sorted(os.listdir(out)) == sorted(_MC_FILES)   # no temporary file
    helpers.assert_no_child_processes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_killed_run_over_a_finished_one_leaves_its_files_as_they_were(tmp_path, threads):
    cfg, out = write_config(tmp_path), tmp_path / "out"
    env = {"BIOCTL_THREADS": threads}
    assert run_cli(*mc_args(cfg, out), env_extra=env).returncode == 0
    before = [(out / name).read_bytes() for name in _MC_FILES]
    tmp = out / "mc_records.csv.tmp"
    # a run of many seconds, killed once it has written rows
    proc = subprocess.Popen(
        [sys.executable, "-m", "bioctl", "montecarlo", "--config", cfg,
         "--out", str(out), "--trials", "3000000"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=dict(os.environ, **env))
    try:
        deadline = time.monotonic() + 60
        while not (tmp.exists() and tmp.stat().st_size > 0):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == -signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert tmp.exists()   # the one stray a killed run can leave
    for name, old in zip(_MC_FILES, before):
        helpers.assert_same_text((out / name).read_bytes(), old)
    res = run_cli("plot", "--config", cfg, "--out", str(out), env_extra=env)
    assert res.returncode == 0
    assert parse_kv(res.stdout)["points"] == "800"
    # the next run reuses the stray and leaves none
    assert run_cli(*mc_args(cfg, out), env_extra=env).returncode == 0
    assert not tmp.exists()
    for name, old in zip(_MC_FILES, before):
        helpers.assert_same_text((out / name).read_bytes(), old)


def test_unopenable_temporary_file_is_named_and_keeps_the_previous_run(
        tmp_path, capsys, monkeypatch):
    # the two CSVs are one commit: a run with other trials whose envelope
    # cannot be written leaves the previous run's pair byte for byte
    cfg = write_config(tmp_path)
    for threads in ("1", "2"):
        monkeypatch.setenv("BIOCTL_THREADS", threads)
        out = tmp_path / f"out-{threads}"
        assert cli.main(list(mc_args(cfg, out))) == 0
        before = [(out / name).read_bytes() for name in _MC_FILES]
        capsys.readouterr()
        tmp = out / "mc_envelope.csv.tmp"
        tmp.mkdir()   # a stray left by hand or by another tool
        assert cli.main([*mc_args(cfg, out), "--seed", "7"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {tmp}: Is a directory\n"
        assert captured.out == ""
        for name, old in zip(_MC_FILES, before):
            helpers.assert_same_text((out / name).read_bytes(), old)
        assert sorted(os.listdir(out)) == sorted([*_MC_FILES, tmp.name])
        assert tmp.is_dir()
        helpers.assert_no_child_processes()


@pytest.mark.parametrize("argv", [
    ["montecarlo", "--trials", "100"], ["robustness"], ["optimize", "--z0", "2.0"],
    ["simulate", "--x0", "1.0"], ["plot"]])
def test_out_that_is_a_file_is_a_config_error(tmp_path, capsys, argv):
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    code = cli.main([argv[0], "--config", write_config(tmp_path), *argv[1:],
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"config error: --out {out}: not a usable directory")
    assert captured.out == ""
    assert out.read_text() == "keep me\n"


@pytest.mark.parametrize("argv, name", [
    (["montecarlo", "--trials", "100"], "mc_envelope.csv"),
    (["robustness"], "robust_bound.csv"),
    (["optimize", "--z0", "2.0"], "period_sweep.csv"),
    (["simulate", "--x0", "1.0"], "trajectory.csv"),
    (["plot"], "envelope.svg"),
    (["montecarlo", "--trials", "100"], "mc_sample.csv"),
])
def test_unwritable_output_file_is_a_clean_error(tmp_path, argv, name):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    if argv[0] == "plot":
        assert run_cli(*mc_args(cfg, out)).returncode == 0
    (out / name).mkdir(parents=True)
    res = run_cli(argv[0], "--config", cfg, *argv[1:], "--out", str(out))
    assert res.returncode == 1
    assert res.stderr == f"error: cannot write {out / name}: Is a directory\n"
    assert res.stdout == ""
    assert (out / name).is_dir()


class _DiskFull:
    """A file open for writing that takes its first 64 bytes (past every
    CSV header) and then fails as a full disk does."""

    def __init__(self, fh):
        self._fh, self._room = fh, 64

    def write(self, data):
        if len(data) > self._room:
            self._fh.write(data[:self._room])
            self._room = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._room -= len(data)
        return self._fh.write(data)

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--x0", "1.0"], "trajectory.csv"),
    (["optimize", "--z0", "2.0"], "period_sweep.csv"),
    (["robustness"], "robust_bound.csv"),
    (["montecarlo", "--trials", "800"], "mc_records.csv"),
    (["montecarlo", "--trials", "800"], "mc_envelope.csv"),
    (["plot"], "envelope.svg"),
    (["montecarlo", "--trials", "800"], "mc_sample.csv"),
])
def test_disk_full_leaves_no_partial_file_and_no_stdout(tmp_path, capsys, monkeypatch,
                                                        argv, name):
    monkeypatch.setenv("BIOCTL_THREADS", "2")
    monkeypatch.setattr(forkpool, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(mcharness, "_CSV_ROWS", 256)   # four records jobs
    cfg = write_config(tmp_path, sim={"t_end": 10.0})
    out = tmp_path / "out"
    if argv[0] == "plot":
        assert cli.main(list(mc_args(cfg, out))) == 0
        capsys.readouterr()
    real_open = open

    def disk_full(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(path) == name + ".tmp":
            return _DiskFull(fh)
        return fh

    monkeypatch.setattr("builtins.open", disk_full)
    code = cli.main([argv[0], "--config", cfg, *argv[1:], "--out", str(out)])
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: writing {out / name} failed (OSError: ")
    assert captured.out == ""
    assert not (out / name).exists()
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]
    helpers.assert_no_child_processes()   # the closed pool's workers are gone


# --------------------------------------------------------------------------
# the CSV artifacts against the former csv.writer writers

_SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1,
             1.0 / 3.0]


def _specials(n, shift=0):
    return np.roll(np.resize(_SPECIALS, n), shift)


def _optimize_sweep(tmp_path, monkeypatch, z0, plant):
    """Run optimize in process; with plant, worst_invasion returns special
    values.  Returns the periods and worst cases it wrote."""
    written = []
    real = planner.worst_invasion

    def recorded(p, z0):
        report = real(p, z0)
        if plant:
            k = len(written)
            report = SimpleNamespace(pi_max=_SPECIALS[k % 9],
                                     deviation=_SPECIALS[(k + 4) % 9])
        written.append((p.T, report))
        return report

    monkeypatch.setattr(planner, "worst_invasion", recorded)
    assert cli.main(["optimize", "--config", write_config(tmp_path), "--z0", z0,
                     "--out", str(tmp_path / "out")]) == 0
    return [T for T, _ in written], [report for _, report in written]


@pytest.mark.parametrize("artifact", [
    "trajectory", "period_sweep", "period_sweep_header_only", "robust_bound",
    "mc_envelope"])
def test_csv_bytes_match_the_csv_writer_reference(tmp_path, capsys, monkeypatch,
                                                  artifact):
    out, old = tmp_path / "out", tmp_path / "reference.csv"
    if artifact == "trajectory":
        traj = impulsim.Trajectory(
            _specials(9), _specials(9, 1), _specials(9, 2),
            impulses=[(0.1, 0.0, -math.inf), (-0.0, 1.0, math.nan),
                      (5e-324, 1.0, 5e-324)])
        new = tmp_path / "trajectory.csv"
        impulsim.trajectory_to_csv(traj, new)
        helpers.csv_trajectory(traj, old)
    elif artifact.startswith("period_sweep"):
        # z0 = 20 puts n0 at 15 >= 10 and leaves no period to sweep
        z0 = "20.0" if artifact.endswith("header_only") else "3.0"
        periods, worst = _optimize_sweep(tmp_path, monkeypatch, z0,
                                         plant=z0 == "3.0")
        assert len(periods) == (0 if z0 == "20.0" else 8)
        new = out / "period_sweep.csv"
        helpers.csv_period_sweep(periods, worst, old)
    elif artifact == "robust_bound":
        seen = []

        def planted(Ts, box, mu):
            seen.append(Ts)
            return _specials(len(Ts))

        monkeypatch.setattr(planner, "robust_envelope", planted)
        assert cli.main(["robustness", "--config", write_config(tmp_path),
                         "--out", str(out)]) == 0
        t_lower, _ = planner.t_limits(
            planner.UncertaintyBox(1.0, 5.0, 1.0, 1.0, 1.0, 1.0), 2.0)
        new = out / "robust_bound.csv"
        helpers.csv_robust_bound(seen[0], _specials(200), t_lower, old)
    else:
        report = mcharness.EnvelopeReport(
            0, 1.0, *(_specials(9, k) for k in (0, 2, 5, 7)),
            count=np.array([0, 1, 7, 2 ** 40, 3, 0, 12, 5, 9]),
            coverage_ratio=np.full(9, math.nan))
        new = tmp_path / "mc_envelope.csv"
        tables.write({new: mcharness._envelope_chunks(report)})
        helpers.csv_envelope(report, old)
    helpers.assert_same_text(new.read_bytes(), old.read_bytes())


def test_trajectory_in_row_chunks_matches_the_csv_writer_reference(tmp_path):
    # more rows than one pass of tables.row_chunks; samples at signed zeros,
    # nan and one time twice; releases at those times, and two releases at
    # one time (the last one's level is written)
    rng = np.random.default_rng(3)
    ts = rng.uniform(0.0, 1.0, 10_000)
    ts[[100, 200, 300, 5001]] = -0.0, 0.0, math.nan, ts[5000]
    ts2 = ts.tolist()
    impulses = [(t, 0.0, 2.0 * t) for t in ts2[7::97]]
    impulses += [(0.0, 1.0, 1.5), (ts2[5000], 1.0, 2.5), (ts2[5000], 1.0, 3.5),
                 (math.nan, 1.0, 4.5)]
    traj = impulsim.Trajectory(ts, rng.uniform(size=ts.size),
                               rng.uniform(size=ts.size), impulses=impulses)
    new, old = tmp_path / "trajectory.csv", tmp_path / "reference.csv"
    impulsim.trajectory_to_csv(traj, new)
    helpers.csv_trajectory(traj, old)
    helpers.assert_same_text(new.read_bytes(), old.read_bytes())
    # a release row per sampled random time, two at 0.0 and two at ts[5000]
    assert len(new.read_bytes().splitlines()) == 1 + ts.size + 104 + 2 + 2


def test_unreadable_sample_csv_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "mc_sample.csv").mkdir(parents=True)
    code = cli.main(["plot", "--config", write_config(tmp_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"config error: {out / 'mc_sample.csv'}: Is a directory\n"


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


def _stride(n):
    """The least power of two g with ceil(n / g) <= mcharness._SAMPLE_POINTS:
    plot draws every g-th of n trials."""
    g = 1
    while -(-n // g) > mcharness._SAMPLE_POINTS:
        g *= 2
    return g


def _row_by_row_plot(cfg, records):
    """The points and the envelope.svg of the reader cmd_plot had before it
    read the columns with numpy, drawing every g-th trial of the records
    that did not fail."""
    with open(records, newline="") as fh:
        rows = list(csv.DictReader(fh))
    g = _stride(len(rows))
    Ts = [float(row["T"]) for row in rows[::g] if row["failed"] == "0"]
    devs = [float(row["deviation"]) for row in rows[::g] if row["failed"] == "0"]
    box = cli._build_box(cli.load_config(cfg))
    t_upper, _ = planner.t_limits(box, 2.0)
    curve_x = np.array([t_upper * (i + 1) / 201 for i in range(200)])
    curve_y = planner.envelope_bound_curve(curve_x, box, 2.0)
    return sum(row["failed"] == "0" for row in rows), cli.render_scatter_svg(
        Ts, devs, curve_x, curve_y,
        title="Damage-time deviation vs release period",
        x_label="release period T", y_label="Pi - T1")


@pytest.fixture(params=["1", "2"])
def workers(request, monkeypatch):
    """montecarlo at BIOCTL_THREADS 1 and 2."""
    monkeypatch.setenv("BIOCTL_THREADS", request.param)
    monkeypatch.setattr(forkpool, "_usable_cpus", lambda: 2)


def _plot_matches_row_by_row_reader(cfg, out, capsys):
    points, expected = _row_by_row_plot(cfg, out / "mc_records.csv")
    capsys.readouterr()
    assert cli.main(["plot", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"points={points}\nsvg={out / 'envelope.svg'}\n"
    helpers.assert_same_text((out / "envelope.svg").read_text(), expected)
    return points


def test_plot_matches_row_by_row_reader(tmp_path, capsys):
    # 20k trials, five jobs, every eighth trial drawn
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["montecarlo", "--config", cfg, "--out", str(out),
                     "--trials", "20000"]) == 0
    assert _plot_matches_row_by_row_reader(cfg, out, capsys) == 20000


@pytest.mark.parametrize("engine", ["closed", "full"])
def test_plot_of_a_run_matches_row_by_row_reader(tmp_path, capsys, monkeypatch,
                                                 workers, engine):
    # 20k closed trials are five jobs, with every eighth trial drawn; 600
    # full-engine trials are three, with every 16th drawn of at most 50
    trials = {"closed": "20000", "full": "600"}[engine]
    if engine == "full":
        monkeypatch.setattr(mcharness, "_SAMPLE_POINTS", 50)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["montecarlo", "--config", cfg, "--out", str(out),
                     "--engine", engine, "--trials", trials]) == 0
    assert _plot_matches_row_by_row_reader(cfg, out, capsys) == int(trials)
    helpers.assert_no_child_processes()


def _plant_failures(monkeypatch, cfg, n_trials, failing):
    """Make damage_time_full fail on the full-engine trials whose index is
    in failing, among the n_trials of the reference run of cfg."""
    box = cli._build_box(cli.load_config(cfg))
    t_upper = mcharness.scatter_t_upper(box, 2.0)
    Ts = mcharness.stream_uniforms(0, np.arange(0, 3 * n_trials, 3)) * t_upper
    doomed = {float(Ts[i]) for i in failing}
    real = impulsim.damage_time_full

    def flaky(kernels, program, *args, **kwargs):
        if program.T in doomed:
            raise impulsim.IntegrationError("planted")
        return real(kernels, program, *args, **kwargs)

    monkeypatch.setattr(impulsim, "damage_time_full", flaky)


@pytest.mark.parametrize("max_points", [4000, 333, 50])
def test_plot_streams_every_stride_th_point_across_range_cuts(
        tmp_path, capsys, monkeypatch, workers, max_points):
    # plot draws the trials whose index is a multiple of g, but for the
    # failed ones; the picks come from three jobs of 256 trials, and every
    # seventh trial fails, some of them picked
    monkeypatch.setattr(mcharness, "_SAMPLE_POINTS", max_points)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    failing = range(0, 600, 7)
    _plant_failures(monkeypatch, cfg, 600, failing)
    assert cli.main(["montecarlo", "--config", cfg, "--out", str(out),
                     "--engine", "full", "--trials", "600"]) == 0
    assert parse_kv(capsys.readouterr().out)["failed"] == str(len(failing))
    with open(out / "mc_records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    g = _stride(600)
    picked = [row for row in rows[::g] if int(row["trial"]) not in failing]
    drawn = []
    render = cli.render_scatter_svg
    monkeypatch.setattr(cli, "render_scatter_svg",
                        lambda xs, ys, *rest, **kw: drawn.append((xs, ys))
                        or render(xs, ys, *rest, **kw))
    assert cli.main(["plot", "--config", cfg, "--out", str(out)]) == 0
    assert parse_kv(capsys.readouterr().out)["points"] == str(600 - len(failing))
    (xs, ys), = drawn
    assert g == {4000: 1, 333: 2, 50: 16}[max_points]
    assert xs.tolist() == [float(row["T"]) for row in picked]
    assert ys.tolist() == [float(row["deviation"]) for row in picked]
    assert all(row["failed"] == "0" for row in picked)
    _, expected = _row_by_row_plot(cfg, out / "mc_records.csv")
    helpers.assert_same_text((out / "envelope.svg").read_text(), expected)
    helpers.assert_no_child_processes()


@pytest.mark.parametrize("n, stride", [
    (0, 1), (1, 1), (4000, 1), (4001, 2), (8000, 2), (8001, 4),
    *((4000 * 2 ** k + d, 2 ** k + (d > 0) * 2 ** k) for k in range(1, 21)
      for d in (-1, 0, 1))])
def test_plot_stride_is_the_least_power_of_two_that_fits(n, stride):
    assert _stride(n) == mcharness._sample_stride(n) == stride
    assert -(-n // stride) <= mcharness._SAMPLE_POINTS
    assert stride == 1 or -(-n // (stride // 2)) > mcharness._SAMPLE_POINTS


def test_scatter_circles_match_per_point_formatting():
    rng = np.random.default_rng(11)
    w_in = cli._SVG_W - 2 * cli._SVG_PAD
    h_in = cli._SVG_H - 2 * cli._SVG_PAD
    for n in (1, 7, 4000, 9001):
        xs = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        ys = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        curve_x = np.linspace(-1.0, 2.0, 50)
        curve_y = rng.standard_normal(50)
        svg = cli.render_scatter_svg(xs, ys, curve_x, curve_y, "t", "x", "y")
        # the renderer's arithmetic and f-strings, one point at a time
        px, py = xs.tolist(), ys.tolist()
        x_lo, x_hi = min(px + curve_x.tolist() + [0.0]), max(px + curve_x.tolist() + [1.0])
        y_lo, y_hi = min(py + curve_y.tolist() + [0.0]), max(py + curve_y.tolist() + [1.0])
        y_pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
        want = [f'<circle cx="{cli._SVG_PAD + (x - x_lo) / (x_hi - x_lo) * w_in:.2f}" '
                f'cy="{cli._SVG_H - cli._SVG_PAD - (y - y_lo) / (y_hi - y_lo) * h_in:.2f}" '
                'r="1.5" fill="#4878a8" fill-opacity="0.35"/>' for x, y in zip(px, py)]
        assert [line for line in svg.splitlines() if line.startswith("<circle")] == want


def test_plot_memory_does_not_grow_with_the_trial_count(tmp_path, capsys, monkeypatch):
    # in this process, so tracemalloc sees all it allocates
    monkeypatch.setenv("BIOCTL_THREADS", "1")
    cfg = write_config(tmp_path)
    peaks = []
    for n_trials in (40_000, 160_000):
        out = tmp_path / str(n_trials)
        assert cli.main(["montecarlo", "--config", cfg, "--out", str(out),
                         "--trials", str(n_trials)]) == 0
        tracemalloc.start()
        try:
            assert cli.main(["plot", "--config", cfg, "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert abs(peaks[1] - peaks[0]) < 2 ** 20


def test_plot_of_a_bad_number_in_a_later_range_exits_2(tmp_path, capsys, workers):
    # the sample's rows come from five jobs; the bad field is in the fourth's
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["montecarlo", "--config", cfg, "--out", str(out),
                     "--trials", "20000"]) == 0
    capsys.readouterr()
    sample = out / "mc_sample.csv"
    lines = sample.read_bytes().split(b"\n")
    T, _ = lines[2 + 12288 // 8].split(b",")
    lines[2 + 12288 // 8] = T + b",1.5e"    # the deviation of trial 12288
    sample.write_bytes(b"\n".join(lines))
    assert cli.main(["plot", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"config error: {sample}: could not convert string "
                            "'1.5e' to float64 at row 1536, column 2.\n")
    assert captured.out == ""
    assert not (out / "envelope.svg").exists()


def test_plot_of_header_only_records_has_no_points(tmp_path, capsys):
    # every trial of this run fails (see
    # test_full_trial_whose_density_rounds_to_eil_fails_alone), so its
    # sample is its two header lines
    cfg, out = write_config(tmp_path, {"box.z0": [1e-17, 2e-17]}), tmp_path / "out"
    assert cli.main(["montecarlo", "--config", cfg, "--out", str(out),
                     "--engine", "full", "--trials", "300"]) == 1
    assert (out / "mc_sample.csv").read_text() == "# points=0\nT,deviation\n"
    capsys.readouterr()
    assert cli.main(["plot", "--config", cfg, "--out", str(out)]) == 0
    assert parse_kv(capsys.readouterr().out)["points"] == "0"
    svg = (out / "envelope.svg").read_text()
    assert "<polyline" in svg and "<circle" not in svg


_NOT_A_SAMPLE = ("not a montecarlo sample (its first lines must be "
                 "'# points=<n>' and 'T,deviation')")


@pytest.mark.parametrize("sample, message", [
    (b"# points=1\nT\n0.5\n", _NOT_A_SAMPLE),
    (b"trial,T,t0,z0,Pi,T1,deviation,engine,failed\n0,0.5,0.1,2,3,2,1,closed,0\n",
     _NOT_A_SAMPLE),
    (b"# points=2\nT,deviation\n0.5,1\nabc,1\n",
     "could not convert string 'abc' to float64 at row 1, column 1."),
    (b"# points=1\nT\xff,deviation\n0.5,1\n", _NOT_A_SAMPLE),
    (b"# points=1\nT,deviation\n0.5\xff,1\n",
     "'utf-8' codec can't decode byte 0xff in position 3: invalid start byte"),
    *((points + b"T,deviation\n0.5,1\n", _NOT_A_SAMPLE) for points in (
        b"", b"# points=-1\n", b"# points=1.5\n", b"# points=\n", b"# points=1")),
], ids=["no-deviation", "no-columns", "bad-number", "not-utf8-header", "not-utf8-row",
        "no-points", "negative-points", "fractional-points", "empty-points",
        "points-without-newline"])
def test_plot_of_unreadable_records_exits_2(tmp_path, capsys, sample, message):
    # the records plot reads are the sample montecarlo kept
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "mc_sample.csv").write_bytes(sample)
    assert cli.main(["plot", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {out / 'mc_sample.csv'}: {message}\n"
    assert captured.out == ""
    assert not (out / "envelope.svg").exists()


def test_plot_does_not_read_the_thread_count(tmp_path, capsys, monkeypatch):
    # plot reads one small file in this process and starts no pool
    cfg, out = write_config(tmp_path), tmp_path / "out"
    assert cli.main(list(mc_args(cfg, out))) == 0
    capsys.readouterr()
    monkeypatch.setenv("BIOCTL_THREADS", "0")
    assert cli.main(["plot", "--config", cfg, "--out", str(out)]) == 0
    assert parse_kv(capsys.readouterr().out)["points"] == "800"


def test_plot_without_records_is_a_config_error(tmp_path, capsys):
    # an empty --out, and the --out of a run that kept no sample, as a run
    # of an older version did
    cfg = write_config(tmp_path)
    old = tmp_path / "old"
    assert cli.main(list(mc_args(cfg, old))) == 0
    (old / "mc_sample.csv").unlink()
    capsys.readouterr()
    for out in (tmp_path / "empty", old):
        assert cli.main(["plot", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: {out / 'mc_sample.csv'}: not found "
                                "(rerun montecarlo with the same --out to write it)\n")
        assert captured.out == ""
        assert not (out / "envelope.svg").exists()
