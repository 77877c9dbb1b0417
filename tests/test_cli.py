"""End-to-end checks of the command line front end.

Every test shells out through ``python3 -m bioctl`` so the argparse wiring,
config loading and exit codes are exercised exactly as a user would hit them.
Numeric output is compared against direct module calls: the CLI must stay a
thin adapter with no arithmetic of its own.
"""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from bioctl import cli, planner
from bioctl.impulsim import AtOrbit, damage_time_full
from bioctl.kernels import (
    HollingII,
    KernelSet,
    Logistic,
    Proportional,
    validate_kernels,
)
from bioctl.orbit import ReleaseProgram, floquet_multipliers

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


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "bioctl", *argv],
        capture_output=True, text=True, env=env)


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
        k, ReleaseProgram(2.0, 0.15), 5.0, 0.1, y_policy=AtOrbit())
    assert float(kv["pi_z"]) == pytest.approx(pi_z, rel=1e-12)
    assert float(kv["pi_full"]) == pytest.approx(pi_full, rel=1e-12)
    assert float(kv["crossing_t"]) == pytest.approx(t_cross, rel=1e-12)
    assert kv["bound_ok"] == "true"
    assert float(kv["pi_full"]) <= float(kv["pi_z"]) + 1e-6


def test_damage_default_period_exceeds_ceiling(tmp_path):
    # with the reference budget the conservative model only certifies
    # periods below ~0.207, so the configured T=0.5 must be refused
    res = run_cli("damage", "--config", write_config(tmp_path), "--x0", "5.0")
    assert res.returncode == 1
    assert "error:" in res.stderr


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


def test_plot_without_records_is_a_config_error(tmp_path):
    res = run_cli("plot", "--config", write_config(tmp_path),
                  "--out", str(tmp_path / "empty"))
    assert res.returncode == 2
    assert "config error" in res.stderr
