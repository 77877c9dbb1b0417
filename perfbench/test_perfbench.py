"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import copy
import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def reference():
    return json.loads((ROOT / workloads.REFERENCE).read_text())


# --------------------------------------------------------------------------
# span arithmetic


def test_self_time_subtracts_nested_children():
    s = [
        (0, -1, "cli.main", 0.0, 10.0, None),
        (1, 0, "mcharness.run_mc", 1.0, 4.0, None),
        (2, 1, "planner.t_limits", 1.5, 2.0, None),
        (3, 0, "mcharness.write_records_csv", 5.0, 9.0, None),
    ]
    selfs = spans.self_times(s)
    assert selfs == pytest.approx({0: 3.0, 1: 2.5, 2: 0.5, 3: 4.0})
    agg = spans.aggregate(s)
    assert agg["mcharness.run_mc"]["self_s"] == pytest.approx(2.5)
    assert agg["cli.main"]["total_s"] == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # children on two threads overlap; a child running past its parent's
    # end is clipped to the parent
    s = [
        (0, -1, "a", 0.0, 10.0, None),
        (1, 0, "b", 2.0, 6.0, None),
        (2, 0, "b", 4.0, 8.0, None),
        (3, 0, "c", 9.0, 12.0, None),
    ]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_coverage_uses_root_spans_inside_the_window():
    s = [
        (0, -1, "cli.main", 1.0, 5.0, None),
        (1, 0, "x", 2.0, 3.0, None),
        (2, -1, "cli.main", 6.0, 9.0, None),
    ]
    assert spans.coverage(s, 2.0, 10.0) == pytest.approx((3.0 + 3.0) / 8.0)


def test_parse_importtime_sums_top_level_bioctl_and_outermost_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        10 |        110 |   numpy",
        "import time:       300 |        300 |       scipy._lib",
        "import time:        50 |        350 |     scipy",
        "import time:       400 |        400 |     scipy.integrate._ode",
        "import time:        50 |        800 |   scipy.integrate",
        "import time:       200 |        200 |     scipy.linalg",
        "import time:         5 |        205 |   bioctl.kernels",
        "import time:       125 |       1240 | bioctl",
        "import time:        70 |       1100 | bioctl.cli",
    ])
    got = spans.parse_importtime(text)
    assert got["import.bioctl_cli_s"] == pytest.approx(2340e-6)
    # scipy itself is nested in scipy.integrate; scipy.linalg sits under bioctl
    assert got["import.scipy_s"] == pytest.approx((800 + 200) * 1e-6)


def test_layer_metrics_counts_failures_and_ratios():
    s = [
        (0, -1, "cli.main", 0.0, 1.0, None),
        (1, 0, "impulsim.damage_time_full", 0.1, 0.3, None),
        (2, 1, "impulsim.solve_ivp", 0.1, 0.2, None),
        (3, 0, "impulsim.damage_time_full", 0.4, 0.5, "HorizonExceededError"),
        (4, 3, "impulsim.solve_ivp", 0.4, 0.45, None),
        (5, 3, "impulsim.solve_ivp", 0.45, 0.5, None),
    ]
    m = spans.layer_metrics(s, {"kernels.rate": 7}, trials=2, rows=0)
    assert m["impulsim.damage_time_full.calls"] == 2
    assert m["impulsim.solve_ivp.calls_per_trial"] == 1.5
    assert m["impulsim.failures.horizon"] == 1
    assert m["kernels.rate.calls"] == 7
    assert m["impulsim.damage_time_full.self_s"] == pytest.approx(0.1)


# --------------------------------------------------------------------------
# output checks


@pytest.fixture(scope="module")
def bioctl_mc():
    sys.path.insert(0, str(ROOT / "src"))
    from bioctl import mcharness
    return mcharness


def _records(mcharness, cfg, tmp_path, engine, trials):
    from bioctl.cli import _build_box, build_kernels, _build_eil
    kwargs = {}
    if engine == "full":
        kwargs = dict(kernels=build_kernels(cfg), eil=_build_eil(cfg))
    mc = mcharness.McConfig(box=_build_box(cfg), mu=cfg["program"]["mu"],
                            n_trials=trials, seed=5, engine=engine, **kwargs)
    path = tmp_path / f"{engine}.csv"
    mcharness.write_records_csv(mcharness.run_mc(mc), path)
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _scale_pi(rows, index, factor):
    rows = copy.deepcopy(rows)
    rows[index]["Pi"] = repr(float(rows[index]["Pi"]) * factor)
    return rows


def test_closed_oracle_accepts_package_output_and_rejects_corruption(bioctl_mc, tmp_path):
    cfg = reference()
    rows = _records(bioctl_mc, cfg, tmp_path, "closed", 64)
    assert workloads.check_records_oracle(rows, cfg, seed=1) == []
    assert workloads.check_records_oracle(_scale_pi(rows, 10, 1 + 1e-5), cfg, seed=1)
    failed = copy.deepcopy(rows)
    failed[3]["failed"] = "1"
    assert workloads.check_records_oracle(failed, cfg, seed=1)


def test_full_oracle_accepts_package_output_and_rejects_corruption(bioctl_mc, tmp_path):
    cfg = reference()
    rows = _records(bioctl_mc, cfg, tmp_path, "full", 8)
    assert workloads.check_full_oracle(rows, cfg, seed=1) == []
    assert workloads.check_full_oracle(_scale_pi(rows, 2, 1 + 1e-5), cfg, seed=1)


def test_identical_outputs_check_rejects_one_changed_byte(tmp_path):
    dirs = []
    for i in range(3):
        d = tmp_path / str(i)
        d.mkdir()
        (d / workloads.RECORDS).write_text("trial,T\n0,0.5\n")
        dirs.append((str(d), "", 0))
    assert workloads._identical(dirs, workloads.RECORDS) == []
    (tmp_path / "2" / workloads.RECORDS).write_text("trial,T\n0,0.6\n")
    assert workloads._identical(dirs, workloads.RECORDS)


def _robust_rows(cfg, T_L):
    mu, sg, mm = cfg["program"]["mu"], cfg["box"]["sigma"][1], cfg["box"]["m"][1]
    rows = []
    for i in range(1, 11):
        T = 0.1 * i
        corner = oracles.robust_corner_bound(T, mu, sg, mm)
        below = T < T_L
        rows.append({"T": repr(T), "bound": repr(corner if below else 0.9 * corner),
                     "T_L_flag": "1" if below else "0"})
    return rows


def test_robust_check_rejects_rows_off_the_corner_value():
    cfg = workloads.WORKLOADS["robust-box"].config(reference(), 0)
    rows = _robust_rows(cfg, T_L=0.75)
    assert workloads.check_robust_rows(rows, cfg) == []
    above = copy.deepcopy(rows)
    above[-1]["bound"] = repr(1.01 * oracles.robust_corner_bound(
        1.0, cfg["program"]["mu"], cfg["box"]["sigma"][1], cfg["box"]["m"][1]))
    assert workloads.check_robust_rows(above, cfg)
    off = copy.deepcopy(rows)
    off[0]["bound"] = repr(float(off[0]["bound"]) * (1 + 1e-9))
    assert workloads.check_robust_rows(off, cfg)
    nan = copy.deepcopy(rows)
    nan[5]["bound"] = "nan"
    assert workloads.check_robust_rows(nan, cfg)


# --------------------------------------------------------------------------
# generated inputs and the result contract


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    ref = reference()
    assert wl.config(ref, 7) == wl.config(copy.deepcopy(ref), 7)
    assert wl.target("c.json", "out", 7) == wl.target("c.json", "out", 7)
    assert wl.config(ref, 7) != wl.config(ref, 8)


def test_declared_metrics_exist_with_their_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e_units = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
    for m in spec["end_to_end"]:
        assert e2e_units[m["name"]] == m["unit"]
    produced = set(spans.layer_metrics([], {}, trials=0, rows=0)) | {
        "import.bioctl_cli_s", "import.scipy_s", "mcharness.write_records_csv.bytes",
        "mcharness.write_records_csv.mb_per_s", "mcharness.failed_trials",
        "mcharness.run_mc.peak_alloc_mb", "trace.overhead_s", "trace.coverage",
        "trace.spans"}
    for m in spec["per_layer"]:
        assert m["name"] in produced
        assert run.unit_of(m["name"]) == m["unit"]


def test_traced_child_records_calls_made_through_cli(tmp_path):
    report = tmp_path / "report"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--src", str(ROOT / "src"),
         "--report", str(report), "--trace", "--", "cli", "validate",
         "--config", str(ROOT / workloads.REFERENCE)],
        check=True, capture_output=True, timeout=120)
    import marshal
    with open(report, "rb") as fh:
        got = marshal.load(fh)
    by_name = {}
    for sid, parent, name, start, end, err in got["spans"]:
        by_name.setdefault(name, []).append((sid, parent))
    (main_id, main_parent), = by_name["cli.main"]
    assert main_parent == -1
    # cli imported validate_kernels by name; the wrapper still sees the call
    assert [p for _, p in by_name["kernels.validate_kernels"]] == [main_id]
    assert by_name["cli.load_config"][0][1] == main_id
    assert got["counters"]["kernels.rate"] > 0
    assert got["t_setup"] > 0 and got["rc"] == 0
    assert got["peak_rss_kb"] > 10_000
