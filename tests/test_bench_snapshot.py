"""scripts/bench_snapshot.py on a canned ``perfbench/run.py`` output: the
schema of BENCH_<n>.json, with no benchmark run."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_snapshot.py"
_spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
bench_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_snapshot)

INFO = {"commit": "0123abcd", "cpu": "Some CPU", "l2_cache": "2048K", "l3_cache": None,
        "nproc": 2, "numpy": "2.4.6", "python": "3.11.7", "scipy": "1.17.1",
        "src_lines": 3350}
METRICS = {"setup_s": (0.143372, "s"), "wall_s": (0.366255, "s"),
           "items_per_s": (921846.7, "1/s"), "peak_rss_mb": (33.5078, "MB")}

#: run.py's stdout for one workload, as it prints it
CANNED = f"""\
info {json.dumps(INFO, sort_keys=True)}
workload mc-closed seed 100: 11 invocations, BIOCTL_THREADS=2
  items_per_s                                      921847 1/s      median of 11, range 755169..1.02212e+06
  peak_rss_mb                                     33.5078 MB       median of 11, range 32.9219..34.0781
  setup_s                                        0.143372 s        median of 14, range 0.126335..0.19916
  wall_s                                         0.366255 s       \x20
  error_rate                                            0 ratio    (0 of 2200000 items)
  output checks passed
{json.dumps({"correct": True, "attempted": 2200000, "failed": 0,
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in METRICS.items()}})}
"""


def test_a_run_is_parsed_with_its_sample_counts_and_ranges():
    run = bench_snapshot.parse_run(CANNED)
    assert run["info"] == INFO
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 2200000, 0)
    assert set(run["metrics"]) == set(METRICS)
    for name, (value, unit) in METRICS.items():
        m = run["metrics"][name]
        assert set(m) == {"value", "unit", "samples", "min", "max"}
        assert (m["value"], m["unit"]) == (value, unit)
        assert m["min"] <= m["value"] <= m["max"]
    assert run["metrics"]["items_per_s"] | {"value": 0} == {
        "value": 0, "unit": "1/s", "samples": 11, "min": 755169.0, "max": 1.02212e6}
    assert run["metrics"]["setup_s"]["samples"] == 14
    # one sample: no range printed, the value is its own range
    assert run["metrics"]["wall_s"] | {"value": 0} == {
        "value": 0, "unit": "s", "samples": 1, "min": 0.366255, "max": 0.366255}


@pytest.mark.parametrize("drop", ["info {", "  setup_s", '{"correct"'])
def test_a_run_missing_a_line_is_refused(drop):
    canned = "".join(line for line in CANNED.splitlines(keepends=True)
                     if not line.startswith(drop))
    with pytest.raises(ValueError):
        bench_snapshot.parse_run(canned)


def test_the_snapshot_schema():
    runs = {w: bench_snapshot.parse_run(CANNED) for w in bench_snapshot.WORKLOADS}
    doc = json.loads(json.dumps(bench_snapshot.snapshot(runs)))
    assert set(doc) == {"work_tree_clean", "pythondontwritebytecode", "command",
                        "machine", "workloads"}
    assert doc["machine"] == INFO
    assert isinstance(doc["pythondontwritebytecode"], bool)
    assert doc["command"] == "perfbench/run.py --workload <w> --trace 0"
    assert list(doc["workloads"]) == ["mc-closed", "robust-box", "mc-full", "pipeline"]
    for run in doc["workloads"].values():
        assert set(run) == {"correct", "attempted", "failed", "metrics"}
        assert set(run["metrics"]) == set(METRICS)
