#!/usr/bin/env python3
"""bioctl benchmark: run one workload through the CLI and report metrics.

    python3 perfbench/run.py --workload mc-closed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all           # every workload, table

Every invocation is a fresh interpreter, spawned and reaped here, with
BIOCTL_THREADS pinned.  With ``--trace 0`` a run makes set-up probes, then
repeats the workload for about ``--seconds``, checks the outputs, and
prints the end-to-end metrics (medians over the invocations).  With
``--trace 1`` it makes an import-time pass, one untraced and one traced
invocation (and a tracemalloc pass where run_mc runs), checks the outputs,
re-running with BIOCTL_THREADS=1 where the check needs it, and prints the
per-layer metrics.  The last line of stdout of a single-workload run is
one JSON object: correct, attempted, failed, metrics.  Exit code 0 only
when every output check passed; 2 when run outside a bioctl checkout.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import (PIPELINE, RECORDS, REFERENCE, ROBUST,  # noqa: E402
                       WORKLOADS, stdout_values)

ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
SETUP_PROBES = 3
RUN_BUDGET_S = 170.0
#: BIOCTL_THREADS is min(MAX_THREADS, nproc), so runs on machines with more
#: cores stay comparable with the 2-CPU baseline
MAX_THREADS = 2


@dataclass
class Invocation:
    out_dir: str
    t_spawn: float
    wall_s: float
    setup_s: float
    rss_mb: float
    rc: int
    stdout: str
    report: dict


class Runner:
    """Spawns child interpreters for one benchmark run."""

    def __init__(self, run_dir: Path, cfg_path: Path, threads: int, deadline: float):
        self.run_dir = run_dir
        self.cfg_path = cfg_path
        self.threads = threads
        self.deadline = deadline
        self._n = 0

    def new_dir(self, tag: str) -> str:
        self._n += 1
        path = self.run_dir / f"{self._n:03d}-{tag}"
        path.mkdir()
        return str(path)

    def invoke(self, make_target, *, tag="run", trace=False, tracemalloc=False,
               threads=None) -> Invocation:
        """One child run of ``make_target(out_dir)``; times it from spawn to
        reaping.  Peak RSS is the child's own VmHWM, with wait4's
        ru_maxrss (an upper bound) where the child could not report it."""
        out_dir = self.new_dir(tag)
        report_path = os.path.join(out_dir, "child.report")
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
               "--report", report_path, "--config", str(self.cfg_path)]
        if trace:
            cmd.append("--trace")
        if tracemalloc:
            cmd.append("--tracemalloc")
        cmd += ["--", *make_target(out_dir)]
        env = dict(os.environ, BIOCTL_THREADS=str(threads or self.threads))
        stdout_path = os.path.join(out_dir, "child.stdout")
        stderr_path = os.path.join(out_dir, "child.stderr")
        with open(stdout_path, "w") as so, open(stderr_path, "w") as se:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - t_spawn), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t_exit = time.monotonic()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        report = {}
        if os.path.exists(report_path):
            with open(report_path, "rb") as fh:
                report = marshal.load(fh)
        with open(stdout_path) as fh:
            stdout = fh.read()
        if rc != 0:
            with open(stderr_path) as fh:
                sys.stderr.write(f"[{tag}] exit {rc}: {fh.read()[-2000:]}\n")
        elif not report.get("bioctl_file", "").startswith(str(SRC)):
            raise SystemExit(f"child imported bioctl from {report.get('bioctl_file')!r}, "
                             f"not from {SRC}")
        setup = report.get("t_setup", t_exit) - t_spawn
        rss_kb = report.get("peak_rss_kb") or usage.ru_maxrss
        return Invocation(out_dir, t_spawn, t_exit - t_spawn, setup, rss_kb / 1024.0,
                          rc, stdout, report)

    def import_times(self) -> dict:
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import bioctl.cli"
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise SystemExit(f"import of bioctl.cli failed:\n{proc.stderr[-2000:]}")
        return spans.parse_importtime(proc.stderr)


def machine_info() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor() or None,
            "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for level, index in (("l2", 2), ("l3", 3)):
        try:
            with open(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size") as fh:
                info[f"{level}_cache"] = fh.read().strip()
        except OSError:
            info[f"{level}_cache"] = None
    for mod in ("numpy", "scipy"):
        try:
            info[mod] = __import__(mod).__version__
        except ImportError:
            info[mod] = None
    info["commit"] = git_commit()
    info["src_lines"] = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return info


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def end_to_end(wl, probes, reps) -> dict:
    """Name -> (median, unit, samples) over the timed invocations; set-up
    time also over the set-up probes."""
    rates = [wl.items(r.out_dir, r.stdout, r.rc)[0] / (r.wall_s - r.setup_s)
             for r in reps]
    samples = {
        "setup_s": ([p.setup_s for p in probes] + [r.setup_s for r in reps], "s"),
        "wall_s": ([r.wall_s for r in reps], "s"),
        "items_per_s": (rates, "1/s"),
        "peak_rss_mb": ([r.rss_mb for r in reps], "MB"),
    }
    return {k: (statistics.median(v), unit, v) for k, (v, unit) in samples.items()}


def unit_of(name: str) -> str:
    for suffix, unit in ((".us_per_call", "us"), (".us_per_trial", "us"),
                         (".ms_p50", "ms"), (".ms_p95", "ms"), (".mb_per_s", "MB/s"),
                         ("_mb", "MB"), (".bytes", "B"), (".calls_per_row", "1/row"),
                         (".calls_per_trial", "1/trial"), (".coverage", "ratio"),
                         ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(wl, runner, seed, base, traced, imports) -> dict:
    """Per-layer metrics of the traced invocation, plus its import pass and
    (where run_mc runs) a separate tracemalloc pass."""
    report = traced.report
    trials = int(stdout_values(traced.stdout).get("trials", 0))
    robust_csv = os.path.join(traced.out_dir, ROBUST)
    rows = count_rows(robust_csv) if os.path.exists(robust_csv) else 0
    out = dict(imports)
    out.update(spans.layer_metrics(report.get("spans", []), report.get("counters", {}),
                                   trials=trials, rows=rows))
    records = os.path.join(traced.out_dir, RECORDS)
    size = os.path.getsize(records) if trials and os.path.exists(records) else 0
    write_s = out["mcharness.write_records_csv.self_s"]
    out["mcharness.write_records_csv.bytes"] = size
    out["mcharness.write_records_csv.mb_per_s"] = size / 1e6 / write_s if write_s else 0.0
    failed = wl.items(traced.out_dir, traced.stdout, traced.rc)[1]
    out["mcharness.failed_trials"] = failed if trials else 0
    peak = 0
    if out["mcharness.run_mc.self_s"] > 0:
        tm = runner.invoke(lambda d: wl.target(str(runner.cfg_path), d, seed),
                           tag="tracemalloc", tracemalloc=True)
        peak = tm.report.get("run_mc_peak_bytes", 0)
    out["mcharness.run_mc.peak_alloc_mb"] = peak / 2**20
    out["trace.overhead_s"] = traced.wall_s - base.wall_s
    t_setup = traced.t_spawn + traced.setup_s
    out["trace.coverage"] = spans.coverage(report.get("spans", []), t_setup,
                                           traced.t_spawn + traced.wall_s)
    out["trace.spans"] = len(report.get("spans", []))
    return {k: (v, unit_of(k), [v]) for k, v in out.items()}


def count_rows(path) -> int:
    with open(path) as fh:
        return max(0, sum(1 for _ in fh) - 1)


def run_workload(wl, seed: int, seconds: float, trace: bool, full_checks: bool) -> dict:
    reference = json.loads((ROOT / REFERENCE).read_text())
    cfg = wl.config(reference, seed)
    run_dir = RUNS_DIR / f"{wl.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    runner = Runner(run_dir, cfg_path, threads, time.monotonic() + RUN_BUDGET_S)

    def make(out_dir):
        return wl.target(str(cfg_path), out_dir, seed)

    if trace:
        imports = runner.import_times()
        base = runner.invoke(make, tag="untraced")
        traced = runner.invoke(make, tag="traced", trace=True)
        reps = [base, traced]
        metrics = per_layer(wl, runner, seed, base, traced, imports)
    else:
        probes = [runner.invoke(lambda _d: ["setup"], tag="setup")
                  for _ in range(SETUP_PROBES)]
        # repeat while another invocation would end nearer to the target
        # length than stopping now: a run then measures about --seconds
        # whether one invocation takes 5 s or 25 s
        reps = []
        start = time.monotonic()
        while len(reps) < wl.min_reps or (
                time.monotonic() - start
                + 0.5 * statistics.median(r.wall_s for r in reps) < seconds):
            reps.append(runner.invoke(make))
        metrics = end_to_end(wl, probes, reps)

    attempted = failed = 0
    for inv in reps:
        a, f = wl.items(inv.out_dir, inv.stdout, inv.rc)
        attempted += a
        failed += f

    def rerun(make_target, threads):
        inv = runner.invoke(make_target, tag="check", threads=threads)
        return inv.out_dir, inv.stdout, inv.rc

    problems = wl.check(cfg, str(cfg_path), seed,
                        [(r.out_dir, r.stdout, r.rc) for r in reps],
                        rerun if full_checks else None)
    if not problems:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"workload": wl.name, "seed": seed, "threads": threads, "reps": len(reps),
            "problems": problems, "run_dir": str(run_dir), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_result(res: dict) -> None:
    print(f"workload {res['workload']} seed {res['seed']}: {res['reps']} invocations, "
          f"BIOCTL_THREADS={res['threads']}")
    for name, (value, unit, samples) in sorted(res["metrics"].items()):
        spread = ""
        if len(samples) > 1:
            spread = (f"median of {len(samples)}, "
                      f"range {min(samples):.6g}..{max(samples):.6g}")
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:40s} {shown} {unit:8s} {spread}")
    rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'error_rate':40s} {rate:14.6g} {'ratio':8s} "
          f"({res['failed']} of {res['attempted']} items)")
    if res["problems"]:
        print(f"  output checks FAILED (outputs kept in {res['run_dir']}):")
        for p in res["problems"][:20]:
            print(f"    {p}")
    else:
        print("  output checks passed")


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in (SRC / "bioctl" / "cli.py", ROOT / REFERENCE, ROOT / PIPELINE)
               if not p.is_file()]
    if missing:
        print(f"not a bioctl checkout: missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    print("info " + json.dumps(machine_info(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # the BIOCTL_THREADS=1 determinism re-run costs a whole invocation, so
    # single timed runs leave it out and keep that time for measuring
    full_checks = bool(args.trace) or args.workload == "all"
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace),
                            full_checks) for n in names]
    for res in results:
        print_result(res)
    correct = all(not r["problems"] for r in results)
    if args.workload != "all":
        res = results[0]
        metrics = {}
        for name in declared_metrics(bool(args.trace)):
            value, unit, _n = res["metrics"][name]
            metrics[name] = {"value": value, "unit": unit}
        print(json.dumps({"correct": correct, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
