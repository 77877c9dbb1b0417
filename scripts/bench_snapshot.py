#!/usr/bin/env python3
"""Write BENCH_<n>.json: one timed benchmark run of every workload.

    python3 scripts/bench_snapshot.py 23                  # writes BENCH_23.json

Runs ``perfbench/run.py --workload <w> --trace 0`` once per workload of
``perfbench/workloads.py``, each in a subprocess with run.py's default
seed and run length, so that every snapshot is comparable with the last.
It keeps what run.py prints: the ``info {...}`` line of machine info (the
commit and the net ``src/`` line count among it), each metric's table
line (median, sample count and range) and the last line, one JSON object
with correct, attempted and failed.  The snapshot adds whether the work
tree differed from the commit and whether bytecode was cached
(``PYTHONDONTWRITEBYTECODE``).  Exit code 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

COMMAND = ("perfbench/run.py", "--workload", "<w>", "--trace", "0")

#: a metric's table line: name, median, unit and, past one sample, the
#: sample count and range
_METRIC = re.compile(r"^  (\S+) +(\S+) (\S+) *(?:median of (\d+), range (\S+)\.\.(\S+))?$")


def parse_run(stdout: str) -> dict:
    """The machine info and the result of one ``run.py --workload <w>``:
    {"info": ..., "correct", "attempted", "failed", "metrics": {name:
    {"value", "unit", "samples", "min", "max"}}}.  Raises ValueError when
    a line it needs is missing."""
    lines = stdout.strip().splitlines()
    info = [json.loads(line[5:]) for line in lines if line.startswith("info {")]
    if len(info) != 1 or not lines[-1].startswith("{"):
        raise ValueError("run.py printed no info line or no JSON result line")
    result = json.loads(lines[-1])
    table = {}
    for line in lines:
        m = _METRIC.match(line)
        if m and m[1] in result["metrics"]:
            samples = int(m[4] or 1)
            lo, hi = (float(m[5]), float(m[6])) if m[4] else (float(m[2]),) * 2
            table[m[1]] = {"samples": samples, "min": lo, "max": hi}
    metrics = {}
    for name, value in result["metrics"].items():
        if name not in table:
            raise ValueError(f"run.py printed no table line for {name}")
        metrics[name] = {**value, **table[name]}
    return {"info": info[0], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def snapshot(runs: dict) -> dict:
    """The BENCH document of runs, a mapping of each workload to its
    ``parse_run`` result."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src", "scripts",
                           "perfbench"], cwd=ROOT, capture_output=True, text=True)
    return {
        "work_tree_clean": proc.stdout == "" if proc.returncode == 0 else None,
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "command": " ".join(COMMAND),
        "machine": next(iter(runs.values()))["info"],
        "workloads": {w: {k: v for k, v in run.items() if k != "info"}
                      for w, run in runs.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    args = ap.parse_args(argv)
    runs = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, *(w if a == "<w>" else a for a in COMMAND)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        runs[w] = parse_run(proc.stdout)
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(snapshot(runs), indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if all(run["correct"] for run in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
