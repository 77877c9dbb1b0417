#!/usr/bin/env python3
"""Run the whole reference pipeline into one output directory.

Checks the kernel thresholds and stability verdict, sweeps the optimal
release periods, tabulates the robust bound, then draws the Monte Carlo
scatter and renders the envelope plot.  Everything goes through the CLI
entry point, so this doubles as an end-to-end smoke run:

    python3 scripts/run_reference_experiment.py --out results/reference
"""

import argparse
import sys
from pathlib import Path

from bioctl.cli import main as bioctl

HERE = Path(__file__).resolve().parent


def step(name, argv):
    print(f"\n== {name} " + "=" * max(0, 60 - len(name)))
    rc = bioctl(argv)
    if rc != 0:
        print(f"step {name!r} exited with code {rc}", file=sys.stderr)
        sys.exit(rc)


def run(config: str, out: str, trials: int, seed: int) -> None:
    base = ["--config", config]
    step("validate", ["validate", *base])
    step("stability", ["stability", *base])
    step("optimize", ["optimize", *base, "--z0", "3.0", "--out", out])
    step("robustness", ["robustness", *base, "--out", out])
    step("montecarlo", ["montecarlo", *base, "--out", out,
                        "--trials", str(trials), "--seed", str(seed)])
    step("plot", ["plot", *base, "--out", out])
    print(f"\nall artifacts written under {out}/")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=str(HERE / "reference_scenario.json"))
    ap.add_argument("--out", default="results/reference")
    ap.add_argument("--trials", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run(args.config, args.out, args.trials, args.seed)
