"""No bioctl code path loads scipy, and neither importing the CLI nor
running its worker pool loads multiprocessing or concurrent.futures.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already (the oracles in helpers.py use it).
"""

import json
import subprocess
import sys

from test_cli import write_config

# Runs every subcommand and every montecarlo engine in one interpreter and
# prints, after each step, the scipy modules loaded so far.
_SCRIPT = r"""
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {}
import bioctl.cli as cli
loaded["import bioctl.cli"] = scipy_modules()
cfg, out = sys.argv[1], sys.argv[2]
steps = [
    ["validate"],
    ["stability"],
    ["optimize", "--z0", "2.0", "--out", out],
    ["robustness", "--out", out],
    ["damage", "--x0", "5.0", "--period", "0.15"],
    ["simulate", "--x0", "1.0", "--out", out],
    ["montecarlo", "--trials", "500", "--out", out],
    ["plot", "--out", out],
    ["montecarlo", "--engine", "full", "--trials", "3", "--out", out],
    ["montecarlo", "--engine", "zsim", "--trials", "50", "--out", out],
]
for argv in steps:
    code = cli.main([argv[0], "--config", cfg, *argv[1:]])
    assert code == 0, (argv, code)
    loaded[" ".join(argv[:3])] = scipy_modules()
print(json.dumps(loaded))
"""


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120)


def test_no_bioctl_path_loads_scipy(tmp_path):
    res = _python("-c", _SCRIPT, write_config(tmp_path), str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    loaded = json.loads(res.stdout.splitlines()[-1])
    assert len(loaded) == 11
    assert {step: mods for step, mods in loaded.items() if mods} == {}


# Imports the CLI, then runs a montecarlo with two workers and a plot in
# the same interpreter, and prints the pool modules loaded after each step.
_POOL_SCRIPT = r"""
import json, sys

def pool_modules(names=("concurrent.futures", "multiprocessing", "logging")):
    return sorted(m for m in sys.modules if m in names or m.startswith(names))

loaded = {}
from bioctl import cli, forkpool
loaded["import"] = pool_modules()
forkpool._usable_cpus = lambda: 2
cli._READ_RANGE = 1 << 20    # the 2.7 MB of records in three read jobs
cfg, out = sys.argv[1], sys.argv[2]
for argv in (["montecarlo", "--trials", "20000"], ["plot"]):
    assert cli.main([argv[0], "--config", cfg, "--out", out, *argv[1:]]) == 0
    loaded[argv[0]] = pool_modules(("concurrent.futures", "multiprocessing"))
print(json.dumps(loaded))
"""


def test_cli_import_loads_no_multiprocessing(tmp_path, monkeypatch):
    # the fork pool needs neither concurrent.futures nor multiprocessing,
    # and nothing else the CLI imports pulls in logging
    monkeypatch.setenv("BIOCTL_THREADS", "2")
    res = _python("-c", _POOL_SCRIPT, write_config(tmp_path), str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    loaded = json.loads(res.stdout.splitlines()[-1])
    assert loaded == {"import": [], "montecarlo": [], "plot": []}


def test_impulsim_solve_ivp_resolves_to_scipy():
    # perfbench's tracer wraps this name; reading it imports scipy on demand
    script = (
        "import sys\n"
        "from bioctl import impulsim\n"
        "assert 'scipy' not in sys.modules\n"
        "solve_ivp = impulsim.solve_ivp\n"
        "import scipy.integrate\n"
        "assert solve_ivp is scipy.integrate.solve_ivp\n"
        "try:\n"
        "    impulsim.no_such_name\n"
        "except AttributeError as e:\n"
        "    assert 'no_such_name' in str(e)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n")
    res = _python("-c", script)
    assert res.returncode == 0, res.stderr
