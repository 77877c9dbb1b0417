"""No bioctl code path loads scipy, and importing the CLI loads no
multiprocessing.

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


def test_cli_import_loads_no_multiprocessing():
    # the CSV writer imports it when it starts worker processes
    res = _python("-c", "import sys, bioctl.cli; print(sorted(m for m in "
                  "sys.modules if m.split('.')[0] == 'multiprocessing' "
                  "or m == 'concurrent.futures.process'))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


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
