"""The command line's contract under generated bad input.

Each example is the reference scenario with one of the nine growth x
response pairs and one or two numeric fields set to an extreme value, run
in process through ``cli.main`` with one worker.  Whatever the input, the
command exits 0, 1 or 2, raises no warning and no exception, prints
nothing on stdout once it reports an error, and on success writes only
finite numbers where the CSVs and the SVG report them.

Every subcommand is drawn; ``damage``, ``simulate`` and ``montecarlo
--engine full`` with the small inputs in ``COMMANDS``.  The two that
integrate the full model over a whole run are not drawn with the changes
in ``STIFF``, which make one run take from over 3 s to minutes: logistic
r = 1e6 (``simulate`` about 40 s) and Allee K = 1e6 (``montecarlo
--engine full``).  mu = 1e6 is drawn: it puts the full engine's periods
near 1e-6, and a trial whose pest survives would step 1e8 releases to
its horizon, but one that passes more than 10^7 fails at once.  The 500
examples take about 12 s; each ``@example`` is an escape this test found
in earlier code.  The last test pins seven escapes found by hand,
``damage`` and ``simulate`` among them, with their exact message.
"""

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import shutil
import warnings
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bioctl import cli

REFERENCE = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "scripts"
     / "reference_scenario.json").read_text())
#: the kernel parameters of every growth and response type
PARAMETERS = {"r": 1.0, "K": 10.0, "A": 2.0, "lam": 1.0, "a": 0.5, "b": 0.1}
VALUES = (0.0, -1.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 1e6, 1e12, 1e300, 1.7e308)
FIELDS = ("kernels.numerical.e", "kernels.m", "program.mu", "program.T", "eil",
          "box.z0.0", "box.z0.1", "box.sigma.0", "box.sigma.1", "box.m.0", "box.m.1")
COMMANDS = (("validate",), ("stability",), ("stability", "--period", "2000"),
            ("damage", "--x0", "5", "--period", "0.15"), ("simulate", "--x0", "1"),
            ("optimize", "--z0", "2"), ("robustness",),
            ("montecarlo", "--trials", "300"),
            ("montecarlo", "--engine", "full", "--trials", "16"), ("plot",))
RECORD_FIELDS = ("T", "t0", "z0", "Pi", "T1", "deviation")
#: (field, value) changes that ``simulate`` and full-engine ``montecarlo``
#: are not drawn with: each makes one run take seconds to minutes
STIFF = {("kernels.growth.r", 1e6), ("kernels.growth.K", 1e6)}


def _parameters(cls) -> list:
    """The config keys of a kernel class: its dataclass fields."""
    return [f.name for f in dataclasses.fields(cls)]


@st.composite
def scenarios(draw):
    """(growth, response, changes): changes is a list of one or two
    (dotted field, value) pairs."""
    growth = draw(st.sampled_from(sorted(cli._GROWTH)))
    response = draw(st.sampled_from(sorted(cli._RESPONSE)))
    fields = ([f"kernels.growth.{p}" for p in _parameters(cli._GROWTH[growth])]
              + [f"kernels.response.{p}" for p in _parameters(cli._RESPONSE[response])]
              + list(FIELDS))
    changes = draw(st.lists(st.tuples(st.sampled_from(fields), st.sampled_from(VALUES)),
                            min_size=1, max_size=2, unique_by=lambda c: c[0]))
    return growth, response, changes


def scenario_config(growth, response, changes) -> dict:
    cfg = copy.deepcopy(REFERENCE)
    for key, kind, table in (("growth", growth, cli._GROWTH),
                             ("response", response, cli._RESPONSE)):
        cfg["kernels"][key] = {"type": kind,
                               **{p: PARAMETERS[p] for p in _parameters(table[kind])}}
    for dotted, value in changes:
        *parents, leaf = dotted.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        node[int(leaf) if leaf.isdigit() else leaf] = value
    return cfg


def run_main(argv):
    """(exit code, stdout, stderr, warnings) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A scratch directory holding the artifacts of a reference montecarlo
    run, for ``plot`` to read back; they pass ``check_artifacts``."""
    base = tmp_path_factory.mktemp("contract")
    cfg = base / "reference.json"
    cfg.write_text(json.dumps(scenario_config("logistic", "holling2", [])))
    with mock.patch.dict(os.environ, {"BIOCTL_THREADS": "1"}):
        code, *_ = run_main(["montecarlo", "--config", str(cfg), "--trials", "300",
                             "--out", str(base / "records")])
    assert code == 0
    check_artifacts(base / "records")
    return base


def check_artifacts(out) -> None:
    """On success every reported number is finite."""
    bound_csv = out / "robust_bound.csv"
    if bound_csv.exists():
        with open(bound_csv) as fh:
            assert all(math.isfinite(float(row["bound"])) for row in csv.DictReader(fh))
    records_csv = out / "mc_records.csv"
    if records_csv.exists():
        with open(records_csv) as fh:
            for row in csv.DictReader(fh):
                if row["failed"] == "0":
                    assert all(math.isfinite(float(row[c])) for c in RECORD_FIELDS), row
    sample_csv = out / "mc_sample.csv"
    if sample_csv.exists():
        with open(sample_csv) as fh:
            assert fh.readline().startswith("# points=")
            for row in csv.DictReader(fh):
                assert all(math.isfinite(float(v)) for v in row.values()), row
    svg = out / "envelope.svg"
    if svg.exists():
        assert "nan" not in svg.read_text()


@settings(max_examples=500, deadline=None)
@given(scenario=scenarios(), command=st.sampled_from(COMMANDS))
# the pest multiplier past the largest float
@example(scenario=("logistic", "holling2", [("program.mu", 0.5)]),
         command=("stability", "--period", "2000"))
@example(scenario=("linear", "holling1", [("kernels.growth.r", 1e12)]),
         command=("stability",))
# (mu - sigma)*T overflows in the robust envelope
@example(scenario=("allee", "holling1", [("program.mu", 1.7e308)]),
         command=("robustness",))
# ... or the orbit peak's rate m*peak, or z0 over the least drop
@example(scenario=("allee", "holling4", [("box.m.1", 1e300), ("program.mu", 1.7e308)]),
         command=("robustness",))
@example(scenario=("logistic", "holling2", [("box.z0.0", 1.7e308), ("box.z0.1", 1.7e308)]),
         command=("robustness",))
# an empty period range (0, T_L) in plot
@example(scenario=("logistic", "holling2", [("box.z0.1", 1.0)]), command=("plot",))
# the orbit peak overflows: nan Pi in the closed engine
@example(scenario=("logistic", "holling2",
                   [("program.mu", 1.7e308), ("box.z0.1", 1.7e308)]),
         command=("montecarlo", "--trials", "300"))
# the least drop in z a period underflows: inf Pi and false violations
@example(scenario=("logistic", "holling2", [("box.m.0", 1.7e308), ("box.m.1", 1.7e308)]),
         command=("montecarlo", "--trials", "300"))
# a full-engine trial whose pest survives stepped one release at a time
# to its 200/m horizon, 1e8 and more of them: over 20 s for 16 trials
@example(scenario=("allee", "holling2", [("kernels.growth.r", 1e12), ("program.mu", 1e12)]),
         command=("montecarlo", "--engine", "full", "--trials", "16"))
def test_bad_input_keeps_the_cli_contract(workdir, scenario, command):
    if command[0] == "simulate" or "full" in command:
        assume(not STIFF.intersection(scenario[2]))
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(scenario_config(*scenario)))
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [command[0], "--config", str(cfg), *command[1:]]
    if command[0] in ("simulate", "optimize", "robustness", "montecarlo", "plot"):
        argv += ["--out", str(out)]
    if command[0] == "plot":
        shutil.copytree(workdir / "records", out)
    with mock.patch.dict(os.environ, {"BIOCTL_THREADS": "1"}):
        code, stdout, stderr, caught = run_main(argv)
    assert code in (0, 1, 2)
    assert caught == []
    assert "Traceback" not in stderr
    if "error:" in stderr:
        assert stdout == ""
    if code == 0:
        check_artifacts(out)


@pytest.mark.parametrize("changes, command, code, message", [
    # the decrease ceiling x/m overflows, although sigma_hi is positive
    ([("box.m.0", 5e-324), ("box.m.1", 5e-324)], ("robustness",), 2,
     "error: m=4.94066e-324 is too small for mu=2 and sigma=1: the decrease "
     "ceiling overflows a float\n"),
    # m*T rounds to 0: the orbit peak mu*T/(1 - e^(-m*T)) divides by zero
    ([("kernels.m", 5e-324)], ("simulate", "--x0", "5"), 2,
     "error: mu=2, T=0.5 and m=4.94066e-324 overflow a float: the orbit peak "
     "mu*T/(1 - e^(-m*T)) does not fit one\n"),
    ([("kernels.m", 5e-324)], ("damage", "--x0", "5", "--period", "0.15"), 2,
     "error: m=4.94066e-324 is too small for mu=2 and sigma=9.88131e-324: the "
     "decrease ceiling overflows a float\n"),
    # z0 over the least drop of z in a period overflows in the comparison
    # model, for a huge invasion or a period of one subnormal
    ([], ("damage", "--x0", "1.2e307", "--period", "0.15"), 2,
     "error: mu=2 and z0 up to 6e+306 overflow a float at T=0.15: the orbit "
     "peak, its rate, or z0 over the least drop of z in a period does not fit one\n"),
    ([], ("damage", "--x0", "5", "--period", "5e-324"), 2,
     "error: mu=2 and z0 up to 6.36202 overflow a float at T=4.94066e-324: the "
     "orbit peak, its rate, or z0 over the least drop of z in a period does not "
     "fit one\n"),
    # plot refuses the boxes montecarlo refuses
    ([("box.sigma.0", 0.5)], ("plot",), 1,
     "error: the harness pins sigma and m to single values\n"),
    # a negative budget above a negative sigma drew a scatter with false
    # violations against a negative bound
    ([("program.mu", -1.0), ("box.sigma.0", -2.0), ("box.sigma.1", -2.0)],
     ("montecarlo", "--trials", "100"), 1,
     "error: budget rate must be positive, got mu=-1.0\n"),
], ids=["robustness-tiny-box-m", "simulate-tiny-m", "damage-tiny-m",
        "damage-huge-invasion", "damage-subnormal-period", "plot-sigma-box",
        "montecarlo-negative-mu"])
def test_refused_input_writes_one_error_line_and_no_artifact(
        workdir, changes, command, code, message):
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(scenario_config("logistic", "holling2", changes)))
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(workdir / "records", out)
    before = sorted(os.listdir(out))
    argv = [command[0], "--config", str(cfg), *command[1:]]
    if command[0] != "damage":
        argv += ["--out", str(out)]
    with mock.patch.dict(os.environ, {"BIOCTL_THREADS": "1"}):
        assert run_main(argv) == (code, "", message, [])
    assert sorted(os.listdir(out)) == before
