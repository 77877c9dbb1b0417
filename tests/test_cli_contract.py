"""The command line's contract under generated bad input.

Each example is the reference scenario with one of the nine growth x
response pairs and one or two numeric fields set to an extreme value, run
in process through ``cli.main`` with one worker.  Whatever the input, the
command exits 0, 1 or 2, raises no warning and no exception, prints
nothing on stdout once it reports an error, and on success writes only
finite numbers where the CSVs and the SVG report them.

``damage``, ``simulate`` and ``montecarlo --engine full`` are left out:
their slowest inputs keep the contract but take 9.6-28 s each (``damage
--x0 1e12 --period 1e-6`` with e = 5e-324, 200 full-engine trials with
r = 1e12, ``simulate`` with eil = 5e-324).  The 500 examples take about
5 s; each ``@example`` is an escape this test found in earlier code.
"""

import contextlib
import copy
import csv
import io
import json
import math
import os
import pathlib
import shutil
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
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
            ("optimize", "--z0", "2"), ("robustness",),
            ("montecarlo", "--trials", "300"), ("plot",))
RECORD_FIELDS = ("T", "t0", "z0", "Pi", "T1", "deviation")


@st.composite
def scenarios(draw):
    """(growth, response, changes): changes is a list of one or two
    (dotted field, value) pairs."""
    growth = draw(st.sampled_from(sorted(cli._GROWTH)))
    response = draw(st.sampled_from(sorted(cli._RESPONSE)))
    fields = ([f"kernels.growth.{p}" for p in cli._GROWTH[growth][1]]
              + [f"kernels.response.{p}" for p in cli._RESPONSE[response][1]]
              + list(FIELDS))
    changes = draw(st.lists(st.tuples(st.sampled_from(fields), st.sampled_from(VALUES)),
                            min_size=1, max_size=2, unique_by=lambda c: c[0]))
    return growth, response, changes


def scenario_config(growth, response, changes) -> dict:
    cfg = copy.deepcopy(REFERENCE)
    for key, kind, table in (("growth", growth, cli._GROWTH),
                             ("response", response, cli._RESPONSE)):
        cfg["kernels"][key] = {"type": kind,
                               **{p: PARAMETERS[p] for p in table[kind][1]}}
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
    """A scratch directory holding the records of a reference montecarlo
    run, for ``plot`` to read back."""
    base = tmp_path_factory.mktemp("contract")
    cfg = base / "reference.json"
    cfg.write_text(json.dumps(scenario_config("logistic", "holling2", [])))
    with mock.patch.dict(os.environ, {"BIOCTL_THREADS": "1"}):
        code, *_ = run_main(["montecarlo", "--config", str(cfg), "--trials", "300",
                             "--out", str(base / "records")])
    assert code == 0
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
def test_bad_input_keeps_the_cli_contract(workdir, scenario, command):
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(scenario_config(*scenario)))
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [command[0], "--config", str(cfg), *command[1:]]
    if command[0] in ("optimize", "robustness", "montecarlo", "plot"):
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
