"""Span arithmetic and per-layer metrics, computed in the parent process.

A span is ``(id, parent_id, name, start, end, error)``; ``parent_id`` is -1
for a root span.  A span's self time is its duration minus the part of its
interval that its direct children cover (children of one parent may overlap
when they ran on different threads, hence the interval union).
"""

from __future__ import annotations

import math
import re
from collections import defaultdict


def covered(intervals, lo=-math.inf, hi=math.inf) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Map span id to self time."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _err in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return {sid: (end - start) - covered(children.get(sid, ()), start, end)
            for sid, _parent, _name, start, end, _err in spans}


def aggregate(spans) -> dict:
    """Per span name: calls, total and self seconds, durations, errors."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "durations": [], "errors": defaultdict(int)})
    for sid, _parent, name, start, end, err in spans:
        a = agg[name]
        a["calls"] += 1
        a["total_s"] += end - start
        a["self_s"] += selfs[sid]
        a["durations"].append(end - start)
        if err is not None:
            a["errors"][err] += 1
    return agg


def coverage(spans, lo: float, hi: float) -> float:
    """Share of [lo, hi] covered by root spans."""
    if hi <= lo:
        return math.nan
    roots = [(s, e) for _sid, parent, _n, s, e, _err in spans if parent < 0]
    return covered(roots, lo, hi) / (hi - lo)


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of bioctl and of scipy from -X importtime.

    ``bioctl_cli_s`` sums the top-level bioctl entries (``bioctl`` and
    ``bioctl.cli``); ``scipy_s`` sums every scipy entry not nested inside
    another scipy entry, wherever it sits in the tree.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    # importtime prints a module after its children, one level shallower;
    # walked in reverse, every module comes before its descendants
    bioctl_us = scipy_us = 0
    ancestors = []  # (indent, top-level package) of the enclosing modules
    for indent, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        top = name.split(".")[0]
        if top == "bioctl" and not ancestors:
            bioctl_us += cumulative
        if top == "scipy" and all(a[1] != "scipy" for a in ancestors):
            scipy_us += cumulative
        ancestors.append((indent, top))
    return {"import.bioctl_cli_s": bioctl_us * 1e-6, "import.scipy_s": scipy_us * 1e-6}


def _pct(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v) - 1, max(0, math.ceil(q * len(v)) - 1))]


def layer_metrics(spans, counters, *, trials: int, rows: int) -> dict:
    """Per-layer metrics from one traced invocation.

    ``trials`` is the number of Monte Carlo trials run, ``rows`` the
    number of robustness-table rows written; they turn counts into
    per-item ratios.
    """
    agg = aggregate(spans)

    def get(name, key):
        return agg[name][key] if name in agg else 0

    def per(num, den):
        return num / den if den else 0.0

    out = {}
    out["cli.load_config_s"] = get("cli.load_config", "total_s")
    out["cli.self_s"] = sum(a["self_s"] for n, a in agg.items()
                            if n.startswith("cli.") and n != "cli.load_config")
    out["kernels.rate.calls"] = counters.get("kernels.rate", 0)
    out["kernels.validate_kernels.self_s"] = get("kernels.validate_kernels", "self_s")
    orbit = [a for n, a in agg.items() if n.startswith("orbit.")]
    out["orbit.calls"] = sum(a["calls"] for a in orbit)
    out["orbit.self_s"] = sum(a["self_s"] for a in orbit)
    for fn in ("robust_envelope", "t_limits", "max_decay_period", "envelope_bound_curve"):
        out[f"planner.{fn}.calls"] = get(f"planner.{fn}", "calls")
        out[f"planner.{fn}.self_s"] = get(f"planner.{fn}", "self_s")
    out["planner.t_limits.calls_per_row"] = per(get("planner.t_limits", "calls"), rows)
    out["planner.deviation_envelope.calls"] = get("planner.deviation_envelope", "calls")
    out["planner.worst_invasion.calls"] = get("planner.worst_invasion", "calls")
    out["planner.worst_invasion.us_per_call"] = 1e6 * per(
        get("planner.worst_invasion", "total_s"), get("planner.worst_invasion", "calls"))
    run_mc_self = get("mcharness.run_mc", "self_s")
    out["mcharness.run_mc.self_s"] = run_mc_self
    out["mcharness.run_mc.us_per_trial"] = 1e6 * per(run_mc_self, trials)
    for fn in ("stream_uniforms", "verify_envelope", "bin_envelope", "write_records_csv"):
        out[f"mcharness.{fn}.self_s"] = get(f"mcharness.{fn}", "self_s")
    dtf = agg.get("impulsim.damage_time_full")
    n_full = dtf["calls"] if dtf else 0
    out["impulsim.damage_time_full.calls"] = n_full
    out["impulsim.damage_time_full.self_s"] = dtf["self_s"] if dtf else 0.0
    durations = dtf["durations"] if dtf else []
    out["impulsim.damage_time_full.ms_p50"] = 1e3 * _pct(durations, 0.50)
    out["impulsim.damage_time_full.ms_p95"] = 1e3 * _pct(durations, 0.95)
    out["impulsim.solve_ivp.calls"] = get("impulsim.solve_ivp", "calls")
    out["impulsim.solve_ivp.self_s"] = get("impulsim.solve_ivp", "self_s")
    out["impulsim.solve_ivp.calls_per_trial"] = per(get("impulsim.solve_ivp", "calls"),
                                                    n_full)
    errors = dtf["errors"] if dtf else {}
    out["impulsim.failures.horizon"] = errors.get("HorizonExceededError", 0)
    out["impulsim.failures.integration"] = errors.get("IntegrationError", 0)
    out["impulsim.failures.state"] = errors.get("StateConsistencyError", 0)
    return out
