"""Command-line front end.

Thin adapters only: ``main`` loads the JSON scenario config and hands it
to the subcommand, which calls the corresponding module and returns its
exit code and its key=value pairs; ``main`` prints them only once the
subcommand has returned, so a failed command prints nothing on stdout.
Artifacts (CSV, SVG) land in --out through ``tables.write``.  Exit codes:
0 success, 1 domain or verdict failure, 2 usage or config-shape failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import impulsim, mcharness, planner, tables
from .kernels import (
    Allee,
    ConfigError,
    DomainError,
    HollingI,
    HollingII,
    HollingIV,
    InputOverflowError,
    Linear,
    Logistic,
    KernelSet,
    Proportional,
    validate_kernels,
)
from .orbit import PestFreeOrbit, ReleaseProgram, Verdict, floquet_multipliers, stability_verdict

__all__ = ["ConfigError", "load_config", "build_kernels", "main"]


_MODEL_ERRORS = (
    tables.OutputWriteError,
    DomainError,
    planner.PeriodTooLargeError,
    impulsim.IntegrationError,
    impulsim.StateConsistencyError,
    impulsim.HorizonExceededError,
)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# --------------------------------------------------------------------------
# config parsing.  Shape problems (unknown keys, wrong types, missing
# sections) raise ConfigError (exit 2); out-of-range values fall through to
# the model dataclasses, whose DomainError exits 1.  Finite values so large
# that the model overflows a float raise InputOverflowError (exit 2).


def _check_keys(d: dict, allowed, where: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s): {', '.join(unknown)}")


def _is_finite_number(v) -> bool:
    # the range test also rejects nan and ints too large for a float
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


def _num(d: dict, key: str, where: str, required: bool = True) -> Optional[float]:
    if key not in d:
        if required:
            raise ConfigError(f"{where}: missing key {key!r}")
        return None
    v = d[key]
    if not _is_finite_number(v):
        raise ConfigError(f"{where}: {key} must be a finite number")
    return float(v)


def _int(d: dict, key: str, default: int, where: str) -> int:
    v = d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: {key} must be an integer")
    return v


def _section(cfg: dict, name: str, allowed, required: bool = True) -> Optional[dict]:
    """The object cfg[name], whose keys are all in allowed."""
    if name not in cfg:
        if required:
            raise ConfigError(f"config: missing section {name!r}")
        return None
    v = cfg[name]
    if not isinstance(v, dict):
        raise ConfigError(f"config: {name} must be an object")
    _check_keys(v, allowed, name)
    return v


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:
        # a byte that is not UTF-8, an integer past Python's digit limit, or
        # nesting deeper than the recursion limit
        raise ConfigError(f"{path}: cannot parse: {e}") from None
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(raw, {"kernels", "program", "eil", "box", "sim", "mc"}, "config")
    return raw


_GROWTH = {"linear": Linear, "logistic": Logistic, "allee": Allee}
_RESPONSE = {"holling1": HollingI, "holling2": HollingII, "holling4": HollingIV}


def _build_variant(d, table: dict, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: must be an object")
    t = d.get("type")
    if t not in table:
        raise ConfigError(
            f"{where}: type must be one of {', '.join(sorted(table))}; got {t!r}")
    cls = table[t]
    fields = [f.name for f in dataclasses.fields(cls)]
    _check_keys(d, {"type", *fields}, where)
    return cls(**{f: _num(d, f, where) for f in fields})


def build_kernels(cfg: dict) -> KernelSet:
    d = _section(cfg, "kernels", {"growth", "response", "numerical", "m"})
    for key in ("growth", "response", "numerical"):
        if key not in d:
            raise ConfigError(f"kernels: missing key {key!r}")
    growth = _build_variant(d["growth"], _GROWTH, "kernels.growth")
    response = _build_variant(d["response"], _RESPONSE, "kernels.response")
    nd = d["numerical"]
    if not isinstance(nd, dict) or nd.get("type") != "proportional":
        raise ConfigError("kernels.numerical: type must be 'proportional'")
    _check_keys(nd, {"type", "e"}, "kernels.numerical")
    numerical = Proportional(e=_num(nd, "e", "kernels.numerical"),
                             response=response)
    return KernelSet(growth=growth, response=response, numerical=numerical,
                     m=_num(d, "m", "kernels"))


def _build_program(cfg: dict, period_override=None) -> ReleaseProgram:
    d = _section(cfg, "program", {"mu", "T"})
    mu = _num(d, "mu", "program")
    T = period_override if period_override is not None else _num(d, "T", "program")
    return ReleaseProgram(mu=mu, T=float(T))


def _mu_only(cfg: dict) -> float:
    return _num(_section(cfg, "program", {"mu", "T"}), "mu", "program")


def _build_eil(cfg: dict, required: bool = True) -> Optional[float]:
    eil = _num(cfg, "eil", "config", required=required)
    if eil is not None and not eil > 0:
        raise ConfigError("config: eil must be positive")
    return eil


def _build_box(cfg: dict) -> planner.UncertaintyBox:
    d = _section(cfg, "box", {"z0", "sigma", "m"})

    def pair(key):
        if key not in d:
            raise ConfigError(f"box: missing key {key!r}")
        v = d[key]
        if not (isinstance(v, list) and len(v) == 2
                and all(_is_finite_number(x) for x in v)):
            raise ConfigError(f"box: {key} must be a [lo, hi] pair of finite numbers")
        return float(v[0]), float(v[1])

    return planner.UncertaintyBox(*pair("z0"), *pair("sigma"), *pair("m"))


def _build_sim(cfg: dict) -> impulsim.SimConfig:
    d = _section(cfg, "sim", {"rtol", "t_end"}, required=False) or {}
    return impulsim.SimConfig(**{k: _num(d, k, "sim") for k in d})


def _mc_settings(cfg: dict, args):
    d = _section(cfg, "mc", {"trials", "seed", "engine", "bins"}, required=False) or {}
    trials = args.trials if args.trials is not None else _int(d, "trials", 200_000, "mc")
    seed = args.seed if args.seed is not None else _int(d, "seed", 0, "mc")
    engine = args.engine if args.engine is not None else d.get("engine", "closed")
    bins = args.bins if args.bins is not None else _int(d, "bins", 50, "mc")
    if engine not in mcharness.ENGINES:
        raise ConfigError(f"mc: engine must be one of {', '.join(mcharness.ENGINES)}; "
                          f"got {engine!r}")
    if trials < 1:
        raise ConfigError("mc: trials must be at least 1")
    if trials > mcharness.MAX_TRIALS:
        raise ConfigError(
            f"mc: trials must be at most {mcharness.MAX_TRIALS}, or the "
            "trials' 64-bit stream counters wrap and repeat draws")
    if not 0 <= seed <= mcharness.MAX_SEED:
        raise ConfigError(
            f"mc: seed must be in [0, {mcharness.MAX_SEED}], the uint64 "
            f"that keys the draw stream; got {seed}")
    if bins < 1:
        raise ConfigError("mc: bins must be at least 1")
    if bins > mcharness.MAX_BINS:
        raise ConfigError(f"mc: bins must be at most {mcharness.MAX_BINS}")
    return trials, seed, engine, bins


def _out_dir(args) -> str:
    out = args.out or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out {out}: not a usable directory "
                          f"({e.strerror or e})") from None
    return out


# --------------------------------------------------------------------------
# subcommands


def cmd_validate(args, cfg: dict) -> tuple[int, dict]:
    report = validate_kernels(build_kernels(cfg))
    pairs = {"growth_slope0": report.growth_slope0,
             "response_slope0": report.response_slope0,
             "m": report.m,
             "s_limit": report.s_limit,
             "s_sup": report.s_sup,
             "s_argmax": report.s_argmax}
    pairs.update((f"check_{name}", ok) for name, ok in report.checks.items())
    pairs["all_ok"] = report.all_ok
    return (0 if report.all_ok else 1), pairs


def cmd_stability(args, cfg: dict) -> tuple[int, dict]:
    k = build_kernels(cfg)
    program = _build_program(cfg, args.period)
    report = validate_kernels(k)
    verdict = stability_verdict(report, program)
    pest, predator = floquet_multipliers(report.growth_slope0,
                                         report.response_slope0,
                                         report.m, program)
    pairs = {"verdict": verdict.verdict.value,
             "boundary": verdict.boundary,
             "pest_multiplier": pest,
             "predator_multiplier": predator,
             "s_limit": verdict.s_limit,
             "s_sup": verdict.s_sup,
             "mu": program.mu,
             "note": verdict.note}
    return (1 if verdict.verdict is Verdict.UNSTABLE else 0), pairs


def cmd_simulate(args, cfg: dict) -> tuple[int, dict]:
    k = build_kernels(cfg)
    program = _build_program(cfg, args.period)
    eil = _build_eil(cfg, required=False)
    y0 = args.y0
    if y0 is None:
        y0 = PestFreeOrbit(program.mu, program.T, k.m).eval(args.t0, post=True)
    traj = impulsim.simulate(k, program, args.x0, y0, t0=args.t0,
                             cfg=_build_sim(cfg), eil=eil)
    path = os.path.join(_out_dir(args), "trajectory.csv")
    impulsim.trajectory_to_csv(traj, path)
    down = [t for t, label in traj.events if label == "down"]
    return 0, {"t_start": float(traj.ts[0]),
               "t_end": float(traj.ts[-1]),
               "samples": len(traj.ts),
               "releases": len(traj.impulses),
               "first_crossing": down[0] if down else math.nan,
               "trajectory_csv": path}


def cmd_damage(args, cfg: dict) -> tuple[int, dict]:
    k = build_kernels(cfg)
    program = _build_program(cfg, args.period)
    eil = _build_eil(cfg)
    report = validate_kernels(k)
    if not report.all_ok:
        failed = [n for n, ok in report.checks.items() if not ok]
        raise DomainError("kernel checks failed: " + ", ".join(failed))
    if args.x0 is not None:
        x0 = args.x0
    else:
        x0 = planner.x_from_z_local(args.z0, eil, k.m, report.response_slope0)
    if not x0 > eil:
        raise DomainError(f"damage: x0={x0:g} must be above eil={eil:g}")
    # conservative comparison model: pest pressure capped by the ratio
    # ceiling, so its crossing time bounds the full model's from above.
    z0 = planner.z_from_x_global(x0, eil, k.m, k.response)
    p = planner.ZParams(sigma=report.s_sup, m=k.m, mu=program.mu, T=program.T)
    decay_ceiling = planner.max_decay_period(program.mu, report.s_sup, k.m)
    pi_z = planner.damage_time(p, z0, t0=args.t0)
    pi_full, t_cross = impulsim.damage_time_full(k, program, x0, eil,
                                                 t0=args.t0,
                                                 cfg=_build_sim(cfg), bound=pi_z)
    return 0, {"x0": float(x0),
               "z0": z0,
               "sigma": report.s_sup,
               "decay_ceiling": decay_ceiling,
               "pi_full": pi_full,
               "pi_z": pi_z,
               "crossing_t": t_cross,
               "bound_ok": pi_full <= pi_z * (1 + 1e-6)}


def cmd_optimize(args, cfg: dict) -> tuple[int, dict]:
    k = build_kernels(cfg)
    mu = _mu_only(cfg)
    box = _build_box(cfg)
    if box.sigma_lo != box.sigma_hi:
        raise DomainError("optimize needs a single sigma value in the box")
    sigma = box.sigma_lo
    result = planner.optimal_periods(args.z0, mu, sigma, k.m)
    path = os.path.join(_out_dir(args), "period_sweep.csv")
    worst = [planner.worst_invasion(
        planner.ZParams(sigma=sigma, m=k.m, mu=mu, T=T), args.z0)
        for T in result.periods]
    tables.write({path: [b"T,pi_max,deviation\n", *tables.row_chunks(
        "%.17g,%.17g,%.17g\n", result.periods, [w.pi_max for w in worst],
        [w.deviation for w in worst])]})
    return 0, {"t1": result.t1,
               "n0": result.n0,
               "decay_ceiling": result.decay_ceiling,
               "periods": ",".join(f"{t:.17g}" for t in result.periods),
               "sweep_csv": path}


def cmd_robustness(args, cfg: dict) -> tuple[int, dict]:
    mu = _mu_only(cfg)
    box = _build_box(cfg)
    t_lower, t_hat_min = planner.t_limits(box, mu)
    if t_hat_min == math.inf:
        raise DomainError(
            f"robustness: sigma_hi={box.sigma_hi:g} <= 0 gives no finite "
            "decrease ceiling, so there is no period range to tabulate")
    n = 200
    Ts = t_hat_min * np.arange(1, n + 1) / (n + 1)
    bounds = planner.robust_envelope(Ts, box, mu)
    path = os.path.join(_out_dir(args), "robust_bound.csv")
    tables.write({path: [b"T,bound,T_L_flag\n", *tables.row_chunks(
        "%.17g,%.17g,%d\n", Ts, bounds, Ts < t_lower)]})
    return 0, {"t_lower": t_lower,
               "t_hat_min": t_hat_min,
               "points": n,
               "bound_csv": path}


def cmd_montecarlo(args, cfg: dict) -> tuple[int, dict]:
    mu = _mu_only(cfg)
    box = _build_box(cfg)
    trials, seed, engine, bins = _mc_settings(cfg, args)
    kernels = eil = sim = None
    if engine == "full":
        kernels = build_kernels(cfg)
        eil = _build_eil(cfg)
        sim = _build_sim(cfg)
    mc_cfg = mcharness.McConfig(box=box, mu=mu, n_trials=trials, seed=seed,
                                engine=engine, kernels=kernels, eil=eil,
                                sim=sim)
    out = _out_dir(args)
    rec_path = os.path.join(out, "mc_records.csv")
    env_path = os.path.join(out, "mc_envelope.csv")
    report, failed = mcharness.stream_mc(mc_cfg, rec_path, env_path,
                                         os.path.join(out, "mc_sample.csv"),
                                         n_bins=bins)
    # a run in which every trial failed checked nothing, so it does not pass
    code = 1 if report.violations > 0 or failed == trials else 0
    return code, {"trials": trials,
                  "seed": seed,
                  "engine": engine,
                  "t_upper": report.t_upper,
                  "violations": report.violations,
                  "failed": failed,
                  "records_csv": rec_path,
                  "envelope_csv": env_path}


# --------------------------------------------------------------------------
# SVG scatter (no plotting dependency; the file is small and diff-able)

_SVG_W = 800
_SVG_H = 500
_SVG_PAD = 60
_SVG_CIRCLE = ('<circle cx="%.2f" cy="%.2f" r="1.5" '
               'fill="#4878a8" fill-opacity="0.35"/>')


def render_scatter_svg(xs, ys, curve_x, curve_y, title: str,
                       x_label: str, y_label: str) -> str:
    """The scatter of every point (xs, ys) under the curve; ``cmd_plot``
    hands it the sample ``montecarlo`` kept (see ``mcharness._Tally``)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    all_x, all_y = np.concatenate([xs, curve_x]), np.concatenate([ys, curve_y])
    x_lo, x_hi = float(all_x.min(initial=0.0)), float(all_x.max(initial=1.0))
    y_lo, y_hi = float(all_y.min(initial=0.0)), float(all_y.max(initial=1.0))
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    w_in = _SVG_W - 2 * _SVG_PAD
    h_in = _SVG_H - 2 * _SVG_PAD

    def sx(x):
        return _SVG_PAD + (x - x_lo) / (x_hi - x_lo) * w_in

    def sy(y):
        return _SVG_H - _SVG_PAD - (y - y_lo) / (y_hi - y_lo) * h_in

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.1f}" y="25" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    axis = (f'<line x1="{_SVG_PAD}" y1="{_SVG_H - _SVG_PAD}" '
            f'x2="{_SVG_W - _SVG_PAD}" y2="{_SVG_H - _SVG_PAD}" '
            'stroke="black"/>'
            f'<line x1="{_SVG_PAD}" y1="{_SVG_PAD}" x2="{_SVG_PAD}" '
            f'y2="{_SVG_H - _SVG_PAD}" stroke="black"/>')
    parts.append(axis)
    for i in range(5):
        tx = x_lo + (x_hi - x_lo) * i / 4
        px = sx(tx)
        parts.append(f'<line x1="{px:.2f}" y1="{_SVG_H - _SVG_PAD}" '
                     f'x2="{px:.2f}" y2="{_SVG_H - _SVG_PAD + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{_SVG_H - _SVG_PAD + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{tx:.3g}</text>')
        ty = y_lo + (y_hi - y_lo) * i / 4
        py = sy(ty)
        parts.append(f'<line x1="{_SVG_PAD - 5}" y1="{py:.2f}" '
                     f'x2="{_SVG_PAD}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_SVG_PAD - 8}" y="{py + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{ty:.3g}</text>')
    parts.append(f'<text x="{_SVG_W / 2:.1f}" y="{_SVG_H - 15}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">{x_label}</text>')
    parts.append(f'<text x="18" y="{_SVG_H / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {_SVG_H / 2:.1f})">{y_label}</text>')
    if y_lo < 0.0 < y_hi:
        zy = sy(0.0)
        parts.append(f'<line x1="{_SVG_PAD}" y1="{zy:.2f}" '
                     f'x2="{_SVG_W - _SVG_PAD}" y2="{zy:.2f}" '
                     'stroke="#bbbbbb" stroke-dasharray="4 3"/>')
    if len(xs):
        centres = np.column_stack([sx(xs), sy(ys)])
        parts.append("\n".join([_SVG_CIRCLE] * len(xs))
                     % tuple(centres.ravel().tolist()))
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(curve_x, curve_y))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#c0392b" '
                 'stroke-width="1.8"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args, cfg: dict) -> tuple[int, dict]:
    mu = _mu_only(cfg)
    box = _build_box(cfg)
    t_upper = mcharness.scatter_t_upper(box, mu)
    out = _out_dir(args)
    n_points, Ts, devs = mcharness.read_sample(os.path.join(out, "mc_sample.csv"))
    curve_x = t_upper * np.arange(1, 201) / 201
    curve_y = planner.envelope_bound_curve(curve_x, box, mu)
    svg = render_scatter_svg(
        Ts, devs, curve_x, curve_y,
        title="Damage-time deviation vs release period",
        x_label="release period T", y_label="Pi - T1")
    svg_path = os.path.join(out, "envelope.svg")
    tables.write({svg_path: [svg.encode()]})
    return 0, {"points": n_points, "svg": svg_path}


# --------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type for the float flags: nan and inf exit 2 as usage errors."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return v


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bioctl",
        description="Impulsive predator-release simulation and release-"
                    "schedule planning.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, out=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario JSON file")
        if out:
            p.add_argument("--out", default=None,
                           help="output directory (default: current)")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, "check the kernel assumptions")

    p = add("stability", cmd_stability, "pest-free orbit stability verdict")
    p.add_argument("--period", type=_finite_float, default=None,
                   help="override the release period from the config")

    p = add("simulate", cmd_simulate, "integrate the full model", out=True)
    p.add_argument("--x0", type=_finite_float, required=True, help="initial pest density")
    p.add_argument("--y0", type=_finite_float, default=None,
                   help="initial predator density (default: release orbit)")
    p.add_argument("--t0", type=_finite_float, default=0.0, help="start time")
    p.add_argument("--period", type=_finite_float, default=None)

    p = add("damage", cmd_damage,
            "damage time, full model vs conservative comparison model")
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--x0", type=_finite_float, help="initial pest density")
    start.add_argument("--z0", type=_finite_float,
                       help="initial transformed excess (alternative to --x0)")
    p.add_argument("--t0", type=_finite_float, default=0.0,
                   help="invasion phase within the release cycle")
    p.add_argument("--period", type=_finite_float, default=None)

    p = add("optimize", cmd_optimize,
            "release periods that drive the worst case to its floor", out=True)
    p.add_argument("--z0", type=_finite_float, required=True,
                   help="initial transformed excess")

    add("robustness", cmd_robustness,
        "worst-case deviation bound over the uncertainty box", out=True)

    p = add("montecarlo", cmd_montecarlo,
            "random-trial envelope experiment", out=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--engine", choices=mcharness.ENGINES, default=None)

    add("plot", cmd_plot, "scatter + bound SVG from montecarlo output",
        out=True)
    return parser


#: main has frozen the heap; a flag, as gc.get_freeze_count() walks the
#: whole frozen generation on every call
_heap_frozen = False


def main(argv=None) -> int:
    """Run one subcommand.  Its key=value lines are printed only once it
    has returned, so a command that fails leaves stdout empty.

    The first call in a process freezes the heap built so far (numpy's and
    bioctl's import-time objects) out of the garbage collector: the exit-time
    collections stop walking it, and fork workers leave its pages shared."""
    global _heap_frozen
    if not _heap_frozen:
        gc.freeze()
        _heap_frozen = True
    args = _build_parser().parse_args(argv)
    try:
        code, pairs = args.fn(args, load_config(args.config))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InputOverflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _MODEL_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write("".join(f"{key}={_fmt(value)}\n" for key, value in pairs.items()))
    return code


if __name__ == "__main__":
    sys.exit(main())
