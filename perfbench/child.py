"""Runs one workload invocation inside a fresh interpreter.

    python3 child.py --src DIR --report FILE [--config CFG] [--trace]
                     [--tracemalloc] -- (setup | cli ARGS... | script PATH ARGS...)

``setup`` imports ``bioctl.cli``, loads the config and exits: a set-up
probe.  ``cli`` calls ``bioctl.cli.main(ARGS)``; ``script`` runs a repo
script as ``__main__``.  The end of set-up is stamped on the first return
of ``bioctl.cli.load_config``.  The report (stamps, return code, peak
RSS, spans) is written with marshal after the target ends; only the
benchmark's own parent process reads it.  The exit code is the target's.
"""

import argparse
import marshal
import runpy
import sys
import time


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--config")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tracemalloc", action="store_true")
    ap.add_argument("target", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    if args.target[:1] == ["--"]:
        args.target = args.target[1:]
    return args


def _stamp_config_load(cli, report):
    load_config = cli.load_config

    def stamped(path):
        cfg = load_config(path)
        report.setdefault("t_setup", time.monotonic())
        return cfg

    cli.load_config = stamped


def _measure_run_mc(report):
    import tracemalloc

    from tracer import rebind

    mcharness = sys.modules["bioctl.mcharness"]
    run_mc = mcharness.run_mc

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return run_mc(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            report["run_mc_peak_bytes"] = max(report.get("run_mc_peak_bytes", 0), peak)

    rebind({id(run_mc): measured})


def _peak_rss_kb():
    """High-water RSS of this process's own address space (VmHWM).

    ``ru_maxrss`` as wait4 reports it is no use here: Linux carries the
    spawning parent's high-water mark across fork and exec into it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _run_target(target):
    kind, rest = target[0], target[1:]
    if kind == "cli":
        from bioctl.cli import main
        return main(rest)
    if kind == "script":
        sys.argv = list(rest)
        try:
            runpy.run_path(rest[0], run_name="__main__")
        except SystemExit as e:
            code = e.code
            if code is None:
                return 0
            if isinstance(code, int):
                return code
            print(code, file=sys.stderr)
            return 1
        return 0
    raise SystemExit(f"unknown target kind {kind!r}")


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, args.src)
    report = {}
    import bioctl.cli as cli

    report["bioctl_file"] = cli.__file__
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    _stamp_config_load(cli, report)
    if args.tracemalloc:
        _measure_run_mc(report)
    if args.target == ["setup"]:
        cli.load_config(args.config)
        rc = 0
    else:
        rc = _run_target(args.target)
    report["rc"] = rc
    report["peak_rss_kb"] = _peak_rss_kb()
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counters"] = tracer.counters
    sys.stdout.flush()
    with open(args.report, "wb") as fh:
        marshal.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
