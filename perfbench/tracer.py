"""Span recording from outside the package, loaded only in a traced child.

Every function named in a bioctl module's ``__all__`` is replaced by a
wrapper that records one span per call, in every bioctl namespace that
bound the function (``cli`` imports ``validate_kernels`` by name, for
instance).  Public methods of the public classes are wrapped the same way,
except the kernel ``rate`` methods: they are the right-hand-side hot path
of the full model, so they only bump a counter.  The ``solve_ivp`` name
bound in ``impulsim`` is wrapped too, as the boundary to scipy.

A span is ``(id, parent_id, name, start, end, error)`` with times from
``time.monotonic`` (one clock for the whole machine, so the parent can
line spans up with its own spawn and exit stamps).  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

LAYERS = ("kernels", "orbit", "planner", "impulsim", "mcharness", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = None
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                error = type(e).__name__
                raise
            finally:
                end = time.monotonic()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, error))
        return wrapper

    def counter(self, name, fn):
        # called from the main thread only (the full engine's rhs), so a
        # plain increment does not lose updates
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def rebind(replacements: dict) -> None:
    """Point every bioctl-module global bound to a replaced object at its
    replacement, so calls made through any namespace are seen."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "bioctl" or mod_name.startswith("bioctl.")):
            continue
        for key, value in list(vars(mod).items()):
            new = replacements.get(id(value))
            if new is not None:
                setattr(mod, key, new)


def install(tracer: Tracer) -> None:
    """Wrap the public surface of every bioctl module (import them first)."""
    replacements = {}
    for layer in LAYERS:
        mod = sys.modules[f"bioctl.{layer}"]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                replacements[id(obj)] = tracer.span(f"{layer}.{name}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_methods(tracer, layer, obj)
    impulsim = sys.modules["bioctl.impulsim"]
    solve_ivp = impulsim.solve_ivp
    replacements[id(solve_ivp)] = tracer.span("impulsim.solve_ivp", solve_ivp)
    rebind(replacements)


def _wrap_methods(tracer: Tracer, layer: str, cls) -> None:
    # methods are patched on the class itself, so isinstance checks and
    # dataclass equality keep working
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if layer == "kernels" and attr == "rate":
            setattr(cls, attr, tracer.counter("kernels.rate", value))
        else:
            setattr(cls, attr, tracer.span(f"{layer}.{cls.__name__}.{attr}", value))
