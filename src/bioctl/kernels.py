"""Vital-rate kernels of the pest-predator release model.

The controlled system couples a pest density x(t) with a released-predator
density y(t):

    dx/dt = f(x) - g(x) * y
    dy/dt = h(x) * y - m * y

f is the pest growth law, g the per-predator consumption rate (functional
response), h the predator reproduction rate (numerical response) and m > 0
the constant predator mortality.  Everything downstream (orbit stability,
damage-time planning) touches the kernels only through f'(0), g'(0) and the
consumption-scaled growth ratio R(x) = m * f(x) / g(x), extended to x = 0 by
its limit m * f'(0) / g'(0).  Two budget thresholds fall out:

* ``s_limit``: m * f'(0) / g'(0); release budgets above it make the
  pest-free orbit locally asymptotically stable (and this is exact);
* ``s_sup``: sup over x >= 0 of R(x); budgets above it make the orbit
  globally asymptotically stable (sufficient only).

``ratio_supremum`` locates s_sup by closed form where the variant pair
admits one, otherwise by a log-spaced grid scan refined with golden
section.  Ratios that keep growing at the scan ceiling (e.g. linear growth
against a saturating response) raise :class:`UnboundedRatioError`: no
finite budget stabilizes those globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "DomainError",
    "UnboundedRatioError",
    "Linear",
    "Logistic",
    "Allee",
    "HollingI",
    "HollingII",
    "HollingIV",
    "Proportional",
    "KernelSet",
    "KernelReport",
    "eval_rates",
    "derivatives_at_zero",
    "ratio_supremum",
    "validate_kernels",
]


class ConfigError(Exception):
    """A config file or environment setting is malformed; the CLI exits 2."""


class DomainError(ValueError):
    """An argument left the model's domain."""


class UnboundedRatioError(RuntimeError):
    """m * f(x) / g(x) is still climbing at the scan ceiling."""


# --------------------------------------------------------------------------
# growth laws


@dataclass(frozen=True)
class Linear:
    """f(x) = r * x."""

    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise DomainError(f"growth rate must be positive, got r={self.r}")

    def rate(self, x):
        return self.r * x

    def slope0(self) -> float:
        return self.r


@dataclass(frozen=True)
class Logistic:
    """f(x) = r * x * (1 - x/K) with carrying capacity K."""

    r: float
    K: float

    def __post_init__(self):
        if self.r <= 0:
            raise DomainError(f"growth rate must be positive, got r={self.r}")
        if self.K <= 0:
            raise DomainError(f"carrying capacity must be positive, got K={self.K}")

    def rate(self, x):
        return self.r * x * (1.0 - x / self.K)

    def slope0(self) -> float:
        return self.r


@dataclass(frozen=True)
class Allee:
    """f(x) = r * x * (x/A - 1) * (1 - x/K): negative growth below the
    threshold A, logistic-like saturation at K."""

    r: float
    A: float
    K: float

    def __post_init__(self):
        if self.r <= 0:
            raise DomainError(f"growth rate must be positive, got r={self.r}")
        if not 0.0 < self.A < self.K:
            raise DomainError(
                f"need 0 < A < K, got A={self.A}, K={self.K}")

    def rate(self, x):
        return self.r * x * (x / self.A - 1.0) * (1.0 - x / self.K)

    def slope0(self) -> float:
        return -self.r


# --------------------------------------------------------------------------
# functional responses


@dataclass(frozen=True)
class HollingI:
    """g(x) = lam * x."""

    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise DomainError(f"attack rate must be positive, got lam={self.lam}")

    def rate(self, x):
        return self.lam * x

    def slope0(self) -> float:
        return self.lam


@dataclass(frozen=True)
class HollingII:
    """g(x) = lam * x / (1 + a*x), saturating for a > 0."""

    lam: float
    a: float

    def __post_init__(self):
        if self.lam <= 0:
            raise DomainError(f"attack rate must be positive, got lam={self.lam}")
        if self.a < 0:
            raise DomainError(f"handling coefficient must be nonnegative, got a={self.a}")

    def rate(self, x):
        return self.lam * x / (1.0 + self.a * x)

    def slope0(self) -> float:
        return self.lam


@dataclass(frozen=True)
class HollingIV:
    """g(x) = lam * x / (1 + a*x + b*x^2): consumption drops again at high
    prey density (group defense)."""

    lam: float
    a: float
    b: float

    def __post_init__(self):
        if self.lam <= 0:
            raise DomainError(f"attack rate must be positive, got lam={self.lam}")
        if self.a < 0:
            raise DomainError(f"handling coefficient must be nonnegative, got a={self.a}")
        if self.b <= 0:
            raise DomainError(f"interference coefficient must be positive, got b={self.b}")

    def rate(self, x):
        return self.lam * x / (1.0 + self.a * x + self.b * x * x)

    def slope0(self) -> float:
        return self.lam


# --------------------------------------------------------------------------
# numerical response


GrowthLaw = Union[Linear, Logistic, Allee]
FunctionalResponse = Union[HollingI, HollingII, HollingIV]


@dataclass(frozen=True)
class Proportional:
    """h(x) = e * g(x): reproduction proportional to consumption, with
    conversion efficiency e."""

    e: float
    response: FunctionalResponse

    def __post_init__(self):
        if self.e <= 0:
            raise DomainError(f"conversion efficiency must be positive, got e={self.e}")

    def rate(self, x):
        return self.e * self.response.rate(x)


NumericalResponse = Proportional


@dataclass(frozen=True)
class KernelSet:
    """One complete choice of (f, g, h, m)."""

    growth: GrowthLaw
    response: FunctionalResponse
    numerical: NumericalResponse
    m: float

    def __post_init__(self):
        if self.m <= 0:
            raise DomainError(f"mortality must be positive, got m={self.m}")
        if self.numerical.response != self.response:
            raise DomainError("numerical response must wrap the same functional response")


@dataclass(frozen=True)
class KernelReport:
    """Thresholds and per-condition sanity checks for one kernel set.

    ``checks`` holds one boolean per kernel condition: the growth law
    vanishes at zero; consumption vanishes at zero with positive slope and
    stays positive; the consumption-scaled growth ratio stays bounded;
    reproduction vanishes at zero and stays positive.
    """

    growth_slope0: float
    response_slope0: float
    m: float
    s_limit: float
    s_sup: float
    s_argmax: float
    checks: dict

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())


# --------------------------------------------------------------------------
# operations


def eval_rates(k: KernelSet, x):
    """(f(x), g(x), h(x)) for scalar or array x >= 0."""
    if np.any(np.asarray(x) < 0):
        raise DomainError("pest density must be nonnegative")
    return k.growth.rate(x), k.response.rate(x), k.numerical.rate(x)


def derivatives_at_zero(k: KernelSet):
    """Analytic (f'(0), g'(0)); no finite differencing involved."""
    return k.growth.slope0(), k.response.slope0()


def _default_xmax(k: KernelSet) -> float:
    K = getattr(k.growth, "K", None)
    return 100.0 * K if K is not None else 1e4


def _ratio(k: KernelSet, x, s_limit: float):
    if x <= 0.0:
        return s_limit
    return k.m * k.growth.rate(x) / k.response.rate(x)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fun, a, b, tol, max_iter=200):
    # golden-section search for the maximum of a unimodal function on [a, b]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def _closed_form_sup(k: KernelSet):
    """(s_sup, argmax) when the variant pair admits a closed form, else None.

    Raises UnboundedRatioError for pairs whose ratio provably grows without
    bound.
    """
    gl, fr = k.growth, k.response
    scale = k.m * gl.r / fr.lam
    if isinstance(gl, Linear):
        # ratio is scale * (1 + a x [+ b x^2]): constant only for plain
        # proportional consumption
        if isinstance(fr, HollingI) or (isinstance(fr, HollingII) and fr.a == 0.0):
            return scale, 0.0
        raise UnboundedRatioError(
            "linear growth with a saturating response: m*f/g grows without bound")
    if isinstance(gl, Logistic):
        if isinstance(fr, HollingI):
            # scale * (1 - x/K) decreases; the supremum sits at the x -> 0 limit
            return scale, 0.0
        if isinstance(fr, HollingII):
            if fr.a * gl.K <= 1.0:
                return scale, 0.0
            x_star = (fr.a * gl.K - 1.0) / (2.0 * fr.a)
            return scale * (1.0 - x_star / gl.K) * (1.0 + fr.a * x_star), x_star
    if isinstance(gl, Allee) and isinstance(fr, HollingI):
        x_star = 0.5 * (gl.A + gl.K)
        return scale * (gl.K - gl.A) ** 2 / (4.0 * gl.A * gl.K), x_star
    return None


def ratio_supremum(k: KernelSet, x_max=None, tol=1e-10, grid_n=4096,
                   allow_closed_form=True):
    """sup over x >= 0 of m * f(x) / g(x), and where it is attained.

    Closed-form vertex where the variant pair has one; otherwise a
    log-spaced scan over (0, x_max] refined by golden section.  A finite
    scan cannot certify boundedness, so a ratio that is still rising at
    the ceiling raises :class:`UnboundedRatioError`.
    """
    if x_max is None:
        x_max = _default_xmax(k)
    if x_max <= 0:
        raise DomainError("x_max must be positive")
    s_limit = k.m * k.growth.slope0() / k.response.slope0()
    if allow_closed_form:
        closed = _closed_form_sup(k)
        if closed is not None:
            return closed
    xs = np.geomspace(x_max * 1e-9, x_max, grid_n)
    vals = k.m * np.asarray(k.growth.rate(xs)) / np.asarray(k.response.rate(xs))
    if vals[-1] > vals[:-1].max() and vals[-1] > vals[-2]:
        raise UnboundedRatioError(
            f"m*f/g still increasing at x_max={x_max:g}; no finite budget "
            "clears a global threshold")
    best = int(np.argmax(vals))
    if vals[best] <= s_limit:
        return s_limit, 0.0
    lo = xs[best - 1] if best > 0 else 0.0
    hi = xs[best + 1] if best + 1 < len(xs) else xs[-1]
    x_star = _golden_max(lambda x: _ratio(k, x, s_limit), lo, hi, tol)
    s = _ratio(k, x_star, s_limit)
    if s <= s_limit:
        return s_limit, 0.0
    return float(s), float(x_star)


def validate_kernels(k: KernelSet, x_max=None, grid_n=4096) -> KernelReport:
    """Run the kernel sanity checks and fill in both thresholds.

    Failures are flagged in the report, never raised: an unbounded ratio
    yields s_sup = inf with the ``ratio_bounded`` check false.
    """
    if grid_n < 100:
        raise DomainError("grid_n must be at least 100")
    if x_max is None:
        x_max = _default_xmax(k)
    fp0, gp0 = derivatives_at_zero(k)
    s_limit = k.m * fp0 / gp0
    xs = np.geomspace(x_max * 1e-9, x_max, grid_n)
    f0, g0, h0 = eval_rates(k, 0.0)
    _, gs, hs = eval_rates(k, xs)
    checks = {"growth_zero": f0 == 0.0}
    checks["consumption_ok"] = g0 == 0.0 and gp0 > 0 and bool(np.all(gs > 0))
    try:
        s_sup, s_argmax = ratio_supremum(k, x_max=x_max, grid_n=grid_n)
        checks["ratio_bounded"] = True
    except UnboundedRatioError:
        s_sup, s_argmax = math.inf, math.nan
        checks["ratio_bounded"] = False
    checks["reproduction_ok"] = h0 == 0.0 and bool(np.all(hs > 0))
    return KernelReport(fp0, gp0, k.m, s_limit, s_sup, s_argmax, checks)
