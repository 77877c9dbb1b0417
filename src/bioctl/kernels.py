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
  pest-free orbit locally asymptotically stable;
* ``s_sup``: sup over x >= 0 of R(x); budgets above it make the orbit
  globally asymptotically stable (sufficient only).

Both are exact.  For every growth law and response here f = r*x*p(x) and
g = lam*x/q(x), with p one of 1, 1 - x/K, (x/A - 1)(1 - x/K) and q one of
1, 1 + a*x, 1 + a*x + b*x^2, so R = (m*r/lam) * p * q is a polynomial of
degree <= 4.  Its leading coefficient decides boundedness: linear growth
against a saturating response raises :class:`UnboundedRatioError`, as no
finite budget stabilizes the orbit globally.  Otherwise s_sup is the
largest of s_limit and R at the critical points.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "DomainError",
    "InputOverflowError",
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
    "ratio_supremum",
    "validate_kernels",
]


class ConfigError(Exception):
    """A config file or environment setting is malformed; the CLI exits 2."""


class DomainError(ValueError):
    """An argument left the model's domain."""


class InputOverflowError(DomainError):
    """A finite input is too large: a quantity derived from it overflows a
    float.  The CLI treats it as bad input and exits 2."""


class UnboundedRatioError(RuntimeError):
    """m * f(x) / g(x) grows without bound as x grows: the ratio polynomial
    has positive degree and a positive leading coefficient."""


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


# f(x) / (r*x) and lam*x / g(x) as coefficients of u = x/scale, highest
# power first, with scale = K where the growth law has a carrying capacity
_GROWTH_FACTOR = {
    Linear: lambda f: (1.0, (1.0,)),
    Logistic: lambda f: (f.K, (-1.0, 1.0)),
    Allee: lambda f: (f.K, (-f.K / f.A, 1.0 + f.K / f.A, -1.0)),  # (u*K/A - 1)(1 - u)
}
_RESPONSE_FACTOR = {
    HollingI: lambda g, scale: (1.0,),
    HollingII: lambda g, scale: (g.a * scale, 1.0),
    HollingIV: lambda g, scale: (g.b * scale * scale, g.a * scale, 1.0),
}
_RATIO_OVERFLOW = "the kernel parameters are too large: m*f/g overflows a float"


def _horner(c, x: float) -> float:
    """The polynomial c (coefficients highest power first) at x, by Horner's
    rule from 0.0, in Python floats: the same arithmetic as ``np.polyval``."""
    v = 0.0
    for a in c:
        v = v * x + a
    return v


def _derivative(c) -> list:
    """The derivative of c over the least power of two 2^k above its
    degree n: the same roots bit for bit, as scaling by 2^-k is exact, and
    coefficients no larger than c's, so finite where c's are."""
    n = len(c) - 1
    scale = 0.5 ** n.bit_length()
    return [(n - i) * scale * a for i, a in enumerate(c[:-1])]


def _bisect(c, a: float, b: float, neg: bool) -> float:
    """A root of c between a < b, where c(a) < 0 iff neg and c(b) has the
    other sign: bisected until a and b are adjacent floats, then the one
    where |c| is smaller (a on a tie), or a midpoint where c is 0."""
    while True:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return a if abs(_horner(c, a)) <= abs(_horner(c, b)) else b
        v = _horner(c, mid)
        if v == 0.0:
            return mid
        if (v < 0.0) == neg:
            a = mid
        else:
            b = mid


def real_roots(c, lo: float, hi: float) -> list:
    """The real roots in (lo, hi) of the polynomial c (Python floats,
    highest power first; leading zeros drop the degree), in increasing
    order, for finite lo < hi.

    The roots of the derivative, found the same way, cut (lo, hi) into
    pieces on which c is monotone.  A piece whose ends have opposite signs
    holds one root, bisected to adjacent floats.  A cut point where c is 0
    to within the rounding of Horner's rule, (2n + 1)u * sum |c_i| |x|^i
    for degree n and u = 2^-53 (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, 5.1), is a root: a root of even
    multiplicity, or one whose sign change rounding hides.  A root costs
    about 53 evaluations of c near 1 on (0, 1), more many binades below
    the width of (lo, hi).
    """
    c = list(c)
    while c and c[0] == 0.0:
        c.pop(0)
    n = len(c) - 1
    if n < 1:
        return []
    cuts = real_roots(_derivative(c), lo, hi)
    noise = (2 * n + 1) * 2.0 ** -53
    size = [abs(a) for a in c]
    roots = []
    a, va = lo, _horner(c, lo)
    for b in cuts + [hi]:
        vb = _horner(c, b)
        if b < hi and abs(vb) <= noise * _horner(size, abs(b)):
            roots.append(b)
            vb = 0.0
        elif va != 0.0 and vb != 0.0 and (va < 0.0) != (vb < 0.0):
            roots.append(_bisect(c, a, b, va < 0.0))
        a, va = b, vb
    return roots


def ratio_supremum(k: KernelSet):
    """sup over x >= 0 of m * f(x) / g(x), and where it is attained.

    The ratio is the polynomial (m*r/lam) * p * q of the module docstring,
    in u = x/K where the growth law has a carrying capacity K, so that its
    coefficients stay near 1.  Positive degree and leading coefficient:
    :class:`UnboundedRatioError`.  Otherwise the largest of s_limit (the
    x -> 0 limit) and m * f(x) / g(x) -- factored, as the expanded
    coefficients cancel -- at the roots of the derivative (by
    :func:`real_roots`, below its Cauchy bound) where p > 0; elsewhere the
    ratio is <= 0, below any supremum of a ratio that is not constant.
    Where f(x) overflows a float although the ratio does not (x near a
    huge K), the candidate is the factored form (m*r/lam) * p(u) * q(u)
    instead.  A supremum not above s_limit returns (s_limit, 0.0).  A
    coefficient or candidate value that overflows a float:
    :class:`InputOverflowError`.
    """
    scale, p = _GROWTH_FACTOR[type(k.growth)](k.growth)
    s_limit = k.m * k.growth.slope0() / k.response.slope0()
    with np.errstate(all="ignore"):
        q = _RESPONSE_FACTOR[type(k.response)](k.response, scale)
        c = np.trim_zeros(np.polymul(p, q), "f").tolist()
    if not (all(map(math.isfinite, c)) and math.isfinite(s_limit)):
        raise InputOverflowError(_RATIO_OVERFLOW)
    if len(c) == 1:
        return s_limit, 0.0
    if c[0] > 0.0:
        raise UnboundedRatioError(
            "m*f/g grows without bound; no finite budget clears s_sup")
    dc = _derivative(c)
    # leading terms below eps of the largest change the derivative on
    # 0 < u < 1 by less than its rounding, but put a root past the float
    # range (a subnormal a or b) and the Cauchy bound with it
    big = max(map(abs, dc)) * sys.float_info.epsilon
    while len(dc) > 1 and abs(dc[0]) <= big:
        dc.pop(0)
    bound = 1.0 + max((abs(a / dc[0]) for a in dc[1:]), default=0.0)
    best, x_best = s_limit, 0.0
    for u in real_roots(dc, 0.0, bound):
        if not _horner(p, u) > 0.0:
            continue
        x = scale * u
        g = k.response.rate(x)
        s = k.m * k.growth.rate(x) / g if g else math.inf
        if not math.isfinite(s):
            # f(x) alone can overflow where the ratio fits a float
            s = k.m * k.growth.r / k.response.lam * _horner(p, u) * _horner(q, u)
        if not math.isfinite(s):
            raise InputOverflowError(_RATIO_OVERFLOW)
        if s > best:
            best, x_best = s, x
    return best, x_best


def validate_kernels(k: KernelSet) -> KernelReport:
    """Run the kernel sanity checks and fill in both thresholds.

    g and h stay positive on x > 0 by the dataclass constraints (lam > 0,
    a >= 0 and b > 0 keep g's denominator >= 1; e > 0), so those checks
    read the values and slopes at zero.  Failures are flagged, never
    raised: an unbounded ratio gives s_sup = inf and ``ratio_bounded``
    false.
    """
    fp0, gp0 = k.growth.slope0(), k.response.slope0()
    checks = {"growth_zero": k.growth.rate(0.0) == 0.0,
              "consumption_ok": k.response.rate(0.0) == 0.0 and gp0 > 0.0}
    try:
        s_sup, s_argmax = ratio_supremum(k)
        checks["ratio_bounded"] = True
    except UnboundedRatioError:
        s_sup, s_argmax = math.inf, math.nan
        checks["ratio_bounded"] = False
    checks["reproduction_ok"] = (k.numerical.rate(0.0) == 0.0
                                 and k.numerical.e * gp0 > 0.0)
    return KernelReport(fp0, gp0, k.m, k.m * fp0 / gp0, s_sup, s_argmax, checks)
