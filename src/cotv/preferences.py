"""Utility-of-time and probability-weighting families with risk coefficients.

Time spent in a mobility service is a bad, so every utility here is
non-increasing and every weighting increasing; construction certifies that,
in closed form for the built-in families, and fails loudly otherwise.  Risk
coefficients follow the time-domain sign convention: with u' <= 0 the ratio
u''/u' is already non-negative for a risk-averse user, so no extra minus sign
is attached to absolute/relative risk aversion, while prudence keeps one so
that a prudent user also gets a non-negative coefficient.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DerivativeZeroError,
    DomainError,
    MonotonicityError,
    UndefinedCoefficientError,
    ValidationError,
)

__all__ = [
    "UtilityFunction",
    "QuadraticUtility",
    "PureQuadraticUtility",
    "PowerUtility",
    "ConstantPrudenceUtility",
    "AffineUtility",
    "WeightingFunction",
    "IdentityWeighting",
    "PowerWeighting",
    "InverseSWeighting",
    "RiskProfile",
    "RiskAttitude",
    "MomentPreference",
    "RRA_BENCHMARK",
    "RP_BENCHMARK",
    "risk_coefficients",
    "classify_risk_attitude",
    "classify_moment_preference",
    "weighting_derivative_ratio",
    "eta_from_coefficients",
]

# Benchmark coefficient values separating moment-reduction preferences:
# relative risk aversion 1 balances mean against variance reductions,
# relative prudence 2 balances variance against skewness reductions.
RRA_BENCHMARK = 1.0
RP_BENCHMARK = 2.0

_GRID_POINTS = 101
_SIGN_SLACK = 1e-12

# the points inside (0, 1) where a weighting's slope is certified.  A power or
# inverse-S slope can underflow or be NaN only past gamma 50, and there the
# grid's verdict is decided where one first underflows (0.001) or is 0/0 (0.5)
_WEIGHTING_GRID = np.linspace(0.001, 0.999, 199)
_WEIGHTING_GRID.flags.writeable = False
_DECIDING_POINTS, _GAMMA_SAFE = _WEIGHTING_GRID[[0, 99]], 50.0


class UtilityFunction:
    """Non-increasing utility of service time with three derivatives.

    ``interval`` is the certification range: u'(lo) <= 0 where ``_concave``
    states u'' <= 0, else a grid, certifies monotonicity.  Evaluation outside
    the interval is permitted wherever the family's formula is defined,
    but a valuation report, and each view that reads u at the mean, needs
    the mean time (an RDU band's t0) inside it: ``DomainError`` otherwise,
    also beyond the (0, 1000) default of a polynomial utility whose u' is
    negative there.
    """

    family: str = "abstract"
    _concave: bool = False
    # (a, b, c) of a utility linear in {t^2, t, 1}, u = a t^2 + b t + c;
    # None for a utility that is not
    basis: tuple[float, float, float] | None = None

    def __init__(self, interval: tuple[float, float]):
        lo, hi = float(interval[0]), float(interval[1])
        if not lo < hi:
            raise ValidationError("working interval requires lo < hi")
        self.interval = (lo, hi)
        self._certify_monotone()

    # subclasses implement u, du, d2u, d3u as vectorised callables; the
    # polynomial families return a Python float for a Python float
    def u(self, t):
        raise NotImplementedError

    def du(self, t):
        raise NotImplementedError

    def d2u(self, t):
        raise NotImplementedError

    def d3u(self, t):
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError

    def grid(self, points: int = _GRID_POINTS) -> np.ndarray:
        return np.linspace(self.interval[0], self.interval[1], points)

    def _certify_monotone(self) -> None:
        if self._concave:  # u' is largest at lo; lo and hi end the grid
            slopes = [float(self.du(t)) for t in self.interval]
            finite, rising = all(map(math.isfinite, slopes)), slopes[0] > _SIGN_SLACK
        else:
            slopes = np.asarray(self.du(self.grid()), dtype=float)
            finite, rising = np.all(np.isfinite(slopes)), np.any(slopes > _SIGN_SLACK)
        if not finite:
            raise ValidationError(
                f"{self.family}: derivative not finite on the working interval")
        if rising:
            raise MonotonicityError(
                f"{self.family}: utility is not non-increasing on "
                f"[{self.interval[0]:g}, {self.interval[1]:g}]")

    def label(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in self.params().items())
        return f"{self.family}({inner})"


class _PolynomialUtility(UtilityFunction):
    """u(t) = a t^2 + b t + c, whose subclasses set a, b and c: the
    quadratic utilities, and the affine one as the a = 0 member.

    A Python float stays one: numpy's t**2 squares, so t * t and the same
    association give numpy's bits without its per-call cost.  A result that
    is not finite is recomputed by numpy, which warns about the overflow.
    ``basis`` is (a, b, c): against any distorted measure, E_w[u] =
    a E_w[t^2] + b E_w[t] + c and E_w[u'] = 2a E_w[t] + b.
    """
    _concave = True  # a <= 0

    @property
    def basis(self) -> tuple[float, float, float]:
        return self.a, self.b, self.c

    def u(self, t):
        if type(t) is float:
            value = self.a * (t * t) + self.b * t + self.c
            if math.isfinite(value):
                return value
        t = np.asarray(t, dtype=float)
        return self.a * t**2 + self.b * t + self.c

    def du(self, t):
        if type(t) is float:
            value = 2.0 * self.a * t + self.b
            if math.isfinite(value):
                return value
        t = np.asarray(t, dtype=float)
        return 2.0 * self.a * t + self.b

    def d2u(self, t):
        if type(t) is float:
            return 2.0 * self.a
        return np.full_like(np.asarray(t, dtype=float), 2.0 * self.a)

    def d3u(self, t):
        if type(t) is float:
            return 0.0
        return np.zeros_like(np.asarray(t, dtype=float))


class QuadraticUtility(_PolynomialUtility):
    """u(t) = a t^2 + b t + c with a < 0 and b <= 0.

    The sign constraints are exactly what keeps the parabola non-increasing
    on the whole positive axis, and they pin relative risk aversion into
    [0, 1] there.
    """

    family = "quadratic"

    def __init__(self, a: float, b: float = 0.0, c: float = 0.0,
                 interval: tuple[float, float] = (0.0, 1000.0)):
        if not a < 0:
            raise ValidationError("quadratic utility requires a < 0")
        if b > 0:
            raise ValidationError("quadratic utility requires b <= 0")
        self.a, self.b, self.c = float(a), float(b), float(c)
        super().__init__(interval)

    def params(self):
        return {"a": self.a, "b": self.b, "c": self.c}


class PureQuadraticUtility(QuadraticUtility):
    """u(t) = a t^2 + c; the boundary member attaining the quadratic bound."""

    family = "pure_quadratic"

    def __init__(self, a: float, c: float = 0.0,
                 interval: tuple[float, float] = (0.0, 1000.0)):
        super().__init__(a, 0.0, c, interval)

    def params(self):
        return {"a": self.a, "c": self.c}


class PowerUtility(UtilityFunction):
    """u(t) = -t^k for k > 1; relative risk aversion k-1, relative prudence 2-k."""

    family = "power"
    _concave = True  # k > 1 on t >= 0

    def __init__(self, exponent: float,
                 interval: tuple[float, float] = (0.01, 1000.0)):
        if not exponent > 1:
            raise ValidationError("power utility requires exponent > 1")
        if interval[0] < 0:
            raise ValidationError("power utility lives on non-negative times")
        self.exponent = float(exponent)
        super().__init__(interval)

    def u(self, t):
        t = np.asarray(t, dtype=float)
        return -np.power(t, self.exponent)

    def du(self, t):
        k = self.exponent
        t = np.asarray(t, dtype=float)
        return -k * np.power(t, k - 1)

    def d2u(self, t):
        k = self.exponent
        t = np.asarray(t, dtype=float)
        return -k * (k - 1) * np.power(t, k - 2)

    def d3u(self, t):
        k = self.exponent
        t = np.asarray(t, dtype=float)
        return -k * (k - 1) * (k - 2) * np.power(t, k - 3)

    def params(self):
        return {"exponent": self.exponent}


class ConstantPrudenceUtility(UtilityFunction):
    """Family with constant relative prudence, built from u''(t) = -c t^(-r).

    Direct integration gives u' and u with u'(1) = slope_at_one and
    u(1) = 0.  Since u'' < 0 everywhere on t > 0, u' is decreasing, so a
    negative slope at the left end of the working interval certifies
    monotonicity on all of it; construction fails loudly otherwise.  Power
    utilities only reach relative prudence below 1; this family covers both
    sides of the benchmark value 2.
    """

    family = "constant_prudence"
    _concave = True  # u'' = -c t^(-r) < 0

    def __init__(self, prudence: float, curvature: float = 1.0,
                 slope_at_one: float = -1.0,
                 interval: tuple[float, float] = (1.0, 1000.0)):
        if not curvature > 0:
            raise ValidationError("curvature must be positive")
        if not slope_at_one < 0:
            raise ValidationError("slope_at_one must be negative")
        if interval[0] <= 0:
            raise ValidationError("constant-prudence utility lives on t > 0")
        self.prudence = float(prudence)
        self.curvature = float(curvature)
        self.slope_at_one = float(slope_at_one)
        super().__init__(interval)

    def _du_integral(self, t):
        # integral of u'' from 1 to t
        r, c = self.prudence, self.curvature
        if r == 1.0:
            return -c * np.log(t)
        return -c * (np.power(t, 1.0 - r) - 1.0) / (1.0 - r)

    def u(self, t):
        t = np.asarray(t, dtype=float)
        r, c, d1 = self.prudence, self.curvature, self.slope_at_one
        if r == 1.0:
            tail = -c * (t * np.log(t) - t + 1.0)
        elif r == 2.0:
            tail = c * (np.log(t) - (t - 1.0))
        else:
            tail = -c / (1.0 - r) * (
                (np.power(t, 2.0 - r) - 1.0) / (2.0 - r) - (t - 1.0))
        return d1 * (t - 1.0) + tail

    def du(self, t):
        t = np.asarray(t, dtype=float)
        return self.slope_at_one + self._du_integral(t)

    def d2u(self, t):
        t = np.asarray(t, dtype=float)
        return -self.curvature * np.power(t, -self.prudence)

    def d3u(self, t):
        t = np.asarray(t, dtype=float)
        return self.curvature * self.prudence * np.power(t, -self.prudence - 1.0)

    def params(self):
        return {"prudence": self.prudence, "curvature": self.curvature,
                "slope_at_one": self.slope_at_one}


class AffineUtility(_PolynomialUtility):
    """u(t) = -m t + c; the risk-neutral user, the a = 0 member of the
    polynomial utilities with b = -m."""

    family = "affine"

    def __init__(self, slope: float = 1.0, intercept: float = 0.0,
                 interval: tuple[float, float] = (0.0, 1000.0)):
        if not slope > 0:
            raise ValidationError("affine slope must be positive")
        self.slope, self.intercept = float(slope), float(intercept)
        self.a, self.b, self.c = 0.0, -self.slope, self.intercept
        super().__init__(interval)

    # its own u: the shared a * (t * t) is 0 * inf, NaN, beyond |t| = 1.3e154
    def u(self, t):
        if type(t) is float:
            value = -self.slope * t + self.intercept
            if math.isfinite(value):
                return value
        t = np.asarray(t, dtype=float)
        return -self.slope * t + self.intercept

    def params(self):
        return {"slope": self.slope, "intercept": self.intercept}


# --------------------------------------------------------------------------
# probability weighting
# --------------------------------------------------------------------------

class WeightingFunction:
    """Probability weighting on [0, 1]: w(0)=0, w(1)=1, w' > 0 inside."""

    family: str = "abstract"

    def __init__(self):
        self._certify()

    def w(self, p):
        raise NotImplementedError

    def dw(self, p, q=None):
        """w'(p); ``q``, if given, is 1 - p computed without rounding, which
        a slope that depends on 1 - p reads in its place."""
        raise NotImplementedError

    def d2w(self, p):
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    def _certify(self, points: np.ndarray = _WEIGHTING_GRID) -> None:
        # Written so that a NaN fails every test; a non-finite value becomes
        # a ValidationError, so numpy's warnings about it are silenced.
        with np.errstate(all="ignore"):
            ends = np.asarray(self.w(np.array([0.0, 1.0])), dtype=float)
            slopes = np.asarray(self.dw(points), dtype=float)
        if not (abs(ends[0]) <= 1e-12 and abs(ends[1] - 1.0) <= 1e-12):
            raise ValidationError(f"{self.family}: requires w(0)=0 and w(1)=1")
        if not np.all(np.isfinite(slopes)):
            raise ValidationError(f"{self.family}: derivative not finite on (0, 1)")
        if not np.all(slopes > 0):
            raise ValidationError(
                f"{self.family}: weighting must be strictly increasing on (0, 1)")

    def label(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in self.params().items())
        return f"{self.family}({inner})" if inner else self.family


class IdentityWeighting(WeightingFunction):
    """w(p) = p; collapses any rank-dependent evaluation to plain expectation."""

    family = "identity"

    def _certify(self) -> None:
        pass  # w(p) = p

    def w(self, p):
        return np.asarray(p, dtype=float)

    def dw(self, p, q=None):
        return np.ones_like(np.asarray(p, dtype=float))

    def d2w(self, p):
        return np.zeros_like(np.asarray(p, dtype=float))


class PowerWeighting(WeightingFunction):
    """w(p) = p^gamma, gamma > 0."""

    family = "power"

    def __init__(self, gamma: float):
        if not gamma > 0:
            raise ValidationError("power weighting requires gamma > 0")
        self.gamma = float(gamma)
        super().__init__()

    def _certify(self) -> None:
        # increasing for every g > 0, with w(0) = 0 and w(1) = 1 exactly
        if not self.gamma <= _GAMMA_SAFE:
            super()._certify(_DECIDING_POINTS)

    def w(self, p):
        return np.power(np.asarray(p, dtype=float), self.gamma)

    def dw(self, p, q=None):
        g = self.gamma
        return g * np.power(np.asarray(p, dtype=float), g - 1.0)

    def d2w(self, p):
        g = self.gamma
        return g * (g - 1.0) * np.power(np.asarray(p, dtype=float), g - 2.0)

    def params(self):
        return {"gamma": self.gamma}


class InverseSWeighting(WeightingFunction):
    """Inverse-S weighting w(p) = p^g / (p^g + (1-p)^g)^(1/g).

    Overweights small probabilities and underweights large ones for g < 1.
    Derivatives are closed-form.  w' has the sign of (g-1) p^g + g (1-p)^g
    + p (1-p)^(g-1), whose least value over p is 0 at g = 0.2792042470...,
    so w increases exactly from there (Ingersoll 2008); a smaller g fails.
    """

    family = "inverse_s"

    def __init__(self, gamma: float):
        if not gamma > 0:
            raise ValidationError("inverse_s weighting requires gamma > 0")
        self.gamma = float(gamma)
        super().__init__()

    def _certify(self) -> None:
        if self.gamma < 0.27920424701493857:  # the threshold, rounded up
            raise ValidationError(
                f"{self.family}: weighting must be strictly increasing on (0, 1)")
        if not self.gamma <= _GAMMA_SAFE:  # w(0) = 0 and w(1) = 1 exactly
            super()._certify(_DECIDING_POINTS)

    def w(self, p):
        g = self.gamma
        p = np.asarray(p, dtype=float)
        a = np.power(p, g)
        b = np.power(1.0 - p, g)
        return a / np.power(a + b, 1.0 / g)

    def dw(self, p, q=None):
        g = self.gamma
        p = np.asarray(p, dtype=float)
        q = 1.0 - p if q is None else np.asarray(q, dtype=float)
        a = np.power(p, g)
        s = a + np.power(q, g)
        n = np.power(p, g - 1.0) - np.power(q, g - 1.0)
        return a / np.power(s, 1.0 / g) * (g / p - n / s)

    def d2w(self, p):
        p = np.asarray(p, dtype=float)
        g = self.gamma
        s = np.power(p, g) + np.power(1.0 - p, g)
        n = np.power(p, g - 1.0) - np.power(1.0 - p, g - 1.0)
        dn = (g - 1.0) * (np.power(p, g - 2.0) + np.power(1.0 - p, g - 2.0))
        h = g / p - n / s
        dh = -g / p**2 - (dn * s - g * n**2) / s**2
        return self.w(p) * (h**2 + dh)

    def params(self):
        return {"gamma": self.gamma}


# --------------------------------------------------------------------------
# risk coefficients and classification
# --------------------------------------------------------------------------

class RiskProfile(NamedTuple):
    """Pointwise risk coefficients plus interval-level attitude flags.

    ``abs_prudence``/``rel_prudence`` are ``None`` when the second
    derivative vanishes at the evaluation point (affine utility).
    ``d3_sign`` surfaces the raw sign of u''' so consumers preferring the
    opposite prudence convention can re-read the flag.
    """

    at_time: float
    abs_risk_aversion: float
    rel_risk_aversion: float
    abs_prudence: float | None
    rel_prudence: float | None
    risk_averse: bool
    prudent: bool
    d3_sign: int

    def to_dict(self) -> dict:
        return self._asdict()


class RiskAttitude(NamedTuple):
    risk_averse: bool
    prudent: bool


class MomentPreference(NamedTuple):
    """Which moment reductions the user values more, per benchmark values."""

    mean_vs_variance: str
    variance_vs_skewness: str

    def to_dict(self) -> dict:
        return self._asdict()


def classify_risk_attitude(u: UtilityFunction,
                           points: int = _GRID_POINTS) -> RiskAttitude:
    """Grid certification of concavity (risk aversion) and convex marginal
    utility (prudence) over the working interval."""
    grid = u.grid(points)
    d2 = np.asarray(u.d2u(grid), dtype=float)
    d3 = np.asarray(u.d3u(grid), dtype=float)
    return RiskAttitude(
        risk_averse=bool(np.all(d2 <= _SIGN_SLACK)),
        prudent=bool(np.all(d3 >= -_SIGN_SLACK)),
    )


def risk_coefficients(u: UtilityFunction, t: float) -> RiskProfile:
    """Absolute/relative risk aversion and prudence of ``u`` at time ``t``."""
    d1 = float(u.du(t))
    d2 = float(u.d2u(t))
    d3 = float(u.d3u(t))
    if d1 == 0.0:
        raise DerivativeZeroError(f"u'({t}) = 0: risk aversion undefined")
    a2 = d2 / d1
    if d2 == 0.0:
        a3 = None
        r3 = None
    else:
        a3 = -d3 / d2
        r3 = t * a3
    attitude = classify_risk_attitude(u)
    return RiskProfile(
        at_time=float(t),
        abs_risk_aversion=a2,
        rel_risk_aversion=t * a2,
        abs_prudence=a3,
        rel_prudence=r3,
        risk_averse=attitude.risk_averse,
        prudent=attitude.prudent,
        d3_sign=int(np.sign(d3)),
    )


def classify_moment_preference(profile: RiskProfile,
                               tie_tol: float = 1e-9) -> MomentPreference:
    """Labels against the benchmark values.

    Relative risk aversion above 1 means variance reductions beat mean
    reductions at the margin; relative prudence above 2 means skewness
    reductions beat variance reductions.
    """
    r2 = profile.rel_risk_aversion
    if r2 is None or not math.isfinite(r2):
        raise UndefinedCoefficientError("relative risk aversion undefined")
    if abs(r2 - RRA_BENCHMARK) <= tie_tol:
        mean_vs_variance = "indifferent"
    elif r2 > RRA_BENCHMARK:
        mean_vs_variance = "variance-priority"
    else:
        mean_vs_variance = "mean-priority"

    r3 = profile.rel_prudence
    if r3 is None:
        raise UndefinedCoefficientError("relative prudence undefined")
    if abs(r3 - RP_BENCHMARK) <= tie_tol:
        variance_vs_skewness = "indifferent"
    elif r3 > RP_BENCHMARK:
        variance_vs_skewness = "skewness-priority"
    else:
        variance_vs_skewness = "variance-priority"
    return MomentPreference(mean_vs_variance, variance_vs_skewness)


def weighting_derivative_ratio(w: WeightingFunction, p0: float) -> float:
    """Curvature-to-slope ratio w''(p0)/w'(p0) of a weighting function."""
    if not 0 < p0 < 1:
        raise DomainError("p0 must lie strictly inside (0, 1)")
    slope = float(w.dw(p0))
    if slope == 0.0:
        raise DerivativeZeroError(f"w'({p0}) = 0")
    return float(w.d2w(p0)) / slope


def _off_pole(denominator: float) -> float:
    """``denominator`` of a second-order closed form; ``DomainError`` at
    its pole, where 1 + R2 R3 CV^2 / 2 = 0."""
    if denominator == 0.0:
        raise DomainError("second-order closed form has a pole: 1 + R2 R3 CV^2 / 2 = 0")
    return denominator


def eta_from_coefficients(r2: float, r3: float, cv: float) -> float:
    """Reliability ratio 1 / (1 + r2 * r3 * cv^2 / 2) from raw coefficients."""
    return 1.0 / _off_pole(1.0 + 0.5 * r2 * r3 * cv**2)
