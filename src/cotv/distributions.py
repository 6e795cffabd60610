"""Service-time models and their primal and dual moments.

A service-time model provides pdf/cdf/quantile/sampler plus closed-form
primal moments where the family permits.  On top of the ordinary moments
the module computes two probability-plane dispersion measures:

* the *dual moment about the mean*, the expected improvement of the better
  of two independent draws over the single-draw mean, and
* the *dual moment about the variance*, the same construction applied to
  the squared deviation from the mean.

Every expectation goes through one primitive,
``ServiceTimeModel._expects(terms)``: the integrals of each g of
``terms`` against its d(w(F)), over one window.  ``w=None`` is the plain
expectation, and the dual moments are the w(p) = p^2 case, expectations
under d(F^2); ``distorted_expect(g, w)`` is the one-term view.  No
report integrates a dual moment: every continuous family and its shifted
and scaled views give the two in closed form, and a discrete model sums
them exactly (``_closed_dual_moments``).
Continuous models integrate by quadrature in one node pass: a report's
integrals run one after another, and the nodes of each refinement
request, with their pdf, cdf and w'(F) of each weighting, are evaluated
once for all of them, with every value equal to that of its integral
alone.  Discrete models sum exactly.

Every family's pdf, cdf and quantile is numpy and ``math`` arithmetic;
no code path imports scipy.  The lognormal's normal cdf adds
``math.erfc``, and its normal quantile is AS241, bit-identical to
``statistics.NormalDist.inv_cdf``: they agree with scipy's ``ndtr``
within 5e-14 and ``ndtri`` within 2e-15, relative, and its pdf is scipy's
formula evaluated as scipy evaluates it.  The gamma pdf is scipy's formula
with scipy's log Gamma; its cdf is a power series below x = a + 1 and a
32-point Gauss-Laguerre rule above, and its quantile takes Halley steps on
that cdf (``cotv._incomplete_gamma``).  For shapes 0.05 to 100 they agree
with scipy's ``gammainc`` within 1e-13 relative of the smaller of P and Q
(plus the rounding of 1 - Q) and with ``gammaincinv`` within 1e-12.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    MassError,
    MetadataMissingError,
    NonFiniteError,
    UndefinedCVError,
    ValidationError,
    ZeroMeanError,
)
from .numerics import RngStream, Tolerance, _adaptive, _estimates, _nodes
from .preferences import PowerWeighting

__all__ = [
    "TAIL_MASS",
    "ServiceTimeModel",
    "ContinuousModel",
    "Degenerate",
    "Exponential",
    "Uniform",
    "LogNormal",
    "Gamma",
    "ShiftedScaled",
    "DiscreteModel",
    "DtMetadata",
    "MomentSet",
    "moments",
    "dual_moment_mean",
    "dual_moment_variance",
    "discrete_dual_moment",
    "discrete_dual_moment_variance",
    "build_dt_instance",
]

# Upper-tail mass left outside the integration window for unbounded
# supports.  1e-12 is enough for second moments but provably too loose for
# third moments of heavy lognormals at the 1e-8 agreement level, so the
# window is cut at the last representable quantile instead.
TAIL_MASS = 1e-15


class ServiceTimeModel:
    """Common interface for random service times."""

    family: str = "abstract"
    dt_meta: DtMetadata | None = None  # set on banded discrete instances

    # -- distribution surface -------------------------------------------------
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def pdf(self, t):
        raise NotImplementedError

    def cdf(self, t):
        raise NotImplementedError

    def quantile(self, p):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def skewness(self) -> float:
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError

    # -- derived conveniences --------------------------------------------------
    def std(self) -> float:
        return math.sqrt(max(self.variance(), 0.0))

    def cv(self) -> float:
        mu = self.mean()
        if mu <= 0:
            raise UndefinedCVError(f"cv undefined for mean {mu}")
        return self.std() / mu

    @property
    def is_degenerate(self) -> bool:
        return self.variance() == 0.0

    def label(self) -> str:
        inner = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in self.params().items())
        return f"{self.family}({inner})"

    # -- sampling ----------------------------------------------------------------
    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """Inverse-transform sampling; by construction consistent with cdf."""
        return np.asarray(self.quantile(gen.random(n)))

    def sample(self, stream: RngStream, n: int) -> np.ndarray:
        return self.draw(stream.generator(), n)

    # -- expectations ----------------------------------------------------------
    def _closed_dual_moments(self) -> tuple[float, float]:
        """The dual moments about the mean and the variance, E[M] - mu and
        E[(M - mu)^2] for M the larger of two independent draws, without
        quadrature."""
        raise NotImplementedError

    def integration_interval(self) -> tuple[float, float, bool]:
        """Finite window from the start of the support, finite for every
        family, and whether an unbounded support was cut at the
        ``1 - TAIL_MASS`` quantile."""
        lo, hi = self.support()
        if math.isfinite(hi):
            return lo, hi, False
        return lo, float(self.quantile(1.0 - TAIL_MASS)), True

    def expect(self, g: Callable, tol: Tolerance | None = None) -> float:
        """E[g(t)]: :meth:`distorted_expect` without a weighting."""
        return self.distorted_expect(g, None, tol)

    def dual_expect(self, g: Callable, tol: Tolerance | None = None) -> float:
        """Integral of g against the squared-cdf measure d(F^2) = 2 F f dt."""
        return self.distorted_expect(g, _SQUARED, tol)

    def distorted_expect(self, g: Callable, w, tol: Tolerance | None = None,
                         info: dict | None = None) -> float:
        """Integral of g against the distorted measure d(w(F)) = w'(F) f dt.

        ``w=None`` integrates against the plain density f dt, without
        evaluating the cdf.  The one-term view of :meth:`_expects`.
        """
        return next(self._expects([(g, w)], tol, [info])[1])

    def _expects(self, terms: list, tol: Tolerance | None = None,
                 infos: list | None = None) -> tuple[tuple[float, float], Iterator]:
        """The window, and the integral of each ``(g, w)`` of ``terms``
        against d(w(F)) on it, computed in one node pass.

        The integrals are an iterator that computes each one when it is
        read, in the order of ``terms``, by :func:`~cotv.numerics._adaptive`.
        Terms that refine the same panel request the same nodes, so the
        half-widths, nodes, pdf, the cdf (once a term has a weighting) and
        w'(F) of each weighting that one term computes on a request are
        kept for the terms after it: at most ``_SHARED_REQUESTS`` of them,
        and none for the last term.  Each value, ``infos[k]`` and error is
        that of the term integrated alone, on the same node arrays; a
        failed term raises when it is read, and the terms after it are
        never evaluated.
        """
        lo, hi, truncated = self.integration_interval()
        infos = infos or [None] * len(terms)
        for info in infos:
            if info is not None:
                info["integration_interval"] = [lo, hi]
                info["truncated"] = truncated
        shared: dict = {}

        def integral(g, w, keep: bool, info: dict | None) -> float:
            def estimate(ends):
                request = shared.get(ends)
                if request is None:
                    half, x = _nodes(ends)
                    request = [half, x, self.pdf(x), None, {}]
                    if keep and len(shared) < _SHARED_REQUESTS:
                        shared[ends] = request
                half, x, density, cdf, slopes = request
                if w is None:
                    return _estimates(half, np.asarray(g(x)) * density)
                if id(w) not in slopes:
                    if cdf is None:
                        request[3] = cdf = self.cdf(x)
                    slopes[id(w)] = w.dw(cdf)
                return _estimates(half, np.asarray(g(x)) * slopes[id(w)] * density)

            return _adaptive(estimate, lo, hi, tol, info)

        last = len(terms) - 1
        return (lo, hi), (integral(g, w, k < last, info)
                          for k, ((g, w), info) in enumerate(zip(terms, infos)))


# Requests one :meth:`ServiceTimeModel._expects` call keeps for its later
# terms; a report's integrals make a few dozen, and an integral that runs
# to the panel cap makes 100,000.
_SHARED_REQUESTS = 256

# w(p) = p^2: the law of the larger of two independent draws.
_SQUARED = PowerWeighting(gamma=2.0)


class ContinuousModel(ServiceTimeModel):
    """Marker base for absolutely continuous families."""


def _require_finite_moments(model: ContinuousModel) -> None:
    """Reject parameters whose closed-form mean or variance overflows."""
    try:
        finite = math.isfinite(model.mean()) and math.isfinite(model.variance())
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise ValidationError(f"{model.family} mean or variance is not a finite float")


class Exponential(ContinuousModel):
    """Exponential service time; the user-facing time of a memoryless queue."""

    family = "exponential"

    def __init__(self, rate: float):
        self.rate = rate
        if not rate > 0:
            raise ValidationError("exponential rate must be positive")
        _require_finite_moments(self)

    def support(self):
        return 0.0, math.inf

    # An array of t > 0 skips the edge handling.  Zeros take it: np.clip
    # turns -0.0 into 0.0, which keeps the cdf's zero positive.
    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        if t.ndim and (t > 0).all():
            return self.rate * np.exp(-self.rate * t)
        return np.where(t < 0, 0.0, self.rate * np.exp(-self.rate * np.clip(t, 0, None)))

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        if t.ndim and (t > 0).all():
            return -np.expm1(-self.rate * t)
        return np.where(t < 0, 0.0, -np.expm1(-self.rate * np.clip(t, 0, None)))

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        return -np.log1p(-p) / self.rate

    def mean(self):
        return 1.0 / self.rate

    def variance(self):
        return 1.0 / self.rate**2

    def skewness(self):
        return 2.0

    def _closed_dual_moments(self):
        return 0.5 / self.rate, 1.5 * self.variance()

    def params(self):
        return {"rate": self.rate}


class Uniform(ContinuousModel):
    """Uniform service time on [lo, hi], lo >= 0."""

    family = "uniform"

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo, hi
        if not hi > lo:
            raise ValidationError("uniform requires hi > lo")
        if lo < 0:
            raise ValidationError("service times carry no mass below zero")
        _require_finite_moments(self)

    def support(self):
        return self.lo, self.hi

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.lo) & (t <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.minimum(np.maximum((t - self.lo) / (self.hi - self.lo), 0.0), 1.0)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        return self.lo + p * (self.hi - self.lo)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def variance(self):
        return (self.hi - self.lo) ** 2 / 12.0

    def skewness(self):
        return 0.0

    def _closed_dual_moments(self):
        # the larger of two draws has density 2 (t - lo) / w^2, mean lo + 2w/3
        return (self.hi - self.lo) / 6.0, self.variance()

    def params(self):
        return {"lo": self.lo, "hi": self.hi}


_SQRT1_2 = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2 * math.pi)


def _ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal cdf of a 1-d array: 0.5 erfc(-z / sqrt(2)).

    In the lower tail this is the expression scipy's ``ndtr`` evaluates, so
    it keeps its relative accuracy down to z of about -37; elsewhere it is
    within an ulp or two of ``ndtr``'s erf branch.  One ``map`` of
    ``math.erfc`` costs less than a numpy rational approximation at the few
    dozen nodes of a quadrature call, and about half of a per-element
    branch between erf and erfc.
    """
    return 0.5 * np.fromiter(map(math.erfc, (z * -_SQRT1_2).tolist()), float, z.size)


def _horner(coefficients, r):
    """A polynomial at ``r`` by Horner's rule, highest power first, nested
    as AS241 and Cephes nest it: ``coefficients`` is a sequence of floats,
    or of arrays that broadcast against ``r``."""
    acc = coefficients[0] * r
    for c in coefficients[1:-1]:
        acc = (acc + c) * r
    return acc + coefficients[-1]


class _Rational:
    """Numerator and denominator coefficients of a rational function,
    highest power first: as floats for one argument, and as one array of
    pairs for a 1-d array of them, both halves evaluated in one pass."""

    def __init__(self, num: tuple, den: tuple):
        self.num, self.den = num, den
        self.pairs = np.array([num, den]).T[:, :, None]

    def __call__(self, r: float) -> float:
        return _horner(self.num, r) / _horner(self.den, r)


# Wichura's AS241 (*Appl. Stat.* 37, 1988): numerator and denominator
# coefficients of its three rational approximations, highest power first,
# as ``statistics.NormalDist.inv_cdf`` states them.
_AS241_CENTRAL = _Rational(  # |p - 0.5| <= 0.425, in 0.180625 - (p - 0.5)^2
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4,
     6.72657_70927_00870_0853e+4, 4.59219_53931_54987_1457e+4,
     1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4,
     3.93078_95800_09271_0610e+4, 2.12137_94301_58659_5867e+4,
     5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0))
_AS241_NEAR = _Rational(  # r = sqrt(-log(min(p, 1 - p))) <= 5, in r - 1.6
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2,
     2.41780_72517_74506_11770e-1, 1.27045_82524_52368_38258e+0,
     3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4,
     1.51986_66563_61645_71966e-2, 1.48103_97642_74800_74590e-1,
     6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0))
_AS241_FAR = _Rational(  # r > 5, in r - 5
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5,
     1.24266_09473_88078_43860e-3, 2.65321_89526_57612_30930e-2,
     2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7,
     1.84631_83175_10054_68180e-5, 7.86869_13114_56132_59100e-4,
     1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0))


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of a 1-d array inside (0, 1).

    AS241 evaluated in numpy with the operations, in order, of
    ``statistics.NormalDist().inv_cdf``, so each value is bit-identical to
    it.  The tail takes its log with ``math.log``: numpy's ``log`` differs
    from it by an ulp on a few inputs in a million.
    """
    q = p - 0.5
    x = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    if qc.size:
        top, bottom = _horner(_AS241_CENTRAL.pairs, 0.180625 - qc * qc)
        x[central] = top * qc / bottom
    tail = ~central
    r = p[tail]
    r = np.minimum(r, 1.0 - r)  # p below the centre, 1 - p above it
    r = np.sqrt(-np.fromiter(map(math.log, r.tolist()), float, r.size))
    xt = np.empty_like(r)
    for rational, part, shift in ((_AS241_NEAR, r <= 5.0, 1.6), (_AS241_FAR, r > 5.0, 5.0)):
        if part.any():
            top, bottom = _horner(rational.pairs, r[part] - shift)
            xt[part] = top / bottom
    x[tail] = np.copysign(xt, q[tail])
    return x


def _ndtri_one(p: float) -> float:
    """:func:`_ndtri` of one float inside (0, 1), in Python floats: the same
    operations in the same order, so the same bits, without numpy's
    per-call cost."""
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return _horner(_AS241_CENTRAL.num, r) * q / _horner(_AS241_CENTRAL.den, r)
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    x = _AS241_NEAR(r - 1.6) if r <= 5.0 else _AS241_FAR(r - 5.0)
    return -x if q < 0.0 else x


def _on_support(x: np.ndarray, inside: np.ndarray, formula: Callable,
                edges: Callable):
    """``formula`` at the points where ``inside`` holds, ``edges()`` at the
    others, NaN at NaN.

    ``formula`` takes a 1-d array.  A 1-d ``x`` whose points all lie inside
    the support goes to it whole.  Otherwise ``edges()`` builds the result,
    and ``formula`` sees the compressed 1-d array of in-support points, as
    in scipy's frozen distributions.  On an all-inside array both are the
    same values at the same positions, so the formulas scipy shares keep
    its bits either way.  A 0-d input gives a 0-d result.
    """
    if x.ndim == 1 and inside.all():
        return formula(x)
    out = edges()
    out[np.isnan(x)] = np.nan
    if inside.any():
        out[inside] = formula(x[inside])
    return out[()] if out.ndim == 0 else out


class _ScaleFamily(ContinuousModel):
    """A family on [0, inf) written as t = scale * x over a standard shape.

    The edge values are scipy's frozen ``lognorm`` and ``gamma`` ones: pdf
    is 0 outside the support, cdf is 0 below it and 1 at +inf, quantile is 0
    at p = 0, inf at p = 1 and NaN outside [0, 1].  Subclasses give
    ``_scale()``, the standard-shape ``_pdf``, ``_cdf`` and ``_ppf`` of
    1-d arrays, ``_ppf_one`` of one float inside (0, 1), which a 0-d
    quantile takes, and ``_closed``: whether the density's support is
    closed, [0, inf], or open, (0, inf).
    """

    _closed = False

    def support(self):
        return 0.0, math.inf

    def pdf(self, t):
        scale = self._scale()
        x = np.asarray(t, dtype=float) / scale
        if self._closed:
            inside = (0 <= x) & (x <= math.inf)
        else:
            inside = (0 < x) & (x < math.inf)
        return _on_support(x, inside, lambda x: self._pdf(x) / scale,
                           lambda: np.zeros(x.shape))

    def cdf(self, t):
        x = np.asarray(t, dtype=float) / self._scale()
        return _on_support(x, (0 < x) & (x < math.inf), self._cdf,
                           lambda: np.where(x == math.inf, 1.0, 0.0))

    def quantile(self, p):
        scale = self._scale()
        p = np.asarray(p, dtype=float)
        if p.ndim == 0:
            # one value, as the integration window's end
            q = float(p)
            if 0.0 < q < 1.0:
                return np.float64(self._ppf_one(q) * scale)
            return np.float64(0.0 if q == 0.0 else math.inf if q == 1.0 else math.nan)
        return _on_support(p, (0 < p) & (p < 1), lambda q: self._ppf(q) * scale,
                           lambda: np.where(p == 0, 0.0, np.where(p == 1, math.inf, math.nan)))


class LogNormal(_ScaleFamily):
    """Lognormal service time parameterised by log-mean and log-sd."""

    family = "lognormal"

    def __init__(self, log_mean: float, log_sd: float):
        self.log_mean, self.log_sd = log_mean, log_sd
        if not log_sd > 0:
            raise ValidationError("lognormal log_sd must be positive")
        _require_finite_moments(self)

    def _scale(self):
        return math.exp(self.log_mean)

    def _pdf(self, x):
        s = self.log_sd
        return np.exp(-np.log(x)**2 / (2 * (s * s))
                      - np.log(s * x * _SQRT_2PI))

    def _cdf(self, x):
        return _ndtr(np.log(x) / self.log_sd)

    def _ppf(self, q):
        return np.exp(self.log_sd * _ndtri(q))

    def _ppf_one(self, q):
        return np.exp(self.log_sd * _ndtri_one(q))

    def mean(self):
        return math.exp(self.log_mean + 0.5 * self.log_sd**2)

    def variance(self):
        s2 = self.log_sd**2
        return math.expm1(s2) * math.exp(2 * self.log_mean + s2)

    def skewness(self):
        s2 = self.log_sd**2
        return (math.exp(s2) + 2.0) * math.sqrt(math.expm1(s2))

    def _closed_dual_moments(self):
        # E[M^k] = 2 exp(k m + k^2 s^2 / 2) Phi(k s / sqrt 2) for M the
        # larger of two draws, centred on the mean
        s, mu = self.log_sd, self.mean()
        return mu * math.erf(0.5 * s), mu * mu * (math.expm1(s * s) + _erf_gap(s))

    def params(self):
        return {"log_mean": self.log_mean, "log_sd": self.log_sd}


_2_SQRTPI = 2.0 / math.sqrt(math.pi)


def _erf_gap(s: float) -> float:
    """exp(s^2) erf(s) - 2 erf(s / 2), which is about 0.85 s^3 for small s.

    Below s = 0.5 the two terms cancel, and the difference takes the sum of
    their Maclaurin series instead: 2/sqrt(pi) times s^(2n+1) (2^n / (2n+1)!!
    - (-1)^n / (4^n n! (2n+1))) over n >= 1.  Sixteen terms hold it within
    4e-16 of a 40-digit value for s up to 1.  The direct form would put the
    lognormal's dual moment about the variance 1.1e-10 off at s = 1e-6.
    """
    if s >= 0.5:
        return math.exp(s * s) * math.erf(s) - 2.0 * math.erf(0.5 * s)
    s2 = s * s
    grow, alternate, total = s, 1.0, 0.0
    for n in range(1, 17):
        grow *= 2.0 * s2 / (2 * n + 1)
        alternate *= -0.25 * s2 / n
        total += grow - s * alternate / (2 * n + 1)
    return _2_SQRTPI * total


class Gamma(_ScaleFamily):
    """Gamma service time with shape/rate parameterisation."""

    family = "gamma"
    _closed = True

    def __init__(self, shape: float, rate: float):
        self.shape, self.rate = shape, rate
        if not (shape > 0 and rate > 0):
            raise ValidationError("gamma shape and rate must be positive")
        _require_finite_moments(self)

    def _scale(self):
        return 1.0 / self.rate

    @cached_property
    def _incomplete(self):
        # imported on the first gamma model (see the module)
        from ._incomplete_gamma import _IncompleteGamma
        return _IncompleteGamma(self.shape)

    def _pdf(self, x):
        a = self.shape
        with np.errstate(divide="ignore"):  # log 0 = -inf, the limit
            log_x = np.log(x)
        # x^0 is 1 at x = 0 too, as scipy's xlogy(0, x) is 0
        power = 0.0 if a == 1.0 else (a - 1.0) * log_x
        return np.exp(power - x - self._incomplete.log_gamma)

    def _cdf(self, x):
        return self._incomplete.cdf(x)

    def _ppf(self, q):
        return self._incomplete.ppf(q)

    def _ppf_one(self, q):
        # one float through the array loop: the x it has in any batch
        return self._incomplete.ppf(np.array([q]))[0].item()

    def mean(self):
        return self.shape / self.rate

    def variance(self):
        return self.shape / self.rate**2

    def skewness(self):
        return 2.0 / math.sqrt(self.shape)

    def _closed_dual_moments(self):
        # X + Y and X / (X + Y) ~ Beta(a, a) are independent for iid gamma
        # draws (Lukacs 1955), so with g = Gamma(a + 1/2) / (sqrt(pi) Gamma(a)),
        # E[M] - mu = E|X - Y| / 2 = g / rate and E[(M - mu)^2] = (a + g) / rate^2
        g = _gamma_half_ratio(self.shape) / _SQRT_PI
        return g / self.rate, (self.shape + g) / self.rate**2

    def params(self):
        return {"shape": self.shape, "rate": self.rate}


_SQRT_PI = math.sqrt(math.pi)

# Gamma(a + 1/2) / (sqrt(a) Gamma(a)) in powers of 1/a, highest first: the
# asymptotic series through 1/a^6
_HALF_RATIO_SERIES = (869 / 4194304, -399 / 262144, -21 / 32768, 5 / 1024,
                      1 / 128, -1 / 8, 1.0)


def _gamma_half_ratio(a: float) -> float:
    """Gamma(a + 1/2) / Gamma(a) for a shape a > 0.

    Below a = 100 it is a Gamma(a + 1/2) / Gamma(a + 1), which overflows
    at no positive float; from 100 up the asymptotic series, whose
    truncation error there is under 1e-17.  Against 40-digit mpmath values
    the series is within 3e-16 relative at every shape from 100 up, where
    the lgamma difference would be 2e-10 off at 1e5.  Below 100 the ratio
    is within 1e-15 where a + 1/2 and a + 1 are floats, as at the shapes
    ``tests/oracles.py`` pins; where those sums round, their rounding adds
    up to about psi(a) ulp(a) / 2, at most 3e-14.
    """
    if a >= 100.0:
        return math.sqrt(a) * _horner(_HALF_RATIO_SERIES, 1.0 / a)
    return a * math.gamma(a + 0.5) / math.gamma(a + 1.0)


class ShiftedScaled(ContinuousModel):
    """Affine wrapper t = loc + scale * s around a continuous base model.

    The wrapper is the tool for building models with a prescribed mean and
    standard deviation from a standardised shape.  No sign restriction is
    placed on the resulting support: zero-mean perturbation models are a
    legitimate use.
    """

    family = "shifted_scaled"

    def __init__(self, base: ContinuousModel, loc: float = 0.0, scale: float = 1.0):
        self.base, self.loc, self.scale = base, loc, scale
        if not isinstance(base, ContinuousModel):
            raise ValidationError("shifted_scaled wraps continuous models only")
        if not scale > 0:
            raise ValidationError("scale must be positive")
        _require_finite_moments(self)

    def support(self):
        lo, hi = self.base.support()
        return self.loc + self.scale * lo, self.loc + self.scale * hi

    def _inner(self, t):
        return (np.asarray(t, dtype=float) - self.loc) / self.scale

    def pdf(self, t):
        return self.base.pdf(self._inner(t)) / self.scale

    def cdf(self, t):
        return self.base.cdf(self._inner(t))

    def quantile(self, p):
        return self.loc + self.scale * np.asarray(self.base.quantile(p))

    def mean(self):
        return self.loc + self.scale * self.base.mean()

    def variance(self):
        return self.scale**2 * self.base.variance()

    def skewness(self):
        return self.base.skewness()

    def _closed_dual_moments(self):
        # centred moments do not depend on loc
        base = self.base._closed_dual_moments()
        return self.scale * base[0], self.scale**2 * base[1]

    def params(self):
        return {"base": self.base.label(), "loc": self.loc, "scale": self.scale}


class DtMetadata(NamedTuple):
    """Construction record of a banded discrete instance.

    ``xi`` is the zero-mean perturbation attached to baseline time ``t0``;
    the band carries total probability ``2 * psi`` anchored at cumulative
    probability ``p0``, flanked by best time ``t_min`` and worst time
    ``t_max``.
    """

    t0: float
    p0: float
    psi: float
    xi: tuple[float, ...]
    t_min: float
    t_max: float

    @property
    def n(self) -> int:
        return len(self.xi)


class DiscreteModel(ServiceTimeModel):
    """Finitely supported service time; expectations are exact sums.

    Outcomes are kept in ascending order and may repeat (tied states are
    meaningful for banded instances).  Probabilities must be non-negative
    and sum to one within 1e-12.
    """

    family = "discrete"

    def __init__(self, outcomes: Sequence[float], probabilities: Sequence[float],
                 dt_meta: DtMetadata | None = None):
        outcomes = np.asarray(outcomes, dtype=float)
        probabilities = np.asarray(probabilities, dtype=float)
        if outcomes.ndim != 1 or outcomes.shape != probabilities.shape:
            raise ValidationError("outcomes and probabilities must be 1-d and aligned")
        if outcomes.size == 0:
            raise ValidationError("at least one outcome is required")
        if np.any(np.diff(outcomes) < 0):
            raise ValidationError("outcomes must be sorted ascending")
        if np.any(probabilities < -1e-15):
            raise MassError("probabilities must be non-negative")
        total = float(probabilities.sum())
        if abs(total - 1.0) > 1e-12:
            raise MassError(f"probabilities sum to {total!r}, not 1")
        self.outcomes = outcomes
        self.probabilities = np.clip(probabilities, 0.0, None)
        self.dt_meta = dt_meta
        # distinct-value compression for cdf-based sums
        values, index = np.unique(outcomes, return_inverse=True)
        mass = np.zeros_like(values)
        np.add.at(mass, index, self.probabilities)
        self._values = values
        self._mass = mass
        self._cum = np.cumsum(mass)

    def support(self):
        return float(self.outcomes[0]), float(self.outcomes[-1])

    def pdf(self, t):
        raise ValidationError("discrete models have no density; use expect()")

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self._values, t, side="right")
        cum = np.concatenate(([0.0], self._cum))
        return cum[idx]

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        idx = np.searchsorted(self._cum, p, side="left")
        idx = np.clip(idx, 0, self._values.size - 1)
        return self._values[idx]

    def mean(self):
        return float(self.probabilities @ self.outcomes)

    def variance(self):
        mu = self.mean()
        return float(self.probabilities @ (self.outcomes - mu) ** 2)

    def skewness(self):
        mu = self.mean()
        var = self.variance()
        if var == 0.0:
            return 0.0
        third = float(self.probabilities @ (self.outcomes - mu) ** 3)
        return third / var**1.5

    def params(self):
        return {"n_outcomes": int(self.outcomes.size)}

    def _expects(self, terms, tol=None, infos=None):
        """Exact sums, each computed when it is read."""
        return self.integration_interval()[:2], (self._sum(g, w) for g, w in terms)

    def _closed_dual_moments(self):
        mu = self.mean()
        return tuple(self._sum(lambda t, power=power: (t - mu) ** power, _SQUARED)
                     for power in (1, 2))

    def _sum(self, g, w) -> float:
        """Sum of g against the increments of w(F), or the probabilities for
        ``w=None``; ``NonFiniteError`` where g is not finite, as on a panel."""
        if w is None:
            weights, points = self.probabilities, self.outcomes
        else:
            cum = np.concatenate(([0.0], self._cum))
            if w is not _SQUARED:
                # Rounding can carry the cumulative mass past 1, outside a
                # weighting's domain; p^2 is defined there and the dual
                # moments are taken on the unclipped mass.
                cum = np.clip(cum, 0.0, 1.0)
            weights, points = np.diff(np.asarray(w.w(cum), dtype=float)), self._values
        values = np.asarray(g(points), dtype=float)
        if not np.isfinite(values).all():
            raise NonFiniteError(f"summand not finite on [{points[0]:g}, {points[-1]:g}]")
        return float(weights @ values)


class Degenerate(DiscreteModel):
    """Deterministic service time: a point mass."""

    family = "degenerate"

    def __init__(self, value: float):
        if value < 0:
            raise ValidationError("service times carry no mass below zero")
        super().__init__([float(value)], [1.0])
        self.value = float(value)

    def params(self):
        return {"value": self.value}


class MomentSet(NamedTuple):
    """Primal and dual moments of a service-time model."""

    mu: float
    variance: float
    skewness: float
    cv: float
    m2_dual_mean: float
    m2_dual_var: float

    def to_dict(self) -> dict:
        return self._asdict()


def moments(model: ServiceTimeModel, tol: Tolerance | None = None) -> MomentSet:
    """Full moment set: the closed-form primal part, and the dual part of
    :func:`_dual_moments`.  ``tol`` is kept for callers that pass one; no
    moment here is integrated, so none reads it."""
    mu = model.mean()
    if mu <= 0:
        raise UndefinedCVError(f"cv undefined for mean {mu}")
    variance, skewness, cv = model.variance(), model.skewness(), model.cv()
    m2_dual_mean, m2_dual_var = _dual_moments(model)
    return MomentSet(mu=mu, variance=variance, skewness=skewness, cv=cv,
                     m2_dual_mean=m2_dual_mean, m2_dual_var=m2_dual_var)


def _dual_moments(model: ServiceTimeModel) -> tuple[float, float]:
    """The dual moments about the mean and the variance: zero for a
    degenerate model, the model's closed forms or exact sums otherwise."""
    if model.is_degenerate:
        return 0.0, 0.0
    return model._closed_dual_moments()


def dual_moment_mean(model: ServiceTimeModel, tol: Tolerance | None = None) -> float:
    """Dual moment about the mean: E[max of two iid draws] - E[t].

    The integral of (t - mean) against d(F^2): zero exactly for degenerate
    models, the closed form for every continuous family and its shifted and
    scaled views, and an exact sum for a discrete model.  ``tol`` is kept
    for callers that pass one; none of these reads it.
    """
    return _dual_moments(model)[0]


def dual_moment_variance(model: ServiceTimeModel, tol: Tolerance | None = None) -> float:
    """Dual moment about the variance: integral of (t - mean)^2 against
    d(F^2), from the same closed forms or sums as :func:`dual_moment_mean`."""
    return _dual_moments(model)[1]


def _require_meta(instance: DiscreteModel) -> DtMetadata:
    meta = instance.dt_meta
    if meta is None:
        raise MetadataMissingError(
            "operation requires a banded instance built by build_dt_instance")
    return meta


def _band_dual_moment(instance: DiscreteModel, power: int) -> float:
    meta = _require_meta(instance)
    xi = np.asarray(meta.xi, dtype=float)
    n = meta.n
    i = np.arange(1, n + 1)
    return float((4.0 * meta.psi**2 / n**2) * np.sum(xi**power * 2 * i))


def discrete_dual_moment(instance: DiscreteModel) -> float:
    """Index-order dual moment of the banded perturbation.

    For n equiprobable band states with half-mass psi this is
    ``(4 psi^2 / n^2) * sum_i xi_i * 2 i`` using index order, so tied states
    contribute separately.  With ``2 psi = 1`` it equals the pairwise
    order-statistic expectation ``E[max(xi', xi'')]`` exactly, because the
    perturbation is zero-mean.
    """
    return _band_dual_moment(instance, 1)


def discrete_dual_moment_variance(instance: DiscreteModel) -> float:
    """Companion of :func:`discrete_dual_moment` with squared outcomes."""
    return _band_dual_moment(instance, 2)


def build_dt_instance(
    t0: float,
    xi: Sequence[float],
    p0: float = 0.5,
    psi: float = 0.5,
    t_min: float | None = None,
    t_max: float | None = None,
) -> DiscreteModel:
    """Banded discrete instance around baseline time ``t0``.

    The band holds the zero-mean perturbation ``xi`` (ascending, ties
    allowed) with equal state probability ``2 psi / n``; best time
    ``t_min`` and worst time ``t_max`` absorb the remaining mass
    ``p0 - psi`` and ``1 - p0 - psi``.  With ``2 psi = 1`` the flanks
    vanish and the result is the plain n-point instance.  No outcome may
    lie below 0.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or xi.size == 0:
        raise ValidationError("xi must be a non-empty 1-d sequence")
    if np.any(np.diff(xi) < 0):
        raise ValidationError("xi must be sorted ascending")
    scale = max(1.0, float(np.max(np.abs(xi))))
    if abs(float(xi.mean())) > 1e-12 * scale:
        raise ZeroMeanError(f"xi must be zero-mean, got mean {float(xi.mean())!r}")
    if not 0 < p0 < 1:
        raise MassError("p0 must lie strictly inside (0, 1)")
    if not 0 < psi <= min(p0, 1.0 - p0) + 1e-15:
        raise MassError("psi must satisfy 0 < psi <= min(p0, 1 - p0)")

    n = xi.size
    band = t0 + xi
    lo_mass = p0 - psi
    hi_mass = 1.0 - p0 - psi
    if t_min is None:
        t_min = float(band[0])
    if t_max is None:
        t_max = float(band[-1])
    if t_min > band[0] + 1e-15 or t_max < band[-1] - 1e-15:
        raise ValidationError("t_min/t_max must bracket the perturbed band")

    outcomes = [t_min] if lo_mass > 1e-15 else []
    probs = [lo_mass] if lo_mass > 1e-15 else []
    outcomes.extend(band.tolist())
    probs.extend([2.0 * psi / n] * n)
    if hi_mass > 1e-15:
        outcomes.append(t_max)
        probs.append(hi_mass)
    if outcomes[0] < 0:
        raise ValidationError("service times carry no mass below zero")

    meta = DtMetadata(t0=float(t0), p0=float(p0), psi=float(psi),
                      xi=tuple(float(x) for x in xi),
                      t_min=float(t_min), t_max=float(t_max))
    return DiscreteModel(outcomes, probs, dt_meta=meta)
