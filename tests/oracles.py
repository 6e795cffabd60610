"""Independent oracles used by the tests.

Everything here is deliberately naive: direct enumeration, central finite
differences and closed forms.  None of it shares code with the package
paths it checks beyond the error classes; ``grid_verdict`` builds a
preference object with its certification skipped, to judge it by the grid
rule that certification replaced.  ``bench_inputs`` loads the
benchmark's scenario generators for tests that run them, and
``parity_tool`` the harness ``tools/parity.py``.  The gamma and
dual-moment constants are mpmath values at 40 digits or more, rounded to
double once.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path
from unittest import mock

import numpy as np

from cotv.errors import MonotonicityError, ValidationError
from cotv.preferences import UtilityFunction


def _load(name: str, relative: str):
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_inputs():
    """The benchmark's seeded scenario generators (``bench/inputs.py``)."""
    return _load("bench_inputs", "bench/inputs.py")


def parity_tool():
    """The two-tree parity harness (``tools/parity.py``)."""
    return _load("parity", "tools/parity.py")


# Incomplete gamma references where scipy is not exact enough to check
# against, computed once with mpmath (not a dependency of cotv) by:
#
#     import mpmath as mp
#     mp.mp.dps = 40
#     for a in (0.5, 0.5005, 0.5015, 0.503):
#         for x in (0.5, 0.9, 1.075, 1.1, 1.6):
#             p = mp.gammainc(a, 0, x, regularized=True)
#             print((a, x, float(p), float(1 - p)))
#     for a in (300.0, 557.0, 1000.0):
#         for p in (1e-320, 1e-310, 1e-305, 1e-300):
#             # log P(a, x) = log p, from 1.1 times the x where x^a / Gamma(a + 1) = p
#             start = mp.exp((mp.log(p) + mp.loggamma(a + 1)) / a)
#             x = mp.findroot(lambda x: mp.log(mp.gammainc(a, 0, x, regularized=True))
#                             - mp.log(p), start * 1.1)
#             print((a, p, float(x)))
#
# (a, x, P(a, x), Q(a, x)) near shape 1/2 and x = 1.1, where scipy's
# ``gammaincc`` is off by up to 9.7e-14 relative.
GAMMA_HALF_SHAPE_PQ = (
    (0.5, 0.5, 0.6826894921370859, 0.3173105078629141),
    (0.5, 0.9, 0.8202875051210001, 0.17971249487899985),
    (0.5, 1.075, 0.8574301104191573, 0.1425698895808427),
    (0.5, 1.1, 0.8619892624313404, 0.13801073756865953),
    (0.5, 1.6, 0.9263617298796973, 0.07363827012030265),
    (0.5005, 0.5, 0.6823659114626693, 0.3176340885373306),
    (0.5005, 0.9, 0.820071154076281, 0.17992884592371905),
    (0.5005, 1.075, 0.8572498885514549, 0.14275011144854516),
    (0.5005, 1.1, 0.861813707114545, 0.1381862928854551),
    (0.5005, 1.6, 0.9262581602423994, 0.07374183975760068),
    (0.5015, 0.5, 0.6817188674867529, 0.3182811325132471),
    (0.5015, 0.9, 0.8196383137723525, 0.18036168622764753),
    (0.5015, 1.075, 0.8568892745822062, 0.1431107254177938),
    (0.5015, 1.1, 0.8614624236942586, 0.13853757630574143),
    (0.5015, 1.6, 0.9260508518229723, 0.0739491481770277),
    (0.503, 0.5, 0.6807485967635528, 0.3192514032364472),
    (0.503, 0.9, 0.8189887089920286, 0.1810112910079714),
    (0.503, 1.075, 0.8563479289362864, 0.1436520710637136),
    (0.503, 1.1, 0.8609350674478501, 0.1390649325521499),
    (0.503, 1.6, 0.9257394665774833, 0.07426053342251675),
)
# (a, p, x) with P(a, x) = p, for p from 1e-300 down to the subnormal
# 1e-320, where P underflows between the first guess and x; scipy's
# ``gammaincinv`` is off by up to 4.6e-7 relative at p = 1e-320.
GAMMA_TINY_P_QUANTILES = (
    (300.0, 1e-320, 9.906305883662093),
    (300.0, 1e-310, 10.725739760514134),
    (300.0, 1e-305, 11.161500314486586),
    (300.0, 1e-300, 11.615675163139496),
    (557.0, 1e-320, 61.37624195251499),
    (557.0, 1e-310, 64.3029637721404),
    (557.0, 1e-305, 65.82519125386128),
    (557.0, 1e-300, 67.38840079879462),
    (1000.0, 1e-320, 220.40233091415246),
    (1000.0, 1e-310, 227.0351370192862),
    (1000.0, 1e-305, 230.44827724025353),
    (1000.0, 1e-300, 233.92836429052844),
)


# Dual moments about the mean and the variance, E[(M - mu)^k] for k = 1, 2
# with M the larger of two independent draws, computed once with mpmath
# (not a dependency of cotv) as the integral over the standard normal z of
# a lognormal's (e^(m + s z) - mu)^k 2 Phi(z) phi(z), checked against the
# order-statistic moments E[M^k] = 2 e^(k m + k^2 s^2 / 2) Phi(k s / sqrt 2):
#
#     import mpmath as mp
#     mp.mp.dps = 60  # the check cancels 12 digits at s = 1e-6
#     def lognormal_duals(m, s):
#         m, s = mp.mpf(m), mp.mpf(s)
#         mu = mp.exp(m + s**2 / 2)
#         duals = [mp.quad(lambda z: (mp.exp(m + s * z) - mu)**k * 2 * mp.ncdf(z)
#                          * mp.npdf(z), [-mp.inf, -5, 0, 5, mp.inf]) for k in (1, 2)]
#         e1 = 2 * mp.exp(m + s**2 / 2) * mp.ncdf(s / mp.sqrt(2))
#         e2 = 2 * mp.exp(2 * m + 2 * s**2) * mp.ncdf(2 * s / mp.sqrt(2))
#         for value, check in zip(duals, (e1 - mu, e2 - 2 * mu * e1 + mu**2)):
#             assert abs(value - check) <= mp.mpf(10)**-30 * abs(check)
#         return duals
#
# The gamma's are g / rate and (a + g) / rate^2 with g = Gamma(a + 1/2) /
# (sqrt(pi) Gamma(a)), since X + Y and X / (X + Y) ~ Beta(a, a) are
# independent for iid gamma draws (Lukacs 1955).  At shapes 0.3 and 2.5 they
# agree to all 60 digits with the d(F^2) integrals, taken after x = y^(1/a),
# which takes x^(a - 1) dx to dy / a and so removes the singularity at 0:
#
#     def gamma_duals(a, rate):
#         a, theta = mp.mpf(a), 1 / mp.mpf(rate)
#         g = mp.gamma(a + mp.mpf(1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(a))
#         return theta * g, theta**2 * (a + g)
#
#     def gamma_quad_duals(a, rate):
#         a, theta = mp.mpf(a), 1 / mp.mpf(rate)
#         def integrand(y, k):
#             x = y**(1 / a)
#             return ((x - a)**k * 2 * mp.gammainc(a, 0, x, regularized=True)
#                     * mp.exp(-x) / mp.gamma(a + 1))
#         return [theta**k * mp.quad(lambda y: integrand(y, k),
#                                    [0, a**a, (4 * a + 40)**a, mp.inf])
#                 for k in (1, 2)]
#
# The exponential's are 1/(2 rate) and 3/(2 rate^2), the uniform's w/6 and
# w^2/12 with w = hi - lo, and a shifted and scaled model's its base's times
# scale and scale^2, each in mpmath from the double parameters.
# (family, parameters, dual moment about the mean, about the variance);
# ``shifted_lognormal`` is (log_mean, log_sd, loc, scale), ``gamma`` is
# (shape, rate) and ``shifted_gamma`` (shape, rate, loc, scale).
DUAL_MOMENTS = (
    ("exponential", (0.37,), 1.3513513513513513, 10.95690284879474),
    ("uniform", (0.3, 2.9), 0.43333333333333335, 0.5633333333333334),
    ("lognormal", (0.3, 1e-06), 7.615762784948934e-07, 1.8221203424239127e-12),
    ("lognormal", (0.3, 0.001), 0.0007615765958180937, 1.823663566319045e-06),
    ("lognormal", (0.3, 0.05), 0.03811850068390755, 0.004765816809474111),
    ("lognormal", (0.3, 0.25), 0.19541949054094424, 0.15131087832950182),
    ("lognormal", (0.3, 0.6), 0.5310852938374971, 1.6756660056033075),
    ("lognormal", (0.3, 1.5), 2.956884028806386, 280.6079273378803),
    ("lognormal", (0.3, 3.0), 117.39183971521352, 239234592.0390041),
    ("shifted_lognormal", (-0.4, 0.8, 1.5, 2.5), 0.9886399640266177, 7.7069826059133195),
    ("gamma", (0.05, 0.7), 0.06690120206473972, 0.19761396213330165),
    ("gamma", (0.3, 0.7), 0.31366544734026414, 1.060338394159561),
    ("gamma", (0.5, 0.7), 0.4547284088339867, 1.6700201758852873),
    ("gamma", (1.0, 0.7), 0.7142857142857143, 3.0612244897959187),
    ("gamma", (2.5, 0.7), 1.2126090902239646, 6.834339516646481),
    ("gamma", (20.0, 0.7), 3.5820196462736935, 45.93349745386038),
    ("gamma", (100.0, 0.7), 8.04978271560806, 215.58132224678704),
    ("gamma", (1000.0, 0.7), 25.484301636934745, 2077.2224717262334),
    ("shifted_gamma", (3.5, 0.8, 1.5, 2.5), 3.1830988618379066, 44.12687144324345),
)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def brute_pairwise_dual_mean(outcomes, probabilities) -> float:
    """E[max of two independent draws] - E[t] by full pair enumeration."""
    x = np.asarray(outcomes, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    joint = np.outer(p, p)
    best = np.maximum.outer(x, x)
    return float((joint * best).sum() - p @ x)


def brute_rank_expectation(outcomes, probabilities, w, g) -> float:
    """Expectation of g under the w-distorted measure, by explicitly
    differencing w(F) at every distinct outcome boundary."""
    x = np.asarray(outcomes, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    order = np.argsort(x, kind="stable")
    x = x[order]
    p = p[order]
    values = []
    masses = []
    for xi, pi in zip(x, p):
        if values and xi == values[-1]:
            masses[-1] += pi
        else:
            values.append(xi)
            masses.append(pi)
    total = 0.0
    cum_prev = 0.0
    cum = 0.0
    for value, mass in zip(values, masses):
        cum += mass
        total += (float(w.w(min(cum, 1.0))) - float(w.w(cum_prev))) * g(value)
        cum_prev = min(cum, 1.0)
    return total


def lognormal_dual_mean(log_mean: float, log_sd: float) -> float:
    """Closed form for E[max of two iid lognormals] - mean."""
    from scipy.stats import norm

    mean = math.exp(log_mean + 0.5 * log_sd**2)
    return mean * (2.0 * norm.cdf(log_sd / math.sqrt(2.0)) - 1.0)


def window(model) -> tuple[float, float]:
    """The support of ``model``, with an unbounded upper end cut at its
    survival quantile at 1e-15: a finite range for the adaptive kernel and
    scipy's quad that leaves out 1e-15 of probability."""
    lo, hi = model.support()
    if math.isfinite(hi):
        return lo, hi
    return lo, float(model.survival_quantile(1e-15))


def quadratic_premium(mu: float, sigma: float) -> float:
    """Exact premium of u = -t^2 (any pure quadratic): sqrt(mu^2+s^2)-mu,
    written as s^2 / (sqrt(mu^2+s^2)+mu), which does not cancel."""
    return sigma**2 / (math.sqrt(mu**2 + sigma**2) + mu)


def inverse_s_slope(gamma: float, p):
    """Slope of the inverse-S weighting p^g / (p^g + (1-p)^g)^(1/g) as first
    written: h = g/p - n/s from the shared curvature pieces, times w(p)
    from its own pass.  The curvature-only piece p^(g-2) is left out; it
    never entered the slope."""
    g = gamma
    p = np.asarray(p, dtype=float)
    a = np.power(p, g)
    b = np.power(1.0 - p, g)
    s = a + b
    n = np.power(p, g - 1.0) - np.power(1.0 - p, g - 1.0)
    h = g / p - n / s
    a = np.power(p, g)
    b = np.power(1.0 - p, g)
    return a / np.power(a + b, 1.0 / g) * h


# The least double at which the inverse-S weighting p^g / (p^g + q^g)^(1/g),
# q = 1 - p, increases on (0, 1).  w' = w (g s - p n) / (p s) with
# s = p^g + q^g and n = p^(g-1) - q^(g-1), so w' has the sign of
# f(p, g) = (g-1) p^g + g q^g + p q^(g-1), and g* is where the least f over
# p touches 0 (Ingersoll 2008):
#
#     import mpmath as mp
#     mp.mp.dps = 40
#     def f(p, g):
#         return (g - 1) * p**g + g * (1 - p)**g + p * (1 - p)**(g - 1)
#     def f_p(p, g):
#         return mp.diff(lambda x: f(x, g), p)
#     p, g = mp.findroot([f, f_p], (mp.mpf("0.0976"), mp.mpf("0.2792")))
#     # p = 0.0975961651773065761..., g = 0.2792042470149385418545...
#     print(float(g), mp.mpf(float(g)) - g)  # 0.27920424701493857, +2.5e-17
#
# float(g) lies above g, so it is the least double with w' >= 0; at the
# double below it the least f is -7.1e-17, at p = 0.0975961651773.
INVERSE_S_GAMMA_STAR = 0.27920424701493857
INVERSE_S_ARGMIN_P = 0.0975961651773065761


# The certification rule the package applied before its closed forms: u'
# on 101 points over the working interval, finite and at most 1e-12; w(0)
# and w(1) within 1e-12 of 0 and 1, and w' finite and positive on 199
# points of [0.001, 0.999].  Each returns None where the rule accepts, and
# otherwise the error class and message it raised.
WEIGHTING_GRID = np.linspace(0.001, 0.999, 199)


def grid_utility_verdict(u) -> tuple[type, str] | None:
    lo, hi = u.interval
    slopes = np.asarray(u.du(np.linspace(lo, hi, 101)), dtype=float)
    if not np.all(np.isfinite(slopes)):
        return ValidationError, f"{u.family}: derivative not finite on the working interval"
    if np.any(slopes > 1e-12):
        return MonotonicityError, (f"{u.family}: utility is not non-increasing on "
                                   f"[{lo:g}, {hi:g}]")
    return None


def grid_weighting_verdict(w) -> tuple[type, str] | None:
    with np.errstate(all="ignore"):
        ends = np.asarray(w.w(np.array([0.0, 1.0])), dtype=float)
        slopes = np.asarray(w.dw(WEIGHTING_GRID), dtype=float)
    if not (abs(ends[0]) <= 1e-12 and abs(ends[1] - 1.0) <= 1e-12):
        return ValidationError, f"{w.family}: requires w(0)=0 and w(1)=1"
    if not np.all(np.isfinite(slopes)):
        return ValidationError, f"{w.family}: derivative not finite on (0, 1)"
    if not np.all(slopes > 0):
        return ValidationError, (f"{w.family}: weighting must be strictly increasing "
                                 "on (0, 1)")
    return None


def verdict(cls, *args, **kwargs) -> tuple[type, str] | None:
    """The error class and message that constructing
    ``cls(*args, **kwargs)`` raises, or None where it succeeds."""
    try:
        with np.errstate(all="ignore"):
            cls(*args, **kwargs)
    except ValidationError as exc:
        return type(exc), str(exc)
    return None


def grid_verdict(cls, *args, **kwargs) -> tuple[type, str] | None:
    """The grid rule's verdict on ``cls(*args, **kwargs)``, built with its
    own certification skipped; the family's parameter checks still run."""
    name = "_certify_monotone" if issubclass(cls, UtilityFunction) else "_certify"
    with mock.patch.object(cls, name, lambda self: None), np.errstate(all="ignore"):
        built = cls(*args, **kwargs)
        if isinstance(built, UtilityFunction):
            return grid_utility_verdict(built)
        return grid_weighting_verdict(built)


# Survival quantiles Q(1 - q) of every continuous family, for q from 1/2
# down to 1e-300, by:
#
#     import mpmath as mp
#     mp.mp.dps = 40
#     Q_LIST = (0.5, 0.3, 0.125, 1e-3, 1e-8, 1e-20, 1e-50, 1e-100, 1e-200, 1e-300)
#     def normal_quantile(q):
#         return mp.findroot(lambda z: mp.log(mp.ncdf(z)) - mp.log(q),
#                            -mp.sqrt(-2 * mp.log(q)))
#     def gamma_isf(a, q):  # in t = log x, from a guess in the root's basin
#         t = mp.findroot(lambda t: mp.log(mp.gammainc(a, mp.exp(t), mp.inf,
#                                                      regularized=True)) - mp.log(q),
#                         mp.log(max(a, -mp.log(q))), tol=mp.mpf(10) ** -35)
#         return mp.exp(t)
#     for q in map(mp.mpf, Q_LIST):
#         print(("exponential", (1.3,), q, -mp.log(q) / mp.mpf(1.3)))
#         print(("uniform", (0.5, 3.0), q, 3 - mp.mpf(2.5) * q))
#         for m, s in ((1.0, 0.5), (-0.1, 0.7), (2.0, 0.25)):
#             print(("lognormal", (m, s), q,
#                    mp.exp(mp.mpf(m) - mp.mpf(s) * normal_quantile(q))))
#         for a in (0.05, 0.3, 0.5, 1.0, 2.5, 10.0, 100.0):  # rate 1
#             print(("gamma", (a, 1.0), q, gamma_isf(mp.mpf(a), q)))
#
# with each number rounded to double.  scipy's ``gammainccinv`` agrees
# with the gamma rows within 3e-16 relative.
SURVIVAL_QUANTILES = (
    ('exponential', (1.3,), 0.5, 0.5331901388922656),
    ('exponential', (1.3,), 0.3, 0.9261329264045661),
    ('exponential', (1.3,), 0.125, 1.5995704166767968),
    ('exponential', (1.3,), 0.001, 5.313657906909336),
    ('exponential', (1.3,), 1e-08, 14.169754418424896),
    ('exponential', (1.3,), 1e-20, 35.42438604606224),
    ('exponential', (1.3,), 1e-50, 88.5609651151556),
    ('exponential', (1.3,), 1e-100, 177.1219302303112),
    ('exponential', (1.3,), 1e-200, 354.2438604606224),
    ('exponential', (1.3,), 1e-300, 531.3657906909336),
    ('uniform', (0.5, 3.0), 0.5, 1.75),
    ('uniform', (0.5, 3.0), 0.3, 2.25),
    ('uniform', (0.5, 3.0), 0.125, 2.6875),
    ('uniform', (0.5, 3.0), 0.001, 2.9975),
    ('uniform', (0.5, 3.0), 1e-08, 2.999999975),
    ('uniform', (0.5, 3.0), 1e-20, 3.0),
    ('uniform', (0.5, 3.0), 1e-50, 3.0),
    ('uniform', (0.5, 3.0), 1e-100, 3.0),
    ('uniform', (0.5, 3.0), 1e-200, 3.0),
    ('uniform', (0.5, 3.0), 1e-300, 3.0),
    ('lognormal', (-0.1, 0.7), 0.5, 0.9048374180359595),
    ('lognormal', (-0.1, 0.7), 0.3, 1.3061454025155927),
    ('lognormal', (-0.1, 0.7), 0.125, 2.0243417100741388),
    ('lognormal', (-0.1, 0.7), 0.001, 7.870822866375167),
    ('lognormal', (-0.1, 0.7), 1e-08, 45.98893715443175),
    ('lognormal', (-0.1, 0.7), 1e-20, 592.077810474253),
    ('lognormal', (-0.1, 0.7), 1e-50, 31361.49904030175),
    ('lognormal', (-0.1, 0.7), 1e-100, 2653572.7372148447),
    ('lognormal', (-0.1, 0.7), 1e-200, 1378023310.676489),
    ('lognormal', (-0.1, 0.7), 1e-300, 165620921678.0091),
    ('lognormal', (1.0, 0.5), 0.5, 2.718281828459045),
    ('lognormal', (1.0, 0.5), 0.3, 3.533186858164016),
    ('lognormal', (1.0, 0.5), 0.125, 4.831585574985092),
    ('lognormal', (1.0, 0.5), 0.001, 12.744708337272854),
    ('lognormal', (1.0, 0.5), 1e-08, 44.97022580864281),
    ('lognormal', (1.0, 0.5), 1e-20, 278.9883556417184),
    ('lognormal', (1.0, 0.5), 1e-50, 4753.653538605194),
    ('lognormal', (1.0, 0.5), 1e-100, 113179.09793479099),
    ('lognormal', (1.0, 0.5), 1e-200, 9848178.673327379),
    ('lognormal', (1.0, 0.5), 1e-300, 301279254.87748),
    ('lognormal', (2.0, 0.25), 0.5, 7.38905609893065),
    ('lognormal', (2.0, 0.25), 0.3, 8.424129337573989),
    ('lognormal', (2.0, 0.25), 0.125, 9.851141581761171),
    ('lognormal', (2.0, 0.25), 0.001, 15.999509676347948),
    ('lognormal', (2.0, 0.25), 1e-08, 30.054136669077387),
    ('lognormal', (2.0, 0.25), 1e-20, 74.85740389821936),
    ('lognormal', (2.0, 0.25), 1e-50, 308.9978700083487),
    ('lognormal', (2.0, 0.25), 1e-100, 1507.7343766401023),
    ('lognormal', (2.0, 0.25), 1e-200, 14064.350549146107),
    ('lognormal', (2.0, 0.25), 1e-300, 77790.4595566326),
    ('gamma', (0.05, 1.0), 0.5, 5.573878440746248e-07),
    ('gamma', (0.05, 1.0), 0.3, 0.0004665636848952591),
    ('gamma', (0.05, 1.0), 0.125, 0.04208793346979629),
    ('gamma', (0.05, 1.0), 0.001, 2.7364585987286763),
    ('gamma', (0.05, 1.0), 1e-08, 12.952186632836765),
    ('gamma', (0.05, 1.0), 1e-20, 39.565586694380194),
    ('gamma', (0.05, 1.0), 1e-50, 107.70623576441857),
    ('gamma', (0.05, 1.0), 1e-100, 222.15218724493326),
    ('gamma', (0.05, 1.0), 1e-200, 451.73859473711786),
    ('gamma', (0.05, 1.0), 1e-300, 681.6070273145583),
    ('gamma', (0.3, 1.0), 0.5, 0.0731311358669519),
    ('gamma', (0.3, 1.0), 0.3, 0.2565649133210522),
    ('gamma', (0.3, 1.0), 0.125, 0.739713476679611),
    ('gamma', (0.3, 1.0), 0.001, 4.618936042791335),
    ('gamma', (0.3, 1.0), 1e-08, 15.370086915135738),
    ('gamma', (0.3, 1.0), 1e-20, 42.31820774100067),
    ('gamma', (0.3, 1.0), 1e-50, 110.73222993091565),
    ('gamma', (0.3, 1.0), 1e-100, 225.36721186704315),
    ('gamma', (0.3, 1.0), 1e-200, 455.1352708640556),
    ('gamma', (0.3, 1.0), 1e-300, 685.1080066224827),
    ('gamma', (0.5, 1.0), 0.5, 0.2274682115597864),
    ('gamma', (0.5, 1.0), 0.3, 0.5370970854287926),
    ('gamma', (0.5, 1.0), 0.125, 1.1767629223022764),
    ('gamma', (0.5, 1.0), 0.001, 5.413783085331366),
    ('gamma', (0.5, 1.0), 1e-08, 16.420626680618394),
    ('gamma', (0.5, 1.0), 1e-20, 43.58086671345491),
    ('gamma', (0.5, 1.0), 1e-50, 112.19237415939824),
    ('gamma', (0.5, 1.0), 1e-100, 226.9715411193995),
    ('gamma', (0.5, 1.0), 1e-200, 456.88135039294025),
    ('gamma', (0.5, 1.0), 1e-300, 686.9363156111971),
    ('gamma', (1.0, 1.0), 0.5, 0.6931471805599453),
    ('gamma', (1.0, 1.0), 0.3, 1.2039728043259361),
    ('gamma', (1.0, 1.0), 0.125, 2.0794415416798357),
    ('gamma', (1.0, 1.0), 0.001, 6.907755278982137),
    ('gamma', (1.0, 1.0), 1e-08, 18.420680743952367),
    ('gamma', (1.0, 1.0), 1e-20, 46.051701859880914),
    ('gamma', (1.0, 1.0), 1e-50, 115.12925464970229),
    ('gamma', (1.0, 1.0), 1e-100, 230.25850929940458),
    ('gamma', (1.0, 1.0), 1e-200, 460.51701859880916),
    ('gamma', (1.0, 1.0), 1e-300, 690.7755278982137),
    ('gamma', (2.5, 1.0), 0.5, 2.1757300955477636),
    ('gamma', (2.5, 1.0), 0.3, 3.0322149920774524),
    ('gamma', (2.5, 1.0), 0.125, 4.312382661218594),
    ('gamma', (2.5, 1.0), 0.001, 10.25750282621644),
    ('gamma', (2.5, 1.0), 1e-08, 22.897293561542284),
    ('gamma', (2.5, 1.0), 1e-20, 51.714488618878974),
    ('gamma', (2.5, 1.0), 1e-50, 122.0636490137375),
    ('gamma', (2.5, 1.0), 1e-100, 238.18971853208137),
    ('gamma', (2.5, 1.0), 1e-200, 469.46291311867463),
    ('gamma', (2.5, 1.0), 1e-300, 700.3202928265134),
    ('gamma', (10.0, 1.0), 0.5, 9.668714614714132),
    ('gamma', (10.0, 1.0), 0.3, 11.387272536823215),
    ('gamma', (10.0, 1.0), 0.125, 13.688247592108496),
    ('gamma', (10.0, 1.0), 0.001, 22.65737330906293),
    ('gamma', (10.0, 1.0), 1e-08, 38.799007510528874),
    ('gamma', (10.0, 1.0), 1e-20, 71.85311626769968),
    ('gamma', (10.0, 1.0), 1e-50, 147.32368876600947),
    ('gamma', (10.0, 1.0), 1e-100, 267.80299764163215),
    ('gamma', (10.0, 1.0), 1e-200, 503.73157451671995),
    ('gamma', (10.0, 1.0), 1e-300, 737.4143124556944),
    ('gamma', (100.0, 1.0), 0.5, 99.66686491931549),
    ('gamma', (100.0, 1.0), 0.3, 104.99270767886517),
    ('gamma', (100.0, 1.0), 0.125, 111.59313827277884),
    ('gamma', (100.0, 1.0), 0.001, 133.7702639113786),
    ('gamma', (100.0, 1.0), 1e-08, 166.62985221326565),
    ('gamma', (100.0, 1.0), 1e-20, 222.65692126110918),
    ('gamma', (100.0, 1.0), 1e-50, 330.65575904365477),
    ('gamma', (100.0, 1.0), 1e-100, 483.2195302225619),
    ('gamma', (100.0, 1.0), 1e-200, 757.9542324112789),
    ('gamma', (100.0, 1.0), 1e-300, 1017.3104288547139),
)
