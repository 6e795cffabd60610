"""The regularised incomplete gamma functions of one shape, and their
inverses: the gamma family's cdf, quantile and survival quantile.

``Gamma`` imports this module on its first model, so processes that build
no gamma model never compile it.  ``_IncompleteGamma(a)`` holds what a
shape needs (its log Gamma, series coefficients and stretched
Gauss-Laguerre weights), and evaluates P(a, x), Q(a, x) = 1 - P(a, x)
and the x with P(a, x) = p or Q(a, x) = q in numpy and ``math``, without
scipy.  A value does not depend on its batch: rows are summed by
``np.vecdot``, and each quantile takes Halley steps until it first meets
the tolerance and keeps that step, while the others go on without it, so
one p, alone or in an array, gives one x.  For shapes 0.05
to 100 they agree with scipy's ``gammainc`` within 1e-13 relative of the
smaller of P and Q (plus the rounding of 1 - Q) and with ``gammaincinv``
within 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import _horner

# Gauss-Laguerre rule of order 32 (weight e^-u on [0, inf)): the zeros u of
# the Laguerre polynomial L_32 and the weights u / (33 L_33(u))^2, computed
# in 60-digit arithmetic and rounded to double.
_LAGUERRE_NODES = np.array([
    0.04448936583326702, 0.23452610951961853, 0.5768846293018864,
    1.0724487538178176, 1.7224087764446454, 2.5283367064257947,
    3.4922132730219944, 4.616456769749767, 5.903958504174244,
    7.358126733186241, 8.982940924212595, 10.783018632539973,
    12.763697986742725, 14.931139755522556, 17.292454336715316,
    19.855860940336054, 22.630889013196775, 25.628636022459247,
    28.862101816323474, 32.346629153964734, 36.10049480575197,
    40.14571977153944, 44.509207995754934, 49.22439498730864,
    54.33372133339691, 59.89250916213402, 65.97537728793505,
    72.68762809066271, 80.18744697791352, 88.7353404178924,
    98.82954286828397, 111.7513980979377])
_LAGUERRE_WEIGHTS = np.array([
    0.10921834195238497, 0.21044310793881324, 0.235213229669848,
    0.19590333597288104, 0.12998378628607177, 0.07057862386571744,
    0.03176091250917507, 0.011918214834838558, 0.0037388162946115247,
    0.0009808033066149551, 0.0002148649188013642, 3.920341967987947e-05,
    5.9345416128686326e-06, 7.416404578667552e-07, 7.604567879120781e-08,
    6.350602226625806e-09, 4.281382971040929e-10, 2.3058994918913362e-11,
    9.799379288727094e-13, 3.2378016577292665e-14, 8.171823443420719e-16,
    1.5421338333938235e-17, 2.1197922901636187e-19, 2.0544296737880453e-21,
    1.3469825866373952e-23, 5.661294130397359e-26, 1.4185605454630368e-28,
    1.9133754944542244e-31, 1.1922487600982224e-34, 2.671511219240137e-38,
    1.3386169421062562e-42, 4.510536193898974e-48])

# log Gamma(a) as Cephes (Moshier) evaluates it, whose value scipy's
# ``gammaln`` returns: a rational function on [2, 3] reached by the
# recurrence below a = 13, and Stirling's series from there on.  In the
# far tails of the gamma cdf the exponent a log x - x - log Gamma(a) is
# hundreds, and ``math.lgamma``, up to 4 ulps away from it, would move P
# or Q by 2e-13 relative at shape 100; the two agree bit for bit below
# a = 13, and within an ulp, on 9 shapes in 10,000, above it.
_LGAMMA_NUM = (-1.37825152569120859100e3, -3.88016315134637840924e4,
               -3.31612992738871184744e5, -1.16237097492762307383e6,
               -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAMMA_DEN = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
               -2.20528590553854454839e5, -1.13933444367982507207e6,
               -2.53252307177582951285e6, -2.01889141433532773231e6)
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777760991630510e-3,
             8.33333333333331927722e-2)
_STIRLING_FROM_1000 = (7.9365079365079365079365e-4,
                       -2.7777777777777777777778e-3, 0.0833333333333333333333)
_LOG_SQRT_2PI = 0.91893853320467274178

# log of the smallest normal double: a gamma quantile below it is
# subnormal or 0, and there P(a, x) = x^a / Gamma(a + 1) to double precision
_LOG_TINY = math.log(2.0 ** -1022)
# the range a quantile iteration keeps log x in, where x is a positive
# finite float
_LOG_X_MIN, _LOG_X_MAX = _LOG_TINY - 36.0, 709.0
# steps in log x below which a quantile's Halley iteration stops: it
# triples the correct digits per step, so the next would be below 1e-20
_HALLEY_TOL = 1e-9
_HALLEY_STEPS = 40
# quantiles inverted at once: bounds the series and Laguerre temporaries
# to a few MB whatever the number of draws
_PPF_BLOCK = 4096


def _lgamma(a: float) -> float:
    """log Gamma(a) of a shape a > 0 (see ``_LGAMMA_NUM``)."""
    if a < 13.0:
        z, shift, u = 1.0, 0.0, a
        while u >= 3.0:
            shift -= 1.0
            u = a + shift
            z *= u
        while u < 2.0:
            z /= u
            shift += 1.0
            u = a + shift
        if u == 2.0:
            return math.log(z)
        x = a + (shift - 2.0)
        return math.log(z) + x * _horner(_LGAMMA_NUM, x) / _horner(_LGAMMA_DEN, x)
    q = (a - 0.5) * math.log(a) - a + _LOG_SQRT_2PI
    if a > 1e8:
        return q
    return q + _horner(_STIRLING_FROM_1000 if a >= 1000.0 else _STIRLING,
                       1.0 / (a * a)) / a


class _IncompleteGamma:
    """The regularised incomplete gamma functions P(a, x) and
    Q(a, x) = 1 - P(a, x) of one shape a, and their inverses.

    Both share the factor x^a e^-x / Gamma(a).  Below x = a + 1, P is the
    power series x^a e^-x / Gamma(a + 1) * sum_n x^n / ((a+1)...(a+n)),
    with as many terms as x = a + 1 needs; from there on, Q is
    x^(a-1) e^-x / Gamma(a) times the integral of e^-s (1 + s/x)^(a-1)
    over s > 0, by the 32-point Gauss-Laguerre rule after s = u / lam.
    The stretch lam = max(4 / (a + 1), min(1, 3 / sqrt(a))) keeps the
    integrand smooth on the rule's scale near x = a + 1, for small shapes
    and large; above shape 100 it also grows with x, to
    max(lam, 2 - 2 (a - 1) / x), where the fixed stretch would leave the
    integrand's decay to too few nodes.
    Against 40-digit values the rule is within 1e-15 relative for shapes
    0.05 to 1000 and every x >= a + 1.  F = 1 - Q is computed from Q, as
    scipy computes it there, so F < 1 wherever Q is above half an ulp
    of 1.

    The factor is exp(a log x - x - log Gamma(a)), the expression scipy
    evaluates, so in the far tails, where that exponent is hundreds and
    its last bit moves the result by 1e-13, both round alike.  Within
    0.4 a of the mode of a shape >= 10 it is taken from Stirling's series
    instead, where the terms of that sum cancel.
    """

    def __init__(self, a: float):
        self.a = a
        self.log_gamma = _lgamma(a)
        self.x_split = a + 1.0
        self.log_split = math.log(self.x_split)
        # series coefficients prod_{k<=n} (a+1)/(a+k) / a, while the term
        # at x = a + 1 is above half an ulp of the sum, which is >= 1
        coef = [1.0]
        while coef[-1] > 2.0 ** -54:
            coef.append(coef[-1] * (self.x_split / (a + len(coef))))
        self.powers = np.arange(len(coef), dtype=float)
        self.coef = np.array(coef) / a
        self.stretch = max(4.0 / self.x_split, min(1.0, 3.0 / math.sqrt(a)))
        self.nodes = _LAGUERRE_NODES / self.stretch
        self.weights = (_LAGUERRE_WEIGHTS / self.stretch
                        * np.exp(_LAGUERRE_NODES * (1.0 - 1.0 / self.stretch)))
        self.log_mode = None
        if a >= 10.0:
            # the log factor at its peak x = a:
            # a log a - a - log Gamma(a) = log(a / 2pi) / 2 - stirlerr(a)
            r = 1.0 / (a * a)
            stirlerr = _horner((1 / 156, -691 / 360360, 1 / 1188, -1 / 1680,
                                1 / 1260, -1 / 360, 1 / 12), r) / a
            self.log_mode = 0.5 * math.log(a / (2.0 * math.pi)) - stirlerr

    def _log_factor(self, x, log_x):
        """log(x^a e^-x / Gamma(a)) of an array x > 0."""
        a = self.a
        far = a * log_x - x - self.log_gamma
        if self.log_mode is None:
            return far
        u = (x - a) / a
        near = np.abs(u) <= 0.4
        u = np.where(near, u, 0.0)
        return np.where(near, a * (np.log1p(u) - u) + self.log_mode, far)

    def _series(self, log_x: np.ndarray) -> np.ndarray:
        """P(a, x) over the factor at x, below a + 1, from log x."""
        # the n-th term of the sum is coef[n] * (x / (a + 1))^n
        terms = np.exp((log_x - self.log_split)[:, None] * self.powers)
        return np.vecdot(terms, self.coef)

    def _laguerre(self, x: np.ndarray) -> np.ndarray:
        """Q(a, x) over the factor at x, from a + 1 on."""
        a = self.a
        inv_x = 1.0 / x
        if a > 100.0:
            inv = 1.0 / np.maximum(2.0 - 2.0 * (a - 1.0) * inv_x, self.stretch)
            g = np.log1p((inv * inv_x)[:, None] * _LAGUERRE_NODES)
            g *= a - 1.0
            g += (1.0 - inv)[:, None] * _LAGUERRE_NODES
            return np.vecdot(np.exp(g, out=g), _LAGUERRE_WEIGHTS) * inv * inv_x
        g = np.log1p(inv_x[:, None] * self.nodes)
        g *= a - 1.0
        return np.vecdot(np.exp(g, out=g), self.weights) * inv_x

    def _either(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(low, r, log_factor, ratio)`` of a 1-d array x > 0: low is
        x < a + 1, r is P(a, x) there and Q(a, x) elsewhere, log_factor is
        log(x^a e^-x / Gamma(a)), and ratio is r over that factor, which
        stays finite where r underflows."""
        log_x = np.log(x)
        log_factor = self._log_factor(x, log_x)
        low = x < self.x_split
        n_low = np.count_nonzero(low)
        if n_low == x.size:
            ratio = self._series(log_x)
        elif n_low == 0:
            ratio = self._laguerre(x)
        else:
            ratio = np.empty_like(x)
            ratio[low] = self._series(log_x[low])
            ratio[~low] = self._laguerre(x[~low])
        return low, np.exp(log_factor) * ratio, log_factor, ratio

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """P(a, x) of a 1-d array x > 0."""
        low, r, _, _ = self._either(x)
        return np.where(low, r, 1.0 - r)

    # -- the inverse: Halley's method on log P or log Q in t = log x, both
    # concave in t, the first for p <= 0.5 and the second above -----------
    def _start(self, p, s, t_low):
        """log x of a first guess for P(a, x) = p, s = min(p, 1 - p): the
        larger of Wilson and Hilferty's and t_low, a lower bound."""
        a = self.a
        # Abramowitz & Stegun 26.2.23, |z| within 4.5e-4
        r = np.sqrt(-2.0 * np.log(s))
        z = r - ((0.010328 * r + 0.802853) * r + 2.515517) / (
            ((0.001308 * r + 0.189269) * r + 1.432788) * r + 1.0)
        c = 1.0 / (9.0 * a)
        cube = 1.0 - c + np.copysign(z, p - 0.5) * math.sqrt(c)
        return np.maximum(math.log(a) + 3.0 * np.log(np.maximum(cube, 1e-300)), t_low)

    def _halley(self, t, x, log_v, log_factor, sign, log_s):
        """t after one step on log v = log s, where v is P (sign 1) or
        Q (sign -1) at x = e^t and log_factor is log(x^a e^-x / Gamma(a))."""
        slope = sign * np.exp(log_factor - log_v)
        h = (log_v - log_s) / slope
        # log v'' / log v' = a - x - slope; the floor keeps a step from a
        # far start no longer than twice Newton's
        return t - h / np.maximum(1.0 - 0.5 * h * (self.a - x - slope), 0.5)

    def _lower_bound(self, p):
        """log x where x^a / Gamma(a + 1) = p, which P(a, x) never exceeds."""
        return (np.log(p) + math.lgamma(self.a + 1.0)) / self.a

    def invert(self, s: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """The x with Q(a, x) = s where ``upper`` holds and P(a, x) = s
        elsewhere, of 1-d arrays, s inside (0, 1), in blocks that bound the
        temporaries: one x per s, alone or in any batch, as each point
        takes its own steps and keeps its own last one."""
        out = np.empty_like(s)
        for start in range(0, s.size, _PPF_BLOCK):
            block = slice(start, start + _PPF_BLOCK)
            out[block] = self._invert(s[block], upper[block])
        return out

    def _invert(self, s: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """The x with Q(a, x) = s where ``upper`` holds and P(a, x) = s
        elsewhere, for tail probabilities s inside (0, 1): one Halley loop
        for both sides, each step on the points that have not yet met the
        tolerance.  A point leaves the loop with the step where it first
        meets it, and one below the smallest normal x with the lower
        bound, which is its quantile there.  The first guess alone reads
        p = 1 - s on the upper side, which is the p a quantile was given:
        its s = 1 - p is exact, and so is 1 - s."""
        p = np.where(upper, 1.0 - s, s)
        sign = np.where(upper, -1.0, 1.0)
        log_s = np.log(s)
        t_low = self._lower_bound(p)
        tiny = t_low < _LOG_TINY
        t = np.where(tiny, t_low, self._start(p, s, t_low))
        active = np.flatnonzero(~tiny)
        for _ in range(_HALLEY_STEPS):
            if not active.size:
                break
            t_now = t[active]
            x = np.exp(t_now)
            low, r, log_factor, ratio = self._either(x)
            # log P or log Q; where that is r, from the ratio, as r may underflow
            direct = upper[active] != low
            log_v = np.log(np.where(direct, ratio, 1.0 - r)) + np.where(direct, log_factor, 0.0)
            t[active] = t_next = np.minimum(np.maximum(self._halley(
                t_now, x, log_v, log_factor, sign[active], log_s[active]), _LOG_X_MIN), _LOG_X_MAX)
            active = active[np.abs(t_next - t_now) > _HALLEY_TOL]
        return np.exp(t)
