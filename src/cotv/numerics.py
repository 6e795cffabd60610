"""Deterministic numerical kernel: the tanh-sinh rule in the probability
plane, adaptive Gauss quadrature, a bracketing root finder (Brent's
method), and seeded Monte Carlo estimation.

These routines are the reference path against which every closed-form
approximation in the package is checked, so they favour predictable error
control over raw speed.  A report's integrals are integrals over
probability, E_w[g] = int_0^1 g(Q(p)) w'(p) dp, and :func:`_tanh_sinh`
sums them on the double-exponential nodes of (0, 1) (Takahasi & Mori
1974), which converge exponentially on the endpoint singularities of w'
and of the quantile Q.  Its nodes depend only on their level, and each
level is built on its first use, so every term of a report reads the
same ones, a caller that evaluates the quantile once per level serves
all of them, and what depends on the level alone (the lognormal's normal
quantiles) is computed once per process.  :func:`integrate` is the
adaptive Gauss route on a finite window, one integrand call per 15-node
panel; no report calls it.  The root finder keeps a sign-changing
bracket around its estimate and returns a point of it once the bracket
is narrower than the tolerance, or a point where the function is
exactly 0.  All of them are pure functions of their inputs; randomness
enters only through an explicit :class:`RngStream`.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    NoBracketError,
    NonConvergenceError,
    NonFiniteError,
    ValidationError,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "RngStream",
    "McEstimate",
    "integrate",
    "find_root",
    "expand_bracket",
    "mc_estimate",
]

_UINT64_MAX = 2**64 - 1

# Hard cap on quadrature panels, independent of the per-call depth budget.
_MAX_PANELS = 400_000


class Tolerance:
    """Error budget shared by the quadrature and root-finding routines.

    ``abs_tol`` and ``rel_tol`` combine as ``max(abs_tol, rel_tol * |ref|)``;
    at least one must be strictly positive.  ``max_iter`` bounds bisection
    depth for :func:`integrate` and iteration count for root finding; the
    tanh-sinh rule stops at its finest level instead.
    """

    def __init__(self, abs_tol: float = 1e-10, rel_tol: float = 1e-8,
                 max_iter: int = 200) -> None:
        if abs_tol < 0 or rel_tol < 0:
            raise ValidationError("tolerances must be non-negative")
        if abs_tol == 0 and rel_tol == 0:
            raise ValidationError("at least one of abs_tol/rel_tol must be positive")
        if max_iter < 1:
            raise ValidationError("max_iter must be at least 1")
        self.abs_tol = abs_tol
        self.rel_tol = rel_tol
        self.max_iter = max_iter

    def scale(self, reference: float) -> float:
        """Combined tolerance relative to a reference magnitude."""
        return max(self.abs_tol, self.rel_tol * abs(reference))


DEFAULT_TOLERANCE = Tolerance()


class RngStream:
    """Named random stream.

    Identical ``(seed, stream_id)`` pairs reproduce the identical sample
    sequence bit-exactly; distinct ``stream_id`` values give statistically
    independent streams, which is the only sanctioned way to parallelise
    Monte Carlo work.
    """

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        if not 0 <= int(seed) <= _UINT64_MAX:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        if int(stream_id) < 0:
            raise ValidationError("stream_id must be non-negative")
        self.seed = seed
        self.stream_id = stream_id

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream_id),)
        )
        return np.random.Generator(np.random.PCG64(seq))


class McEstimate(NamedTuple):
    """Monte Carlo estimate with its sample standard error."""

    estimate: float
    std_error: float
    n: int


# 15-point Gauss-Legendre rule, exact through polynomial degree 29: the
# values of ``np.polynomial.legendre.leggauss(15)``, bit for bit, written
# out so that importing the package does not load ``numpy.polynomial``.
_NODES = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451,
    0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854])
_WEIGHTS = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203])


# The tanh-sinh rule on (0, 1): the node t = k h maps to
# p = 1 / (1 + exp(-pi sinh t)), with weight h dp/dt = h pi cosh t p (1 - p).
# With e = exp(-pi |sinh t|), the smaller tail probability is e / (1 + e)
# and the larger 1 / (1 + e), so p and q = 1 - p are both exact at every
# node.  |t| <= 6 reaches tail probabilities of 1e-275.  Level l has the
# step h = 2^-l; the base level h = 1/8 has 97 nodes, and each finer level
# adds the odd multiples of its step, up to h = 1/128.
_TS_RANGE = 6
_TS_BASE = 3
_TS_FINEST = 7


class _Level(NamedTuple):
    """Nodes of one tanh-sinh level, in ascending p: the smaller tail
    probability ``s`` = min(p, q), ``p``, ``q``, whether p > 1/2
    (``upper``), and the weight dp/dt without the step."""

    s: np.ndarray
    p: np.ndarray
    q: np.ndarray
    upper: np.ndarray
    weight: np.ndarray


_LEVELS: dict[int, _Level] = {}


def _tanh_sinh_level(level: int) -> _Level:
    """The nodes of ``level``: all of them at the base level, only the new
    ones (the odd multiples of the step) at a finer level.  Each level is
    built on its first use and kept."""
    nodes = _LEVELS.get(level)
    if nodes is None:
        n = _TS_RANGE << level
        k = np.arange(-n, n + 1) if level == _TS_BASE else np.arange(1 - n, n, 2)
        t = k * 2.0 ** -level
        e = np.exp(-math.pi * np.abs(np.sinh(t)))
        tail, body = e / (1.0 + e), 1.0 / (1.0 + e)
        upper = t > 0
        nodes = _LEVELS[level] = _Level(
            tail, np.where(upper, body, tail), np.where(upper, tail, body), upper,
            math.pi * np.cosh(t) * tail * body)
    return nodes


def _tanh_sinh(values: Callable[[int], np.ndarray], tol: Tolerance | None,
               info: dict | None = None) -> float:
    """The integral over (0, 1) of an integrand whose values at the nodes
    of a level ``values(level)`` returns, by the tanh-sinh rule.

    The base level's values give the estimates of the steps 1/4 (every
    other node) and 1/8.  While the last two estimates differ by more than
    ``tol.scale`` of the last, the next level's values are asked for,
    halving the step, and after h = 1/128 ``NonConvergenceError`` is
    raised.  ``info`` receives the finest ``levels`` reached (3 is
    h = 1/8), the ``nodes`` summed and the ``error``, the last difference.
    """
    tol = tol or DEFAULT_TOLERANCE
    level = _TS_BASE
    weight = _tanh_sinh_level(level).weight
    y = values(level)
    coarse = float(y[::2] @ weight[::2]) * 2.0 ** (1 - level)
    estimate = float(y @ weight) * 2.0 ** -level
    error = abs(estimate - coarse)
    while error > tol.scale(estimate):
        if level == _TS_FINEST:
            raise NonConvergenceError(
                f"tanh-sinh levels still differ by {error:.3g} at step "
                f"h = 2^-{level}")
        level += 1
        coarse = estimate
        estimate = 0.5 * coarse + float(
            values(level) @ _tanh_sinh_level(level).weight) * 2.0 ** -level
        error = abs(estimate - coarse)
    if info is not None:
        info.update(levels=level, nodes=(2 * _TS_RANGE << level) + 1, error=error)
    return estimate


def _panel(f: Callable, a: float, b: float) -> float:
    """The 15-point Gauss estimate of the integral of ``f`` on ``[a, b]``."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _NODES
    # a constant integrand may return one value for all its nodes
    y = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    if not np.isfinite(y).all():
        raise NonFiniteError(f"integrand returned non-finite values on [{a:g}, {b:g}]")
    return half * float(_WEIGHTS @ y)


def integrate(
    f: Callable,
    lo: float,
    hi: float,
    tol: Tolerance | None = None,
    info: dict | None = None,
) -> float:
    """Adaptive quadrature of a vectorised scalar function on ``[lo, hi]``.

    Bisects a fixed-order Gauss panel until the parent/children discrepancy
    on every subinterval fits inside its proportional share of the budget.
    The discrepancy estimate is extremely conservative for smooth
    integrands, which is what gives the package its oracle-grade headroom.

    Panels are visited depth first, and ``f`` is called once per panel on
    its 15 nodes.  ``info`` receives the ``panels`` summed and the
    ``max_depth`` of bisection.  A report's integrals do not come here:
    they are tanh-sinh sums over p (:func:`_tanh_sinh`).
    """
    tol = tol or DEFAULT_TOLERANCE
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("integration bounds must be finite")
    if not lo < hi:
        raise ValidationError(f"integration requires lo < hi, got [{lo}, {hi}]")
    whole = _panel(f, lo, hi)
    span = hi - lo
    reference = abs(whole)
    stack = [(lo, hi, whole, 0)]
    total = 0.0
    panels = 1
    deepest = 0

    while stack:
        a, b, coarse, depth = stack.pop()
        mid = 0.5 * (a + b)
        left = _panel(f, a, mid)
        right = _panel(f, mid, b)
        panels += 2
        if panels > _MAX_PANELS:
            raise NonConvergenceError("quadrature panel budget exhausted")
        err = abs(left + right - coarse)
        if err <= tol.scale(reference) * (b - a) / span:
            total += left + right
            reference = max(reference, abs(total))
        else:
            if depth + 1 >= tol.max_iter:
                raise NonConvergenceError(
                    f"quadrature did not converge on [{a:g}, {b:g}] "
                    f"at depth {depth + 1}"
                )
            deepest = max(deepest, depth + 1)
            stack.append((a, mid, left, depth + 1))
            stack.append((mid, b, right, depth + 1))

    if info is not None:
        info["panels"] = panels
        info["max_depth"] = deepest
    return total


def find_root(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance | None = None,
    info: dict | None = None,
) -> float:
    """Root of a continuous scalar function on a sign-changing bracket.

    Brent's method (Brent 1973, after Dekker 1969): each step takes the
    secant or inverse quadratic interpolation through the last three
    points when it lands inside the bracket and shrinks it fast enough,
    and bisects otherwise, so it converges superlinearly on smooth
    functions and keeps a sign change around the root on every function.
    It returns ``x`` once ``g(x) == 0``, or the end ``x`` of the bracket
    with the smaller ``|g|`` once the bracket is narrower than
    ``tol.scale(x)``, Brent's two stops, so the result is within
    ``tol.scale`` of a root whatever the slope of ``g``.
    ``info["iterations"]`` counts the evaluations of ``g`` inside the
    bracket.  The result always lies inside ``[lo, hi]``, and is ``lo`` or
    ``hi`` when ``g`` is 0 there.
    """
    tol = tol or DEFAULT_TOLERANCE
    if not lo < hi:
        raise ValidationError(f"bracket requires lo < hi, got [{lo}, {hi}]")
    fa = float(g(lo))
    fb = float(g(hi))
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise NonFiniteError("function returned non-finite value at a bracket end")
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0:
        raise NoBracketError(
            f"no sign change on [{lo:g}, {hi:g}]: g(lo)={fa:.6g}, g(hi)={fb:.6g}"
        )

    # b is the estimate, c the bracket end opposite it and a the previous
    # estimate; d is the last step and e the one before it.
    a, b, c = lo, hi, lo
    fc = fa
    d = e = hi - lo
    iteration = 0
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        delta = 0.5 * tol.scale(b)
        half = 0.5 * (c - b)
        if abs(half) < delta:
            if info is not None:
                info["iterations"] = iteration
            return b
        if iteration == tol.max_iter:
            raise NonConvergenceError(
                f"root finding did not converge within {tol.max_iter} iterations"
            )
        iteration += 1
        interpolate = abs(e) >= delta and abs(fa) > abs(fb)
        if interpolate:
            # the step is p/q, toward c once p >= 0
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            # inside the bracket, and shorter than half the step before last
            interpolate = 2.0 * p < min(3.0 * half * q - abs(delta * q), abs(e * q))
        if interpolate:
            d, e = p / q, d
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > delta else math.copysign(delta, half)
        fb = float(g(b))
        if not math.isfinite(fb):
            raise NonFiniteError(f"function returned non-finite value at {b:g}")
        if fb == 0.0:
            if info is not None:
                info["iterations"] = iteration
            return b
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a


def expand_bracket(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    factor: float = 2.0,
    max_steps: int = 60,
) -> tuple[float, float]:
    """Grow ``[lo, hi]`` geometrically until ``g`` changes sign on it.

    Expansion alternates between the lower and upper side, starting with
    the lower one, so a default non-negative bracket reaches negative
    values on the first expansion step.
    """
    a, b = float(lo), float(hi)
    fa = float(g(a))
    fb = float(g(b))
    step = max(b - a, 1e-8)
    for _ in range(max_steps):
        if fa * fb <= 0:
            return a, b
        a -= step
        fa = float(g(a))
        if fa * fb <= 0:
            return a, b
        b += step
        fb = float(g(b))
        step *= factor
    raise NoBracketError(
        f"no sign change found after {max_steps} expansions from [{lo:g}, {hi:g}]"
    )


def mc_estimate(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    statistic: Callable[[np.ndarray], np.ndarray],
    n: int,
    rng: RngStream,
) -> McEstimate:
    """Monte Carlo mean of a per-draw statistic with its standard error.

    ``sampler(generator, n)`` must return an array whose leading axis has
    length ``n`` (each row is one draw, possibly vector-valued) and
    ``statistic`` must map it to one value per draw.
    """
    if n < 2:
        raise ValidationError("mc_estimate requires n >= 2")
    draws = np.asarray(sampler(rng.generator(), n))
    if draws.shape[0] != n:
        raise ValidationError("sampler must return one row per draw")
    values = np.asarray(statistic(draws), dtype=float)
    if values.shape != (n,):
        raise ValidationError("statistic must return exactly one value per draw")
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("non-finite values in Monte Carlo sample statistic")
    estimate = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(n))
    return McEstimate(estimate=estimate, std_error=std_error, n=n)
