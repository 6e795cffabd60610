"""Independent oracles used by the tests.

Everything here is deliberately naive: direct enumeration, central finite
differences, closed forms, and the one-panel-per-call quadrature loop.
None of it shares code with the package paths it checks beyond the
tolerance type and the error classes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from cotv.errors import NonConvergenceError, NonFiniteError, ValidationError
from cotv.numerics import DEFAULT_TOLERANCE, Tolerance


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


def quadratic_premium(mu: float, sigma: float) -> float:
    """Exact premium of u = -t^2 (any pure quadratic): sqrt(mu^2+s^2)-mu."""
    return math.sqrt(mu**2 + sigma**2) - mu


# The adaptive kernel as it was before batching, one integrand call per
# 15-node panel, kept as the reference that the batched kernel must match
# bit for bit: same panels, sums, ``info`` and errors.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)
_MAX_PANELS = 400_000


def _sequential_panel(f: Callable, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _NODES
    y = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    if not np.all(np.isfinite(y)):
        raise NonFiniteError(f"integrand returned non-finite values on [{a:g}, {b:g}]")
    return half * float(_WEIGHTS @ y)


def sequential_integrate(
    f: Callable,
    lo: float,
    hi: float,
    tol: Tolerance | None = None,
    info: dict | None = None,
) -> float:
    tol = tol or DEFAULT_TOLERANCE
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("integration bounds must be finite")
    if not lo < hi:
        raise ValidationError(f"integration requires lo < hi, got [{lo}, {hi}]")

    whole = _sequential_panel(f, lo, hi)
    span = hi - lo
    reference = abs(whole)
    stack: list[tuple[float, float, float, int]] = [(lo, hi, whole, 0)]
    total = 0.0
    panels = 1
    deepest = 0

    while stack:
        a, b, coarse, depth = stack.pop()
        mid = 0.5 * (a + b)
        left = _sequential_panel(f, a, mid)
        right = _sequential_panel(f, mid, b)
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
