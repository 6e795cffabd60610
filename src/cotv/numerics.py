"""Deterministic numerical kernel: adaptive quadrature, a bracketing root
finder (Brent's method), and seeded Monte Carlo estimation.

These routines are the reference path against which every closed-form
approximation in the package is checked, so they favour predictable error
control over raw speed.  The quadrature makes one integrand call per
refinement step, holding the nodes of several panels, with the panel
order, sums and errors of one call per panel.  Each call's nodes depend
only on the panel it refines, so integrals over one window that refine
the same panel ask for the same nodes, and a caller that runs them one
after another can reuse what it computed on them.  The root finder
keeps a sign-changing bracket around its estimate and returns a point of
it once the bracket is narrower than the tolerance.  All of them are pure
functions of their inputs; randomness enters only through an explicit
:class:`RngStream`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class Tolerance:
    """Error budget shared by the quadrature and root-finding routines.

    ``abs_tol`` and ``rel_tol`` combine as ``max(abs_tol, rel_tol * |ref|)``;
    at least one must be strictly positive.  ``max_iter`` bounds bisection
    depth for quadrature and iteration count for root finding.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self) -> None:
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValidationError("tolerances must be non-negative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValidationError("at least one of abs_tol/rel_tol must be positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")

    def scale(self, reference: float) -> float:
        """Combined tolerance relative to a reference magnitude."""
        return max(self.abs_tol, self.rel_tol * abs(reference))


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class RngStream:
    """Named random stream.

    Identical ``(seed, stream_id)`` pairs reproduce the identical sample
    sequence bit-exactly; distinct ``stream_id`` values give statistically
    independent streams, which is the only sanctioned way to parallelise
    Monte Carlo work.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) <= _UINT64_MAX:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        if int(self.stream_id) < 0:
            raise ValidationError("stream_id must be non-negative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream_id),)
        )
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its sample standard error."""

    estimate: float
    std_error: float
    n: int


# 15-point Gauss-Legendre rule; exact through polynomial degree 29.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


def _nodes(ends: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths of the ``(a, b)`` panels of ``ends`` and their 15 Gauss
    nodes each, panel after panel, in one flat array."""
    bounds = np.array(ends, dtype=float)
    half = 0.5 * (bounds[:, 1] - bounds[:, 0])
    x = ((0.5 * (bounds[:, 0] + bounds[:, 1]))[:, None]
         + half[:, None] * _NODES).ravel()
    return half, x


def _estimates(half: np.ndarray, y) -> list[float | None]:
    """Gauss estimate of each panel from the integrand values ``y`` at its
    nodes.

    Each estimate is computed as on a lone panel, so it does not depend on
    the batch; a panel where ``y`` is not finite comes back as ``None`` for
    :func:`_adaptive` to raise on when it reaches that panel.
    """
    shape = (half.size, _NODES.size)
    y = np.asarray(y, dtype=float)
    # a constant integrand may return one value for all its nodes
    y = y.reshape(shape) if y.size == half.size * _NODES.size else np.broadcast_to(y, shape)
    finite = np.isfinite(y).all(axis=1)
    # One dot product per row, as on a lone panel: a matrix product may
    # sum in another order and move the last bit.
    return [h * float(_WEIGHTS @ row) if ok else None
            for h, row, ok in zip(half.tolist(), y, finite.tolist())]


def _non_finite(a: float, b: float) -> NonFiniteError:
    return NonFiniteError(f"integrand returned non-finite values on [{a:g}, {b:g}]")


def _adaptive(estimate: Callable, lo: float, hi: float, tol: Tolerance | None,
              info: dict | None) -> float:
    """One adaptive integral on ``[lo, hi]``.

    ``estimate(ends)`` returns the estimates of the ``(a, b)`` panels of
    the tuple ``ends`` (``None`` where the integrand was not finite).  A
    request depends only on the panel it refines: the window and its
    halves first, then the four quarters of each panel that is bisected.
    Panels are visited depth first and summed in that order, and a
    non-finite estimate raises when that order reaches its panel: the
    value, ``info`` and errors are those of one integrand call per panel.
    """
    tol = tol or DEFAULT_TOLERANCE
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("integration bounds must be finite")
    if not lo < hi:
        raise ValidationError(f"integration requires lo < hi, got [{lo}, {hi}]")
    mid = 0.5 * (lo + hi)
    whole, left, right = estimate(((lo, hi), (lo, mid), (mid, hi)))
    if whole is None:
        raise _non_finite(lo, hi)
    span = hi - lo
    reference = abs(whole)
    # Entries carry the estimates of their two halves, made when the entry
    # is pushed, so each bisection is one request.
    stack = [(lo, hi, whole, 0, left, right)]
    total = 0.0
    panels = 1
    deepest = 0

    while stack:
        a, b, coarse, depth, left, right = stack.pop()
        mid = 0.5 * (a + b)
        if left is None:
            raise _non_finite(a, mid)
        if right is None:
            raise _non_finite(mid, b)
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
            q1 = 0.5 * (a + mid)
            q3 = 0.5 * (mid + b)
            quarters = estimate(((a, q1), (q1, mid), (mid, q3), (q3, b)))
            stack.append((a, mid, left, depth + 1, *quarters[:2]))
            stack.append((mid, b, right, depth + 1, *quarters[2:]))

    if info is not None:
        info["panels"] = panels
        info["max_depth"] = deepest
    return total


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

    ``f`` is called once for the window and its halves, then once for the
    four quarters of each panel that is bisected, so it must act
    elementwise: one call holds the nodes of several panels.  Panels are
    still visited depth first and summed in that order, and a non-finite
    value raises when that order reaches its panel: the value, ``info``
    and errors are those of one call per panel.  A report's shared
    integrals run through the same loop, :func:`_adaptive`.
    """
    def estimate(ends):
        half, x = _nodes(ends)
        return _estimates(half, f(x))

    return _adaptive(estimate, lo, hi, tol, info)


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
    It returns ``x`` once ``|g(x)| <= tol.abs_tol``, or the end ``x`` of
    the bracket with the smaller ``|g|`` once the bracket is narrower than
    ``tol.scale(x)``; ``info["iterations"]`` counts the evaluations of
    ``g`` inside the bracket.  The result always lies inside
    ``[lo, hi]``, and is ``lo`` or ``hi`` when ``g`` is 0 there.
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
        if abs(fb) <= tol.abs_tol:
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
