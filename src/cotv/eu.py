"""Expected-utility valuation of service-time variability.

Every quantity comes in two flavours:

* ``exact`` evaluates expectations by quadrature (or exact sums for
  discrete models) and solves the premium indifference equation by root
  finding;
* ``second_order`` uses the closed Taylor forms, which expose the
  valuation through the risk coefficients: the premium is
  ``sigma^2/2 * u''(mu)/u'(mu)``, the cost ratio is
  ``R2 CV^2 / (2 + R2 R3 CV^2)``, and the reliability ratio is
  ``1 / (1 + R2 R3 CV^2 / 2)``.

The two paths are never mixed inside one number, so each reported value
is traceable to a single derivation.  The exact route is one core shared
with rank-dependent utility: expected utility is its identity-weighting
case, and both read E_w[u] and VOT from integrals that share one
quantile pass.  A quadratic, pure-quadratic or affine utility integrates
E_w[t] and E_w[t^2] (affine: E_w[t]) in their place.  Every exact
premium, a rank-dependent band's included, is the root of
u(mu + pi) = E_w[u] that :func:`_solve_premium` finds: written down in
closed form for those utilities, where it is the root of a quadratic,
and searched for with a power or constant-prudence utility.  The
one-quantity functions read each exact number as the report does.

EU, DT and RDU build their reports on one scaffold, :func:`_reports`,
which validates phi and the methods, reads sigma, cv and a quadratic
utility's bound once, and builds one report per method; each framework
supplies only its formulas.  :func:`evaluate` is the one-method view of
:func:`_eu_reports`, and a scenario that asks for both methods gets the
reports, and the errors, of two one-method runs.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator

import numpy as np

from .distributions import ServiceTimeModel
from .errors import (
    DerivativeZeroError,
    DomainError,
    NoBracketError,
    NonFiniteError,
    NotQuadraticError,
    ValidationError,
    ZeroCostError,
)
from .numerics import Tolerance, find_root
from .preferences import QuadraticUtility, UtilityFunction, _off_pole, risk_coefficients
from .reports import ValuationReport

__all__ = [
    "EconomicContext",
    "premium_exact",
    "premium_approx",
    "vot_at",
    "vot_mean",
    "cot",
    "cotv",
    "ratio_rho",
    "ratio_rho_coefficient_form",
    "ratio_eta",
    "rho_upper_bound",
    "evaluate",
]

_METHODS = ("exact", "second_order")


class EconomicContext:
    """Marginal utility of wealth and the computational method.

    ``phi`` is strictly positive, which keeps the value of time
    ``-u'(T)/phi`` non-negative for non-increasing utilities.
    """

    def __init__(self, phi: float = 1.0, method: str = "exact") -> None:
        if not phi > 0:
            raise ValidationError("phi must be strictly positive")
        if method not in _METHODS:
            raise ValidationError(f"method must be one of {_METHODS}")
        self.phi = phi
        self.method = method


# The exact route shared by EU and RDU.  Expectations are taken against
# d(w(F)); ``w=None`` is the plain density, i.e. expected utility is the
# identity-weighting case.  A distorted expectation is linear in its
# integrand and E_w[1] = 1, so a polynomial utility u = a t^2 + b t + c
# reads E_w[u] and VOT from its moment basis E_w[t] and E_w[t^2].

def _time(t):
    return np.asarray(t, dtype=float)


def _square(t):
    t = np.asarray(t, dtype=float)
    return t * t


def _moments(model: ServiceTimeModel, w, square: bool, tol: Tolerance | None,
             info: dict | None = None, memo: dict | None = None):
    """E_w[t], and E_w[t^2] if ``square`` (else None), from one shared
    call; ``info`` receives the ``levels``, ``nodes`` and ``error`` of the
    last.
    ``memo``, a sweep's for one call, maps (model, w) to the integrals
    with their info: a memo read is what a fresh call gives, and an
    integral that fails is not kept."""
    held = memo.get((model, w)) if memo is not None else None
    if held is None or (square and len(held) == 1):
        terms = [(_time, w), (_square, w)] if square else [(_time, w)]
        infos = [{} for _ in terms]
        held = list(zip(model._expects(terms, tol, infos), infos))
        if memo is not None:
            memo[model, w] = held
    if info is not None:
        info.update(held[1 if square else 0][1])
    return held[0][0], held[1][0] if square else None


def _basis_values(u: UtilityFunction, phi: float, mean_t: float,
                  mean_t2: float | None = None) -> tuple[float | None, float]:
    """E_w[u] = a E_w[t^2] + b E_w[t] + c, None if E_w[t^2] is needed but
    not given, and VOT = -(2a E_w[t] + b)/phi; affine u needs no E_w[t^2]."""
    a, b, c = u.basis
    vot = -(2.0 * a * mean_t + b) / phi
    if a == 0.0:
        return b * mean_t + c, vot
    return (None if mean_t2 is None else a * mean_t2 + b * mean_t + c), vot


def _exact_terms(u: UtilityFunction, w, phi: float) -> list:
    """The :meth:`~cotv.distributions.ServiceTimeModel._expects` terms of
    the exact route of a utility without a basis, in the order it reads
    them: E_w[u], then VOT = E_w[-u'(t)/phi]."""
    return [(u.u, w), (lambda t: -np.asarray(u.du(t), dtype=float) / phi, w)]


def _exact_values(u: UtilityFunction, model: ServiceTimeModel, w, phi: float,
                  tol: Tolerance | None, info: dict | None = None,
                  memo: dict | None = None) -> Iterator[float]:
    """An iterator of E_w[u], then VOT: integrated when read, or from a
    polynomial utility's basis.  ``info`` receives the ``levels``,
    ``nodes`` and ``error`` of E_w[u] or of the last basis integral."""
    if u.basis is None:
        return model._expects(_exact_terms(u, w, phi), tol, [info, None])
    mean_t, mean_t2 = _moments(model, w, u.basis[0] != 0.0, tol, info, memo)
    return iter(_basis_values(u, phi, mean_t, mean_t2))


def _exact_ratio(cotv_value: float, cot_value: float) -> float:
    """rho = COTV/COT, literally; a zero COTV is a zero ratio also where
    the COT is not positive, as the 0/0 of a point mass at t = 0."""
    if cot_value > 0:
        return cotv_value / cot_value
    if cotv_value == 0.0:
        return 0.0
    raise ZeroCostError(f"cost of time is {cot_value:g}; ratio undefined")


def _solve_premium(u: UtilityFunction, mu: float, expected_u: float, lowest: float,
                   tol: Tolerance | None, info: dict | None = None) -> float:
    """Root of u(mu + pi) = expected_u, where expected_u averages u over
    times of which ``lowest`` is the smallest: a model's, or a band's with
    mu = t0.

    u is decreasing, so the root is unique: it lies in [lowest - mu, 0]
    when u(mu) < expected_u, and above 0 when u(mu) > expected_u
    (variability costs utility).  The gap at 0 picks the side and is one
    of the bracket's ends, so it is evaluated once; a gap of exactly 0
    there is the root 0, as find_root's end rule has it.  A root search
    above 0 first tries [0, mu], where mu + pi lies in [mu, 2 mu] (1e-6
    in place of a mean below that), and doubles the upper end while the
    gap there keeps the sign of the gap at 0.  A utility with a basis
    (a, b, c) has the gap a pi^2 + d1 pi + K, K the gap at 0 and
    d1 = u'(mu) < 0, whose root where u'(mu + pi) < 0 is
    2K / (sqrt(d1^2 - 4aK) - d1), with no cancellation; it is written
    down, needs no upper end and records no ``iterations``.  Where it is
    not in the bracket, or the discriminant is negative, the gap at the
    ends gives the error :func:`~cotv.numerics.find_root` raises there.
    """
    def gap(pi: float) -> float:
        return at_mu if pi == 0.0 else float(u.u(mu + pi)) - expected_u

    at_mu = float(u.u(mu)) - expected_u
    if at_mu == 0.0:
        return 0.0
    if at_mu < 0:
        lo, hi = lowest - mu, 0.0
    elif u.basis is not None:
        lo, hi = 0.0, math.inf
    else:
        lo, hi = 0.0, max(mu, 1e-6)
        while gap(hi) > 0:
            hi *= 2.0
    if u.basis is None:
        return find_root(gap, lo, hi, tol, info)
    d1 = float(u.du(mu))
    discriminant = d1 * d1 - 4.0 * u.basis[0] * at_mu
    if discriminant >= 0.0:
        root = 2.0 * at_mu / (math.sqrt(discriminant) - d1)
        if lo <= root <= hi:
            return root
    with np.errstate(invalid="ignore"):  # u at an infinite end may be NaN
        g_lo, g_hi = gap(lo), gap(hi)
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)):
        raise NonFiniteError("function returned non-finite value at a bracket end")
    raise NoBracketError(f"no sign change on [{lo:g}, {hi:g}]: g(lo)={g_lo:.6g}, "
                         f"g(hi)={g_hi:.6g}")


def _report_mean(u: UtilityFunction, model: ServiceTimeModel,
                 rank_dependent: bool = False) -> float:
    """The mean time a report values ``model`` at: model.mean(), or under
    rank-dependent utility a band's anchor t0.  ``DomainError`` where it
    lies outside ``u.interval``, the range u is certified non-increasing
    on; every report, and every view that reads u at the mean, asks here.
    """
    meta = model.dt_meta if rank_dependent else None
    mu = meta.t0 if meta is not None else model.mean()
    lo, hi = u.interval
    if not lo <= mu <= hi:
        raise DomainError(f"mean time {mu!r} lies outside the utility's interval "
                          f"[{lo:g}, {hi:g}]")
    return mu


def _exact_valuation(u: UtilityFunction, model: ServiceTimeModel, mu: float,
                     phi: float, values: Iterator[float], tol: Tolerance | None,
                     premium: float | None = None,
                     info: dict | None = None) -> tuple[float, float, float, float]:
    """(premium, VOT, COTV, rho) of the exact route.

    ``values`` is an iterator of E_w[u] and then VOT, as
    :func:`_exact_values` gives them: E_w[u] is read once, the premium is
    solved from it unless the caller supplies it, then VOT is read.
    ``info`` receives the premium root search.
    """
    expected_u = next(values)
    if premium is None:
        premium = _solve_premium(u, mu, expected_u, model.support()[0], tol, info)
    vot = next(values)
    cotv_value = (float(u.u(mu)) - expected_u) / phi
    return premium, vot, cotv_value, _exact_ratio(cotv_value, vot * mu)


def _finite_view(view: Callable[..., float]) -> Callable[..., float]:
    """``view``, raising ``NonFiniteError`` where its value is not finite,
    as its report does where a field is not finite."""
    @functools.wraps(view)
    def checked(*args, **kwargs) -> float:
        value = view(*args, **kwargs)
        if not math.isfinite(value):
            raise NonFiniteError(f"{view.__name__} is not finite: {value!r}")
        return value
    return checked


@_finite_view
def premium_exact(u: UtilityFunction, model: ServiceTimeModel,
                  tol: Tolerance | None = None) -> float:
    """Variability premium: the extra certain time with the same utility
    as facing the random time, solving E[u(t)] = u(mu + pi)."""
    mu = _report_mean(u, model)
    expected_u = next(_exact_values(u, model, None, 1.0, tol))  # phi enters VOT only
    return _solve_premium(u, mu, expected_u, model.support()[0], tol)


@_finite_view
def premium_approx(u: UtilityFunction, model: ServiceTimeModel) -> float:
    """Second-order premium: sigma^2/2 times absolute risk aversion at the mean."""
    mu = _report_mean(u, model)
    return _premium_approx(u, model, mu, float(u.du(mu)))


# The second-order forms take u'(mu) = d1 and u'''(mu) = d3 from their
# caller, so a report evaluates each derivative at the mean once.

def _premium_approx(u: UtilityFunction, model: ServiceTimeModel, mu: float,
                    d1: float) -> float:
    if d1 == 0.0:
        raise DerivativeZeroError(f"u'({mu:g}) = 0: premium approximation undefined")
    return 0.5 * model.variance() * float(u.d2u(mu)) / d1


def _vot_approx(model: ServiceTimeModel, vot_mu: float, d3: float, phi: float) -> float:
    return vot_mu - 0.5 * model.variance() * d3 / phi


def vot_at(u: UtilityFunction, at_time: float, ctx: EconomicContext) -> float:
    """Instantaneous monetary value of time: -u'(T)/phi."""
    return -float(u.du(at_time)) / ctx.phi


@_finite_view
def vot_mean(u: UtilityFunction, model: ServiceTimeModel, ctx: EconomicContext,
             tol: Tolerance | None = None) -> float:
    """Average value of time over the random service time.

    Exact method aggregates the instantaneous value, E[-u'(t)/phi] (from
    E[t] for a polynomial utility); second order expands it at the mean,
    VOT(mu) - sigma^2/2 u'''(mu)/phi.
    """
    mu = _report_mean(u, model)
    if ctx.method == "exact":
        if u.basis is not None:
            return _basis_values(u, ctx.phi, _moments(model, None, False, tol)[0])[1]
        return model.distorted_expect(*_exact_terms(u, None, ctx.phi)[1], tol)
    return _vot_approx(model, vot_at(u, mu, ctx), float(u.d3u(mu)), ctx.phi)


@_finite_view
def cot(u: UtilityFunction, model: ServiceTimeModel, ctx: EconomicContext,
        tol: Tolerance | None = None) -> float:
    """Cost of time: average value of time multiplied by the mean duration."""
    return vot_mean(u, model, ctx, tol) * model.mean()


@_finite_view
def cotv(u: UtilityFunction, model: ServiceTimeModel, ctx: EconomicContext,
         tol: Tolerance | None = None) -> float:
    """Cost of time variability.

    Exact method integrates the utility shortfall,
    E[(u(mu) - u(t))] / phi; second order monetises the premium at the
    mean value of time, pi * VOT(mu).  Both are non-negative for concave
    utilities.
    """
    mu = _report_mean(u, model)
    if ctx.method == "exact":
        expected_u = next(_exact_values(u, model, None, ctx.phi, tol))
        return (float(u.u(mu)) - expected_u) / ctx.phi
    return premium_approx(u, model) * vot_at(u, mu, ctx)


def _second_order_pole(model: ServiceTimeModel, mu: float, d1: float, d3: float) -> float:
    """1 + R2 R3 CV^2 / 2, with the signed R2*R3*CV^2 computed directly as
    -sigma^2 u'''(mu)/u'(mu); ``DomainError`` where it is 0.

    The direct form stays defined when u'' = 0 makes the individual
    coefficients undefined.
    """
    if d1 == 0.0:
        raise DerivativeZeroError(f"u'({mu:g}) = 0")
    return _off_pole(1.0 + 0.5 * (-model.variance() * d3 / d1))


@_finite_view
def ratio_rho(u: UtilityFunction, model: ServiceTimeModel, ctx: EconomicContext,
              tol: Tolerance | None = None) -> float:
    """Ratio of the cost of time variability to the cost of time.

    Exact method divides the exact costs, read as the report reads them.
    Second order evaluates (pi/mu) / (1 + R2 R3 CV^2 / 2) with the signed
    higher-order term, the pi-based restatement of the coefficient closed
    form; the two agree identically.
    """
    mu = _report_mean(u, model)
    if ctx.method == "exact":
        values = _exact_values(u, model, None, ctx.phi, tol)
        expected_u, vot = next(values), next(values)
        return _exact_ratio((float(u.u(mu)) - expected_u) / ctx.phi, vot * mu)
    return _approx_ratio(u, model, mu, float(u.du(mu)), float(u.d3u(mu)))


def _approx_ratio(u: UtilityFunction, model: ServiceTimeModel, mu: float,
                  d1: float, d3: float, premium: float | None = None) -> float:
    """Second-order rho; the mean is checked before the premium is computed."""
    if mu <= 0:
        raise ZeroCostError("second-order ratio requires a positive mean time")
    if premium is None:
        premium = _premium_approx(u, model, mu, d1)
    return (premium / mu) / _second_order_pole(model, mu, d1, d3)


@_finite_view
def ratio_rho_coefficient_form(u: UtilityFunction, model: ServiceTimeModel) -> float:
    """Cost ratio through the coefficients: R2 CV^2 / (2 + R2 R3 CV^2).

    Requires both coefficients to exist; agrees with the second-order
    :func:`ratio_rho` wherever defined (asserted by the test suite).
    """
    mu = _report_mean(u, model)
    profile = risk_coefficients(u, mu)
    if profile.rel_prudence is None:
        raise DerivativeZeroError("coefficient form needs u''(mu) != 0")
    r2 = profile.rel_risk_aversion
    r3 = profile.rel_prudence
    cv2 = model.cv() ** 2
    return r2 * cv2 / _off_pole(2.0 + r2 * r3 * cv2)


@_finite_view
def ratio_eta(u: UtilityFunction, model: ServiceTimeModel) -> float:
    """Reliability ratio: marginal value of variability reduction relative
    to marginal value of mean reduction, 1 / (1 + R2 R3 CV^2 / 2).

    Computed through the signed higher-order term so quadratic utilities
    (third derivative zero) give exactly 1, and affine utilities stay
    defined.
    """
    mu = _report_mean(u, model)
    return 1.0 / _second_order_pole(model, mu, float(u.du(mu)), float(u.d3u(mu)))


def rho_upper_bound(u: UtilityFunction, model: ServiceTimeModel) -> float:
    """Hard ceiling CV^2 / 2 for the cost ratio of quadratic utilities.

    Attained exactly by the pure quadratic member.  For the exponential
    model (CV = 1) the bound is the constant 1/2.
    """
    if not isinstance(u, QuadraticUtility):
        raise NotQuadraticError("the cost-ratio bound holds for quadratic utilities")
    return 0.5 * model.cv() ** 2


def _reports(framework: str, model: ServiceTimeModel, phi: float,
             methods: tuple[str, ...], steps: Iterator[tuple],
             quadratic: bool = False) -> dict[str, ValuationReport]:
    """The reports of EU, DT and RDU for ``methods``, in that order.

    ``steps`` is a framework's generator of its formulas.  Its first item
    is the scenario's (mu, VOT(mu), diagnostics), computed once; each next
    one is the (premium, VOT, COTV, rho, eta, extra diagnostics) of the
    next method.  phi and every method are validated before it starts.
    sigma, cv (None where mu <= 0) and, for a ``quadratic`` utility, the
    bound CV^2/2 (None with cv) are read where the first report is built.
    So each report equals a one-method run bit for bit, and errors are
    raised in the order one-method runs raise them."""
    for method in methods:
        EconomicContext(phi, method)  # validates phi and method

    mu, vot_mu, diagnostics = next(steps)
    reports = {}
    for method, (premium, vot, cotv_value, rho, eta, extra) in zip(methods, steps):
        if not reports:
            sigma = model.std()
            cv = model.cv() if mu > 0 else None
            bound = 0.5 * cv**2 if quadratic and cv is not None else None
        reports[method] = ValuationReport(
            framework, method, phi, mu, sigma, cv, premium, vot_mu, vot, cotv_value,
            rho, eta, bound, {**diagnostics, **extra})
    return reports


def _eu_reports(u: UtilityFunction, model: ServiceTimeModel, phi: float,
                methods: tuple[str, ...], tol: Tolerance | None,
                moments: dict | None = None) -> dict[str, ValuationReport]:
    """Expected-utility reports for ``methods`` (:func:`_reports`), sharing
    mu, u'(mu), VOT(mu) and the labels.
    ``DomainError`` where mu lies outside ``u.interval``.
    ``moments`` is a sweep's memo of basis integrals (:func:`_moments`).
    Exact ``diagnostics``: the tanh-sinh ``levels`` E[u] reached (3 is the
    step h = 1/8), the ``nodes`` it summed and its ``error``, the
    difference of its last two levels, and the premium root's
    ``iterations``; a discrete model, which sums, only the last.  A
    polynomial utility gives the levels, nodes and error of E[t^2]
    (affine: E[t]) and no ``iterations``, as its premium is solved in
    closed form."""
    def steps():
        mu = _report_mean(u, model)
        d1 = float(u.du(mu))
        vot_mu = -d1 / phi
        yield mu, vot_mu, {"utility": u.label(), "model": model.label()}
        for method in methods:
            info: dict = {}
            if method == "exact":
                values = _exact_values(u, model, None, phi, tol, info, moments)
                premium, vot, cotv_value, rho = _exact_valuation(
                    u, model, mu, phi, values, tol, info=info)
                eta = vot_mu / vot if vot != 0 else None
            else:
                premium = _premium_approx(u, model, mu, d1)
                d3 = float(u.d3u(mu))
                vot = _vot_approx(model, vot_mu, d3, phi)
                cotv_value = premium * vot_mu
                rho = _approx_ratio(u, model, mu, d1, d3, premium)
                eta = 1.0 / _second_order_pole(model, mu, d1, d3)
            yield premium, vot, cotv_value, rho, eta, info

    return _reports("eu", model, phi, methods, steps(), isinstance(u, QuadraticUtility))


def evaluate(u: UtilityFunction, model: ServiceTimeModel, ctx: EconomicContext,
             tol: Tolerance | None = None) -> ValuationReport:
    """Full expected-utility valuation report for one method."""
    return _eu_reports(u, model, ctx.phi, (ctx.method,), tol)[ctx.method]
