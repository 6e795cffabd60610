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
case, and both solve the premium with the same root search, on the window
their E_w[u] and VOT integrals share.

Reports are built by :func:`_eu_reports`, as :mod:`cotv.non_eu` builds
its own: mu, u'(mu), VOT(mu), sigma, cv, the quadratic bound and the
labels are computed once per scenario, then one report is built per
requested method.  :func:`evaluate` is its one-method view, and a
scenario that asks for both methods gets the reports, and the errors, of
two one-method runs.
"""

from __future__ import annotations


import numpy as np

from .distributions import ServiceTimeModel
from .errors import (
    DerivativeZeroError,
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
# identity-weighting case.

def _exact_terms(u: UtilityFunction, w, phi: float) -> list:
    """The :meth:`~cotv.distributions.ServiceTimeModel._expects` terms of
    the exact route, in the order it reads them: E_w[u], then
    VOT = E_w[-u'(t)/phi]."""
    return [(u.u, w), (lambda t: -np.asarray(u.du(t), dtype=float) / phi, w)]


def _exact_ratio(cotv_value: float, cot_value: float) -> float:
    """rho = COTV/COT, literally; a zero COTV is a zero ratio also where
    the COT is not positive, as the 0/0 of a point mass at t = 0."""
    if cot_value > 0:
        return cotv_value / cot_value
    if cotv_value == 0.0:
        return 0.0
    raise ZeroCostError(f"cost of time is {cot_value:g}; ratio undefined")


def _solve_premium(u: UtilityFunction, mu: float, expected_u: float,
                   window: tuple[float, float], tol: Tolerance | None,
                   info: dict | None = None) -> float:
    """Root of u(mu + pi) = expected_u, bracketed inside the window.

    u is decreasing and expected_u averages u over the integration window
    [lo, hi], so the root lies in [0, hi - mu] when u(mu) > expected_u
    (variability costs utility) and in [lo - mu, 0] otherwise.  Either
    bracket keeps mu + pi inside the window, where u is defined, and no
    bracket search is needed; a decreasing u makes the root unique.
    The gap at 0 picks the bracket and is one of its ends, so it is
    evaluated once; a gap of exactly 0 there is the root 0, as find_root's
    end rule has it, also for a point mass, whose window holds no bracket.
    """
    def gap(pi: float) -> float:
        return at_mu if pi == 0.0 else float(u.u(mu + pi)) - expected_u

    at_mu = float(u.u(mu)) - expected_u
    if at_mu == 0.0:
        return 0.0
    lo, hi = window
    if at_mu > 0:
        return find_root(gap, 0.0, max(hi - mu, 1e-6), tol, info)
    return find_root(gap, lo - mu, 0.0, tol, info)


def _exact_valuation(u: UtilityFunction, mu: float, phi: float, shared: tuple,
                     tol: Tolerance | None, premium: float | None = None,
                     info: dict | None = None) -> tuple[float, float, float, float]:
    """(premium, VOT, COTV, rho) of the exact route.

    ``shared`` is the window and the values of a shared
    :meth:`~cotv.distributions.ServiceTimeModel._expects` call whose next
    terms are :func:`_exact_terms`: E_w[u] is read once, the premium is
    solved from it on that window unless the caller supplies it, then VOT
    is read.  ``info`` receives the premium root search.
    """
    window, values = shared
    expected_u = next(values)
    if premium is None:
        premium = _solve_premium(u, mu, expected_u, window, tol, info)
    vot = next(values)
    cotv_value = (float(u.u(mu)) - expected_u) / phi
    return premium, vot, cotv_value, _exact_ratio(cotv_value, vot * mu)


def premium_exact(u: UtilityFunction, model: ServiceTimeModel,
                  tol: Tolerance | None = None) -> float:
    """Variability premium: the extra certain time with the same utility
    as facing the random time, solving E[u(t)] = u(mu + pi)."""
    window, values = model._expects([(u.u, None)], tol)
    return _solve_premium(u, model.mean(), next(values), window, tol)


def premium_approx(u: UtilityFunction, model: ServiceTimeModel) -> float:
    """Second-order premium: sigma^2/2 times absolute risk aversion at the mean."""
    mu = model.mean()
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


def vot_mean(u: UtilityFunction, model: ServiceTimeModel, ctx: EconomicContext,
             tol: Tolerance | None = None) -> float:
    """Average value of time over the random service time.

    Exact method aggregates the instantaneous value, E[-u'(t)/phi];
    second order expands it at the mean, VOT(mu) - sigma^2/2 u'''(mu)/phi.
    """
    if ctx.method == "exact":
        return model.distorted_expect(*_exact_terms(u, None, ctx.phi)[1], tol)
    mu = model.mean()
    return _vot_approx(model, vot_at(u, mu, ctx), float(u.d3u(mu)), ctx.phi)


def cot(u: UtilityFunction, model: ServiceTimeModel, ctx: EconomicContext,
        tol: Tolerance | None = None) -> float:
    """Cost of time: average value of time multiplied by the mean duration."""
    return vot_mean(u, model, ctx, tol) * model.mean()


def cotv(u: UtilityFunction, model: ServiceTimeModel, ctx: EconomicContext,
         tol: Tolerance | None = None) -> float:
    """Cost of time variability.

    Exact method integrates the utility shortfall,
    E[(u(mu) - u(t))] / phi; second order monetises the premium at the
    mean value of time, pi * VOT(mu).  Both are non-negative for concave
    utilities.
    """
    mu = model.mean()
    if ctx.method == "exact":
        return (float(u.u(mu)) - model.expect(u.u, tol)) / ctx.phi
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


def ratio_rho(u: UtilityFunction, model: ServiceTimeModel, ctx: EconomicContext,
              tol: Tolerance | None = None) -> float:
    """Ratio of the cost of time variability to the cost of time.

    Exact method divides the exact costs.  Second order evaluates
    (pi/mu) / (1 + R2 R3 CV^2 / 2) with the signed higher-order term, the
    pi-based restatement of the coefficient closed form; the two agree
    identically.
    """
    if ctx.method == "exact":
        denominator = cot(u, model, ctx, tol)
        return _exact_ratio(cotv(u, model, ctx, tol), denominator)
    mu = model.mean()
    return _approx_ratio(u, model, mu, float(u.du(mu)), float(u.d3u(mu)))


def _approx_ratio(u: UtilityFunction, model: ServiceTimeModel, mu: float,
                  d1: float, d3: float, premium: float | None = None) -> float:
    """Second-order rho; the mean is checked before the premium is computed."""
    if mu <= 0:
        raise ZeroCostError("second-order ratio requires a positive mean time")
    if premium is None:
        premium = _premium_approx(u, model, mu, d1)
    return (premium / mu) / _second_order_pole(model, mu, d1, d3)


def ratio_rho_coefficient_form(u: UtilityFunction, model: ServiceTimeModel) -> float:
    """Cost ratio through the coefficients: R2 CV^2 / (2 + R2 R3 CV^2).

    Requires both coefficients to exist; agrees with the second-order
    :func:`ratio_rho` wherever defined (asserted by the test suite).
    """
    mu = model.mean()
    profile = risk_coefficients(u, mu)
    if profile.rel_prudence is None:
        raise DerivativeZeroError("coefficient form needs u''(mu) != 0")
    r2 = profile.rel_risk_aversion
    r3 = profile.rel_prudence
    cv2 = model.cv() ** 2
    return r2 * cv2 / _off_pole(2.0 + r2 * r3 * cv2)


def ratio_eta(u: UtilityFunction, model: ServiceTimeModel) -> float:
    """Reliability ratio: marginal value of variability reduction relative
    to marginal value of mean reduction, 1 / (1 + R2 R3 CV^2 / 2).

    Computed through the signed higher-order term so quadratic utilities
    (third derivative zero) give exactly 1, and affine utilities stay
    defined.
    """
    mu = model.mean()
    return 1.0 / _second_order_pole(model, mu, float(u.du(mu)), float(u.d3u(mu)))


def rho_upper_bound(u: UtilityFunction, model: ServiceTimeModel) -> float:
    """Hard ceiling CV^2 / 2 for the cost ratio of quadratic utilities.

    Attained exactly by the pure quadratic member.  For the exponential
    model (CV = 1) the bound is the constant 1/2.
    """
    if not isinstance(u, QuadraticUtility):
        raise NotQuadraticError("the cost-ratio bound holds for quadratic utilities")
    return 0.5 * model.cv() ** 2


def _eu_reports(u: UtilityFunction, model: ServiceTimeModel, phi: float,
                methods: tuple[str, ...],
                tol: Tolerance | None) -> dict[str, ValuationReport]:
    """Expected-utility reports for ``methods``, in that order, sharing mu,
    u'(mu), VOT(mu), sigma, cv, the quadratic bound and the labels, which
    are computed once.  Each report equals a one-method run bit for bit,
    and errors are raised in the order one-method runs raise them: sigma,
    cv and the bound are first read where the first report is built."""
    for method in methods:
        EconomicContext(phi, method)  # validates phi and method

    mu = model.mean()
    d1 = float(u.du(mu))
    vot_mu = -d1 / phi
    reports = {}
    for method in methods:
        info: dict = {}
        if method == "exact":
            shared = model._expects(_exact_terms(u, None, phi), tol, [info, None])
            premium, vot_value, cotv_value, rho = _exact_valuation(
                u, mu, phi, shared, tol, info=info)
            eta = vot_mu / vot_value if vot_value != 0 else None
        else:
            premium = _premium_approx(u, model, mu, d1)
            d3 = float(u.d3u(mu))
            vot_value = _vot_approx(model, vot_mu, d3, phi)
            cotv_value = premium * vot_mu
            rho = _approx_ratio(u, model, mu, d1, d3, premium)
            eta = 1.0 / _second_order_pole(model, mu, d1, d3)

        if not reports:
            sigma = model.std()
            cv = model.cv() if mu > 0 else None
            bound = rho_upper_bound(u, model) if isinstance(u, QuadraticUtility) else None
            labels = {"utility": u.label(), "model": model.label()}
        reports[method] = ValuationReport(
            framework="eu",
            method=method,
            phi=phi,
            mu=mu,
            sigma=sigma,
            cv=cv,
            premium=premium,
            vot_at_mu=vot_mu,
            vot=vot_value,
            cotv=cotv_value,
            rho=rho,
            eta=eta,
            rho_upper_bound=bound,
            diagnostics={**labels, **info},
        )
    return reports


def evaluate(u: UtilityFunction, model: ServiceTimeModel, ctx: EconomicContext,
             tol: Tolerance | None = None) -> ValuationReport:
    """Full expected-utility valuation report for one method."""
    return _eu_reports(u, model, ctx.phi, (ctx.method,), tol)[ctx.method]
