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
case, and both solve the premium with the same root search.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class EconomicContext:
    """Marginal utility of wealth and the computational method.

    ``phi`` is strictly positive, which keeps the value of time
    ``-u'(T)/phi`` non-negative for non-increasing utilities.
    """

    phi: float = 1.0
    method: str = "exact"

    def __post_init__(self) -> None:
        if not self.phi > 0:
            raise ValidationError("phi must be strictly positive")
        if self.method not in _METHODS:
            raise ValidationError(f"method must be one of {_METHODS}")


# The exact route shared by EU and RDU.  Expectations are taken against
# d(w(F)); ``w=None`` is the plain density, i.e. expected utility is the
# identity-weighting case.

def _exact_vot(u: UtilityFunction, model: ServiceTimeModel, w, phi: float,
               tol: Tolerance | None) -> float:
    """VOT = E_w[-u'(t)/phi]."""
    return model.distorted_expect(
        lambda t: -np.asarray(u.du(t), dtype=float) / phi, w, tol)


def _exact_ratio(model: ServiceTimeModel, cotv_value: float, cot_value: float) -> float:
    """rho = COTV/COT, literally; 0 for a degenerate model."""
    if model.is_degenerate:
        return 0.0
    if cot_value <= 0:
        raise ZeroCostError(f"cost of time is {cot_value:g}; ratio undefined")
    return cotv_value / cot_value


def _solve_premium(u: UtilityFunction, model: ServiceTimeModel, mu: float,
                   expected_u: float, tol: Tolerance | None,
                   info: dict | None = None) -> float:
    """Root of u(mu + pi) = expected_u, bracketed inside the window.

    u is decreasing and expected_u averages u over the integration window
    [lo, hi], so the root lies in [0, hi - mu] when u(mu) > expected_u
    (variability costs utility) and in [lo - mu, 0] otherwise.  Either
    bracket keeps mu + pi inside the window, where u is defined, and no
    bracket search is needed; a decreasing u makes the root unique.
    """
    def gap(pi: float) -> float:
        return float(u.u(mu + pi)) - expected_u

    lo, hi, _ = model.integration_interval()
    if gap(0.0) > 0:
        return find_root(gap, 0.0, max(hi - mu, 1e-6), tol, info)
    return find_root(gap, lo - mu, 0.0, tol, info)


def _exact_valuation(u: UtilityFunction, model: ServiceTimeModel, w, mu: float,
                     phi: float, tol: Tolerance | None, premium: float | None = None,
                     info: dict | None = None) -> tuple[float, float, float, float]:
    """(premium, VOT, COTV, rho) of the exact route: E_w[u] is integrated
    once, and the premium is solved from it unless the caller supplies it.
    ``info`` receives the E_w[u] quadrature and the premium root search."""
    expected_u = model.distorted_expect(u.u, w, tol, info)
    if premium is None:
        premium = _solve_premium(u, model, mu, expected_u, tol, info)
    vot = _exact_vot(u, model, w, phi, tol)
    cotv_value = (float(u.u(mu)) - expected_u) / phi
    return premium, vot, cotv_value, _exact_ratio(model, cotv_value, vot * mu)


def premium_exact(u: UtilityFunction, model: ServiceTimeModel,
                  tol: Tolerance | None = None) -> float:
    """Variability premium: the extra certain time with the same utility
    as facing the random time, solving E[u(t)] = u(mu + pi)."""
    if model.is_degenerate:
        return 0.0
    return _solve_premium(u, model, model.mean(), model.expect(u.u, tol), tol)


def premium_approx(u: UtilityFunction, model: ServiceTimeModel) -> float:
    """Second-order premium: sigma^2/2 times absolute risk aversion at the mean."""
    mu = model.mean()
    d1 = float(u.du(mu))
    if d1 == 0.0:
        raise DerivativeZeroError(f"u'({mu:g}) = 0: premium approximation undefined")
    return 0.5 * model.variance() * float(u.d2u(mu)) / d1


def vot_at(u: UtilityFunction, at_time: float, ctx: EconomicContext) -> float:
    """Instantaneous monetary value of time: -u'(T)/phi."""
    return -float(u.du(at_time)) / ctx.phi


def vot_mean(u: UtilityFunction, model: ServiceTimeModel, ctx: EconomicContext,
             tol: Tolerance | None = None) -> float:
    """Average value of time over the random service time.

    Exact method aggregates the instantaneous value, E[-u'(t)/phi];
    second order expands it at the mean, VOT(mu) - sigma^2/2 u'''(mu)/phi.
    """
    mu = model.mean()
    if ctx.method == "exact":
        if model.is_degenerate:
            return vot_at(u, mu, ctx)
        return _exact_vot(u, model, None, ctx.phi, tol)
    return vot_at(u, mu, ctx) - 0.5 * model.variance() * float(u.d3u(mu)) / ctx.phi


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
    if model.is_degenerate:
        return 0.0
    if ctx.method == "exact":
        return (float(u.u(mu)) - model.expect(u.u, tol)) / ctx.phi
    return premium_approx(u, model) * vot_at(u, mu, ctx)


def _signed_higher_order_term(u: UtilityFunction, model: ServiceTimeModel) -> float:
    """Signed R2*R3*CV^2 computed directly as -sigma^2 u'''(mu)/u'(mu).

    The direct form stays defined when u'' = 0 makes the individual
    coefficients undefined.
    """
    mu = model.mean()
    d1 = float(u.du(mu))
    if d1 == 0.0:
        raise DerivativeZeroError(f"u'({mu:g}) = 0")
    return -model.variance() * float(u.d3u(mu)) / d1


def ratio_rho(u: UtilityFunction, model: ServiceTimeModel, ctx: EconomicContext,
              tol: Tolerance | None = None) -> float:
    """Ratio of the cost of time variability to the cost of time.

    Exact method divides the exact costs.  Second order evaluates
    (pi/mu) / (1 + R2 R3 CV^2 / 2) with the signed higher-order term, the
    pi-based restatement of the coefficient closed form; the two agree
    identically.  A degenerate model has ratio 0 by continuity.
    """
    if model.is_degenerate:
        return 0.0
    if ctx.method == "exact":
        denominator = cot(u, model, ctx, tol)
        return _exact_ratio(model, cotv(u, model, ctx, tol), denominator)
    return _approx_ratio(u, model)


def _approx_ratio(u: UtilityFunction, model: ServiceTimeModel,
                  premium: float | None = None) -> float:
    """Second-order rho; the mean is checked before the premium is computed."""
    mu = model.mean()
    if mu <= 0:
        raise ZeroCostError("second-order ratio requires a positive mean time")
    if premium is None:
        premium = premium_approx(u, model)
    return (premium / mu) / _off_pole(1.0 + 0.5 * _signed_higher_order_term(u, model))


def ratio_rho_coefficient_form(u: UtilityFunction, model: ServiceTimeModel) -> float:
    """Cost ratio through the coefficients: R2 CV^2 / (2 + R2 R3 CV^2).

    Requires both coefficients to exist; agrees with the second-order
    :func:`ratio_rho` wherever defined (asserted by the test suite).
    """
    if model.is_degenerate:
        return 0.0
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
    defined.  A degenerate model gives 1 by continuity.
    """
    if model.is_degenerate:
        return 1.0
    return 1.0 / _off_pole(1.0 + 0.5 * _signed_higher_order_term(u, model))


def rho_upper_bound(u: UtilityFunction, model: ServiceTimeModel) -> float:
    """Hard ceiling CV^2 / 2 for the cost ratio of quadratic utilities.

    Attained exactly by the pure quadratic member.  For the exponential
    model (CV = 1) the bound is the constant 1/2.
    """
    if not isinstance(u, QuadraticUtility):
        raise NotQuadraticError("the cost-ratio bound holds for quadratic utilities")
    return 0.5 * model.cv() ** 2


def evaluate(u: UtilityFunction, model: ServiceTimeModel, ctx: EconomicContext,
             tol: Tolerance | None = None) -> ValuationReport:
    """Full expected-utility valuation report for one method."""
    info: dict = {}
    mu = model.mean()
    vot_mu = vot_at(u, mu, ctx)
    if model.is_degenerate:  # no variability, nothing to integrate or solve
        premium = 0.0 if ctx.method == "exact" else premium_approx(u, model)
        vot_value = vot_mean(u, model, ctx, tol)
        cotv_value, rho, eta = 0.0, 0.0, 1.0
    elif ctx.method == "exact":
        premium, vot_value, cotv_value, rho = _exact_valuation(
            u, model, None, mu, ctx.phi, tol, info=info)
        eta = vot_mu / vot_value if vot_value != 0 else None
    else:
        premium = premium_approx(u, model)
        vot_value = vot_mean(u, model, ctx, tol)
        cotv_value = premium * vot_mu
        rho = _approx_ratio(u, model, premium)
        eta = ratio_eta(u, model)

    return ValuationReport(
        framework="eu",
        method=ctx.method,
        phi=ctx.phi,
        mu=mu,
        sigma=model.std(),
        cv=model.cv() if mu > 0 else None,
        premium=premium,
        vot_at_mu=vot_mu,
        vot=vot_value,
        cotv=cotv_value,
        rho=rho,
        eta=eta,
        rho_upper_bound=(rho_upper_bound(u, model)
                         if isinstance(u, QuadraticUtility) else None),
        diagnostics={
            "utility": u.label(),
            "model": model.label(),
            **info,
        },
    )
