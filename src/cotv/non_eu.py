"""Dual-theory and rank-dependent valuation of service-time variability.

Dual theory keeps utility linear and distorts cumulative probability with
a weighting function w, so variability is priced in the probability plane
through dual moments.  Rank-dependent utility composes a general utility
with the same distortion and nests both expected utility (identity
weighting) and dual theory (affine utility); the package asserts those
reductions numerically.  Exact rank-dependent reports run through the
expected-utility exact core of :mod:`cotv.eu` with the weighting in
place, and the dual moments are expectations under d(F^2).

Sign conventions: premiums are reported as computed, and a banded
instance is flagged "dual risk-averse in the time domain" when its
premium is non-negative, which for quadratic-in-p weighting coincides
with convexity of w at the anchor.  The wealth-domain reading (concave w
averse) flips that sign; this module does not silently re-sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DiscreteModel,
    DtMetadata,
    ServiceTimeModel,
    _require_meta,
    discrete_dual_moment,
    discrete_dual_moment_variance,
    dual_moment_mean,
    dual_moment_variance,
)
from .errors import (
    DerivativeZeroError,
    MetadataMismatchError,
    ValidationError,
    ZeroCostError,
)
from .eu import EconomicContext, _exact_valuation
from .numerics import Tolerance, find_root
from .preferences import UtilityFunction, WeightingFunction, weighting_derivative_ratio
from .reports import ValuationReport

__all__ = [
    "DtContext",
    "RduContext",
    "dt_expected_utility",
    "dt_premium_exact",
    "dt_premium_approx",
    "dt_valuation",
    "rdu_expected_utility",
    "rdu_premium_exact",
    "rdu_premium_approx",
    "rdu_ratio",
    "rdu_valuation",
]

@dataclass(frozen=True)
class DtContext:
    """Dual-theory context: weighting plus the probability anchor and band.

    ``psi`` is the half-mass of the perturbed band; the default 1/2 spreads
    variability over all probability, which is the normalisation the
    second-order premium formula assumes.
    """

    w: WeightingFunction
    p0: float = 0.5
    psi: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.p0 < 1:
            raise ValidationError("p0 must lie strictly inside (0, 1)")
        if not 0 < self.psi <= min(self.p0, 1.0 - self.p0) + 1e-15:
            raise ValidationError("psi must satisfy 0 < psi <= min(p0, 1 - p0)")


@dataclass(frozen=True)
class RduContext:
    """Rank-dependent context: utility, weighting, anchor, and the
    value-of-time transfer parameter.

    ``tau_h`` rescales the ratio from the mean of the distorted measure
    back to the plain mean; "auto" computes u'(mu)/u'(mu_w) with mu_w the
    distorted mean.  An explicit numeric override is always honoured and
    recorded in diagnostics.
    """

    u: UtilityFunction
    w: WeightingFunction
    p0: float = 0.5
    tau_h: float | str = "auto"

    def __post_init__(self) -> None:
        if not 0 < self.p0 < 1:
            raise ValidationError("p0 must lie strictly inside (0, 1)")
        if isinstance(self.tau_h, str):
            if self.tau_h != "auto":
                raise ValidationError("tau_h must be a number or 'auto'")
        elif not (math.isfinite(self.tau_h) and self.tau_h > 0):
            raise ValidationError("numeric tau_h must be positive and finite")


def _band_weights(meta: DtMetadata, w: WeightingFunction) -> tuple[np.ndarray, float]:
    """Weight increments across the perturbed band and their total."""
    n = meta.n
    grid = meta.p0 - meta.psi + (2.0 * meta.psi / n) * np.arange(0, n + 1)
    wgrid = np.asarray(w.w(np.clip(grid, 0.0, 1.0)), dtype=float)
    increments = np.diff(wgrid)
    total = float(w.w(meta.p0 + meta.psi) - w.w(meta.p0 - meta.psi))
    return increments, total


def _meta_for(instance: DiscreteModel, p0: float, psi: float) -> DtMetadata:
    meta = _require_meta(instance)
    if abs(meta.p0 - p0) > 1e-12 or abs(meta.psi - psi) > 1e-12:
        raise MetadataMismatchError(
            f"instance was built with (p0={meta.p0}, psi={meta.psi}), "
            f"context has (p0={p0}, psi={psi})")
    return meta


def dt_expected_utility(model: ServiceTimeModel, w: WeightingFunction,
                        tol: Tolerance | None = None) -> float:
    """Dual-theory utility of a random time: the integral of -t against
    the distorted measure d(w(F))."""
    return model.distorted_expect(lambda t: -np.asarray(t, dtype=float), w, tol)


def dt_premium_exact(instance: DiscreteModel, ctx: DtContext) -> float:
    """Dual-theory variability premium of a banded instance.

    The indifference condition is linear in the premium, so the solution
    is the closed weighted sum of the perturbation over the band weights;
    no root finding is involved.  Flank outcomes cancel, so the premium
    depends on the perturbation and the weighting alone.
    """
    meta = _meta_for(instance, ctx.p0, ctx.psi)
    increments, total = _band_weights(meta, ctx.w)
    if total == 0.0:
        raise DerivativeZeroError("weighting places no mass on the band")
    xi = np.asarray(meta.xi, dtype=float)
    return float(increments @ xi / total)


def dt_premium_approx(ctx: DtContext, m2_dual: float) -> float:
    """Second-order dual premium: w''(p0)/w'(p0)/2 times the dual moment.

    Uses the all-probability normalisation (band half-mass 1/2); for
    quadratic-in-p weighting the Taylor step is exact and this equals the
    exact premium on any zero-mean instance.  The sign follows the
    curvature of the weighting at the anchor.
    """
    return 0.5 * weighting_derivative_ratio(ctx.w, ctx.p0) * m2_dual


def dt_valuation(model_or_instance: ServiceTimeModel, ctx: DtContext,
                 phi: float, method: str = "exact",
                 tol: Tolerance | None = None) -> ValuationReport:
    """Dual-theory valuation report.

    With linear dual utility the value of time is the constant 1/phi, so
    the cost of time is mu/phi and the variability cost is premium/phi;
    the cost ratio is premium/mu and cancels phi entirely.  The exact
    premium of a banded instance is the closed weighted sum; a continuous
    model is integrated directly against d(w(F)).
    """
    EconomicContext(phi, method)  # validates phi and method

    mu = model_or_instance.mean()
    if mu <= 0:
        raise ZeroCostError("dual valuation requires a positive mean time")
    sigma = model_or_instance.std()
    meta = getattr(model_or_instance, "dt_meta", None)

    m2_dual = (discrete_dual_moment(model_or_instance) if meta is not None
               else dual_moment_mean(model_or_instance, tol))
    if method == "exact":
        if model_or_instance.is_degenerate:
            premium = 0.0
        elif meta is not None:
            premium = dt_premium_exact(model_or_instance, ctx)
        else:
            premium = -dt_expected_utility(model_or_instance, ctx.w, tol) - mu
    else:
        premium = dt_premium_approx(ctx, m2_dual)

    vot = 1.0 / phi
    cot_value = mu * vot
    cotv_value = premium * vot
    rho = premium / mu
    cv_dual_sq = m2_dual / mu**2

    report = ValuationReport(
        framework="dt",
        method=method,
        phi=phi,
        mu=mu,
        sigma=sigma,
        cv=model_or_instance.cv(),
        premium=premium,
        vot_at_mu=vot,
        vot=vot,
        cot=cot_value,
        cotv=cotv_value,
        rho=rho,
        eta=1.0,
        rho_upper_bound=None,
        congestion_multiplier=rho + 1.0 if rho >= 0 else None,
        diagnostics={
            "model": model_or_instance.label(),
            "weighting": ctx.w.label(),
            "p0": ctx.p0,
            "psi": ctx.psi,
            "m2_dual": m2_dual,
            "cv_dual_sq": cv_dual_sq,
            "dual_risk_averse_time_domain": bool(premium >= 0),
        },
    )
    report.require_finite()
    return report


def rdu_expected_utility(model: ServiceTimeModel, u: UtilityFunction,
                         w: WeightingFunction,
                         tol: Tolerance | None = None) -> float:
    """Rank-dependent utility: the integral of u(t) against d(w(F))."""
    return model.distorted_expect(u.u, w, tol)


def rdu_premium_exact(instance: DiscreteModel, ctx: RduContext,
                      tol: Tolerance | None = None) -> float:
    """Rank-dependent variability premium of a banded instance.

    Solves the band indifference equation
    ``total_weight * u(t0 + pi) = sum_i weight_i * u(t0 + xi_i)`` by root
    finding.  The right side is a positively weighted average of utilities
    at the band outcomes, so the root is bracketed by the extreme
    perturbations.
    """
    meta = _require_meta(instance)
    if abs(meta.p0 - ctx.p0) > 1e-12:
        raise MetadataMismatchError(
            f"instance anchor p0={meta.p0} disagrees with context p0={ctx.p0}")
    increments, total = _band_weights(meta, ctx.w)
    if total == 0.0:
        raise DerivativeZeroError("weighting places no mass on the band")
    xi = np.asarray(meta.xi, dtype=float)
    target = float(increments @ np.asarray(ctx.u.u(meta.t0 + xi), dtype=float)) / total

    def gap(pi: float) -> float:
        return float(ctx.u.u(meta.t0 + pi)) - target

    lo = float(xi[0])
    hi = float(xi[-1])
    if lo == hi:
        return lo
    return find_root(gap, lo, hi, tol)


def rdu_premium_approx(ctx: RduContext, mu: float, m2: float,
                       m2_dual: float, m2_dual_var: float) -> float:
    """Second-order rank-dependent premium: the utility term, the
    weighting term, and their interaction.

    ``pi = A2 m2 / 2 + W m2_dual / 2 + (A2 / 2)(W / 2)(m2_dual_var - m2)``
    with A2 = u''(mu)/u'(mu) and W = w''(p0)/w'(p0), under the
    all-probability normalisation.  Identity weighting collapses it to the
    expected-utility premium, affine utility to the dual-theory premium.
    """
    d1 = float(ctx.u.du(mu))
    if d1 == 0.0:
        raise DerivativeZeroError(f"u'({mu:g}) = 0: premium approximation undefined")
    a2 = float(ctx.u.d2u(mu)) / d1
    wr = weighting_derivative_ratio(ctx.w, ctx.p0)
    return (0.5 * a2 * m2
            + 0.5 * wr * m2_dual
            + 0.5 * a2 * 0.5 * wr * (m2_dual_var - m2))


def _band_moments(model_or_instance: ServiceTimeModel,
                  tol: Tolerance | None) -> tuple[float, float, float]:
    """(m2, m2_dual, m2_dual_var) of the perturbation measure."""
    meta = getattr(model_or_instance, "dt_meta", None)
    if meta is not None:
        xi = np.asarray(meta.xi, dtype=float)
        m2 = float(np.mean(xi**2))
        return (m2,
                discrete_dual_moment(model_or_instance),
                discrete_dual_moment_variance(model_or_instance))
    return (model_or_instance.variance(),
            dual_moment_mean(model_or_instance, tol),
            dual_moment_variance(model_or_instance, tol))


def _resolve_tau(ctx: RduContext, model_or_instance: ServiceTimeModel,
                 mu: float, tol: Tolerance | None) -> tuple[float, float]:
    """(tau_h, distorted mean).  Auto rule: tau_h = u'(mu) / u'(mu_w)."""
    mu_w = model_or_instance.distorted_expect(
        lambda t: np.asarray(t, dtype=float), ctx.w, tol)
    if isinstance(ctx.tau_h, str):
        denom = float(ctx.u.du(mu_w))
        if denom == 0.0:
            raise DerivativeZeroError(f"u'({mu_w:g}) = 0: auto tau_h undefined")
        return float(ctx.u.du(mu)) / denom, mu_w
    return float(ctx.tau_h), mu_w


def rdu_ratio(model_or_instance: ServiceTimeModel, ctx: RduContext, phi: float,
              tol: Tolerance | None = None) -> float:
    """Second-order rank-dependent cost ratio.

    ``tau_h`` times the premium-to-mean ratio, with the premium expanded
    into its utility, weighting, and interaction terms.  Identity
    weighting reduces it to R2 CV^2 / 2; affine utility reduces it to the
    dual-theory ratio.
    """
    EconomicContext(phi)  # validates phi
    if model_or_instance.is_degenerate:
        return 0.0
    meta = getattr(model_or_instance, "dt_meta", None)
    mu = meta.t0 if meta is not None else model_or_instance.mean()
    if mu <= 0:
        raise ZeroCostError("rank-dependent ratio requires a positive mean time")
    m2, m2_dual, m2_dual_var = _band_moments(model_or_instance, tol)
    premium = rdu_premium_approx(ctx, mu, m2, m2_dual, m2_dual_var)
    tau, _ = _resolve_tau(ctx, model_or_instance, mu, tol)
    return tau * premium / mu


def rdu_valuation(model_or_instance: ServiceTimeModel, ctx: RduContext,
                  phi: float, method: str = "exact",
                  tol: Tolerance | None = None) -> ValuationReport:
    """Rank-dependent valuation report.

    Exact method: variability cost is the distorted utility shortfall
    (u(mu) - rank-dependent utility)/phi, time cost aggregates the
    instantaneous value of time under the distorted measure.  Second
    order: premium from :func:`rdu_premium_approx` monetised at VOT(mu),
    ratio from :func:`rdu_ratio`.
    """
    EconomicContext(phi, method)  # validates phi and method

    meta = getattr(model_or_instance, "dt_meta", None)
    mu = meta.t0 if meta is not None else model_or_instance.mean()
    if mu <= 0:
        raise ZeroCostError("rank-dependent valuation requires a positive mean time")
    sigma = model_or_instance.std()
    m2, m2_dual, m2_dual_var = _band_moments(model_or_instance, tol)
    tau, mu_w = _resolve_tau(ctx, model_or_instance, mu, tol)
    vot_mu = -float(ctx.u.du(mu)) / phi

    if method == "exact":
        premium = None  # solved from the distorted utility
        if model_or_instance.is_degenerate:
            premium = 0.0
        elif meta is not None:
            premium = rdu_premium_exact(model_or_instance, ctx, tol)
        premium, vot, cotv_value, rho = _exact_valuation(
            ctx.u, model_or_instance, ctx.w, mu, phi, tol, premium)
        cot_value = vot * mu
    else:
        premium = rdu_premium_approx(ctx, mu, m2, m2_dual, m2_dual_var)
        vot = -float(ctx.u.du(mu_w)) / phi
        cot_value = vot * mu
        cotv_value = premium * vot_mu
        rho = 0.0 if model_or_instance.is_degenerate else tau * premium / mu

    report = ValuationReport(
        framework="rdu",
        method=method,
        phi=phi,
        mu=mu,
        sigma=sigma,
        cv=model_or_instance.cv(),
        premium=premium,
        vot_at_mu=vot_mu,
        vot=vot,
        cot=cot_value,
        cotv=cotv_value,
        rho=rho,
        eta=None,
        rho_upper_bound=None,
        congestion_multiplier=rho + 1.0 if rho >= 0 else None,
        diagnostics={
            "model": model_or_instance.label(),
            "utility": ctx.u.label(),
            "weighting": ctx.w.label(),
            "p0": ctx.p0,
            "tau_h": tau,
            "tau_h_mode": "auto" if isinstance(ctx.tau_h, str) else "override",
            "distorted_mean": mu_w,
            "m2": m2,
            "m2_dual": m2_dual,
            "m2_dual_var": m2_dual_var,
        },
    )
    report.require_finite()
    return report
