"""Dual-theory and rank-dependent valuation of service-time variability.

Dual theory keeps utility linear and distorts cumulative probability with
a weighting function w, so variability is priced in the probability plane
through dual moments.  Rank-dependent utility composes a general utility
with the same distortion and nests both expected utility (identity
weighting) and dual theory (affine utility); the package asserts those
reductions numerically.  Exact rank-dependent reports run through the
expected-utility exact core of :mod:`cotv.eu` with the weighting in
place, and the dual moments are expectations under d(F^2), which every
model gives without integrating: in closed form, or as exact sums on a
discrete model.  A point mass takes the same route as any model, in
expected utility too: its sums give E_w[t] = mu and E_w[u] = u(mu), so
premium, COTV and rho are 0.

Each framework builds its reports in two steps: a shared step computes
mu, sigma and the dual moments (and, for RDU, tau_h and the distorted
mean) once, then one report is built per requested method.  A scenario
that asks for both methods therefore integrates those inputs once, and
its reports equal two single-method runs bit for bit.  On a continuous
model every integral of a scenario comes from one shared call over one
window, so pdf, cdf and w'(F) are evaluated once per refinement request.
:func:`rdu_ratio` is a one-method view of the second-order report, like
:func:`rdu_valuation`.

Sign conventions: premiums are reported as computed, and a banded
instance is flagged "dual risk-averse in the time domain" when its
premium is non-negative, which for quadratic-in-p weighting coincides
with convexity of w at the anchor.  The wealth-domain reading (concave w
averse) flips that sign; this module does not silently re-sign.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import (
    DiscreteModel,
    DtMetadata,
    ServiceTimeModel,
    _dual_moments,
    _require_meta,
    discrete_dual_moment,
    discrete_dual_moment_variance,
)
from .errors import (
    DerivativeZeroError,
    DomainError,
    MetadataMismatchError,
    ValidationError,
    ZeroCostError,
)
from .eu import EconomicContext, _exact_terms, _exact_valuation
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

class DtContext:
    """Dual-theory context: weighting plus the probability anchor and band.

    ``psi`` is the half-mass of the perturbed band; the default 1/2 spreads
    variability over all probability, which is the normalisation the
    second-order premium formula assumes.
    """

    def __init__(self, w: WeightingFunction, p0: float = 0.5,
                 psi: float = 0.5) -> None:
        if not 0 < p0 < 1:
            raise ValidationError("p0 must lie strictly inside (0, 1)")
        if not 0 < psi <= min(p0, 1.0 - p0) + 1e-15:
            raise ValidationError("psi must satisfy 0 < psi <= min(p0, 1 - p0)")
        self.w = w
        self.p0 = p0
        self.psi = psi


class RduContext:
    """Rank-dependent context: utility, weighting, anchor, and the
    value-of-time transfer parameter.

    ``tau_h`` rescales the ratio from the mean of the distorted measure
    back to the plain mean; "auto" computes u'(mu)/u'(mu_w) with mu_w the
    distorted mean.  An explicit numeric override is always honoured and
    recorded in diagnostics.
    """

    def __init__(self, u: UtilityFunction, w: WeightingFunction,
                 p0: float = 0.5, tau_h: float | str = "auto") -> None:
        if not 0 < p0 < 1:
            raise ValidationError("p0 must lie strictly inside (0, 1)")
        if isinstance(tau_h, str):
            if tau_h != "auto":
                raise ValidationError("tau_h must be a number or 'auto'")
        elif not (math.isfinite(tau_h) and tau_h > 0):
            raise ValidationError("numeric tau_h must be positive and finite")
        self.u = u
        self.w = w
        self.p0 = p0
        self.tau_h = tau_h


def _band_weights(meta: DtMetadata, w: WeightingFunction
                  ) -> tuple[np.ndarray, float, np.ndarray]:
    """Band weight increments, their total, and the perturbation xi."""
    n = meta.n
    grid = meta.p0 - meta.psi + (2.0 * meta.psi / n) * np.arange(0, n + 1)
    wgrid = np.asarray(w.w(np.clip(grid, 0.0, 1.0)), dtype=float)
    increments = np.diff(wgrid)
    total = float(w.w(meta.p0 + meta.psi) - w.w(meta.p0 - meta.psi))
    if total == 0.0:
        raise DerivativeZeroError("weighting places no mass on the band")
    return increments, total, np.asarray(meta.xi, dtype=float)


def _meta_for(instance: DiscreteModel, p0: float, psi: float) -> DtMetadata:
    meta = _require_meta(instance)
    if abs(meta.p0 - p0) > 1e-12 or abs(meta.psi - psi) > 1e-12:
        raise MetadataMismatchError(
            f"instance was built with (p0={meta.p0}, psi={meta.psi}), "
            f"context has (p0={p0}, psi={psi})")
    return meta


def _time(t):
    return np.asarray(t, dtype=float)


def dt_expected_utility(model: ServiceTimeModel, w: WeightingFunction,
                        tol: Tolerance | None = None) -> float:
    """Dual-theory utility of a random time: minus the distorted mean, the
    integral of t against the distorted measure d(w(F)) (Yaari 1987)."""
    return -model.distorted_expect(_time, w, tol)


def dt_premium_exact(instance: DiscreteModel, ctx: DtContext) -> float:
    """Dual-theory variability premium of a banded instance.

    The indifference condition is linear in the premium, so the solution
    is the closed weighted sum of the perturbation over the band weights;
    no root finding is involved.  Flank outcomes cancel, so the premium
    depends on the perturbation and the weighting alone.
    """
    increments, total, xi = _band_weights(_meta_for(instance, ctx.p0, ctx.psi), ctx.w)
    return float(increments @ xi / total)


def dt_premium_approx(ctx: DtContext, m2_dual: float) -> float:
    """Second-order dual premium: w''(p0)/w'(p0)/2 times the dual moment.

    Uses the all-probability normalisation (band half-mass 1/2); for
    quadratic-in-p weighting the Taylor step is exact and this equals the
    exact premium on any zero-mean instance.  The sign follows the
    curvature of the weighting at the anchor.
    """
    return 0.5 * weighting_derivative_ratio(ctx.w, ctx.p0) * m2_dual


def _dt_reports(model_or_instance: ServiceTimeModel, ctx: DtContext,
                phi: float, methods: tuple[str, ...],
                tol: Tolerance | None) -> dict[str, ValuationReport]:
    """Dual-theory reports for ``methods``, in that order, sharing mu,
    sigma and the dual moment m2_dual, which are computed once.  Outside a
    banded instance the exact premium is E_w[t] - mu, the one term of the
    shared call; the second-order report integrates nothing and computes
    no window."""
    for method in methods:
        EconomicContext(phi, method)  # validates phi and method

    mu = model_or_instance.mean()
    if mu <= 0:
        raise ZeroCostError("dual valuation requires a positive mean time")
    if mu**2 == 0.0:
        raise DomainError(f"mean time {mu!r} is too small: its square underflows to 0")
    sigma = model_or_instance.std()
    meta = model_or_instance.dt_meta

    terms = [(_time, ctx.w)] if meta is None and "exact" in methods else []
    values = model_or_instance._expects(terms, tol)[1] if terms else None
    m2_dual = _band_moments(model_or_instance)[1]
    vot = 1.0 / phi
    reports = {}
    for method in methods:
        if method == "second_order":
            premium = dt_premium_approx(ctx, m2_dual)
        elif meta is not None:
            premium = dt_premium_exact(model_or_instance, ctx)
        else:
            premium = next(values) - mu
        rho = premium / mu

        reports[method] = ValuationReport(
            framework="dt",
            method=method,
            phi=phi,
            mu=mu,
            sigma=sigma,
            cv=model_or_instance.cv(),
            premium=premium,
            vot_at_mu=vot,
            vot=vot,
            cotv=premium * vot,
            rho=rho,
            eta=1.0,
            rho_upper_bound=None,
            diagnostics={
                "model": model_or_instance.label(),
                "weighting": ctx.w.label(),
                "p0": ctx.p0,
                "psi": ctx.psi,
                "m2_dual": m2_dual,
                "cv_dual_sq": m2_dual / mu**2,
                "dual_risk_averse_time_domain": bool(premium >= 0),
            },
        )
    return reports


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
    return _dt_reports(model_or_instance, ctx, phi, (method,), tol)[method]


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
    increments, total, xi = _band_weights(meta, ctx.w)
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


def _band_moments(model_or_instance: ServiceTimeModel) -> tuple[float, float, float]:
    """(m2, m2_dual, m2_dual_var) of the perturbation measure: the band's
    on a banded instance, and otherwise the variance and the dual moments
    of :func:`~cotv.distributions._dual_moments`."""
    meta = model_or_instance.dt_meta
    if meta is not None:
        xi = np.asarray(meta.xi, dtype=float)
        m2 = float(np.mean(xi**2))
        return (m2,
                discrete_dual_moment(model_or_instance),
                discrete_dual_moment_variance(model_or_instance))
    return (model_or_instance.variance(), *_dual_moments(model_or_instance))


def _resolve_tau(ctx: RduContext, mu: float, mu_w: float) -> float:
    """tau_h at the distorted mean mu_w.  Auto rule: u'(mu) / u'(mu_w)."""
    if isinstance(ctx.tau_h, str):
        denom = float(ctx.u.du(mu_w))
        if denom == 0.0:
            raise DerivativeZeroError(f"u'({mu_w:g}) = 0: auto tau_h undefined")
        return float(ctx.u.du(mu)) / denom
    return float(ctx.tau_h)


def rdu_ratio(model_or_instance: ServiceTimeModel, ctx: RduContext, phi: float,
              tol: Tolerance | None = None) -> float:
    """Second-order rank-dependent cost ratio: the ``rho`` of the
    second-order :func:`rdu_valuation` report.

    ``tau_h`` times the premium-to-mean ratio, with the premium expanded
    into its utility, weighting, and interaction terms.  Identity
    weighting reduces it to R2 CV^2 / 2; affine utility reduces it to the
    dual-theory ratio.
    """
    return rdu_valuation(model_or_instance, ctx, phi, "second_order", tol).rho


def _rdu_reports(model_or_instance: ServiceTimeModel, ctx: RduContext,
                 phi: float, methods: tuple[str, ...],
                 tol: Tolerance | None) -> dict[str, ValuationReport]:
    """Rank-dependent reports for ``methods``, in that order, sharing mu,
    sigma, the band moments, tau_h and the distorted mean, which are
    computed once.  The distorted mean and the exact route's E_w[u] and
    VOT come from one shared call, read in that order."""
    for method in methods:
        EconomicContext(phi, method)  # validates phi and method

    meta = model_or_instance.dt_meta
    mu = meta.t0 if meta is not None else model_or_instance.mean()
    if mu <= 0:
        raise ZeroCostError("rank-dependent valuation requires a positive mean time")
    sigma = model_or_instance.std()
    terms = [(_time, ctx.w)]  # distorted mean
    if "exact" in methods:
        terms += _exact_terms(ctx.u, ctx.w, phi)
    shared = model_or_instance._expects(terms, tol)
    m2, m2_dual, m2_dual_var = _band_moments(model_or_instance)
    mu_w = next(shared[1])
    tau = _resolve_tau(ctx, mu, mu_w)
    vot_mu = -float(ctx.u.du(mu)) / phi
    reports = {}
    for method in methods:
        if method == "exact":
            premium = (rdu_premium_exact(model_or_instance, ctx, tol)
                       if meta is not None else None)  # None: solved from E_w[u]
            premium, vot, cotv_value, rho = _exact_valuation(
                ctx.u, mu, phi, shared, tol, premium)
        else:
            premium = rdu_premium_approx(ctx, mu, m2, m2_dual, m2_dual_var)
            vot = -float(ctx.u.du(mu_w)) / phi
            cotv_value = premium * vot_mu
            rho = tau * premium / mu

        reports[method] = ValuationReport(
            framework="rdu",
            method=method,
            phi=phi,
            mu=mu,
            sigma=sigma,
            cv=model_or_instance.cv(),
            premium=premium,
            vot_at_mu=vot_mu,
            vot=vot,
            cotv=cotv_value,
            rho=rho,
            eta=None,
            rho_upper_bound=None,
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
    return reports


def rdu_valuation(model_or_instance: ServiceTimeModel, ctx: RduContext,
                  phi: float, method: str = "exact",
                  tol: Tolerance | None = None) -> ValuationReport:
    """Rank-dependent valuation report.

    Exact method: variability cost is the distorted utility shortfall
    (u(mu) - rank-dependent utility)/phi, time cost aggregates the
    instantaneous value of time under the distorted measure.  Second
    order: premium from :func:`rdu_premium_approx` monetised at VOT(mu),
    ratio tau_h * premium / mu, which :func:`rdu_ratio` returns.
    """
    return _rdu_reports(model_or_instance, ctx, phi, (method,), tol)[method]
