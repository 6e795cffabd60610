"""Dual-theory and rank-dependent valuation of service-time variability.

Dual theory keeps utility linear and distorts cumulative probability with
a weighting function w, so variability is priced in the probability plane
through dual moments.  Rank-dependent utility composes a general utility
with the same distortion and nests both expected utility (identity
weighting) and dual theory (affine utility); the package asserts those
reductions numerically.  Exact rank-dependent reports run through the
expected-utility exact core of :mod:`cotv.eu` with the weighting in
place: a quadratic, pure-quadratic or affine utility reads E_w[u] and
VOT from the distorted mean E_w[t] and from E_w[t^2], which an affine
one does not need.  A band's premium is every exact premium's root,
:func:`cotv.eu._solve_premium`, at the anchor t0 of the band's average
utility.  The dual moments are expectations under d(F^2), which every
model gives without integrating: in closed form, or as exact sums on a
discrete model.  A point mass takes the same route as any model, in
expected utility too: its sums give E_w[t] = mu and E_w[u] = u(mu), so
premium, COTV and rho are 0.

Both frameworks build their reports on the scaffold of
:func:`cotv.eu._reports`, and supply only their formulas: DT the mean,
the constant VOT 1/phi, the dual moment and each method's premium (a
closed band sum, E_w[t] - mu, or the second-order form), RDU the anchor,
the band moments, tau_h and the distorted mean, the exact route it
shares with EU and the second-order premium.  A scenario that asks for
both methods therefore computes those inputs once, and its reports equal
two single-method runs bit for bit.  The step that computes them checks
a band's anchor against the context's (:func:`_band_meta`).  On a
continuous model every integral of a scenario comes from one shared
call, so the quantile and w'(p) are evaluated once per tanh-sinh level.
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
)
from .errors import (
    DerivativeZeroError,
    DomainError,
    MetadataMismatchError,
    ValidationError,
    ZeroCostError,
)
from .eu import (
    _basis_values,
    _exact_terms,
    _exact_valuation,
    _exact_values,
    _moments,
    _report_mean,
    _reports,
    _solve_premium,
    _time,
)
from .numerics import Tolerance
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
    """Band weight increments, their total, and the perturbation xi.  The
    grid p0 - psi + k (2 psi / n), k = 0..n, clipped to [0, 1], is formed
    on Python floats, with the bits numpy gives it."""
    n = meta.n
    lo, step = meta.p0 - meta.psi, 2.0 * meta.psi / n
    grid = np.array([min(max(lo + step * k, 0.0), 1.0) for k in range(n + 1)])
    wgrid = np.asarray(w.w(grid), dtype=float)
    increments = wgrid[1:] - wgrid[:-1]  # np.diff
    total = float(w.w(meta.p0 + meta.psi) - w.w(meta.p0 - meta.psi))
    if total == 0.0:
        raise DerivativeZeroError("weighting places no mass on the band")
    return increments, total, np.asarray(meta.xi, dtype=float)


def _band_meta(model: ServiceTimeModel, p0: float,
               psi: float | None = None) -> DtMetadata | None:
    """A banded instance's band, None outside one; ``MetadataMismatchError``
    where its p0, or a DT context's psi, is not the context's within 1e-12."""
    meta = model.dt_meta
    for key, value in (("p0", p0), ("psi", psi)):
        built = getattr(meta, key, None)  # None outside a band
        if built is not None and value is not None and abs(built - value) > 1e-12:
            raise MetadataMismatchError(f"instance was built with {key}={built!r}, "
                                        f"context has {key}={value!r}")
    return meta


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
    _require_meta(instance)
    increments, total, xi = _band_weights(_band_meta(instance, ctx.p0, ctx.psi), ctx.w)
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
                phi: float, methods: tuple[str, ...], tol: Tolerance | None,
                moments: dict | None = None) -> dict[str, ValuationReport]:
    """Dual-theory reports for ``methods`` (:func:`cotv.eu._reports`),
    sharing mu and the dual moment m2_dual.  Outside a banded instance the
    exact premium is E_w[t] - mu, the one term of the shared call, which a
    sweep's ``moments`` may hold (:func:`cotv.eu._moments`); the
    second-order report integrates nothing."""
    def steps():
        mu = model_or_instance.mean()
        if mu <= 0:
            raise ZeroCostError("dual valuation requires a positive mean time")
        if mu**2 == 0.0:
            raise DomainError(f"mean time {mu!r} is too small: its square underflows to 0")
        meta = _band_meta(model_or_instance, ctx.p0, ctx.psi)
        m2_dual = _band_moments(model_or_instance)[1]
        mean_t = (_moments(model_or_instance, ctx.w, False, tol, None, moments)[0]
                  if meta is None and "exact" in methods else None)
        vot = 1.0 / phi
        yield mu, vot, {"model": model_or_instance.label(), "weighting": ctx.w.label(),
                        "p0": ctx.p0, "psi": ctx.psi, "m2_dual": m2_dual,
                        "cv_dual_sq": m2_dual / mu**2}
        for method in methods:
            if method == "second_order":
                premium = dt_premium_approx(ctx, m2_dual)
            elif meta is not None:
                premium = dt_premium_exact(model_or_instance, ctx)
            else:
                premium = mean_t - mu
            yield (premium, vot, premium * vot, premium / mu, 1.0,
                   {"dual_risk_averse_time_domain": bool(premium >= 0)})

    return _reports("dt", model_or_instance, phi, methods, steps())


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
    """Rank-dependent utility: the integral of u(t) against d(w(F)), read
    as the exact report reads it (from E_w[t] and E_w[t^2] for a
    polynomial utility).  ``DomainError`` where the mean (a band's t0)
    lies outside ``u.interval``, as in the report."""
    _report_mean(u, model, rank_dependent=True)
    return next(_exact_values(u, model, w, 1.0, tol))  # phi enters VOT only


def rdu_premium_exact(instance: DiscreteModel, ctx: RduContext,
                      tol: Tolerance | None = None) -> float:
    """Rank-dependent variability premium of a banded instance.

    Solves the band indifference equation
    ``total_weight * u(t0 + pi) = sum_i weight_i * u(t0 + xi_i)`` with
    :func:`cotv.eu._solve_premium`, at mu = t0 and from the lowest band
    time t0 + xi_1; a band without spread has premium 0.  ``DomainError``
    where t0 lies outside ``ctx.u.interval``.
    """
    meta = _require_meta(instance)
    _report_mean(ctx.u, instance, rank_dependent=True)
    _band_meta(instance, ctx.p0)
    increments, total, xi = _band_weights(meta, ctx.w)
    if meta.xi[0] == meta.xi[-1]:
        return 0.0
    target = float(increments @ np.asarray(ctx.u.u(meta.t0 + xi), dtype=float)) / total
    return _solve_premium(ctx.u, meta.t0, target, meta.t0 + meta.xi[0], tol)


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
    """(m2, m2_dual, m2_dual_var) of the perturbation measure: the band's on
    a banded instance, computed once per instance
    (``DiscreteModel._perturbation_moments``), and otherwise the variance
    and the dual moments of :func:`~cotv.distributions._dual_moments`."""
    if model_or_instance.dt_meta is not None:
        return model_or_instance._perturbation_moments
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
                 phi: float, methods: tuple[str, ...], tol: Tolerance | None,
                 moments: dict | None = None) -> dict[str, ValuationReport]:
    """Rank-dependent reports for ``methods`` (:func:`cotv.eu._reports`),
    sharing mu, the band moments, tau_h and the distorted mean.  The
    distorted mean E_w[t] and the exact route's integrals come from one
    shared call: E_w[u] and VOT, each integrated when it is read, or for a
    polynomial utility E_w[t^2] (nothing more for an affine one), from
    which with E_w[t] they follow by linearity.  A sweep's ``moments`` may
    hold the basis integrals (:func:`cotv.eu._moments`).  The reports
    record no integral in their ``diagnostics``.  ``DomainError`` where mu
    (t0 on a banded instance) lies outside ``ctx.u.interval``."""
    def steps():
        mu = _report_mean(ctx.u, model_or_instance, rank_dependent=True)
        if mu <= 0:
            raise ZeroCostError("rank-dependent valuation requires a positive mean time")
        meta = _band_meta(model_or_instance, ctx.p0)
        m2, m2_dual, m2_dual_var = _band_moments(model_or_instance)
        exact = "exact" in methods
        if exact and ctx.u.basis is None:
            values = model_or_instance._expects(
                [(_time, ctx.w)] + _exact_terms(ctx.u, ctx.w, phi), tol)
            mu_w = next(values)  # distorted mean
        else:
            mu_w, mean_t2 = _moments(model_or_instance, ctx.w,
                                     exact and ctx.u.basis[0] != 0.0, tol, None, moments)
            values = iter(_basis_values(ctx.u, phi, mu_w, mean_t2)) if exact else None
        tau = _resolve_tau(ctx, mu, mu_w)
        vot_mu = -float(ctx.u.du(mu)) / phi
        yield mu, vot_mu, {
            "model": model_or_instance.label(), "utility": ctx.u.label(),
            "weighting": ctx.w.label(), "p0": ctx.p0, "tau_h": tau,
            "tau_h_mode": "auto" if isinstance(ctx.tau_h, str) else "override",
            "distorted_mean": mu_w, "m2": m2, "m2_dual": m2_dual, "m2_dual_var": m2_dual_var}
        for method in methods:
            if method == "exact":
                premium = (rdu_premium_exact(model_or_instance, ctx, tol)
                           if meta is not None else None)  # None: solved from E_w[u]
                yield (*_exact_valuation(ctx.u, model_or_instance, mu, phi, values, tol,
                                         premium), None, {})
            else:
                premium = rdu_premium_approx(ctx, mu, m2, m2_dual, m2_dual_var)
                yield (premium, -float(ctx.u.du(mu_w)) / phi, premium * vot_mu,
                       tau * premium / mu, None, {})

    return _reports("rdu", model_or_instance, phi, methods, steps())


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
