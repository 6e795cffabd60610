"""Executable checks of the theory's benchmark values and bounds.

The lab turns the headline claims into experiments: the prudence threshold
of 2 via paired lotteries with equal means, the risk-aversion threshold of
1 via the marginal trade-off identity, the mean-variance decomposition of
quadratic expected utility, the quadratic cost-ratio ceiling, and the
order of the premium approximation under shrinking variability.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .distributions import DiscreteModel, ServiceTimeModel
from .errors import DomainError, ValidationError
from .eu import (EconomicContext, premium_approx, premium_exact, ratio_eta,
                  ratio_rho, rho_upper_bound)
from .numerics import Tolerance
from .preferences import QuadraticUtility, UtilityFunction, risk_coefficients

__all__ = [
    "LotteryPair",
    "build_lottery_pair",
    "RpThresholdResult",
    "rp_threshold_experiment",
    "rra_tradeoff_check",
    "vertex_identity_check",
    "BoundSweepRow",
    "BoundSweepResult",
    "bound_sweep",
    "congestion_multiplier",
    "approximation_convergence_study",
]

_RP_THRESHOLD = 2.0


class LotteryPair(NamedTuple):
    """Equal-mean lottery pair separating variance from skewness appetite.

    Both mix a proportional time saving ``loss`` and a zero-mean
    multiplicative perturbation ``gamma`` around baseline ``t0``; the
    first attaches the perturbation to the shortened branch (lower
    variance, higher skewness), the second to the full-time branch.
    """

    s1: DiscreteModel
    s2: DiscreteModel
    t0: float
    loss: float


def build_lottery_pair(t0: float, loss: float,
                       gamma_outcomes: Sequence[float],
                       gamma_probabilities: Sequence[float]) -> LotteryPair:
    if not 0 < loss < 1:
        raise ValidationError("loss must lie strictly inside (0, 1)")
    if not t0 > 0:
        raise ValidationError("t0 must be positive")
    g = np.asarray(gamma_outcomes, dtype=float)
    p = np.asarray(gamma_probabilities, dtype=float)
    if g.shape != p.shape or g.ndim != 1:
        raise ValidationError("gamma outcomes/probabilities must be aligned 1-d")
    if np.any(g < -1):
        raise ValidationError("multiplicative perturbation must stay >= -1")
    if abs(float(p @ g)) > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
        raise ValidationError("gamma must be zero-mean")

    def sorted_instance(outcomes, probs):
        order = np.argsort(outcomes, kind="stable")
        return DiscreteModel(np.asarray(outcomes)[order], np.asarray(probs)[order])

    s1 = sorted_instance(
        np.concatenate([t0 * (1 - loss) * (1 + g), [t0]]),
        np.concatenate([0.5 * p, [0.5]]))
    s2 = sorted_instance(
        np.concatenate([[t0 * (1 - loss)], t0 * (1 + g)]),
        np.concatenate([[0.5], 0.5 * p]))
    if abs(s1.mean() - s2.mean()) > 1e-12 * t0:
        raise ValidationError("lottery construction lost mean equality")
    return LotteryPair(s1=s1, s2=s2, t0=float(t0), loss=float(loss))


class RpThresholdResult(NamedTuple):
    prefers: str            # "S1" | "S2" | "indifferent"
    predicted_by_rp: str    # "S1" | "S2" | "mixed"
    agree: bool | None
    eu_gap: float
    rp_range: tuple[float, float]


def rp_threshold_experiment(u: UtilityFunction, t0: float, loss: float,
                            gamma_outcomes: Sequence[float],
                            gamma_probabilities: Sequence[float]) -> RpThresholdResult:
    """Brute-force preference between the lottery pair vs the prudence rule.

    Preference is decided by exact expected-utility comparison.  The rule
    predicts the higher-variance/lower-skewness lottery when relative
    prudence exceeds 2 across all realised times, the other one when it
    stays below 2, and reports "mixed" when the threshold is straddled.
    The rule is a marginal argument, so it is only asserted for small
    perturbations.
    """
    pair = build_lottery_pair(t0, loss, gamma_outcomes, gamma_probabilities)
    realized = np.unique(np.concatenate([pair.s1.outcomes, pair.s2.outcomes]))
    lo, hi = u.interval
    if realized[0] < lo or realized[-1] > hi:
        raise DomainError(
            f"realised times [{realized[0]:g}, {realized[-1]:g}] leave the "
            f"working interval [{lo:g}, {hi:g}]")

    eu1 = pair.s1.expect(u.u)
    eu2 = pair.s2.expect(u.u)
    gap = eu1 - eu2
    scale = max(abs(eu1), abs(eu2), 1.0)
    if abs(gap) <= 1e-12 * scale:
        prefers = "indifferent"
    else:
        prefers = "S1" if gap > 0 else "S2"

    d2 = np.asarray(u.d2u(realized), dtype=float)
    d3 = np.asarray(u.d3u(realized), dtype=float)
    if np.any(d2 == 0):
        predicted = "mixed"
        rp_lo = rp_hi = math.nan
    else:
        rp = -realized * d3 / d2
        rp_lo, rp_hi = float(rp.min()), float(rp.max())
        if rp_lo >= _RP_THRESHOLD:
            predicted = "S2"
        elif rp_hi <= _RP_THRESHOLD:
            predicted = "S1"
        else:
            predicted = "mixed"
    agree = (prefers == predicted) if predicted in ("S1", "S2") else None
    return RpThresholdResult(prefers=prefers, predicted_by_rp=predicted,
                             agree=agree, eu_gap=gap, rp_range=(rp_lo, rp_hi))


def rra_tradeoff_check(u: UtilityFunction, at_time: float) -> dict:
    """Marginal trade-off identity behind the risk-aversion benchmark of 1.

    ``t^2 (-u'')`` prices a marginal variance reduction and ``t (-u')`` a
    marginal mean reduction; their ordering is algebraically equivalent to
    relative risk aversion being above or below 1, so the consistency flag
    is an identity and must always be true.
    """
    d1 = float(u.du(at_time))
    if d1 >= 0:
        raise ValidationError("check requires u' < 0 at the evaluation point")
    lhs = at_time**2 * (-float(u.d2u(at_time)))
    rhs = at_time * (-d1)
    r2 = at_time * float(u.d2u(at_time)) / d1
    sign = int(np.sign(lhs - rhs))
    consistent = sign == int(np.sign(r2 - 1.0)) or (
        abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)
        and abs(r2 - 1.0) <= 1e-12)
    return {
        "variance_margin": lhs,
        "mean_margin": rhs,
        "sign": sign,
        "rel_risk_aversion": r2,
        "consistent_with_r2": bool(consistent),
    }


def vertex_identity_check(a: float, h: float, k: float,
                          model: ServiceTimeModel,
                          tol: Tolerance | None = None) -> float:
    """Residual of E[a (t-h)^2 + k] = a (Var(t) + (E[t] - h)^2) + k.

    The identity decomposes quadratic expected utility into mean and
    variance; the left side is evaluated by quadrature, the right from
    closed moments, so the residual isolates integration error.
    """
    if not (a < 0 and h <= 0 and k <= 0):
        raise ValidationError("vertex form assumes a < 0, h <= 0, k <= 0")
    lhs = model.expect(lambda t: a * (np.asarray(t, dtype=float) - h) ** 2 + k, tol)
    rhs = a * (model.variance() + (model.mean() - h) ** 2) + k
    return abs(lhs - rhs)


class BoundSweepRow(NamedTuple):
    a: float
    b: float
    model_label: str
    cv: float
    rho_exact: float
    bound: float
    slack: float
    eta: float
    eta_consistent: bool


class BoundSweepResult(NamedTuple):
    rows: tuple[BoundSweepRow, ...]
    violations: tuple[BoundSweepRow, ...]
    eta_violations: tuple[BoundSweepRow, ...]
    max_equality_gap: float

    @property
    def clean(self) -> bool:
        return not self.violations and not self.eta_violations


def bound_sweep(quadratic_grid: Iterable[tuple[float, float]],
                models: Iterable[ServiceTimeModel],
                phi: float = 1.0,
                slack_tol: float = 1e-9,
                tol: Tolerance | None = None) -> BoundSweepResult:
    """Exact cost ratio against the quadratic ceiling CV^2/2 over a grid.

    Violations (ratio above bound plus slack tolerance) are collected, not
    raised; pure-quadratic rows (b = 0) should attain the bound, and the
    largest such equality gap is reported.  Each row also carries the
    reliability ratio together with its half-threshold consistency flag
    (eta <= 1/2 exactly when R2 R3 CV^2 >= 2).
    """
    ctx = EconomicContext(phi=phi, method="exact")
    rows: list[BoundSweepRow] = []
    violations: list[BoundSweepRow] = []
    eta_violations: list[BoundSweepRow] = []
    max_equality_gap = 0.0
    models = list(models)
    for a, b in quadratic_grid:
        u = QuadraticUtility(a=a, b=b)
        for model in models:
            rho = ratio_rho(u, model, ctx, tol)
            bound = rho_upper_bound(u, model)
            eta = ratio_eta(u, model)
            mu = model.mean()
            profile = risk_coefficients(u, mu)
            r3 = profile.rel_prudence if profile.rel_prudence is not None else 0.0
            product = profile.rel_risk_aversion * r3 * model.cv() ** 2
            eta_consistent = (eta <= 0.5) == (product >= 2.0)
            row = BoundSweepRow(
                a=float(a), b=float(b), model_label=model.label(),
                cv=model.cv(), rho_exact=rho, bound=bound,
                slack=bound - rho, eta=eta, eta_consistent=eta_consistent)
            rows.append(row)
            if rho > bound + slack_tol:
                violations.append(row)
            if not eta_consistent:
                eta_violations.append(row)
            if b == 0.0:
                max_equality_gap = max(max_equality_gap, abs(bound - rho))
    return BoundSweepResult(rows=tuple(rows), violations=tuple(violations),
                            eta_violations=tuple(eta_violations),
                            max_equality_gap=max_equality_gap)


def congestion_multiplier(rho: float) -> float:
    """Theoretical congestion multiplier: one plus the cost ratio.

    A ratio of 1/2 yields 1.5, the central empirical value reported for
    the congested-to-uncongested value-of-time ratio.
    """
    if rho < 0:
        raise DomainError("congestion multiplier requires a non-negative ratio")
    return rho + 1.0


def approximation_convergence_study(
    u: UtilityFunction,
    x_outcomes: Sequence[float],
    x_probabilities: Sequence[float],
    sigma_grid: Sequence[float],
    mu: float = 1.0,
    tol: Tolerance | None = None,
) -> list[dict]:
    """Premium approximation error under a shrinking standardised spread.

    The standardised variability x (zero mean, unit variance) is scaled
    by each sigma and shifted to mean ``mu``; rows report the absolute
    premium error and the error scaled by sigma^2, which must trend to
    zero for the second-order form to have the advertised order.
    """
    x = np.asarray(x_outcomes, dtype=float)
    p = np.asarray(x_probabilities, dtype=float)
    if abs(float(p @ x)) > 1e-9 or abs(float(p @ x**2) - 1.0) > 1e-9:
        raise ValidationError("x must be standardised: zero mean, unit variance")
    sigmas = [float(s) for s in sigma_grid]
    if any(s2 >= s1 for s1, s2 in zip(sigmas, sigmas[1:])):
        raise ValidationError("sigma grid must be strictly decreasing")
    rows = []
    for sigma in sigmas:
        outcomes = mu + sigma * x
        order = np.argsort(outcomes, kind="stable")
        model = DiscreteModel(outcomes[order], p[order])
        exact = premium_exact(u, model, tol)
        approx = premium_approx(u, model)
        err = abs(exact - approx)
        rows.append({
            "sigma": sigma,
            "premium_exact": exact,
            "premium_approx": approx,
            "abs_error": err,
            "scaled_error": err / sigma**2 if sigma > 0 else 0.0,
        })
    return rows
