"""Metamorphic properties: identities of the paper's frameworks that hold
for any input and need no reference value (ROADMAP item 14).

Rank-dependent utility nests expected utility: under the identity
weighting w(p) = p, an RDU report values a scenario as EU does.  It nests
dual theory too: with an affine utility its exact premium is DT's,
E_w[t] - mu.  DT's premium is linear in the time: it scales with a
scale of the model and ignores its shift.  And a power weighting p^gamma
makes F^gamma stochastically larger as gamma grows, so the distorted
mean E_w[t] does not decrease.  Under a quadratic utility EU's cost
ratio rho never exceeds CV^2/2, and the pure quadratic attains it.
Each of these reads the probability-plane quantile pass of every
continuous family.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cotv.distributions import (
    DiscreteModel,
    Exponential,
    Gamma,
    LogNormal,
    ShiftedScaled,
    Uniform,
)
from cotv.errors import CotvError
from cotv.eu import EconomicContext, evaluate
from cotv.non_eu import DtContext, RduContext, dt_valuation, rdu_valuation
from cotv.numerics import DEFAULT_TOLERANCE
from cotv.preferences import (
    AffineUtility,
    ConstantPrudenceUtility,
    IdentityWeighting,
    InverseSWeighting,
    PowerUtility,
    PowerWeighting,
    PureQuadraticUtility,
    QuadraticUtility,
)

# every field of a report both frameworks fill; eta is EU's alone (None
# under RDU) and the diagnostics differ by framework
FIELDS = ("phi", "mu", "sigma", "cv", "premium", "vot_at_mu", "vot", "cot", "cotv",
          "rho", "rho_upper_bound", "congestion_multiplier")

# report-mix's ranges of its continuous families
MODELS = st.one_of(
    st.builds(Exponential, st.floats(0.2, 3.0)),
    st.floats(0.0, 5.0).flatmap(
        lambda lo: st.builds(Uniform, st.just(lo), st.floats(0.5, 10.0).map(lambda w: lo + w))),
    st.builds(LogNormal, st.floats(0.0, 2.0), st.floats(0.25, 0.6)),
    st.builds(Gamma, st.floats(1.5, 5.0), st.floats(0.3, 3.0)),
)
# report-mix's weightings: inverse-S from 0.6 to 0.9, power from 0.5 to 3
POWER_GAMMAS = st.floats(0.5, 3.0)
WEIGHTINGS = st.one_of(st.builds(InverseSWeighting, st.floats(0.6, 0.9)),
                       st.builds(PowerWeighting, POWER_GAMMAS))
UTILITIES = {
    "power": st.builds(PowerUtility, st.floats(1.2, 3.0)),
    # constant prudence on both sides of the benchmark 2, with its default
    # interval (1, 1000), so that a mean below 1 raises in both frameworks
    "constant_prudence": st.builds(ConstantPrudenceUtility, st.floats(0.5, 3.5),
                                   st.floats(0.5, 2.0), st.floats(-3.0, -0.5)),
}


def _run(report):
    """``report()``, or the class of the error it raised; numpy's warnings
    (an overflow at an end node, ROADMAP item 15) are silenced, as both runs
    compute the same nodes."""
    try:
        with np.errstate(all="ignore"):
            return report(), None
    except CotvError as exc:
        return None, type(exc)


@pytest.mark.parametrize("family", UTILITIES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_rdu_under_identity_weighting_equals_eu(family, data):
    """Bit for bit, on a continuous model: the identity's w'(p, q) is 1.0
    at every tanh-sinh node, so each node value g(x) * 1.0 is g(x); each
    integral of a shared ``_expects`` call is that of its term alone, so
    E_w[u] and VOT are EU's sums; and the premium, COTV and rho come from
    the same ``eu._exact_valuation``.  (A discrete model is left out: its
    RDU weights are differences of the cumulative mass, which round
    differently from its probabilities.)"""
    model, u = data.draw(MODELS), data.draw(UTILITIES[family])
    phi = data.draw(st.floats(0.5, 2.5))
    eu, eu_error = _run(lambda: evaluate(u, model, EconomicContext(phi, "exact")))
    rdu, rdu_error = _run(lambda: rdu_valuation(model, RduContext(u, IdentityWeighting()),
                                                phi, "exact"))
    assert eu_error is rdu_error
    if eu is not None:
        assert [getattr(rdu, name) for name in FIELDS] == [getattr(eu, name)
                                                          for name in FIELDS]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=MODELS, w=WEIGHTINGS, slope=st.floats(0.5, 2.0),
       intercept=st.floats(-10.0, 10.0), phi=st.floats(0.5, 2.5))
def test_rdu_with_affine_utility_is_dual_theory(model, w, slope, intercept, phi):
    """Both read one E_w[t] from one shared call.  DT's premium is
    E_w[t] - mu, rounded once.  RDU's is the root K / m of its gap, with
    K = u(mu) - E_w[u] and u(t) = c - m t: u(mu) and E_w[u] = c - m E_w[t]
    are each two roundings, within u (2 m |mu| + |c|) and
    u (2 m |E_w[t]| + |c|), and K and K / m are each one, within
    u |E_w[t] - mu|, for the unit roundoff u = 2^-53.  So the two differ
    by at most u (2 |mu| + 2 |E_w[t]| + 2 |c| / m + 3 |E_w[t] - mu|) to
    first order, inside the bound below."""
    dt, dt_error = _run(lambda: dt_valuation(model, DtContext(w), phi, "exact"))
    rdu, rdu_error = _run(lambda: rdu_valuation(
        model, RduContext(AffineUtility(slope, intercept), w), phi, "exact"))
    assert dt_error is rdu_error
    if dt is not None:
        mean_w = rdu.diagnostics["distorted_mean"]
        bound = 2.0 ** -52 * (abs(rdu.mu) + abs(mean_w) + abs(intercept) / slope
                              + 2.0 * abs(dt.premium))
        assert abs(rdu.premium - dt.premium) <= bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(base=MODELS, w=WEIGHTINGS, loc=st.floats(0.0, 10.0), scale=st.floats(0.25, 4.0))
def test_dt_premium_scales_with_the_model_and_ignores_its_shift(base, w, loc, scale):
    """The exact DT premium E_w[t] - mu of loc + s t is s times that of t,
    whatever loc, the fact that keeps acceptance criterion A6 red.  Both
    integrals read the base's times and w' at the same nodes, and the
    shifted mean is loc + s mu from the same base mean, so the computed
    premiums differ only by:

    * each integral's error, within its last-level difference ``error``;
    * the roundings of loc + s t at the nodes, summed against w' >= 0 of
      integral 1, within u (|loc| + 2 s E_w[t]), and of each integral's
      sum of ``nodes`` terms, within u (nodes + 3) of its value;
    * the roundings of the mean loc + s mu, within u (|loc| + 2 s mu);
    * one rounding each of the two E_w[t] - mu and of s times the base's
      premium,

    for the unit roundoff u = 2^-53."""
    shifted = ShiftedScaled(base, loc, scale)
    sums = []
    for model in (base, shifted):
        info = {}
        mean_w = model.distorted_expect(np.asarray, w, None, info)
        premium = dt_valuation(model, DtContext(w), 1.0, "exact").premium
        assert premium == mean_w - model.mean()
        sums.append((premium, mean_w, info))
    (premium, mean_w, info), (shifted_premium, shifted_mean_w, shifted_info) = sums
    u = 2.0 ** -53
    bound = (shifted_info["error"] + scale * info["error"]
             + u * (abs(loc) + 2.0 * scale * abs(mean_w))
             + u * (shifted_info["nodes"] + 3) * abs(shifted_mean_w)
             + u * scale * (info["nodes"] + 3) * abs(mean_w)
             + u * (abs(loc) + 2.0 * scale * abs(base.mean()))
             + u * (abs(shifted_premium) + 2.0 * scale * abs(premium)))
    assert abs(shifted_premium - scale * premium) <= bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=MODELS, gammas=st.lists(POWER_GAMMAS, min_size=2, max_size=2).map(sorted))
def test_distorted_mean_does_not_decrease_with_the_power(model, gammas):
    """F^gamma decreases in gamma at every t, so E_w[t] under w(p) =
    p^gamma does not; each integral is within ``tol.scale`` of its
    value, so the two computed ones may cross by the sum of theirs."""
    lower, higher = (model.distorted_expect(np.asarray, PowerWeighting(gamma))
                     for gamma in gammas)
    assert higher >= lower - (DEFAULT_TOLERANCE.scale(lower)
                              + DEFAULT_TOLERANCE.scale(higher))


def _discrete(pairs):
    """Report-mix's raw discrete model: sorted outcomes, normalised
    weights, the last probability the complement of the others."""
    pairs = sorted(pairs)
    total = sum(weight for _, weight in pairs)
    probabilities = [weight / total for _, weight in pairs]
    probabilities[-1] = 1.0 - sum(probabilities[:-1])
    return DiscreteModel([t for t, _ in pairs], probabilities)


# report-mix's EU models of a quadratic utility: its continuous families
# and its raw discrete draw (3 to 8 outcomes in [0.5, 20], weights in
# [0.1, 1]); and its quadratic and pure quadratic utilities
QUADRATIC_MODELS = st.one_of(MODELS, st.lists(
    st.tuples(st.floats(0.5, 20.0), st.floats(0.1, 1.0)), min_size=3, max_size=8,
    unique_by=lambda pair: pair[0]).map(_discrete))
QUADRATICS = {
    "quadratic": st.builds(QuadraticUtility, st.floats(-2.0, -0.1), st.floats(-3.0, 0.0)),
    "pure_quadratic": st.builds(PureQuadraticUtility, st.floats(-2.0, -0.1)),
}


@pytest.mark.parametrize("family", QUADRATICS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_quadratic_rho_is_at_most_half_the_squared_cv(family, data):
    """For u(t) = a t^2 + b t with a < 0 and b <= 0, COTV = -a sigma^2 / phi
    and COT = -(2 a mu + b) mu / phi, so rho = |a| sigma^2 / (|2 a mu + b| mu)
    <= sigma^2 / (2 mu^2) = CV^2 / 2, with equality where b = 0.

    The exact report reads E[t] and E[t^2] from its moment basis, each
    within ``tol.scale`` of its value: e1 = tol.scale(mu) and
    e2 = tol.scale(mu^2 + sigma^2).  They move COTV by at most
    |a| e2 + |b| e1 and COT by at most 2 |a| e1 mu, against
    D = |2 a mu + b| mu.  The roundings add, for the unit roundoff u =
    2^-53: within 10 u S to COTV, S = |a| E[t^2] + |b| E[t] (5 in u(mu), 4
    in E[u], 1 in their difference), and within 16 u relative to rho and
    to CV^2 / 2 (3 in VOT, 1 each in COT and rho, and the closed-form mean
    and variance behind CV^2 / 2)."""
    model, u = data.draw(QUADRATIC_MODELS), data.draw(QUADRATICS[family])
    phi = data.draw(st.floats(0.5, 2.5))
    report = evaluate(u, model, EconomicContext(phi, "exact"))
    mu, variance = model.mean(), model.variance()
    e1 = DEFAULT_TOLERANCE.scale(mu)
    e2 = DEFAULT_TOLERANCE.scale(mu * mu + variance)
    a, b = abs(u.a), abs(u.b)
    slope = 2.0 * a * mu + b
    ceiling = report.rho_upper_bound
    assert ceiling == 0.5 * model.cv() ** 2
    u_round = 2.0 ** -53
    budget = ((a * e2 + b * e1 + 10 * u_round * (a * (mu * mu + variance) + b * mu))
              / (slope * mu)
              + ceiling * (2.0 * a * e1 / slope + 16 * u_round))
    assert report.rho <= ceiling + budget
    if family == "pure_quadratic":
        assert report.rho >= ceiling - budget
