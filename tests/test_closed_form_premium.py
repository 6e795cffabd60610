"""The closed-form premium of a quadratic, pure-quadratic or affine
utility, and the input checks that came with it.

For u = a t^2 + b t + c the gap u(mu + pi) - E_w[u] is a quadratic in pi,
so the exact route writes its root down instead of searching for it: in
expected utility, in rank-dependent utility and on a band.  Its accuracy
is then that of E_w[u], so the properties below are stated from the
quadrature budget (``DEFAULT_TOLERANCE``: 1e-10 absolute, 1e-8
relative) and from rounding, not from a root finder's stopping rule.
The root is the one where u'(mu + pi) < 0, and a <= 0, b <= 0 (affine:
slope > 0) make u' negative at every positive time.  A band's premium is
solved by the same function as the others, so the band test also draws
power and constant-prudence utilities, whose root is searched for and
is held within the root finder's ``tol.scale`` of brentq's.  The input
checks that ride along: a report, and every view that reads u at the
mean, rejects a mean outside the utility's interval, the range u is
certified non-increasing on, and a band whose outcomes t0 + xi collapse
is rejected.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from cotv.config import parse_config
from cotv.distributions import Degenerate, Exponential, Gamma, Uniform, build_dt_instance
from cotv.errors import (
    CollapsedBandError,
    DomainError,
    NoBracketError,
    ValidationError,
)
from cotv.eu import (
    EconomicContext,
    _eu_reports,
    _exact_values,
    _solve_premium,
    evaluate,
    premium_exact,
)
from cotv.non_eu import (
    RduContext,
    _band_weights,
    _rdu_reports,
    rdu_expected_utility,
    rdu_premium_exact,
    rdu_ratio,
    rdu_valuation,
)
from cotv.numerics import DEFAULT_TOLERANCE, find_root
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

from oracles import quadratic_premium

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def models(draw, families=("exponential", "uniform", "gamma")):
    family = draw(st.sampled_from(families))
    if family == "exponential":
        return Exponential(draw(st.floats(0.2, 3.0)))
    if family == "uniform":
        lo = draw(st.floats(0.0, 5.0))
        return Uniform(lo, lo + draw(st.floats(0.5, 10.0)))
    return Gamma(draw(st.floats(1.5, 5.0)), draw(st.floats(0.3, 3.0)))


def quadratics():
    # c = 0 keeps the terms of u(t) of one sign on t >= 0, so |u(mu)|
    # is the scale its rounding works at
    return st.builds(QuadraticUtility, a=st.floats(-2.0, -0.1), b=st.floats(-3.0, 0.0))


# rounding of K = u(mu) - E_w[u] and of u(mu + pi) - E_w[u]; a few ulps of
# the larger of |u(mu)| and |E_w[u]| (at most 3 were seen)
def assert_gap_within_ulps(u, mu, premium, expected_u):
    scale = max(abs(float(u.u(mu))), abs(expected_u))
    assert abs(float(u.u(mu + premium)) - expected_u) <= 4 * np.spacing(scale)


@SETTINGS
@given(models(("exponential", "uniform")), st.floats(-2.0, -0.1))
def test_pure_quadratic_premium_is_the_closed_form(model, a):
    # E[u] = a (mu^2 + sigma^2) + c, so (mu + pi)^2 = mu^2 + sigma^2.  E[t^2]
    # is within tol.scale(E[t^2]) of the truth, and dpi/dE[t^2] is
    # 1 / (2 (mu + pi))
    mu, variance = model.mean(), model.variance()
    truth = quadratic_premium(mu, math.sqrt(variance))
    budget = DEFAULT_TOLERANCE.scale(mu * mu + variance) / (2.0 * (mu + truth))
    assert abs(premium_exact(PureQuadraticUtility(a), model) - truth) <= budget


def test_pure_quadratic_premium_on_the_exponential():
    # (sqrt(2) - 1) / 0.8; the root search stopped 2.2e-11 off
    premium = premium_exact(PureQuadraticUtility(-1.0), Exponential(0.8))
    assert premium == pytest.approx((math.sqrt(2.0) - 1.0) * 1.25, abs=2e-12)


@SETTINGS
@given(models(), quadratics())
def test_eu_premium_closes_the_gap(model, u):
    expected_u = next(_exact_values(u, model, None, 1.0, None))
    assert_gap_within_ulps(u, model.mean(), premium_exact(u, model), expected_u)


@SETTINGS
@given(models(), quadratics(), st.floats(2.0, 3.0))
def test_rdu_premium_closes_the_gap(model, u, gamma):
    w = PowerWeighting(gamma)
    report = rdu_valuation(model, RduContext(u, w), 1.0, "exact")
    assert_gap_within_ulps(u, model.mean(), report.premium,
                           rdu_expected_utility(model, u, w))


@st.composite
def bands(draw):
    xi = np.sort(draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6)))
    xi -= xi.mean()
    t0 = draw(st.floats(3.0, 20.0))
    # a spread to price, whose outcomes t0 + xi do not collapse
    assume(np.unique(t0 + xi).size == np.unique(xi).size > 1)
    return build_dt_instance(t0, xi, psi=draw(st.floats(0.1, 0.5)))


def band_target(instance, ctx):
    increments, total, xi = _band_weights(instance.dt_meta, ctx.w)
    return float(increments @ np.asarray(ctx.u.u(instance.dt_meta.t0 + xi))) / total


def band_utilities():
    # the quadratics solve in closed form, the others search for the root
    return st.one_of(quadratics(), st.builds(PowerUtility, st.floats(1.1, 3.0)),
                     st.builds(ConstantPrudenceUtility, st.floats(0.5, 3.0)))


@SETTINGS
@given(bands(), band_utilities(), st.floats(0.6, 0.95))
def test_band_premium_closes_the_gap_and_matches_brentq(instance, u, gamma):
    ctx = RduContext(u, InverseSWeighting(gamma))
    premium = rdu_premium_exact(instance, ctx)
    t0, target = instance.dt_meta.t0, band_target(instance, ctx)
    if u.basis is not None:
        assert_gap_within_ulps(u, t0, premium, target)
    xi = instance.dt_meta.xi
    reference = brentq(lambda pi: float(u.u(t0 + pi)) - target, xi[0], xi[-1],
                       xtol=1e-15, rtol=1e-15)
    assert abs(premium - reference) <= DEFAULT_TOLERANCE.scale(reference)


@SETTINGS
@given(models(), quadratics())
def test_rdu_identity_twin_equals_eu(model, u):
    # the root search left up to 3.7e-9 between them
    eu = evaluate(u, model, EconomicContext(1.0, "exact")).premium
    rdu = rdu_valuation(model, RduContext(u, IdentityWeighting()), 1.0, "exact").premium
    assert abs(rdu - eu) <= 1e-12


def test_affine_premium_is_the_mean_shift():
    # K / -u'(mu): with a = 0 the gap is linear in pi
    model, w = Exponential(0.5), PowerWeighting(2.0)
    report = rdu_valuation(model, RduContext(AffineUtility(2.0), w), 1.0, "exact")
    assert report.premium == pytest.approx(report.diagnostics["distorted_mean"] - 2.0,
                                           rel=1e-14)


def test_polynomial_premium_reports_no_iterations():
    reports = _eu_reports(PureQuadraticUtility(-1.0), Exponential(1.0), 1.0,
                          ("exact",), None)
    assert "iterations" not in reports["exact"].diagnostics
    power = _eu_reports(PowerUtility(1.5), Exponential(1.0), 1.0, ("exact",), None)
    assert power["exact"].diagnostics["iterations"] > 0


@pytest.mark.parametrize("expected_u, window", [
    (0.5, (0.0, 2.0)),    # above u on the window: the discriminant is negative
    (-0.1, (0.5, 2.0)),   # the root, t = sqrt(0.1), lies below the window
], ids=["negative-discriminant", "outside-window"])
def test_no_root_raises_as_the_root_search(expected_u, window):
    u, mu = PureQuadraticUtility(-1.0), 1.0
    with pytest.raises(NoBracketError) as closed:
        _solve_premium(u, mu, expected_u, window[0], None)
    with pytest.raises(NoBracketError) as searched:
        find_root(lambda pi: float(u.u(mu + pi)) - expected_u, window[0] - mu, 0.0)
    assert str(closed.value) == str(searched.value)


# the input checks: a mean inside the utility's interval, and a band
# with outcomes to price

@pytest.mark.parametrize("run", [
    lambda u, m: _eu_reports(u, m, 1.0, ("exact", "second_order"), None),
    lambda u, m: _rdu_reports(m, RduContext(u, PowerWeighting(2.0)), 1.0,
                              ("exact", "second_order"), None),
], ids=["eu", "rdu"])
def test_report_rejects_a_mean_outside_the_interval(run):
    u = PowerUtility(1.5, interval=(1.0, 10.0))
    run(u, Degenerate(5.0))
    for value in (0.5, 20.0):
        with pytest.raises(DomainError, match="outside the utility's interval"):
            run(u, Degenerate(value))


def test_polynomial_mean_above_the_interval_is_rejected():
    # u' < 0 for every t > 0 here, but the interval, (0, 1000) by default,
    # is where u is certified, so a mean of 1500 needs a wider one
    model = Degenerate(1500.0)
    with pytest.raises(DomainError, match=r"outside the utility's interval \[0, 1000\]"):
        evaluate(QuadraticUtility(a=-0.5, b=-0.2), model, EconomicContext())
    wide = QuadraticUtility(a=-0.5, b=-0.2, interval=(0.0, 2000.0))
    assert evaluate(wide, model, EconomicContext()).premium == 0.0


def test_rdu_reads_the_anchor_of_a_band():
    # the anchor t0 = 0.5 lies below the interval, the mean 1.35 inside it
    instance = build_dt_instance(0.5, [-0.25, 0.25], psi=0.3, t_max=5.0)
    u = PowerUtility(1.5, interval=(1.0, 10.0))
    ctx = RduContext(u, PowerWeighting(2.0), p0=0.5)
    _eu_reports(u, instance, 1.0, ("exact",), None)
    premium_exact(u, instance)
    # the report and its views raise the same error
    for view in (lambda: _rdu_reports(instance, ctx, 1.0, ("exact",), None),
                 lambda: rdu_ratio(instance, ctx, 1.0),
                 lambda: rdu_premium_exact(instance, ctx),
                 lambda: rdu_expected_utility(instance, u, ctx.w)):
        with pytest.raises(DomainError, match="mean time 0.5 lies outside"):
            view()


def test_dt_reads_no_utility_and_checks_no_interval():
    # the config errors of the other two frameworks are in tests/test_cli.py
    parse_config({"framework": "dt", "weighting": {"family": "identity"},
                  "distribution": {"family": "degenerate", "params": {"value": 1e-300}},
                  "preference": {"family": "constant_prudence",
                                 "params": {"prudence": 2.0}}})


def test_collapsed_band_is_rejected():
    with pytest.raises(CollapsedBandError) as error:
        build_dt_instance(3.0, [-1e-200, 1e-200])
    assert isinstance(error.value, ValidationError)
    # ties in xi stay allowed: they are ties in t0 + xi too
    build_dt_instance(3.0, [-1.0, 0.0, 0.0, 1.0])
