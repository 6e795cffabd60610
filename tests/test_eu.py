import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from cotv.distributions import (
    Degenerate,
    DiscreteModel,
    Exponential,
    Gamma,
    LogNormal,
    ShiftedScaled,
    Uniform,
    build_dt_instance,
)
from cotv.errors import (
    CotvError,
    DerivativeZeroError,
    DomainError,
    NonFiniteError,
    NotQuadraticError,
    ZeroCostError,
)
from cotv.eu import (
    EconomicContext,
    _eu_reports,
    cot,
    cotv,
    evaluate,
    premium_approx,
    premium_exact,
    ratio_eta,
    ratio_rho,
    ratio_rho_coefficient_form,
    rho_upper_bound,
    vot_at,
    vot_mean,
)
from cotv.non_eu import RduContext, rdu_expected_utility, rdu_valuation
from cotv.numerics import Tolerance
from cotv.preferences import (
    AffineUtility,
    ConstantPrudenceUtility,
    PowerUtility,
    PowerWeighting,
    PureQuadraticUtility,
    QuadraticUtility,
    eta_from_coefficients,
)

from oracles import quadratic_premium, window

TIGHT = Tolerance(abs_tol=1e-12, rel_tol=1e-11, max_iter=400)
EXACT = EconomicContext(phi=1.0, method="exact")
SECOND = EconomicContext(phi=1.0, method="second_order")


def two_point(mu, sigma):
    return DiscreteModel([mu - sigma, mu + sigma], [0.5, 0.5])


RISK_AVERSE_UTILITIES = [
    PureQuadraticUtility(a=-1.0),
    QuadraticUtility(a=-1.0, b=-1.0),
    PowerUtility(exponent=1.5),
    PowerUtility(exponent=2.5),
]

MODELS = [
    Exponential(1.0),
    Uniform(0.2, 1.8),
    LogNormal(0.0, 0.4),
    Gamma(4.0, 2.0),
    two_point(1.0, 0.3),
]


class TestPremiumExact:
    def test_pure_quadratic_closed_form(self):
        model = two_point(1.0, 0.5)
        pi = premium_exact(PureQuadraticUtility(a=-1.0), model, TIGHT)
        assert pi == pytest.approx(quadratic_premium(1.0, 0.5), abs=1e-10)
        assert pi == pytest.approx(0.118034, abs=1e-6)

    def test_degenerate_is_zero(self):
        assert premium_exact(PureQuadraticUtility(a=-1.0), Degenerate(5.0)) == 0.0

    def test_risk_neutral_is_zero(self):
        for model in (Exponential(1.0), Uniform(0.2, 1.8)):
            pi = premium_exact(AffineUtility(), model, TIGHT)
            assert pi == pytest.approx(0.0, abs=1e-9)

    def test_risk_seeking_premium_is_negative(self):
        # convex decreasing utility: the bracket must expand below zero
        from cotv.preferences import UtilityFunction

        class SqrtDisutility(UtilityFunction):
            family = "sqrt"

            def u(self, t):
                return -np.sqrt(np.asarray(t, dtype=float))

            def du(self, t):
                return -0.5 / np.sqrt(np.asarray(t, dtype=float))

            def d2u(self, t):
                return 0.25 * np.asarray(t, dtype=float) ** -1.5

            def d3u(self, t):
                return -0.375 * np.asarray(t, dtype=float) ** -2.5

            def params(self):
                return {}

        u = SqrtDisutility(interval=(0.1, 10.0))
        pi = premium_exact(u, two_point(1.0, 0.5), TIGHT)
        # E[u] = -(sqrt(0.5) + sqrt(1.5))/2, premium = E[u]^2 - 1
        expected = ((math.sqrt(0.5) + math.sqrt(1.5)) / 2.0) ** 2 - 1.0
        assert pi < 0
        assert pi == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("u, k, model, rel", [
        (PureQuadraticUtility(a=-1.0), 2.0, LogNormal(-32.0, 8.0), 1e-12),
        (PowerUtility(exponent=1.5), 1.5, LogNormal(-60.5, 11.0), 1e-8),
    ], ids=["pure_quadratic-closed_form", "power-root_search"])
    def test_root_above_the_tail_quantile(self, u, k, model, rel):
        # the certainty equivalent E[t^k]^(1/k) = exp(m + k s^2 / 2) of a
        # lognormal this heavy, about 1e13, lies above its 1 - 1e-15
        # quantile and far above 2 mu = 2, the first upper end of a root
        # search, which reaches it by doubling; both means are 1
        mu = model.mean()
        certain = math.exp(model.log_mean + 0.5 * k * model.log_sd**2)
        assert certain > window(model)[1] and certain > 1e12 * (2.0 * mu)
        pi = premium_exact(u, model)
        assert pi == pytest.approx(certain - mu, rel=rel)
        assert _eu_reports(u, model, 1.0, ("exact",), None)["exact"].premium == pi

    def test_depends_only_on_first_two_moments_for_quadratics(self):
        # same mean/sd, different shapes: premium identical for pure quadratic
        u = PureQuadraticUtility(a=-2.0, c=1.0)
        a = two_point(2.0, 0.5)
        b = Uniform(2.0 - 0.5 * math.sqrt(3), 2.0 + 0.5 * math.sqrt(3))
        assert b.std() == pytest.approx(0.5, rel=1e-12)
        assert premium_exact(u, a, TIGHT) == pytest.approx(
            premium_exact(u, b, TIGHT), abs=1e-10)


class TestPremiumApprox:
    def test_pure_quadratic(self):
        assert premium_approx(PureQuadraticUtility(a=-1.0), two_point(1.0, 0.5)) \
            == pytest.approx(0.125, abs=1e-15)

    def test_degenerate(self):
        assert premium_approx(PureQuadraticUtility(a=-1.0), Degenerate(3.0)) == 0.0

    def test_power(self):
        # absolute risk aversion of -t^1.5 at 1 is 0.5
        value = premium_approx(PowerUtility(exponent=1.5), two_point(1.0, 0.3))
        assert value == pytest.approx(0.0225, abs=1e-15)
        exact = premium_exact(PowerUtility(exponent=1.5), two_point(1.0, 0.3), TIGHT)
        assert value == pytest.approx(exact, abs=5e-4)


class TestValueOfTime:
    def test_affine(self):
        assert vot_at(AffineUtility(), 2.0, EXACT) == 1.0

    def test_quadratic_with_phi(self):
        ctx = EconomicContext(phi=2.0, method="exact")
        assert vot_at(PureQuadraticUtility(a=-1.0), 3.0, ctx) == pytest.approx(3.0)

    def test_power(self):
        assert vot_at(PowerUtility(exponent=1.5), 4.0, EXACT) == pytest.approx(3.0)

    def test_quadratic_methods_agree_exactly(self):
        u = QuadraticUtility(a=-1.0, b=-2.0)
        for model in (Exponential(1.0), Uniform(0.2, 1.8)):
            exact = vot_mean(u, model, EXACT, TIGHT)
            second = vot_mean(u, model, SECOND)
            at_mean = vot_at(u, model.mean(), EXACT)
            assert exact == pytest.approx(at_mean, abs=1e-9)
            assert second == pytest.approx(at_mean, abs=1e-15)

    def test_degenerate(self):
        u = PureQuadraticUtility(a=-1.0)
        assert vot_mean(u, Degenerate(5.0), EXACT) == pytest.approx(10.0)

    def test_power_exponential_gamma_integral(self):
        value = vot_mean(PowerUtility(exponent=1.5), Exponential(1.0), EXACT, TIGHT)
        assert value == pytest.approx(1.5 * gamma_fn(1.5), abs=1e-9)
        assert value == pytest.approx(1.32934, abs=1e-5)


class TestCosts:
    def test_cot_affine(self):
        assert cot(AffineUtility(), Exponential(1.0), EXACT, TIGHT) \
            == pytest.approx(1.0, abs=1e-9)

    def test_cot_degenerate(self):
        assert cot(PureQuadraticUtility(a=-1.0), Degenerate(5.0), EXACT) \
            == pytest.approx(50.0)

    def test_cotv_risk_neutral_zero(self):
        assert cotv(AffineUtility(), Exponential(1.0), EXACT, TIGHT) \
            == pytest.approx(0.0, abs=1e-10)

    def test_cotv_pure_quadratic_is_variance(self):
        for model in (Exponential(1.0), Uniform(0.2, 1.8), two_point(1.0, 0.4)):
            value = cotv(PureQuadraticUtility(a=-1.0), model, EXACT, TIGHT)
            assert value == pytest.approx(model.variance(), abs=1e-9)

    def test_cotv_degenerate_zero(self):
        assert cotv(PureQuadraticUtility(a=-1.0), Degenerate(2.0), EXACT) == 0.0


class TestRatios:
    def test_poisson_service_pure_quadratic(self):
        u = PureQuadraticUtility(a=-1.0)
        model = Exponential(1.0)
        assert ratio_rho(u, model, EXACT, TIGHT) == pytest.approx(0.5, abs=1e-6)
        assert ratio_rho(u, model, SECOND) == pytest.approx(0.5, abs=1e-10)

    def test_general_quadratic_second_order(self):
        # R2(1) = 2/3 for a = -1, b = -1
        u = QuadraticUtility(a=-1.0, b=-1.0)
        model = two_point(1.0, 0.3)
        expected = 0.5 * model.cv() ** 2 * (2.0 / 3.0)
        assert ratio_rho(u, model, SECOND) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_is_zero(self):
        assert ratio_rho(PureQuadraticUtility(a=-1.0), Degenerate(4.0), EXACT) == 0.0

    def test_zero_cost_raises(self):
        with pytest.raises(ZeroCostError):
            ratio_rho(PureQuadraticUtility(a=-1.0), two_point(0.0, 0.5), SECOND)

    def test_eta_quadratic_is_one(self):
        for a in (-0.5, -2.0):
            for b in (0.0, -1.5):
                assert ratio_eta(QuadraticUtility(a=a, b=b), Exponential(1.0)) == 1.0

    def test_eta_degenerate_is_one(self):
        assert ratio_eta(PowerUtility(1.5), Degenerate(3.0)) == 1.0

    def test_eta_signed_term_matches_coefficients(self):
        # for power utility both coefficient routes exist and must agree
        u = PowerUtility(exponent=1.5)
        model = two_point(1.0, 0.3)
        from cotv.preferences import eta_from_coefficients, risk_coefficients

        profile = risk_coefficients(u, 1.0)
        expected = eta_from_coefficients(profile.rel_risk_aversion,
                                         profile.rel_prudence, model.cv())
        assert ratio_eta(u, model) == pytest.approx(expected, rel=1e-12)

    def test_second_order_rho_forms_agree(self):
        utilities = [
            QuadraticUtility(a=-1.0, b=-1.0),
            PowerUtility(exponent=1.5),
            PowerUtility(exponent=2.5),
            ConstantPrudenceUtility(prudence=2.5, slope_at_one=-5.0,
                                    interval=(0.9, 50.0)),
        ]
        for u in utilities:
            for model in MODELS:
                pi_form = ratio_rho(u, model, SECOND)
                coeff_form = ratio_rho_coefficient_form(u, model)
                assert pi_form == pytest.approx(coeff_form, abs=1e-10)


class TestSecondOrderPole:
    # exponential(1) with power(3): R2 = 2, R3 = -1 and CV = 1, so
    # 1 + R2 R3 CV^2 / 2 is exactly 0
    U = PowerUtility(exponent=3.0)
    MODEL = Exponential(1.0)

    @pytest.mark.parametrize("closed_form", [
        lambda u, model: ratio_rho(u, model, SECOND),
        ratio_rho_coefficient_form,
        ratio_eta,
        lambda u, model: eta_from_coefficients(2.0, -1.0, model.cv()),
    ], ids=["ratio_rho", "coefficient_form", "ratio_eta", "eta_from_coefficients"])
    def test_pole_raises_domain_error(self, closed_form):
        with pytest.raises(DomainError, match="pole"):
            closed_form(self.U, self.MODEL)

    def test_exact_report_is_defined_at_the_pole(self):
        assert evaluate(self.U, self.MODEL, EXACT, TIGHT).rho > 0


class TestUpperBound:
    def test_exponential_constant(self):
        assert rho_upper_bound(PureQuadraticUtility(a=-1.0), Exponential(2.0)) == 0.5

    def test_scales_with_cv(self):
        model = Uniform(1.0 - 0.4 * math.sqrt(3), 1.0 + 0.4 * math.sqrt(3))
        assert model.cv() == pytest.approx(0.4, rel=1e-12)
        assert rho_upper_bound(QuadraticUtility(a=-2.0, b=-1.0), model) \
            == pytest.approx(0.08, rel=1e-12)

    def test_pure_quadratic_attains_bound(self):
        u = PureQuadraticUtility(a=-3.0)
        for model in (Exponential(1.0), Uniform(0.2, 1.8), Gamma(4.0, 2.0)):
            rho = ratio_rho(u, model, EXACT, TIGHT)
            assert rho == pytest.approx(rho_upper_bound(u, model), abs=1e-9)

    def test_bound_holds_with_slack_for_b_negative(self):
        for a in (-0.5, -1.0, -4.0):
            for b in (-0.5, -2.0):
                u = QuadraticUtility(a=a, b=b)
                for model in (Exponential(1.0), Uniform(0.2, 1.8),
                              LogNormal(0.0, 0.4), Gamma(4.0, 2.0)):
                    rho = ratio_rho(u, model, EXACT, TIGHT)
                    assert rho <= rho_upper_bound(u, model) + 1e-9
                    assert rho < rho_upper_bound(u, model)

    def test_requires_quadratic(self):
        with pytest.raises(NotQuadraticError):
            rho_upper_bound(PowerUtility(1.5), Exponential(1.0))


class TestJensenPositivity:
    @pytest.mark.parametrize("u", RISK_AVERSE_UTILITIES, ids=lambda u: u.label())
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.label())
    def test_premium_and_cotv_non_negative(self, u, model):
        assert premium_exact(u, model, TIGHT) >= -1e-10
        assert cotv(u, model, EXACT, TIGHT) >= -1e-10


class TestApproximationOrder:
    def test_pure_quadratic_error_is_fourth_order(self):
        u = PureQuadraticUtility(a=-1.0)
        errors = {}
        for sigma in (0.4, 0.2, 0.1):
            model = two_point(1.0, sigma)
            exact = premium_exact(u, model, TIGHT)
            errors[sigma] = abs(exact - premium_approx(u, model))
            closed = abs(math.sqrt(1.0 + sigma**2) - 1.0 - sigma**2 / 2.0)
            assert errors[sigma] == pytest.approx(closed, abs=1e-10)
        assert 14.0 <= errors[0.4] / errors[0.2] <= 18.0
        assert 14.0 <= errors[0.2] / errors[0.1] <= 18.0

    def test_power_scaled_error_halves(self):
        u = PowerUtility(exponent=1.5)
        scaled = []
        for sigma in (0.4, 0.2, 0.1):
            model = two_point(1.0, sigma)
            err = abs(premium_exact(u, model, TIGHT) - premium_approx(u, model))
            scaled.append(err / sigma**2)
        assert scaled[0] / scaled[1] >= 2.0
        assert scaled[1] / scaled[2] >= 2.0


class TestInvariance:
    def test_rho_and_eta_invariant_under_affine_utility_and_phi(self):
        base = QuadraticUtility(a=-2.0, b=-1.0, c=0.5)
        scaled = QuadraticUtility(a=-6.0, b=-3.0, c=4.5)  # 3u + 3
        model = Uniform(0.5, 1.5)
        for method in ("exact", "second_order"):
            for phi in (1.0, 7.0):
                ctx_a = EconomicContext(phi=1.0, method=method)
                ctx_b = EconomicContext(phi=phi, method=method)
                rho_a = ratio_rho(base, model, ctx_a, TIGHT)
                rho_b = ratio_rho(scaled, model, ctx_b, TIGHT)
                assert rho_a == pytest.approx(rho_b, abs=1e-10)
        assert ratio_eta(base, model) == pytest.approx(
            ratio_eta(scaled, model), abs=1e-14)


class TestEvaluate:
    def test_report_fields_exact(self):
        report = evaluate(PureQuadraticUtility(a=-1.0), Exponential(1.0),
                          EXACT, TIGHT)
        assert report.framework == "eu"
        assert report.cot == pytest.approx(report.vot * report.mu, abs=0.0)
        assert report.rho == pytest.approx(report.cotv / report.cot, abs=0.0)
        assert report.rho == pytest.approx(0.5, abs=1e-6)
        assert report.rho_upper_bound == pytest.approx(0.5)
        assert report.congestion_multiplier == pytest.approx(1.5, abs=1e-6)
        # E[t] and E[t^2] are the closed mean and variance + mean^2, and
        # the premium is a quadratic's root: the report records no
        # quadrature and no root search
        assert report.rho == 0.5
        assert report.premium == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)
        assert not {"levels", "nodes", "error", "iterations"} & set(report.diagnostics)

    def test_report_fields_exact_integrated(self):
        report = evaluate(PowerUtility(exponent=1.5), Exponential(1.0), EXACT, TIGHT)
        # the probability-plane rule has no window to cut
        levels = report.diagnostics["levels"]
        assert report.diagnostics["nodes"] == (12 << levels) + 1
        assert {"error", "iterations"} <= set(report.diagnostics)
        assert "truncated" not in report.diagnostics

    def test_report_degenerate(self):
        report = evaluate(PureQuadraticUtility(a=-1.0), Degenerate(5.0), EXACT)
        assert report.premium == 0.0
        assert report.cotv == 0.0
        assert report.rho == 0.0
        assert report.eta == 1.0

    def test_second_order_report_is_closed_form(self):
        report = evaluate(PureQuadraticUtility(a=-1.0), Exponential(1.0), SECOND)
        assert report.rho == pytest.approx(0.5, abs=1e-12)
        assert report.eta == 1.0


# one model of every family, two degenerate ones at mean 0 whose errors
# come from the bound (quadratic) and from u'(0) = 0 (power), and a
# continuous one at mean 0, whose exact ratio fails before the bound
EVERY_FAMILY = {
    "degenerate": Degenerate(2.5),
    "degenerate_zero": Degenerate(0.0),
    "exponential": Exponential(0.8),
    "uniform": Uniform(1.0, 4.0),
    "lognormal": LogNormal(1.0, 0.5),
    "gamma": Gamma(2.0, 1.0),
    "shifted_scaled": ShiftedScaled(Exponential(1.0), 1.5, 2.0),
    "shifted_zero_mean": ShiftedScaled(Exponential(1.0), -1.0, 1.0),
    "discrete": DiscreteModel([1.0, 2.0, 2.0, 5.0], [0.1, 0.3, 0.2, 0.4]),
    "banded": build_dt_instance(3.0, [-1.0, -0.5, 0.5, 1.0], 0.5, 0.3),
}


def _outcome(build):
    try:
        return repr(build())
    except CotvError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestSharedReports:
    """_eu_reports shares the inputs of its methods and must equal one
    evaluate call per method, diagnostics key order and errors included."""

    # a power utility is not defined below 0, where the zero-mean model reaches
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("u", [QuadraticUtility(a=-0.5, b=-0.2),
                                   PowerUtility(exponent=1.5),
                                   AffineUtility(slope=1.0)],
                             ids=lambda u: u.family)
    @pytest.mark.parametrize("model", EVERY_FAMILY.values(), ids=EVERY_FAMILY)
    def test_both_methods_equal_two_evaluate_calls(self, model, u):
        methods = ("exact", "second_order")
        try:
            shared = _eu_reports(u, model, 2.5, methods, None)
        except CotvError as exc:
            shared = f"{type(exc).__name__}: {exc}"
        singles = [_outcome(lambda: evaluate(u, model, EconomicContext(2.5, method)))
                   for method in methods]
        if isinstance(shared, str):  # the first failing method's error
            assert shared == next(s for s in singles if not s.startswith("ValuationReport"))
            return
        assert list(shared) == list(methods)
        assert [repr(shared[method]) for method in methods] == singles

    # the first error a one-method run per method would raise: at a point
    # mass at 0 the exact report builds (its bound is None, as cv is) and
    # the second-order one needs a positive mean or divides by u'(0) = 0
    # (the power utility's interval holds the mean 0), and the exact ratio
    # of a continuous model fails before the bound is read
    @pytest.mark.parametrize("model, u, error", [
        ("degenerate_zero", QuadraticUtility(a=-0.5, b=-0.2), ZeroCostError),
        ("degenerate_zero", PowerUtility(exponent=1.5, interval=(0.0, 1000.0)),
         DerivativeZeroError),
        ("shifted_zero_mean", QuadraticUtility(a=-0.5, b=-0.2), ZeroCostError),
    ])
    def test_errors_come_in_one_method_order(self, model, u, error):
        with pytest.raises(error):
            _eu_reports(u, EVERY_FAMILY[model], 2.5, ("exact", "second_order"), None)


POINT_MASS_UTILITIES = [QuadraticUtility(a=-0.5, b=-0.2), PureQuadraticUtility(a=-1.0),
                        PowerUtility(exponent=1.5),
                        ConstantPrudenceUtility(prudence=2.0), AffineUtility(slope=1.0)]


class TestPointMassViews:
    """A point mass takes the general route in the one-quantity functions
    as in the report, so each equals its report field by repr, the sign of
    a zero included.

    A mean outside the utility's interval, 1e-300 for the power and
    constant-prudence utilities, makes the report and every view raise the
    same ``DomainError``.  Every other report of this grid builds, and no
    view raises.
    """

    @pytest.mark.parametrize("method", ["exact", "second_order"])
    @pytest.mark.parametrize("u", POINT_MASS_UTILITIES, ids=lambda u: u.family)
    @pytest.mark.parametrize("value", [1.0, 2.5, 1e-300])
    def test_views_equal_their_report_field(self, value, u, method):
        model, ctx = Degenerate(value), EconomicContext(2.5, method)
        views = {
            "premium": (lambda: premium_exact(u, model)) if method == "exact"
            else (lambda: premium_approx(u, model)),
            "vot": lambda: vot_mean(u, model, ctx),
            "cot": lambda: cot(u, model, ctx),
            "cotv": lambda: cotv(u, model, ctx),
            "rho": lambda: ratio_rho(u, model, ctx),
        }
        if method == "second_order":
            views["eta"] = lambda: ratio_eta(u, model)
        try:
            report = evaluate(u, model, ctx)
        except DomainError as exc:
            assert not u.interval[0] <= value <= u.interval[1]
            expected = dict.fromkeys(views, f"DomainError: {exc}")
        else:
            expected = {field: repr(getattr(report, field)) for field in views}
        assert {field: _outcome(view) for field, view in views.items()} == expected

    # u''' at 1e-300 overflows under a power utility whose interval holds
    # the mean: the second-order VOT is NaN, and so are rho and the pole
    # 1 + R2 R3 CV^2 / 2, which eta and the coefficient form divide by
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_views_raise_where_the_report_field_is_not_finite(self):
        u = PowerUtility(exponent=1.5, interval=(0.0, 1000.0))
        model, ctx = Degenerate(1e-300), EconomicContext(2.5, "second_order")
        with pytest.raises(NonFiniteError, match="report field 'vot'"):
            evaluate(u, model, ctx)
        # each view names the number that is not finite: cot its vot_mean
        views = {"vot_mean": lambda: vot_mean(u, model, ctx),
                 "cot": lambda: cot(u, model, ctx),
                 "ratio_rho": lambda: ratio_rho(u, model, ctx),
                 "ratio_eta": lambda: ratio_eta(u, model),
                 "ratio_rho_coefficient_form": lambda: ratio_rho_coefficient_form(u, model)}
        assert {name: _outcome(view) for name, view in views.items()} == {
            name: f"NonFiniteError: {'vot_mean' if name == 'cot' else name} is not finite: nan"
            for name in views}


class TestContinuousViews:
    """On a continuous model each exact one-quantity function reads its
    number as the report does, so it equals the report field by repr: a
    polynomial utility through its moment basis E[t] and E[t^2], any
    other by integrating u and u'.  RDU's ``rdu_expected_utility`` gives
    the E_w[u] behind the RDU report's COTV."""

    MODELS = [Exponential(0.8), Uniform(1.0, 4.0), LogNormal(1.0, 0.5), Gamma(2.0, 1.0)]
    # every pair but constant_prudence on the exponential: its u ~ log t at
    # t = 0, where the density is not 0, runs quadrature to its panel cap
    # (ROADMAP item 6)
    PAIRS = [(model, u) for model in MODELS for u in POINT_MASS_UTILITIES
             if (model.family, u.family) != ("exponential", "constant_prudence")]

    @pytest.mark.parametrize("model, u", PAIRS,
                             ids=[f"{m.family}-{u.family}" for m, u in PAIRS])
    def test_exact_views_equal_their_report_field(self, model, u):
        ctx = EconomicContext(2.5, "exact")
        views = {
            "premium": lambda: premium_exact(u, model),
            "vot": lambda: vot_mean(u, model, ctx),
            "cot": lambda: cot(u, model, ctx),
            "cotv": lambda: cotv(u, model, ctx),
            "rho": lambda: ratio_rho(u, model, ctx),
        }
        report = evaluate(u, model, ctx)
        assert {field: _outcome(view) for field, view in views.items()} == {
            field: repr(getattr(report, field)) for field in views}

    @pytest.mark.parametrize("u", POINT_MASS_UTILITIES, ids=lambda u: u.family)
    @pytest.mark.parametrize("model", MODELS, ids=lambda model: model.family)
    def test_rdu_expected_utility_is_the_report_cotv(self, model, u):
        w = PowerWeighting(2.0)  # w' = 2F: finite at both ends of every window
        report = rdu_valuation(model, RduContext(u, w), 2.5, "exact")
        mu = model.mean()
        assert repr((float(u.u(mu)) - rdu_expected_utility(model, u, w)) / 2.5) == \
            repr(report.cotv)


def test_only_the_dual_moments_read_is_degenerate():
    # a point mass takes every framework's general formulas; the dual
    # moments alone read the property, for a variance that underflows to 0
    source = Path(__file__).resolve().parents[1] / "src" / "cotv"
    reads, trees = [], {}
    for path in sorted(source.glob("*.py")):
        trees[path.stem] = ast.parse(path.read_text(), filename=str(path))
        reads += [(path.stem, node.lineno) for node in ast.walk(trees[path.stem])
                  if isinstance(node, ast.Attribute) and node.attr == "is_degenerate"]
    dual = next(node for node in ast.walk(trees["distributions"])
                if isinstance(node, ast.FunctionDef) and node.name == "_dual_moments")
    assert len(reads) == 1 and reads[0][0] == "distributions"
    assert dual.lineno <= reads[0][1] <= dual.end_lineno
