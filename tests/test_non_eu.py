import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st
from scipy import integrate, optimize, stats

from cotv.distributions import (
    Degenerate,
    DiscreteModel,
    Exponential,
    Gamma,
    LogNormal,
    ShiftedScaled,
    Uniform,
    build_dt_instance,
    discrete_dual_moment,
    discrete_dual_moment_variance,
)
from cotv.errors import (
    DerivativeZeroError,
    MetadataMismatchError,
    MetadataMissingError,
)
from cotv.eu import EconomicContext, premium_approx, premium_exact, ratio_rho
from cotv.non_eu import (
    DtContext,
    RduContext,
    dt_expected_utility,
    dt_premium_approx,
    dt_premium_exact,
    dt_valuation,
    rdu_expected_utility,
    rdu_premium_approx,
    rdu_premium_exact,
    rdu_ratio,
    rdu_valuation,
)
from cotv.numerics import DEFAULT_TOLERANCE, RngStream, Tolerance
from cotv.preferences import (
    AffineUtility,
    IdentityWeighting,
    InverseSWeighting,
    PowerUtility,
    PowerWeighting,
    PureQuadraticUtility,
    QuadraticUtility,
)

from oracles import brute_rank_expectation, quadratic_premium

TIGHT = Tolerance(abs_tol=1e-12, rel_tol=1e-11, max_iter=400)
IDENTITY = IdentityWeighting()
SQUARE = PowerWeighting(gamma=2.0)
INVERSE_S = InverseSWeighting(gamma=0.7)


def random_instances(count, seed=99):
    gen = RngStream(seed=seed).generator()
    out = []
    for _ in range(count):
        n = int(gen.integers(2, 8))
        xi = np.sort(gen.normal(0.0, float(gen.uniform(0.3, 2.0)), size=n))
        xi -= xi.mean()
        out.append(build_dt_instance(t0=float(gen.uniform(8.0, 15.0)), xi=xi))
    return out


class TestDtExpectedUtility:
    def test_identity_reduces_to_negative_mean(self):
        model = Exponential(1.0)
        assert dt_expected_utility(model, IDENTITY, TIGHT) == pytest.approx(
            -1.0, abs=1e-9)
        discrete = DiscreteModel([1.0, 3.0], [0.25, 0.75])
        assert dt_expected_utility(discrete, IDENTITY) == pytest.approx(
            -discrete.mean(), abs=1e-14)

    def test_degenerate(self):
        assert dt_expected_utility(Degenerate(4.0), SQUARE) == pytest.approx(
            -4.0, abs=1e-14)

    def test_two_point_hand_value(self):
        # w(1/2) = 1/4 on the low outcome, 3/4 on the high one
        model = DiscreteModel([1.0, 3.0], [0.5, 0.5])
        assert dt_expected_utility(model, SQUARE) == pytest.approx(-2.5, abs=1e-14)

    def test_matches_bruteforce_differencing(self):
        model = DiscreteModel([1.0, 1.0, 2.0, 5.0], [0.2, 0.3, 0.4, 0.1])
        for w in (IDENTITY, SQUARE, INVERSE_S):
            expected = brute_rank_expectation(
                model.outcomes, model.probabilities, w, lambda t: -t)
            assert dt_expected_utility(model, w) == pytest.approx(expected, abs=1e-14)


class TestDtPremiumExact:
    def test_identity_weighting_gives_zero(self):
        instance = build_dt_instance(t0=10.0, xi=[-1.0, 0.0, 1.0])
        assert dt_premium_exact(instance, DtContext(w=IDENTITY)) == pytest.approx(
            0.0, abs=1e-15)

    def test_zero_perturbation_gives_zero(self):
        instance = build_dt_instance(t0=10.0, xi=[0.0, 0.0])
        assert dt_premium_exact(instance, DtContext(w=SQUARE)) == 0.0

    def test_two_point_square_weighting(self):
        d = 0.8
        instance = build_dt_instance(t0=10.0, xi=[-d, d])
        assert dt_premium_exact(instance, DtContext(w=SQUARE)) == pytest.approx(
            d / 2.0, abs=1e-15)

    def test_invariant_to_baseline_shift(self):
        xi = [-1.0, -0.5, 1.5]
        ctx = DtContext(w=INVERSE_S)
        a = dt_premium_exact(build_dt_instance(t0=10.0, xi=xi), ctx)
        b = dt_premium_exact(build_dt_instance(t0=25.0, xi=xi), ctx)
        assert a == pytest.approx(b, abs=1e-15)

    def test_partial_band(self):
        # psi = 1/4: weights concentrate on [p0 - psi, p0 + psi]
        instance = build_dt_instance(t0=10.0, xi=[-1.0, 1.0], p0=0.5, psi=0.25)
        ctx = DtContext(w=SQUARE, p0=0.5, psi=0.25)
        increments = np.diff(np.asarray(SQUARE.w(np.array([0.25, 0.5, 0.75]))))
        expected = (increments @ np.array([-1.0, 1.0])) / increments.sum()
        assert dt_premium_exact(instance, ctx) == pytest.approx(expected, abs=1e-15)

    def test_metadata_errors(self):
        plain = DiscreteModel([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(MetadataMissingError):
            dt_premium_exact(plain, DtContext(w=SQUARE))
        instance = build_dt_instance(t0=10.0, xi=[-1.0, 1.0])
        with pytest.raises(MetadataMismatchError):
            dt_premium_exact(instance, DtContext(w=SQUARE, p0=0.4, psi=0.4))


class TestDtPremiumApprox:
    def test_identity_is_zero(self):
        assert dt_premium_approx(DtContext(w=IDENTITY), 0.7) == 0.0

    def test_square_weighting_value(self):
        # curvature ratio 2 at the anchor, dual moment d/2
        d = 0.8
        assert dt_premium_approx(DtContext(w=SQUARE), d / 2.0) == pytest.approx(
            d / 2.0, abs=1e-15)

    def test_zero_dual_moment(self):
        assert dt_premium_approx(DtContext(w=INVERSE_S), 0.0) == 0.0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_quadratic_weighting_taylor_is_exact(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        raw = data.draw(st.lists(
            st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n))
        xi = np.sort(np.asarray(raw, dtype=float))
        xi -= xi.mean()
        instance = build_dt_instance(t0=20.0, xi=xi)
        ctx = DtContext(w=SQUARE)
        exact = dt_premium_exact(instance, ctx)
        approx = dt_premium_approx(ctx, discrete_dual_moment(instance))
        assert exact == pytest.approx(approx, abs=1e-12)

    def test_smooth_weighting_gap_scales_linearly(self):
        # both sides are degree-1 homogeneous in the outcome scale, so the
        # gap halves per halving; it cannot decay faster for non-quadratic w
        ctx = DtContext(w=INVERSE_S)
        xi0 = np.array([-3.0, -1.0, 1.0, 3.0])
        gaps = []
        for eps in (1.0, 0.5, 0.25, 0.125):
            instance = build_dt_instance(t0=12.0, xi=eps * xi0)
            gap = abs(dt_premium_exact(instance, ctx)
                      - dt_premium_approx(ctx, discrete_dual_moment(instance)))
            gaps.append(gap)
        for first, second in zip(gaps, gaps[1:]):
            assert first / second == pytest.approx(2.0, rel=1e-9)


class TestDtValuation:
    def test_identity_weighting_no_variability_cost(self):
        report = dt_valuation(Exponential(1.0), DtContext(w=IDENTITY),
                              phi=1.0, method="exact", tol=TIGHT)
        assert report.cotv == pytest.approx(0.0, abs=1e-9)
        assert report.rho == pytest.approx(0.0, abs=1e-9)
        assert report.eta == 1.0

    def test_degenerate_model(self):
        report = dt_valuation(Degenerate(5.0), DtContext(w=SQUARE),
                              phi=2.0, method="exact")
        assert report.premium == 0.0
        assert report.cotv == 0.0
        assert report.cot == pytest.approx(2.5)

    def test_exact_ratio_matches_closed_form_for_square_weighting(self):
        instance = build_dt_instance(
            t0=10.0, xi=np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
        exact = dt_valuation(instance, DtContext(w=SQUARE), phi=1.0,
                             method="exact")
        approx = dt_valuation(instance, DtContext(w=SQUARE), phi=1.0,
                              method="second_order")
        m2d = discrete_dual_moment(instance)
        closed = 0.5 * (m2d / 10.0**2) * (10.0 * 2.0)  # half CV_dual^2 times mu w''/w'
        assert exact.rho == pytest.approx(closed, abs=1e-12)
        assert approx.rho == pytest.approx(closed, abs=1e-12)
        assert exact.rho == pytest.approx(exact.premium / exact.mu, abs=1e-15)

    def test_phi_cancels_in_ratio(self):
        instance = build_dt_instance(t0=10.0, xi=[-1.0, 1.0])
        a = dt_valuation(instance, DtContext(w=INVERSE_S), phi=1.0, method="exact")
        b = dt_valuation(instance, DtContext(w=INVERSE_S), phi=9.0, method="exact")
        assert a.rho == pytest.approx(b.rho, abs=1e-15)
        assert b.cotv == pytest.approx(a.cotv / 9.0, abs=1e-15)

    def test_dual_risk_aversion_flag(self):
        instance = build_dt_instance(t0=10.0, xi=[-1.0, 1.0])
        convex = dt_valuation(instance, DtContext(w=SQUARE), phi=1.0,
                              method="exact")
        assert convex.diagnostics["dual_risk_averse_time_domain"] is True
        concave = dt_valuation(instance, DtContext(w=PowerWeighting(0.5)),
                               phi=1.0, method="exact")
        assert concave.premium < 0
        assert concave.diagnostics["dual_risk_averse_time_domain"] is False

    def test_continuous_model_square_weighting(self):
        # Stieltjes route: premium = E[max of two draws] - mean = dual moment
        model = Uniform(0.5, 1.5)
        report = dt_valuation(model, DtContext(w=SQUARE), phi=1.0,
                              method="exact", tol=TIGHT)
        assert report.premium == pytest.approx(1.0 / 6.0, abs=1e-9)


class TestRduExpectedUtility:
    def test_identity_reduces_to_expectation(self):
        u = PureQuadraticUtility(a=-1.0)
        model = DiscreteModel([1.0, 2.0, 4.0], [0.2, 0.5, 0.3])
        assert rdu_expected_utility(model, u, IDENTITY) == pytest.approx(
            model.expect(u.u), abs=1e-14)

    def test_affine_reduces_to_dual(self):
        u = AffineUtility()
        model = DiscreteModel([1.0, 3.0], [0.5, 0.5])
        assert rdu_expected_utility(model, u, SQUARE) == pytest.approx(
            dt_expected_utility(model, SQUARE), abs=1e-14)

    def test_degenerate(self):
        u = PureQuadraticUtility(a=-1.0)
        assert rdu_expected_utility(Degenerate(3.0), u, SQUARE) == pytest.approx(
            -9.0, abs=1e-12)

    def test_matches_bruteforce_differencing(self):
        u = PowerUtility(exponent=1.5)
        model = DiscreteModel([1.0, 2.0, 2.0, 6.0], [0.1, 0.4, 0.3, 0.2])
        for w in (SQUARE, INVERSE_S):
            expected = brute_rank_expectation(
                model.outcomes, model.probabilities, w,
                lambda t: float(u.u(t)))
            assert rdu_expected_utility(model, u, w) == pytest.approx(
                expected, abs=1e-12)


class TestRduPremium:
    def test_identity_weighting_reduces_to_eu(self):
        for instance in random_instances(10, seed=3):
            u = QuadraticUtility(a=-1.0, b=-0.5)
            ctx = RduContext(u=u, w=IDENTITY)
            assert rdu_premium_exact(instance, ctx, TIGHT) == pytest.approx(
                premium_exact(u, instance, TIGHT), abs=1e-10)

    def test_affine_utility_reduces_to_dt(self):
        for instance in random_instances(10, seed=4):
            ctx = RduContext(u=AffineUtility(slope=2.0), w=INVERSE_S)
            assert rdu_premium_exact(instance, ctx, TIGHT) == pytest.approx(
                dt_premium_exact(instance, DtContext(w=INVERSE_S)), abs=1e-10)

    def test_approx_reduction_identities(self):
        instance = build_dt_instance(t0=10.0, xi=[-1.5, -0.5, 0.5, 1.5])
        m2 = float(np.mean(np.asarray(instance.dt_meta.xi) ** 2))
        m2d = discrete_dual_moment(instance)
        m2dv = discrete_dual_moment_variance(instance)
        u = QuadraticUtility(a=-1.0, b=-0.5)
        value = rdu_premium_approx(RduContext(u=u, w=IDENTITY), 10.0, m2, m2d, m2dv)
        assert value == pytest.approx(premium_approx(u, instance), abs=1e-14)
        aff = rdu_premium_approx(RduContext(u=AffineUtility(), w=INVERSE_S),
                                 10.0, m2, m2d, m2dv)
        assert aff == pytest.approx(
            dt_premium_approx(DtContext(w=INVERSE_S), m2d), abs=1e-14)

    def test_quadratic_weighting_quadratic_utility_gap_is_second_order(self):
        # with the weighting Taylor exact, the residual error comes from
        # linearising u at the premium and scales with the square of the
        # outcome spread
        u = PureQuadraticUtility(a=-1.0)
        ctx = RduContext(u=u, w=SQUARE)
        xi0 = np.array([-3.0, -1.0, 1.0, 3.0])
        gaps = []
        for eps in (1.0, 0.5, 0.25, 0.125):
            instance = build_dt_instance(t0=10.0, xi=eps * xi0)
            m2 = float(np.mean((eps * xi0) ** 2))
            exact = rdu_premium_exact(instance, ctx, TIGHT)
            approx = rdu_premium_approx(
                ctx, 10.0, m2, discrete_dual_moment(instance),
                discrete_dual_moment_variance(instance))
            gaps.append(abs(exact - approx))
        for first, second in zip(gaps, gaps[1:]):
            assert 3.3 <= first / second <= 4.7

    def test_premium_stays_in_band(self):
        for instance in random_instances(20, seed=5):
            ctx = RduContext(u=PowerUtility(1.5), w=INVERSE_S)
            pi = rdu_premium_exact(instance, ctx, TIGHT)
            xi = instance.dt_meta.xi
            assert xi[0] - 1e-12 <= pi <= xi[-1] + 1e-12


class TestRduRatio:
    def test_identity_weighting_quadratic_utility(self):
        for instance in random_instances(10, seed=6):
            u = QuadraticUtility(a=-2.0, b=-1.0)
            value = rdu_ratio(instance, RduContext(u=u, w=IDENTITY), phi=1.0,
                              tol=TIGHT)
            reference = ratio_rho(u, instance,
                                  EconomicContext(method="second_order"), TIGHT)
            assert value == pytest.approx(reference, abs=1e-10)

    def test_affine_reduces_to_dt_ratio(self):
        for instance in random_instances(10, seed=7):
            value = rdu_ratio(instance, RduContext(u=AffineUtility(), w=INVERSE_S),
                              phi=1.0, tol=TIGHT)
            reference = dt_valuation(instance, DtContext(w=INVERSE_S), phi=1.0,
                                     method="second_order").rho
            assert value == pytest.approx(reference, abs=1e-12)

    def test_degenerate_is_zero(self):
        instance = build_dt_instance(t0=10.0, xi=[0.0])
        value = rdu_ratio(instance, RduContext(u=PowerUtility(1.5), w=SQUARE),
                          phi=1.0)
        assert value == 0.0

    def test_tau_override_scales_ratio(self):
        instance = build_dt_instance(t0=10.0, xi=[-1.0, 1.0])
        u = PureQuadraticUtility(a=-1.0)
        auto = rdu_ratio(instance, RduContext(u=u, w=SQUARE), phi=1.0, tol=TIGHT)
        doubled = rdu_ratio(instance, RduContext(u=u, w=SQUARE, tau_h=2.0),
                            phi=1.0, tol=TIGHT)
        base = rdu_ratio(instance, RduContext(u=u, w=SQUARE, tau_h=1.0),
                         phi=1.0, tol=TIGHT)
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)
        assert auto != base  # distorted mean differs from the plain mean

    @pytest.mark.parametrize("model, u, w", [
        (build_dt_instance(t0=10.0, xi=[-1.5, 0.5, 1.0], psi=0.3),
         PowerUtility(1.5), INVERSE_S),
        (DiscreteModel([1.0, 2.0, 2.0, 4.0], [0.25] * 4),
         QuadraticUtility(a=-1.0, b=-0.5), SQUARE),
        (Exponential(1.0), PureQuadraticUtility(a=-1.0), SQUARE),
        (LogNormal(0.2, 0.5), PowerUtility(1.5), INVERSE_S),
        (ShiftedScaled(Exponential(1.0), 1.0, 2.0), PowerUtility(2.5), IDENTITY),
        (Degenerate(2.0), PowerUtility(1.5), INVERSE_S),
        # a real spread whose variance underflows to 0: rho is 1.67e-201
        (build_dt_instance(t0=3.0, xi=[-1e-200, 1e-200]), PowerUtility(1.5), SQUARE),
    ], ids=["banded", "discrete-ties", "exponential", "lognormal", "shifted",
            "degenerate", "banded-underflow"])
    @pytest.mark.parametrize("tau_h", ["auto", 2.0])
    def test_equals_second_order_report_rho(self, model, u, w, tau_h):
        ctx = RduContext(u=u, w=w, tau_h=tau_h)
        report = rdu_valuation(model, ctx, phi=1.5, method="second_order")
        value = rdu_ratio(model, ctx, phi=1.5)
        assert repr(value) == repr(report.rho)

    def test_failure_equals_second_order_report_failure(self):
        # a near-zero power weighting puts all distorted mass on the 0
        # outcome, where u'(t) = -2t vanishes: auto tau_h is undefined
        instance = build_dt_instance(t0=1.0, xi=[-1.0, 1.0])
        ctx = RduContext(u=PureQuadraticUtility(a=-1.0), w=PowerWeighting(1e-20))
        with pytest.raises(DerivativeZeroError) as report_error:
            rdu_valuation(instance, ctx, phi=1.0, method="second_order")
        with pytest.raises(DerivativeZeroError) as ratio_error:
            rdu_ratio(instance, ctx, phi=1.0)
        assert str(ratio_error.value) == str(report_error.value)
        assert "auto tau_h undefined" in str(ratio_error.value)


class TestRduValuation:
    def test_identity_weighting_matches_eu_exact(self):
        from cotv.eu import evaluate as eu_evaluate

        instance = build_dt_instance(t0=10.0, xi=[-2.0, 0.0, 2.0])
        u = QuadraticUtility(a=-1.0, b=-0.5)
        rdu = rdu_valuation(instance, RduContext(u=u, w=IDENTITY), phi=1.0,
                            method="exact", tol=TIGHT)
        eu = eu_evaluate(u, instance, EconomicContext(phi=1.0, method="exact"),
                         TIGHT)
        assert rdu.premium == pytest.approx(eu.premium, abs=1e-10)
        assert rdu.vot == pytest.approx(eu.vot, abs=1e-10)
        assert rdu.cot == pytest.approx(eu.cot, abs=1e-10)
        assert rdu.cotv == pytest.approx(eu.cotv, abs=1e-10)
        assert rdu.rho == pytest.approx(eu.rho, abs=1e-10)

    @pytest.mark.parametrize("model", [Exponential(rate=0.8), Uniform(lo=1.0, hi=4.0)],
                             ids=["exponential", "uniform"])
    def test_identity_weighting_premium_matches_quadratic_oracle(self, model):
        report = rdu_valuation(model, RduContext(u=PureQuadraticUtility(-1.0), w=IDENTITY),
                               phi=2.5, method="exact", tol=TIGHT)
        assert report.premium == pytest.approx(
            quadratic_premium(model.mean(), model.std()), abs=1e-10)

    def test_raw_discrete_cotv_matches_enumeration(self):
        outcomes = [1.0, 2.0, 2.0, 3.5, 5.0, 8.0]
        probabilities = [0.1, 0.2, 0.15, 0.25, 0.2, 0.1]
        model = DiscreteModel(outcomes, probabilities)
        u = PureQuadraticUtility(-1.0)
        phi = 2.5
        report = rdu_valuation(model, RduContext(u=u, w=SQUARE), phi=phi, method="exact")
        mu = sum(p * x for p, x in zip(probabilities, outcomes))
        rank_u = brute_rank_expectation(outcomes, probabilities, SQUARE,
                                        lambda t: -t * t)
        assert report.cotv == pytest.approx((-mu * mu - rank_u) / phi, rel=1e-12)

    def test_degenerate(self):
        instance = build_dt_instance(t0=5.0, xi=[0.0])
        report = rdu_valuation(instance, RduContext(u=PureQuadraticUtility(-1.0),
                                                    w=SQUARE), phi=1.0)
        assert report.premium == 0.0
        assert report.cotv == pytest.approx(0.0, abs=1e-12)
        assert report.rho == 0.0

    def test_tau_recorded_in_diagnostics(self):
        instance = build_dt_instance(t0=10.0, xi=[-1.0, 1.0])
        report = rdu_valuation(instance,
                               RduContext(u=PureQuadraticUtility(-1.0), w=SQUARE,
                                          tau_h=1.5),
                               phi=1.0, method="second_order")
        assert report.diagnostics["tau_h"] == 1.5
        assert report.diagnostics["tau_h_mode"] == "override"


# Ledger regions b1-b4: RDU with power weighting gamma < 1 and a power
# utility, where the premium is negative.  The oracle shares no code with
# the package: scipy's own distributions and quadrature for E_w[u] (an
# explicit sum of w-increments for the discrete model) and brentq for the
# premium on [lo - mu, 0].
B4_OUTCOMES = [0.5507, 2.086, 3.538, 4.694, 6.313, 7.604, 8.532, 17.67]
B4_PROBABILITIES = [0.135, 0.106, 0.06, 0.218, 0.137, 0.142, 0.09, 0.112]
NEGATIVE_PREMIUM_CASES = {
    "b1": (Exponential(rate=1.0), 1.5, 0.6, stats.expon()),
    "b2": (LogNormal(log_mean=1.0, log_sd=0.5), 1.5, 0.8,
           stats.lognorm(s=0.5, scale=np.exp(1.0))),
    "b3": (Gamma(shape=2.0, rate=1.0), 1.5, 0.6, stats.gamma(a=2.0)),
    "b4": (DiscreteModel(B4_OUTCOMES, B4_PROBABILITIES), 1.506, 0.5929, None),
}


def oracle_rank_utility(exponent, gamma, dist) -> float:
    """E_w[u] for u(t) = -t^exponent and w(p) = p^gamma; ``dist`` is a
    frozen scipy distribution, or None for the b4 outcomes."""
    def w(p):
        return min(p, 1.0) ** gamma

    def u(t):
        return -t**exponent

    if dist is None:
        total, cum = 0.0, 0.0
        for t, p in zip(B4_OUTCOMES, B4_PROBABILITIES):
            total += (w(cum + p) - w(cum)) * u(t)
            cum += p
        return total
    mu = dist.mean()

    def integrand(t):
        return u(t) * gamma * dist.cdf(t) ** (gamma - 1.0) * dist.pdf(t)

    return (integrate.quad(integrand, 0.0, mu, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            + integrate.quad(integrand, mu, np.inf, epsabs=0.0, epsrel=1e-13,
                             limit=200)[0])


@pytest.mark.parametrize("model, exponent, gamma, dist",
                         NEGATIVE_PREMIUM_CASES.values(), ids=NEGATIVE_PREMIUM_CASES)
def test_negative_premium_matches_independent_oracle(model, exponent, gamma, dist):
    report = rdu_valuation(model, RduContext(u=PowerUtility(exponent),
                                             w=PowerWeighting(gamma)),
                           phi=1.0, method="exact")
    target = oracle_rank_utility(exponent, gamma, dist)
    mu = model.mean()
    lo = model.support()[0]
    premium = optimize.brentq(lambda pi: -(mu + pi) ** exponent - target,
                              lo - mu, 0.0, xtol=1e-15, rtol=1e-15)
    assert premium < 0
    assert report.premium < 0
    assert report.premium == pytest.approx(premium, rel=1e-8, abs=0.0)


@st.composite
def bracket_cases(draw):
    """RDU with power weighting, gamma in [0.5, 2], on exponential and raw
    discrete models, with a power or pure-quadratic utility.  This keeps
    clear of the ledger regions other than b.  On the exponential the VOT
    integrand -u' w'(F) f behaves like t^(k + gamma - 2) at 0 for a power
    exponent k, which the quadrature resolves only for a power of at least
    0.1 (ledger b1 sits there), so there k >= 2.1 - gamma."""
    gamma = draw(st.floats(0.5, 2.0))
    continuous = draw(st.booleans())
    if continuous:
        model = Exponential(rate=draw(st.floats(0.2, 5.0)))
    else:
        n = draw(st.integers(2, 8))
        outcomes = sorted(draw(st.lists(st.floats(0.1, 20.0), min_size=n, max_size=n,
                                        unique=True)))
        weights = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        model = DiscreteModel(outcomes, weights / weights.sum())
    if draw(st.booleans()):
        lowest = max(1.5, 2.1 - gamma) if continuous else 1.5
        u = PowerUtility(exponent=draw(st.floats(lowest, 3.0)))
    else:
        u = PureQuadraticUtility(a=draw(st.floats(-2.0, -0.1)))
    return model, u, PowerWeighting(gamma=gamma)


@given(bracket_cases())
@settings(max_examples=80, deadline=None)
def test_exact_premium_is_bracketed_by_the_window(case):
    model, u, w = case
    note(f"{model.label()} {u.label()} {w.label()}")
    premium = rdu_valuation(model, RduContext(u=u, w=w), phi=1.0, method="exact").premium
    distorted_u = rdu_expected_utility(model, u, w)
    mu = model.mean()
    lo, hi, _ = model.integration_interval()
    assert lo - mu <= premium <= hi - mu
    assert np.sign(premium) == np.sign(float(u.u(mu)) - distorted_u)
    assert abs(float(u.u(mu + premium)) - distorted_u) <= DEFAULT_TOLERANCE.scale(distorted_u)
