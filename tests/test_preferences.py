import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cotv.errors import (
    DerivativeZeroError,
    DomainError,
    MonotonicityError,
    UndefinedCoefficientError,
    ValidationError,
)
from cotv.preferences import (
    AffineUtility,
    ConstantPrudenceUtility,
    IdentityWeighting,
    InverseSWeighting,
    PowerUtility,
    PowerWeighting,
    PureQuadraticUtility,
    QuadraticUtility,
    UtilityFunction,
    classify_moment_preference,
    classify_risk_attitude,
    eta_from_coefficients,
    risk_coefficients,
    weighting_derivative_ratio,
)

from oracles import central_diff, inverse_s_slope


class CubicDisutility(UtilityFunction):
    """u = -t^3: risk-averse but imprudent; used only by tests."""

    family = "cubic"

    def u(self, t):
        return -np.asarray(t, dtype=float) ** 3

    def du(self, t):
        return -3.0 * np.asarray(t, dtype=float) ** 2

    def d2u(self, t):
        return -6.0 * np.asarray(t, dtype=float)

    def d3u(self, t):
        return np.full_like(np.asarray(t, dtype=float), -6.0)

    def params(self):
        return {}


UTILITIES = [
    QuadraticUtility(a=-1.0, b=-1.0, c=2.0),
    PureQuadraticUtility(a=-0.5),
    PowerUtility(exponent=1.5),
    PowerUtility(exponent=2.7),
    ConstantPrudenceUtility(prudence=1.0),
    ConstantPrudenceUtility(prudence=2.0),
    ConstantPrudenceUtility(prudence=3.0, curvature=0.7, slope_at_one=-2.0),
    AffineUtility(slope=1.5, intercept=3.0),
]

WEIGHTINGS = [
    IdentityWeighting(),
    PowerWeighting(gamma=0.5),
    PowerWeighting(gamma=2.0),
    InverseSWeighting(gamma=0.61),
    InverseSWeighting(gamma=0.7),
    InverseSWeighting(gamma=1.3),
]


class TestUtilityDerivatives:
    @pytest.mark.parametrize("u", UTILITIES, ids=lambda u: u.label())
    def test_derivatives_match_finite_differences(self, u):
        lo, hi = u.interval
        grid = np.linspace(max(lo, 0.5), min(hi, 20.0), 9)
        h = 1e-5
        for t in grid:
            assert float(u.du(t)) == pytest.approx(
                central_diff(lambda s: float(u.u(s)), t, h), rel=1e-6, abs=1e-8)
            assert float(u.d2u(t)) == pytest.approx(
                central_diff(lambda s: float(u.du(s)), t, h), rel=1e-6, abs=1e-8)
            assert float(u.d3u(t)) == pytest.approx(
                central_diff(lambda s: float(u.d2u(s)), t, h), rel=1e-6, abs=1e-8)

    def test_quadratic_parameter_validation(self):
        with pytest.raises(ValidationError):
            QuadraticUtility(a=1.0)
        with pytest.raises(ValidationError):
            QuadraticUtility(a=-1.0, b=0.5)

    def test_power_requires_exponent_above_one(self):
        with pytest.raises(ValidationError):
            PowerUtility(exponent=1.0)

    def test_constant_prudence_monotonicity_failure_is_loud(self):
        # below t = 1 the slope climbs; a wide-left interval cannot be certified
        with pytest.raises(MonotonicityError):
            ConstantPrudenceUtility(prudence=3.0, interval=(0.1, 10.0))

    def test_affine_slope_validation(self):
        with pytest.raises(ValidationError):
            AffineUtility(slope=0.0)


class TestRiskCoefficients:
    def test_pure_quadratic_at_one(self):
        profile = risk_coefficients(PureQuadraticUtility(a=-1.0), 1.0)
        assert profile.rel_risk_aversion == pytest.approx(1.0)
        assert profile.rel_prudence == pytest.approx(0.0)
        assert profile.risk_averse and profile.prudent

    def test_general_quadratic(self):
        # u' = -3, u'' = -2 at t = 1, so R2 = 2/3
        profile = risk_coefficients(QuadraticUtility(a=-1.0, b=-1.0), 1.0)
        assert profile.rel_risk_aversion == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("t", [0.7, 1.0, 2.3])
    def test_power_identities(self, t):
        for k in (1.2, 1.5, 2.5, 3.0):
            profile = risk_coefficients(PowerUtility(exponent=k), t)
            assert profile.rel_risk_aversion == pytest.approx(k - 1.0, rel=1e-12)
            assert profile.rel_prudence == pytest.approx(2.0 - k, rel=1e-12, abs=1e-12)

    def test_constant_prudence_is_constant(self):
        u = ConstantPrudenceUtility(prudence=2.5)
        for t in (1.5, 4.0, 9.0):
            assert risk_coefficients(u, t).rel_prudence == pytest.approx(2.5, rel=1e-12)

    def test_affine_marks_prudence_undefined(self):
        profile = risk_coefficients(AffineUtility(), 2.0)
        assert profile.abs_risk_aversion == 0.0
        assert profile.abs_prudence is None
        assert profile.rel_prudence is None

    def test_derivative_zero_raises(self):
        quad = QuadraticUtility(a=-1.0, b=0.0)
        with pytest.raises(DerivativeZeroError):
            risk_coefficients(quad, 0.0)  # u'(0) = b = 0

    def test_quadratic_rra_between_zero_and_one(self):
        for a in (-0.2, -1.0, -5.0):
            for b in (0.0, -0.5, -3.0):
                u = QuadraticUtility(a=a, b=b)
                for t in np.linspace(0.1, 50.0, 23):
                    r2 = risk_coefficients(u, float(t)).rel_risk_aversion
                    assert 0.0 <= r2 <= 1.0 + 1e-12

    def test_d3_sign_surfaced(self):
        assert risk_coefficients(PowerUtility(1.5), 1.0).d3_sign == 1
        assert risk_coefficients(PureQuadraticUtility(-1.0), 1.0).d3_sign == 0


class TestRiskAttitude:
    def test_pure_quadratic_boundary_prudent(self):
        attitude = classify_risk_attitude(PureQuadraticUtility(a=-1.0))
        assert attitude.risk_averse and attitude.prudent

    def test_power_is_averse_and_prudent(self):
        attitude = classify_risk_attitude(PowerUtility(exponent=1.5))
        assert attitude.risk_averse and attitude.prudent

    def test_cubic_is_averse_but_imprudent(self):
        attitude = classify_risk_attitude(CubicDisutility(interval=(0.0, 10.0)))
        assert attitude.risk_averse
        assert not attitude.prudent


class TestMomentPreference:
    def test_low_rra_prefers_mean(self):
        profile = risk_coefficients(PowerUtility(exponent=1.5), 1.0)
        assert classify_moment_preference(profile).mean_vs_variance == "mean-priority"

    def test_benchmark_is_indifferent(self):
        profile = risk_coefficients(PureQuadraticUtility(a=-1.0), 1.0)
        labels = classify_moment_preference(profile)
        assert labels.mean_vs_variance == "indifferent"

    def test_high_prudence_prefers_skewness(self):
        profile = risk_coefficients(ConstantPrudenceUtility(prudence=2.5), 2.0)
        assert (classify_moment_preference(profile).variance_vs_skewness
                == "skewness-priority")

    def test_undefined_coefficient(self):
        profile = risk_coefficients(AffineUtility(), 1.0)
        with pytest.raises(UndefinedCoefficientError):
            classify_moment_preference(profile)

    @given(alpha=st.floats(0.1, 10.0), beta=st.floats(-5.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_positive_affine_rescaling(self, alpha, beta):
        # alpha*u + beta of a quadratic is again quadratic with scaled terms
        base = QuadraticUtility(a=-2.0, b=-1.0, c=0.5)
        scaled = QuadraticUtility(a=alpha * -2.0, b=alpha * -1.0,
                                  c=alpha * 0.5 + beta)
        for t in (0.4, 1.0, 3.0):
            left = classify_moment_preference(risk_coefficients(base, t))
            right = classify_moment_preference(risk_coefficients(scaled, t))
            assert left == right


class TestWeightingFunctions:
    @pytest.mark.parametrize("w", WEIGHTINGS, ids=lambda w: w.label())
    def test_endpoints_and_monotonicity(self, w):
        assert float(w.w(0.0)) == pytest.approx(0.0, abs=1e-12)
        assert float(w.w(1.0)) == pytest.approx(1.0, abs=1e-12)
        grid = np.linspace(0.01, 0.99, 99)
        assert np.all(np.asarray(w.dw(grid)) > 0)

    @pytest.mark.parametrize("w", WEIGHTINGS, ids=lambda w: w.label())
    def test_derivatives_match_finite_differences(self, w):
        h = 1e-5
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert float(w.dw(p)) == pytest.approx(
                central_diff(lambda q: float(w.w(q)), p, h), rel=1e-6, abs=1e-9)
            assert float(w.d2w(p)) == pytest.approx(
                central_diff(lambda q: float(w.dw(q)), p, h), rel=1e-6, abs=1e-7)

    def test_non_monotone_inverse_s_rejected(self):
        with pytest.raises(ValidationError):
            InverseSWeighting(gamma=0.2)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7, 0.75, 0.9, 1.0, 1.3, 2.0])
    def test_inverse_s_slope_equals_reference_bit_for_bit(self, gamma):
        gen = np.random.default_rng(11)
        edges = [0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-16, 1.0]
        grid = np.concatenate([gen.random(1000), edges])
        w = InverseSWeighting(gamma)
        for p in (grid, np.asarray(0.3), 0.3, 0.0):
            with np.errstate(all="ignore"):
                got = w.dw(p)
                want = inverse_s_slope(gamma, p)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestWeightingDerivativeRatio:
    def test_identity_is_zero(self):
        assert weighting_derivative_ratio(IdentityWeighting(), 0.37) == 0.0

    def test_square_at_half(self):
        # w'' = 2, w'(1/2) = 1
        assert weighting_derivative_ratio(PowerWeighting(2.0), 0.5) == pytest.approx(2.0)

    def test_sqrt_at_quarter(self):
        # w = sqrt(p): ratio is -1/(2 p0)
        assert weighting_derivative_ratio(PowerWeighting(0.5), 0.25) == pytest.approx(-2.0)

    def test_domain_error_at_endpoints(self):
        with pytest.raises(DomainError):
            weighting_derivative_ratio(PowerWeighting(2.0), 0.0)
        with pytest.raises(DomainError):
            weighting_derivative_ratio(PowerWeighting(2.0), 1.0)


class TestEtaFromCoefficients:
    def test_threshold_values(self):
        assert eta_from_coefficients(1.0, 2.0, 1.0) == pytest.approx(0.5)
        assert eta_from_coefficients(1.0, 6.0, 1.0) == pytest.approx(0.25)

    def test_zero_product_gives_one(self):
        assert eta_from_coefficients(1.0, 0.0, 0.7) == 1.0


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


COEFFICIENTS = st.floats(1e-100, 1e100)
TIMES = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     1e154, 1.4e154, 1e300, 1.7976931348623157e308]),
)
POLYNOMIALS = st.one_of(
    st.builds(lambda a, b, c: QuadraticUtility(-a, -b, c),
              COEFFICIENTS, st.one_of(st.just(0.0), COEFFICIENTS),
              st.floats(-1e100, 1e100)),
    st.builds(lambda a, c: PureQuadraticUtility(-a, c),
              COEFFICIENTS, st.floats(-1e100, 1e100)),
    st.builds(AffineUtility, COEFFICIENTS, st.floats(-1e100, 1e100)),
)


class TestPolynomialsOnFloats:
    """The polynomial families keep a Python float a Python float, with the
    bits numpy gives for a 0-d array and for an element of a 1-d array."""

    @given(POLYNOMIALS, TIMES, TIMES)
    @settings(max_examples=300, deadline=None)
    def test_float_matches_numpy_bit_for_bit(self, u, t, other):
        for name in ("u", "du", "d2u", "d3u"):
            method = getattr(u, name)
            with np.errstate(all="ignore"):
                value = method(t)
                zero_d = method(np.asarray(t))
                vector = method(np.array([other, t]))
            if np.isfinite(value):
                assert type(value) is float, name
            assert _bits(value) == _bits(zero_d) == _bits(vector[1]), (name, t)

    def test_overflow_still_warns(self):
        u = PureQuadraticUtility(a=-1.0)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert u.u(1e200) == -np.inf


# Finite times, with |slope * t| at most 1e300: zero, negative times, and
# times past 1.3e154, where t * t overflows while -m t + c stays finite.
AFFINE_TIMES = st.one_of(
    st.floats(-1e200, 1e200),
    st.sampled_from([0.0, -0.0, -1.0, 1.4e154, 1e160, -1e160, 1e200, -1e200]),
)


class TestAffineIsTheZeroQuadratic:
    """AffineUtility shares du, d2u and d3u with the quadratic utilities
    (a = 0, b = -m, c) and keeps its own u."""

    @given(COEFFICIENTS, st.floats(-1e100, 1e100), AFFINE_TIMES)
    @example(1.0, 0.0, 1e160)
    @example(2.5, -3.0, -1e200)
    @settings(max_examples=300, deadline=None)
    def test_values_are_minus_m_t_plus_c_bit_for_bit(self, m, c, t):
        u = AffineUtility(m, c)
        expected = {"u": -m * t + c, "du": -m, "d2u": 0.0, "d3u": 0.0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, want in expected.items():
                method = getattr(u, name)
                value, array = method(t), method(np.array([0.0, t]))
                assert type(value) is float, name
                assert _bits(value) == _bits(want) == _bits(array[1]), (name, t)

    def test_keeps_its_parameters_and_no_bound(self):
        u = AffineUtility(slope=2.0, intercept=3.0)
        assert (u.slope, u.intercept) == (2.0, 3.0)
        assert (u.a, u.b, u.c) == (0.0, -2.0, 3.0)
        assert u.params() == {"slope": 2.0, "intercept": 3.0}
        assert u.label() == "affine(slope=2,intercept=3)"
        assert not isinstance(u, QuadraticUtility)
        assert {"du", "d2u", "d3u"}.isdisjoint(vars(AffineUtility))


@pytest.mark.parametrize("u, basis", [
    (QuadraticUtility(a=-0.5, b=-0.2, c=1.5), (-0.5, -0.2, 1.5)),
    (PureQuadraticUtility(a=-1.0, c=2.0), (-1.0, 0.0, 2.0)),
    (AffineUtility(slope=2.0, intercept=3.0), (0.0, -2.0, 3.0)),
    (PowerUtility(exponent=1.5), None),
    (ConstantPrudenceUtility(prudence=2.0), None),
], ids=lambda value: getattr(value, "family", ""))
def test_basis_coefficients(u, basis):
    # u = a t^2 + b t + c on the polynomial families, no basis otherwise
    assert u.basis == basis
