import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cotv import numerics
from cotv.errors import (
    CotvError,
    NoBracketError,
    NonConvergenceError,
    NonFiniteError,
    ValidationError,
)
from cotv.numerics import (
    DEFAULT_TOLERANCE,
    RngStream,
    Tolerance,
    expand_bracket,
    find_root,
    integrate,
    mc_estimate,
)
from cotv.preferences import PowerUtility, QuadraticUtility

# the unit roundoff 2^-53
EPS = 2.0 ** -53


class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_TOLERANCE.abs_tol == 1e-10
        assert DEFAULT_TOLERANCE.rel_tol == 1e-8
        assert DEFAULT_TOLERANCE.max_iter == 200

    def test_rejects_all_zero(self):
        with pytest.raises(ValidationError):
            Tolerance(abs_tol=0.0, rel_tol=0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Tolerance(abs_tol=-1e-3)

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValidationError):
            Tolerance(max_iter=0)


class TestIntegrate:
    def test_linear_polynomial(self):
        assert integrate(lambda t: t, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_exponential_tail(self):
        # truncation point chosen so the dropped tail is below 1e-12
        upper = -math.log(1e-13)
        value = integrate(lambda t: np.exp(-t), 0.0, upper)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_weighted_polynomial(self):
        # antiderivative 2t^3/3 - t^2/2 gives exactly 1/6
        value = integrate(lambda t: (t - 0.5) * 2.0 * t, 0.0, 1.0)
        assert value == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_requires_ordered_bounds(self):
        with pytest.raises(ValidationError):
            integrate(lambda t: t, 1.0, 0.0)

    def test_rejects_non_finite_integrand(self):
        with pytest.raises(NonFiniteError):
            integrate(lambda t: np.where(t > 0.5, np.nan, 1.0), 0.0, 1.0)

    def test_non_convergence_on_jump(self):
        tol = Tolerance(abs_tol=1e-14, rel_tol=0.0, max_iter=4)
        with pytest.raises(NonConvergenceError):
            integrate(lambda t: np.sign(t - 1.0 / 3.0), 0.0, 1.0, tol)

    def test_info_diagnostics(self):
        info = {}
        integrate(lambda t: np.exp(-t), 0.0, 10.0, info=info)
        assert info["panels"] >= 3
        assert info["max_depth"] >= 0

    @given(
        coeffs_f=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
        coeffs_g=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
        alpha=st.floats(-5, 5),
        beta=st.floats(-5, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, coeffs_f, coeffs_g, alpha, beta):
        f = np.polynomial.Polynomial(coeffs_f)
        g = np.polynomial.Polynomial(coeffs_g)
        combined = integrate(lambda t: alpha * f(t) + beta * g(t), 0.0, 2.0)
        separate = alpha * integrate(f, 0.0, 2.0) + beta * integrate(g, 0.0, 2.0)
        assert combined == pytest.approx(separate, abs=1e-8, rel=1e-8)


def polynomial_integral(coeffs, lo, hi):
    """The integral of the polynomial ``coeffs`` on ``[lo, hi]``, in exact
    rational arithmetic on the float inputs, and the rounding of its
    antiderivative F(t) = sum c_k t^(k+1) / (k+1) in double precision:
    Horner's bound gamma_(2n) on F's n = len(coeffs) + 1 coefficients at
    each end, plus the division c_k / (k+1) and the difference, over
    M = sum |c_k| (|lo|^(k+1) + |hi|^(k+1)) / (k+1)."""
    a, b = Fraction(lo), Fraction(hi)
    exact = sum(Fraction(c) * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                for k, c in enumerate(coeffs))
    magnitude = sum(abs(c) * (abs(lo) ** (k + 1) + abs(hi) ** (k + 1)) / (k + 1)
                    for k, c in enumerate(coeffs))
    n = len(coeffs) + 1
    return float(exact), (2 * n + 2) * EPS * magnitude


def exponential_integral(rate, lo, hi):
    """The integral of exp(rate t) on ``[lo, hi]`` to 60 digits, and the
    rounding of its antiderivative e^(rate lo) expm1(rate w) / rate, w =
    hi - lo, in double precision: one rounding for each of its seven
    operations, and those of rate lo and rate w again as exp and expm1
    carry them, |rate lo| and |rate w| relative."""
    with localcontext() as ctx:
        ctx.prec = 60
        r, a, w = Decimal(rate), Decimal(lo), Decimal(hi) - Decimal(lo)
        x = r * w
        # (e^x - 1) / x, by its series where e^x - 1 would cancel
        ratio = (x.exp() - 1) / x if abs(x) > Decimal("1e-10") else 1 + x / 2 + x * x / 6
        exact = float((r * a).exp() * w * ratio)
    return exact, (abs(rate * lo) + abs(rate * (hi - lo)) + 7) * EPS * abs(exact)


class TestClosedForms:
    """``integrate`` against closed-form integrals: within ``tol.scale`` of
    the exact value, plus the rounding of the antiderivative, the scale of
    what double precision resolves of the integral; for a polynomial of
    degree 30 or more, the rule's error past the accepted discrepancy is
    about 2^-30 of it, inside that rounding."""

    @given(
        coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=40),
        lo=st.floats(-10, 10),
        width=st.floats(1e-3, 20),
        rel_tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_polynomials(self, coeffs, lo, width, rel_tol):
        tol, hi = Tolerance(rel_tol=rel_tol), lo + width
        exact, rounding = polynomial_integral(coeffs, lo, hi)
        value = integrate(np.polynomial.Polynomial(coeffs), lo, hi, tol)
        assert abs(value - exact) <= tol.scale(exact) + rounding

    @given(
        rate=st.floats(-20, 20),
        lo=st.floats(-10, 10),
        width=st.floats(1e-3, 20),
        rel_tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exponentials(self, rate, lo, width, rel_tol):
        tol, hi = Tolerance(rel_tol=rel_tol), lo + width
        exact, rounding = exponential_integral(rate, lo, hi)
        value = integrate(lambda t: np.exp(rate * t), lo, hi, tol)
        assert abs(value - exact) <= tol.scale(exact) + rounding


class TestBisection:
    """Fixed outcomes of the depth-first bisection: the budget it keeps,
    the panel it raises on and the caps it stops at."""

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: np.sin(x) / (1.0 + x * x), -7.0, 13.0),
        (lambda x: np.sin(x) * np.exp(-0.1 * x * x), -6.0, 9.0),
    ])
    def test_budget_grows_with_the_running_total(self, f, lo, hi):
        # The window's estimate cancels, so |total| overtakes it: each
        # bisection asks for the budget of the larger of the two, which
        # never falls and ends far above the window's.
        references = []

        class Recording(Tolerance):
            def scale(self, reference):
                references.append(reference)
                return super().scale(reference)

        info = {}
        integrate(f, lo, hi, Recording(), info)
        assert len(references) == (info["panels"] - 1) // 2
        assert references == sorted(references)
        assert max(references) > 20.0 * references[0]

    def test_endpoint_singularity(self):
        with pytest.raises(NonConvergenceError, match="at depth 200$"):
            integrate(lambda t: 1.0 / np.sqrt(t), 0.0, 1.0)

    @pytest.mark.parametrize("bad, max_iter, error", [
        (lambda t: t > 0.5, 200, "non-finite values on [0, 1]"),
        (lambda t: t > 0.996, 200, "non-finite values on [0.5, 1]"),
        (lambda t: (0.95 < t) & (t < 0.951), 200, "non-finite values on [0.875, 1]"),
        # first seen on a quarter of [0, 1], reached after the right half
        (lambda t: t < 0.002, 200, "non-finite values on [0, 0.25]"),
        (lambda t: t < 0.002, 4, "did not converge on [0.875, 1] at depth 4"),
    ], ids=["window", "half", "deep", "deferred", "depth-first"])
    def test_non_finite_panel(self, bad, max_iter, error):
        def f(t):
            return np.where(bad(t), np.nan, np.exp(-((t - 0.9) / 0.01) ** 2))

        kind = NonConvergenceError if "converge" in error else NonFiniteError
        with pytest.raises(kind, match=re.escape(error)):
            integrate(f, 0.0, 1.0, Tolerance(max_iter=max_iter))

    def test_depth_limit(self):
        tol = Tolerance(abs_tol=1e-14, rel_tol=0.0, max_iter=4)
        with pytest.raises(NonConvergenceError, match=re.escape(
                "quadrature did not converge on [0.25, 0.375] at depth 4")):
            integrate(lambda t: np.sign(t - 1.0 / 3.0), 0.0, 1.0, tol)

    def test_panel_budget(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_PANELS", 2_001)
        with pytest.raises(NonConvergenceError,
                           match="^quadrature panel budget exhausted$"):
            integrate(lambda t: 1.0 / t, 0.0, 1.0)


def outcome(f, lo, hi, tol=None):
    """Bits and ``info`` of an integral, or its error class and message."""
    info = {}
    try:
        value = integrate(f, lo, hi, tol, info)
    except CotvError as exc:
        return type(exc), str(exc)
    return value.hex(), info


class TestEstimates:
    """Each panel's estimate: the Gauss weights against the integrand's
    values at its 15 nodes."""

    @pytest.mark.parametrize("value", [2.5, -1e300, 5e-324, np.inf, np.nan])
    def test_constant_integrand_broadcasts(self, value):
        # one value for all the nodes integrates as the array of it does,
        # and a non-finite one raises on the window
        result = outcome(lambda t: value, -0.5, 3.0)
        assert result == outcome(lambda t: np.full_like(t, value), -0.5, 3.0)
        if not np.isfinite(value):
            assert result == (NonFiniteError,
                              "integrand returned non-finite values on [-0.5, 3]")

    @given(
        coeffs=st.lists(st.floats(0, 3), min_size=1, max_size=30),
        lo=st.floats(0, 10),
        width=st.floats(1e-3, 20),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_degree_29_ends_at_the_first_bisection(self, coeffs, lo, width):
        # the 15-point rule is exact to degree 29, so the window and its
        # halves differ by rounding alone: with coefficients and nodes of
        # one sign nothing cancels, and that rounding, under 1e-13 of the
        # integral, is inside the budget of rel_tol 1e-12
        info = {}
        integrate(np.polynomial.Polynomial(coeffs), lo, lo + width,
                  Tolerance(rel_tol=1e-12), info)
        assert info == {"panels": 3, "max_depth": 0}


class TestNodes:
    def test_table_is_leggauss_15_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(15)
        assert numerics._NODES.tobytes() == nodes.tobytes()
        assert numerics._WEIGHTS.tobytes() == weights.tobytes()

    @given(ends=st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_panel_nodes_lie_inside_it_in_order(self, ends):
        a, b = sorted(ends)
        assume(a < b)
        seen = []

        def f(t):
            seen.append(t)
            return np.zeros_like(t)

        numerics._panel(f, a, b)
        (x,) = seen
        assert a <= x[0] and x[-1] <= b
        assert (np.diff(x) >= 0).all()


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_sqrt_two(self):
        root = find_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-7)

    def test_premium_equation_closed_form(self):
        # E[u(t)] = u(mu + pi) for u = -t^2, mu = 1, sigma = 0.5:
        # (1 + pi)^2 = 1.25, so pi = sqrt(1.25) - 1
        expected_u = -(1.0**2 + 0.5**2)

        def gap(pi):
            return expected_u - (-((1.0 + pi) ** 2))

        root = find_root(gap, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(1.25) - 1.0, abs=1e-6)
        assert root == pytest.approx(0.118034, abs=1e-6)

    def test_endpoint_root(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_no_bracket(self):
        with pytest.raises(NoBracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            find_root(lambda x: float("nan"), -1.0, 1.0)

    def test_non_convergence(self):
        tol = Tolerance(abs_tol=1e-300, rel_tol=1e-300, max_iter=3)
        with pytest.raises(NonConvergenceError):
            find_root(lambda x: math.tanh(x) - 0.5, -10.0, 10.0, tol)

    @given(shift=st.floats(-0.9, 0.9), scale=st.floats(0.1, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_root_stays_in_bracket(self, shift, scale):
        root = find_root(lambda x: scale * (x - shift) ** 3 + (x - shift), -1.0, 1.0)
        assert -1.0 <= root <= 1.0
        assert root == pytest.approx(shift, abs=1e-6)

    def test_root_at_upper_end(self):
        assert find_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_iterations(self):
        info = {}
        root = find_root(lambda x: x * x - 2.0, 0.0, 2.0, info=info)
        assert abs(root - math.sqrt(2.0)) <= DEFAULT_TOLERANCE.scale(root)
        assert 1 <= info["iterations"] <= 10

    def test_invalid_bracket_message(self):
        with pytest.raises(ValidationError, match=r"^bracket requires lo < hi, got \[1.0, 1.0\]$"):
            find_root(lambda x: x, 1.0, 1.0)

    def test_no_bracket_message(self):
        with pytest.raises(NoBracketError, match=(
                r"^no sign change on \[-1, 2\]: g\(lo\)=2, g\(hi\)=5$")):
            find_root(lambda x: x * x + 1.0, -1.0, 2.0)

    def test_non_finite_end_message(self):
        with pytest.raises(NonFiniteError,
                           match="^function returned non-finite value at a bracket end$"):
            find_root(lambda x: math.inf if x > 0 else -1.0, -1.0, 1.0)

    def test_non_finite_inside_message(self):
        # the secant through the ends lands on 0
        with pytest.raises(NonFiniteError,
                           match="^function returned non-finite value at 0$"):
            find_root(lambda x: x if abs(x) > 0.5 else math.nan, -1.0, 1.0)

    def test_non_convergence_message(self):
        tol = Tolerance(abs_tol=1e-300, rel_tol=1e-300, max_iter=3)
        with pytest.raises(NonConvergenceError,
                           match="^root finding did not converge within 3 iterations$"):
            find_root(lambda x: math.tanh(x) - 0.5, -10.0, 10.0, tol)


def _assert_matches_brentq(g, lo, hi):
    """``find_root`` stays in the bracket and within ``tol.scale(root)`` of
    a full-precision ``scipy.optimize.brentq`` root, whatever the slope of
    ``g`` there.
    """
    from scipy.optimize import brentq

    root = find_root(g, lo, hi)
    oracle = brentq(g, lo, hi, xtol=1e-20, rtol=8.9e-16)
    assert lo <= root <= hi
    assert abs(root - oracle) <= DEFAULT_TOLERANCE.scale(root)


utilities = st.one_of(
    st.builds(QuadraticUtility, a=st.floats(-3.0, -0.5), b=st.floats(-2.0, 0.0)),
    st.builds(PowerUtility, exponent=st.floats(1.05, 4.0)))


def _assert_premium_gap_root_matches_brentq(u, low, high, weight):
    """The premium gap of a two-point service time, on the bracket
    eu._solve_premium takes for a concave u, where the premium lies in
    [0, high - mu]."""
    mu = weight * low + (1.0 - weight) * high
    expected_u = weight * float(u.u(low)) + (1.0 - weight) * float(u.u(high))

    def gap(pi):
        return float(u.u(mu + pi)) - expected_u

    _assert_matches_brentq(gap, 0.0, max(high - mu, 1e-6))


# |u'(t)| >= 1 for t >= 1
@given(u=utilities, low=st.floats(1.0, 5.0), spread=st.floats(0.01, 10.0),
       weight=st.floats(0.05, 0.95))
@settings(max_examples=150, deadline=None)
def test_premium_gap_root_matches_brentq(u, low, spread, weight):
    _assert_premium_gap_root_matches_brentq(u, low, low + spread, weight)


# |u'| < 1 on the whole bracket: a stop on |g| <= abs_tol, as find_root had
# before it took Brent's g == 0, lands up to abs_tol / |u'| from the root.
# The example is such a case: power(4) on {0.5, 0.5625}, where that stop
# returned 0.0027377077213543, 1.13 tol.scale from brentq's
# 0.0027377078338980.
@given(u=st.builds(PowerUtility, exponent=st.floats(1.05, 4.0)),
       low=st.floats(0.01, 0.3), spread=st.floats(0.001, 0.3),
       weight=st.floats(0.05, 0.95))
@example(u=PowerUtility(4.0), low=0.5, spread=0.0625, weight=0.5)
@settings(max_examples=150, deadline=None)
def test_flat_premium_gap_root_matches_brentq(u, low, spread, weight):
    assume(abs(float(u.du(low + spread))) < 1.0)
    _assert_premium_gap_root_matches_brentq(u, low, low + spread, weight)


@given(cubic=st.floats(0.1, 5.0), linear=st.floats(1.0, 5.0),
       curvature=st.floats(-0.9, 0.9), sign=st.sampled_from([1.0, -1.0]),
       shift=st.floats(-5.0, 5.0), below=st.floats(0.01, 10.0),
       above=st.floats(0.01, 10.0))
@settings(max_examples=150, deadline=None)
def test_monotone_cubic_root_matches_brentq(cubic, linear, curvature, sign, shift,
                                            below, above):
    # b^2 < 3ac keeps a x^3 + b x^2 + c x monotone
    quadratic = curvature * math.sqrt(3.0 * cubic * linear)

    def g(x):
        y = x - shift
        return sign * ((cubic * y + quadratic) * y + linear) * y

    _assert_matches_brentq(g, shift - below, shift + above)


class TestExpandBracket:
    def test_expands_to_negative_side(self):
        a, b = expand_bracket(lambda x: x + 5.0, 0.0, 1.0)
        assert a <= -5.0 <= b

    def test_no_sign_change(self):
        with pytest.raises(NoBracketError):
            expand_bracket(lambda x: 1.0 + x * x, 0.0, 1.0, max_steps=10)


class TestRngStream:
    def test_validates_seed(self):
        with pytest.raises(ValidationError):
            RngStream(seed=-1)
        with pytest.raises(ValidationError):
            RngStream(seed=2**64)

    def test_reproducible_bit_exact(self):
        a = RngStream(seed=123, stream_id=4).generator().random(1000)
        b = RngStream(seed=123, stream_id=4).generator().random(1000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(seed=123, stream_id=0).generator().random(1000)
        b = RngStream(seed=123, stream_id=1).generator().random(1000)
        assert not np.array_equal(a, b)


class TestMcEstimate:
    def test_exponential_mean(self):
        def sampler(gen, n):
            return gen.exponential(1.0, size=n)

        result = mc_estimate(sampler, lambda x: x, 1_000_000, RngStream(seed=5))
        assert abs(result.estimate - 1.0) <= 3.0 * result.std_error

    def test_degenerate(self):
        result = mc_estimate(lambda gen, n: np.full(n, 5.0), lambda x: x,
                             100, RngStream(seed=1))
        assert result.estimate == 5.0
        assert result.std_error == 0.0

    def test_order_statistic_uniform(self):
        # E[max(t1, t2)] - E[t] = 1/6 for uniform(0, 1)
        def sampler(gen, n):
            return gen.random((n, 2))

        result = mc_estimate(sampler, lambda x: x.max(axis=1) - x.mean(axis=1),
                             1_000_000, RngStream(seed=11))
        assert abs(result.estimate - 1.0 / 6.0) <= 3.0 * result.std_error

    def test_reproducibility(self):
        def sampler(gen, n):
            return gen.exponential(2.0, size=n)

        first = mc_estimate(sampler, lambda x: x, 10_000, RngStream(seed=9, stream_id=2))
        second = mc_estimate(sampler, lambda x: x, 10_000, RngStream(seed=9, stream_id=2))
        assert first.estimate == second.estimate
        assert first.std_error == second.std_error

    def test_requires_two_draws(self):
        with pytest.raises(ValidationError):
            mc_estimate(lambda gen, n: np.zeros(n), lambda x: x, 1, RngStream(seed=0))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            mc_estimate(lambda gen, n: np.full(n, np.inf), lambda x: x,
                        10, RngStream(seed=0))
