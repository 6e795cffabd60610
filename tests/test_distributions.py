import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as ss
from scipy.special import gammainc, gammaincc, gammaincinv, gammainccinv, ndtr, ndtri

from cotv.distributions import (
    TAIL_MASS,
    _ndtr,
    _ndtri,
    _ndtri_one,
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
    dual_moment_mean,
    dual_moment_variance,
    moments,
)
from cotv.errors import (
    MassError,
    MetadataMissingError,
    NonFiniteError,
    UndefinedCVError,
    ValidationError,
    ZeroMeanError,
)
from cotv.numerics import DEFAULT_TOLERANCE, RngStream, Tolerance, mc_estimate
from cotv.preferences import InverseSWeighting, PowerWeighting

from oracles import (
    DUAL_MOMENTS,
    GAMMA_HALF_SHAPE_PQ,
    GAMMA_TINY_P_QUANTILES,
    brute_pairwise_dual_mean,
    lognormal_dual_mean,
)

TIGHT = Tolerance(abs_tol=1e-12, rel_tol=1e-11, max_iter=400)

CONTINUOUS_GRID = [
    Exponential(rate=0.5),
    Exponential(rate=1.0),
    Exponential(rate=2.0),
    Uniform(0.0, 1.0),
    Uniform(0.5, 3.5),
    LogNormal(log_mean=0.0, log_sd=0.25),
    LogNormal(log_mean=0.2, log_sd=0.5),
    LogNormal(log_mean=-0.1, log_sd=0.7),
    Gamma(shape=1.0, rate=1.0),
    Gamma(shape=4.0, rate=2.0),
    Gamma(shape=9.0, rate=3.0),
]


class TestFamilyMoments:
    def test_exponential(self):
        mset = moments(Exponential(rate=1.0))
        assert mset.mu == 1.0
        assert mset.variance == 1.0
        assert mset.cv == 1.0
        assert mset.skewness == 2.0

    def test_degenerate(self):
        mset = moments(Degenerate(5.0))
        assert mset.mu == 5.0
        assert mset.variance == 0.0
        assert mset.cv == 0.0
        assert mset.m2_dual_mean == 0.0
        assert mset.m2_dual_var == 0.0

    def test_uniform(self):
        mset = moments(Uniform(0.0, 1.0))
        assert mset.mu == 0.5
        assert mset.variance == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_shifted_scaled(self):
        base = Uniform(0.0, 1.0)
        model = ShiftedScaled(base, loc=2.0, scale=3.0)
        assert model.mean() == pytest.approx(3.5)
        assert model.variance() == pytest.approx(9.0 / 12.0)
        assert model.skewness() == 0.0
        assert model.support() == (2.0, 5.0)

    def test_undefined_cv(self):
        zero_mean = DiscreteModel([-1.0, 1.0], [0.5, 0.5])
        with pytest.raises(UndefinedCVError):
            moments(zero_mean)

    @pytest.mark.parametrize("model", CONTINUOUS_GRID, ids=lambda m: m.label())
    def test_quadrature_matches_closed_form(self, model):
        mu_q = model.expect(lambda t: t, TIGHT)
        var_q = model.expect(lambda t: (t - model.mean()) ** 2, TIGHT)
        third_q = model.expect(lambda t: (t - model.mean()) ** 3, TIGHT)
        assert mu_q == pytest.approx(model.mean(), rel=1e-8)
        assert var_q == pytest.approx(model.variance(), rel=1e-8)
        skew_q = third_q / model.variance() ** 1.5
        assert skew_q == pytest.approx(model.skewness(), rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("model", CONTINUOUS_GRID, ids=lambda m: m.label())
    def test_pdf_integrates_to_one(self, model):
        total = model.expect(lambda t: np.ones_like(np.asarray(t)), TIGHT)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("model", CONTINUOUS_GRID, ids=lambda m: m.label())
    def test_cdf_shape(self, model):
        lo, hi, _ = model.integration_interval()
        grid = np.linspace(lo, hi, 200)
        values = np.asarray(model.cdf(grid))
        assert np.all(np.diff(values) >= -1e-13)
        assert model.cdf(lo) <= 1e-12
        assert model.cdf(hi) >= 1.0 - 1e-9


class TestSampling:
    @pytest.mark.parametrize("model", [
        Exponential(1.0), Uniform(0.2, 1.8),
        LogNormal(0.0, 0.5), Gamma(4.0, 2.0),
    ], ids=lambda m: m.label())
    def test_kolmogorov_smirnov(self, model):
        sample = model.sample(RngStream(seed=2026, stream_id=3), 100_000)
        result = ss.kstest(sample, model.cdf)
        assert result.pvalue > 0.001

    def test_sample_reproducible(self):
        model = Gamma(2.0, 1.0)
        a = model.sample(RngStream(seed=8, stream_id=0), 50)
        b = model.sample(RngStream(seed=8, stream_id=0), 50)
        assert np.array_equal(a, b)

    def test_mass_on_non_negative_times(self):
        with pytest.raises(ValidationError):
            Uniform(-0.5, 1.0)
        with pytest.raises(ValidationError):
            Degenerate(-1.0)


class TestDualMoments:
    def test_uniform_mean(self):
        assert dual_moment_mean(Uniform(0.0, 1.0), TIGHT) == pytest.approx(
            1.0 / 6.0, abs=1e-10)

    def test_exponential_mean(self):
        # E[max of two iid exp(1)] = 3/2, so the dual moment is 1/2
        assert dual_moment_mean(Exponential(1.0), TIGHT) == pytest.approx(
            0.5, abs=1e-10)

    def test_degenerate(self):
        assert dual_moment_mean(Degenerate(7.0)) == 0.0
        assert dual_moment_variance(Degenerate(7.0)) == 0.0

    def test_uniform_variance(self):
        # polynomial antiderivative: integral of (t-1/2)^2 * 2t on [0,1] = 1/12
        assert dual_moment_variance(Uniform(0.0, 1.0), TIGHT) == pytest.approx(
            1.0 / 12.0, abs=1e-10)

    def test_exponential_variance(self):
        # E[(M-1)^2] with M = max of two iid exp(1): E[M^2] = 7/2, E[M] = 3/2
        assert dual_moment_variance(Exponential(1.0), TIGHT) == pytest.approx(
            1.5, abs=1e-9)

    def test_two_point_symmetric_variance(self):
        model = DiscreteModel([-2.0, 2.0], [0.5, 0.5])
        assert dual_moment_variance(model) == pytest.approx(4.0, abs=1e-14)

    def test_lognormal_closed_form(self):
        model = LogNormal(log_mean=0.2, log_sd=0.5)
        assert dual_moment_mean(model, TIGHT) == pytest.approx(
            lognormal_dual_mean(0.2, 0.5), abs=1e-10)

    @pytest.mark.parametrize("model", CONTINUOUS_GRID, ids=lambda m: m.label())
    def test_positive_unless_degenerate(self, model):
        # zero only for degenerate models; every spread model gains from
        # the better of two draws
        assert dual_moment_mean(model, TIGHT) > 1e-6

    @pytest.mark.parametrize("model", [
        Uniform(0.0, 1.0), Exponential(1.0), LogNormal(0.0, 0.5),
        Gamma(4.0, 2.0),
    ], ids=lambda m: m.label())
    def test_order_statistic_identity_monte_carlo(self, model):
        reference = dual_moment_mean(model, TIGHT)

        def sampler(gen, n):
            return model.draw(gen, 2 * n).reshape(n, 2)

        mc = mc_estimate(sampler, lambda pair: pair.max(axis=1) - pair.mean(axis=1),
                         1_000_000, RngStream(seed=314159, stream_id=1))
        assert abs(mc.estimate - reference) <= 3.0 * mc.std_error

    def test_discrete_dual_expect_matches_bruteforce(self):
        model = DiscreteModel([1.0, 1.0, 2.0, 5.0], [0.2, 0.3, 0.4, 0.1])
        mu = model.mean()
        value = model.dual_expect(lambda t: t - mu)
        assert value == pytest.approx(
            brute_pairwise_dual_mean(model.outcomes, model.probabilities),
            abs=1e-14)


FAMILIES = {"exponential": Exponential, "uniform": Uniform,
            "lognormal": LogNormal, "gamma": Gamma}


def _dual_model(family, params):
    if family.startswith("shifted_"):
        *base, loc, scale = params
        return ShiftedScaled(FAMILIES[family.removeprefix("shifted_")](*base), loc, scale)
    return FAMILIES[family](*params)


# the families and parameter ranges of the benchmark's report corpus
REPORT_MIX_MODELS = st.one_of(
    st.floats(0.2, 3.0).map(Exponential),
    st.tuples(st.floats(0.0, 5.0), st.floats(0.5, 10.0)).map(
        lambda p: Uniform(p[0], p[0] + p[1])),
    st.tuples(st.floats(0.0, 2.0), st.floats(0.25, 0.6)).map(lambda p: LogNormal(*p)),
    st.tuples(st.floats(1.5, 5.0), st.floats(0.3, 3.0)).map(lambda p: Gamma(*p)),
)


class TestClosedDualMoments:
    @pytest.mark.parametrize("family, params, mean, variance", DUAL_MOMENTS,
                             ids=[f"{family}{params}" for family, params, *_ in DUAL_MOMENTS])
    def test_within_1e14_of_mpmath(self, family, params, mean, variance):
        # the gamma's stated bound is 1e-15 at every pinned shape: below
        # 100 they are shapes where a + 1/2 and a + 1 are floats
        rel = 1e-15 if family.endswith("gamma") else 1e-14
        model = _dual_model(family, params)
        assert dual_moment_mean(model) == pytest.approx(mean, rel=rel, abs=0)
        assert dual_moment_variance(model) == pytest.approx(variance, rel=rel, abs=0)
        moment_set = moments(model)
        assert (moment_set.m2_dual_mean, moment_set.m2_dual_var) == \
            (dual_moment_mean(model), dual_moment_variance(model))

    @given(REPORT_MIX_MODELS)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_quadrature(self, model):
        tol = DEFAULT_TOLERANCE
        mu = model.mean()
        for power, closed in zip((1, 2), model._closed_dual_moments()):
            value = model.dual_expect(lambda t: (t - mu) ** power, tol)
            assert abs(value - closed) <= tol.scale(closed)

    def test_uniform_whose_variance_underflows_is_degenerate(self):
        # as quadrature had it: a zero variance gives zero dual moments
        model = Uniform(0.0, 1e-170)
        assert model.variance() == 0.0
        assert (dual_moment_mean(model), dual_moment_variance(model)) == (0.0, 0.0)


class TestDiscreteDualMomentFormula:
    def test_two_point(self):
        d = 1.5
        instance = build_dt_instance(t0=10.0, xi=[-d, d])
        assert discrete_dual_moment(instance) == pytest.approx(d / 2.0, abs=1e-15)

    def test_all_zero(self):
        instance = build_dt_instance(t0=10.0, xi=[0.0, 0.0, 0.0])
        assert discrete_dual_moment(instance) == 0.0

    def test_four_point_vs_bruteforce(self):
        xi = np.array([-3.0, -1.0, 1.0, 3.0])
        instance = build_dt_instance(t0=10.0, xi=xi)
        formula = discrete_dual_moment(instance)
        brute = brute_pairwise_dual_mean(xi, np.full(4, 0.25))
        assert formula == pytest.approx(brute, abs=1e-15)
        assert formula == pytest.approx(1.25, abs=1e-15)

    def test_variance_formula_two_point(self):
        # index formula uses right endpoints, sitting m2/n above the
        # pairwise order-statistic value at finite n
        d = 2.0
        instance = build_dt_instance(t0=10.0, xi=[-d, d])
        assert discrete_dual_moment_variance(instance) == pytest.approx(
            1.5 * d**2, abs=1e-14)
        brute = (1 * d**2 + 3 * d**2) / 4.0
        assert discrete_dual_moment_variance(instance) == pytest.approx(
            brute + d**2 / 2.0, abs=1e-14)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_formula_equals_bruteforce(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        raw = data.draw(st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n))
        xi = np.sort(np.asarray(raw, dtype=float))
        xi = xi - xi.mean()
        instance = build_dt_instance(t0=50.0, xi=xi)
        formula = discrete_dual_moment(instance)
        brute = brute_pairwise_dual_mean(xi, np.full(n, 1.0 / n))
        assert formula == pytest.approx(brute, abs=1e-12)

    def test_requires_metadata(self):
        plain = DiscreteModel([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(MetadataMissingError):
            discrete_dual_moment(plain)


class TestBuildDtInstance:
    def test_full_band_three_point(self):
        d = 0.5
        instance = build_dt_instance(t0=10.0, xi=[-d, 0.0, d])
        assert np.allclose(instance.outcomes, [9.5, 10.0, 10.5])
        assert np.allclose(instance.probabilities, [1 / 3, 1 / 3, 1 / 3])
        assert instance.dt_meta.n == 3

    def test_single_zero_state_is_degenerate(self):
        instance = build_dt_instance(t0=10.0, xi=[0.0])
        assert instance.is_degenerate
        assert instance.mean() == 10.0

    def test_partial_band_mass_bookkeeping(self):
        instance = build_dt_instance(t0=10.0, xi=[-1.0, 1.0], p0=0.5, psi=0.25,
                                     t_min=8.0, t_max=12.0)
        assert np.allclose(instance.probabilities, [0.25, 0.25, 0.25, 0.25])
        assert np.allclose(instance.outcomes, [8.0, 9.0, 11.0, 12.0])
        assert instance.probabilities.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ZeroMeanError):
            build_dt_instance(t0=10.0, xi=[-1.0, 2.0])

    def test_rejects_bad_mass(self):
        with pytest.raises(MassError):
            build_dt_instance(t0=10.0, xi=[-1.0, 1.0], p0=0.3, psi=0.5)

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            build_dt_instance(t0=10.0, xi=[1.0, -1.0])

    def test_rejects_bad_flanks(self):
        with pytest.raises(ValidationError):
            build_dt_instance(t0=10.0, xi=[-1.0, 1.0], p0=0.5, psi=0.25,
                              t_min=9.5, t_max=12.0)

    @pytest.mark.parametrize("kwargs", [
        {"t0": 0.114, "xi": [-0.599, 0.599]},
        {"t0": 2.0, "xi": [-1.0, 1.0], "p0": 0.5, "psi": 0.25, "t_min": -0.5},
    ], ids=["band", "t_min"])
    def test_rejects_outcomes_below_zero(self, kwargs):
        with pytest.raises(ValidationError, match="no mass below zero"):
            build_dt_instance(**kwargs)

    def test_accepts_an_outcome_at_zero(self):
        instance = build_dt_instance(t0=1.0, xi=[-1.0, 1.0])
        assert instance.outcomes.tolist() == [0.0, 2.0]


class TestDiscreteModel:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(MassError):
            DiscreteModel([1.0, 2.0], [0.6, 0.5])

    def test_quantile_cdf_roundtrip(self):
        model = DiscreteModel([1.0, 2.0, 4.0], [0.2, 0.5, 0.3])
        assert model.quantile(0.1) == 1.0
        assert model.quantile(0.2) == 1.0
        assert model.quantile(0.65) == 2.0
        assert model.quantile(0.9) == 4.0
        assert model.cdf(1.5) == pytest.approx(0.2)
        assert model.cdf(4.0) == pytest.approx(1.0)

    def test_skewness_of_symmetric_is_zero(self):
        model = DiscreteModel([-1.0, 1.0], [0.5, 0.5])
        assert model.skewness() == 0.0

    def test_expect_is_exact_sum(self):
        model = DiscreteModel([1.0, 3.0], [0.25, 0.75])
        assert model.expect(lambda t: t**2) == pytest.approx(
            0.25 * 1 + 0.75 * 9, abs=1e-15)

    # a summand is non-finite where g is, whatever its weight, as on a
    # quadrature panel; the second model gives the infinite outcome no mass
    @pytest.mark.parametrize("w", [None, PowerWeighting(gamma=2.0),
                                   InverseSWeighting(gamma=0.7)],
                             ids=["plain", "power", "inverse_s"])
    @pytest.mark.parametrize("model", [DiscreteModel([0.0, 1.0], [0.5, 0.5]),
                                       DiscreteModel([1.0, 2.0, 3.0], [0.5, 0.5, 0.0]),
                                       Degenerate(3.0)],
                             ids=["half", "massless", "point-mass"])
    def test_non_finite_summand_raises(self, model, w):
        def g(t):
            return np.where(t == model.support()[1], np.inf, t)

        with pytest.raises(NonFiniteError, match="summand not finite"):
            model.distorted_expect(g, w)
        assert math.isfinite(model.distorted_expect(lambda t: t, w))


# Corners and centre of the lognormal and gamma ranges the benchmark's
# report corpus draws from, plus one heavier case of each.
PARITY_MODELS = [
    *(LogNormal(log_mean=m, log_sd=s)
      for m in (0.0, 1.0, 2.0) for s in (0.25, 0.425, 0.6)),
    LogNormal(log_mean=-0.1, log_sd=0.7),
    *(Gamma(shape=a, rate=r) for a in (1.5, 3.25, 5.0) for r in (0.3, 1.65, 3.0)),
    Gamma(shape=1.0, rate=1.0),
]


def scipy_oracle(model):
    """The frozen scipy distribution the closed forms must reproduce."""
    if isinstance(model, LogNormal):
        return ss.lognorm(s=model.log_sd, scale=np.exp(model.log_mean))
    return ss.gamma(a=model.shape, scale=1.0 / model.rate)


def quadrature_nodes(model):
    """Every 15-node panel the adaptive kernel visits for a dual moment."""
    panels = []

    def g(t):
        # one call holds the nodes of several panels, panel after panel
        panels.extend(np.array(t).reshape(-1, 15))
        return (t - model.mean()) ** 2

    model.dual_expect(g, TIGHT)
    return panels


def identical(a, b):
    return close(a, b, 0.0)


def close(ours, theirs, rel):
    """Same shape, NaN positions and sign bits; each value equal or within
    ``rel`` (a scalar or an array) relative of ``theirs``."""
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    with np.errstate(invalid="ignore"):  # inf - inf where both are inf
        near = (ours == theirs) | (np.abs(ours - theirs) <= rel * np.abs(theirs))
    return (ours.shape == theirs.shape
            and np.array_equal(np.isnan(ours), np.isnan(theirs))
            and np.array_equal(np.signbit(ours), np.signbit(theirs))
            and bool(np.all(near | np.isnan(theirs))))


# The lognormal's standard normal cdf and quantile are the standard
# library's, an implementation independent of scipy's ndtr and ndtri, so
# they are held to relative bounds stated before the change: 5e-14 for the
# cdf, 2e-15 for the quantile.  The gamma cdf and quantile are numpy code
# of their own (series, Gauss-Laguerre rule, Halley steps), held to bounds
# stated before they replaced scipy's, for shapes 0.05 to 100:
# - cdf: relative 1e-13 of P where scipy's P <= 0.5, and of Q = 1 - P
#   above, plus 2.3e-16 for the rounding of 1 - Q (so 1e-13 of P too);
# - pdf: relative 1e-13 (its log Gamma is scipy's, so it is nearly always
#   bit for bit);
# - quantile: relative 1e-12, where scipy's is a normal float.
# Shapes 300 and 1,000 are held to GAMMA_LARGE_REL instead.  Edge values
# and 0-d types equal scipy's bit for bit.
NDTR_REL = 5e-14
NDTRI_REL = 2e-15
GAMMA_CDF_REL = 1e-13
GAMMA_PDF_REL = 1e-13
GAMMA_PPF_REL = 1e-12
GAMMA_LARGE_REL = 1e-12


def cdf_rel(model):
    return NDTR_REL if isinstance(model, LogNormal) else GAMMA_CDF_REL


def pdf_rel(model):
    return 0.0 if isinstance(model, LogNormal) else GAMMA_PDF_REL


def ppf_rel(model, p):
    """The quantile's bound: exp(s z) * scale turns a relative error e in
    z into about s |z| e, plus an ulp or two of rounding."""
    if not isinstance(model, LogNormal):
        return GAMMA_PPF_REL
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.nan_to_num(np.abs(ndtri(p)), posinf=0.0)
    return NDTRI_REL * (1.0 + model.log_sd * z) + 5e-16


class TestScipyParity:
    """LogNormal and Gamma against scipy's frozen distributions.

    The lognormal pdf, every edge value and every 0-d type are
    bit-identical; the other values are within the bounds above.
    """

    @pytest.mark.parametrize("model", PARITY_MODELS, ids=lambda m: m.label())
    def test_quadrature_panels(self, model):
        oracle = scipy_oracle(model)
        panels = quadrature_nodes(model)
        assert len(panels) > 3
        for t in panels:
            assert close(model.pdf(t), oracle.pdf(t), pdf_rel(model))
            assert close(model.cdf(t), oracle.cdf(t), cdf_rel(model))
        p = np.linspace(0.0, 1.0, 1001)
        assert close(model.quantile(p), oracle.ppf(p), ppf_rel(model, p))
        p_hi = 1.0 - 1e-15
        assert close(model.integration_interval()[1], oracle.ppf(p_hi),
                     ppf_rel(model, p_hi))

    @pytest.mark.parametrize("model", PARITY_MODELS, ids=lambda m: m.label())
    def test_shifted_scaled_panels(self, model):
        wrapped = ShiftedScaled(model, loc=0.5, scale=2.0)
        oracle = scipy_oracle(model)
        for t in quadrature_nodes(wrapped):
            inner = (t - 0.5) / 2.0
            assert close(wrapped.pdf(t), oracle.pdf(inner) / 2.0, pdf_rel(model))
            assert close(wrapped.cdf(t), oracle.cdf(inner), cdf_rel(model))
        p = np.linspace(0.0, 1.0, 101)
        assert close(wrapped.quantile(p), 0.5 + 2.0 * oracle.ppf(p),
                     ppf_rel(model, p))

    @pytest.mark.parametrize("model", PARITY_MODELS, ids=lambda m: m.label())
    def test_edges(self, model):
        oracle = scipy_oracle(model)
        t = np.array([-1.0, -0.0, 0.0, 1e-300, 1.0, np.inf, -np.inf, np.nan])
        interior = (t == 1e-300) | (t == 1.0)
        with np.errstate(invalid="ignore"):  # gamma's pdf at +inf is inf - inf
            assert close(model.pdf(t), oracle.pdf(t), np.where(interior, pdf_rel(model), 0.0))
        assert close(model.cdf(t), oracle.cdf(t), np.where(t == 1.0, cdf_rel(model), 0.0))
        p = np.array([0.0, 1.0, -0.1, 1.1, np.nan, 0.5])
        # the lognormal's median is exp(0) * scale, scipy's bit for bit
        median = 0.0 if isinstance(model, LogNormal) else GAMMA_PPF_REL
        assert close(model.quantile(p), oracle.ppf(p), np.where(p == 0.5, median, 0.0))

    @pytest.mark.parametrize("model", PARITY_MODELS[::5], ids=lambda m: m.label())
    def test_zero_dimensional(self, model):
        oracle = scipy_oracle(model)
        for t in (-1.0, 0.0, 1e-300, 2.0, np.inf, np.nan):
            with np.errstate(invalid="ignore"):
                pdfs = model.pdf(t), oracle.pdf(t)
            for (ours, theirs), rel in ((pdfs, 0.0),
                                        ((model.cdf(t), oracle.cdf(t)), cdf_rel(model))):
                assert np.ndim(ours) == 0 and type(ours) is type(theirs)
                assert close(ours, theirs, rel)
        for p in (0.0, 0.3, 1.0, -0.1, 1.1, np.nan):
            ours = model.quantile(p)
            assert np.ndim(ours) == 0 and type(ours) is type(oracle.ppf(p))
            assert close(ours, oracle.ppf(p), ppf_rel(model, p))


TINY = np.finfo(float).tiny
# the shapes the bounds are stated for, and the two larger ones held to
# GAMMA_LARGE_REL
GAMMA_CORNERS = (0.05, 0.3, 0.5, 1.0, 1.5, 3.25, 5.0, 9.0, 30.0, 100.0)
GAMMA_LARGE = (300.0, 1000.0)


def gamma_cdf_within(a, x, rel, oracle=None):
    """The gamma cdf at x against scipy's, or against ``oracle(x) = (P, Q)``:
    relative ``rel`` of P where P <= 0.5 and of Q = 1 - P above, with
    2.3e-16 for the rounding of 1 - Q; and F is below 1 wherever the
    oracle's is, and above 0 wherever the oracle's is."""
    x = np.asarray(x, dtype=float)
    ours = np.asarray(Gamma(shape=a, rate=1.0).cdf(x))
    p, q = oracle(x) if oracle else (gammainc(a, x), gammaincc(a, x))
    lower = p <= 0.5
    err = np.where(lower, np.abs(ours - p) - rel * p,
                   np.abs((1.0 - ours) - q) - (rel * q + 2.3e-16))
    return (bool(np.all(err <= 0.0))
            and not np.any((ours >= 1.0) & (p < 1.0))
            and not np.any((ours <= 0.0) & (p > 0.0)))


def gamma_quantile_within(a, p, rel):
    """Relative ``rel`` of scipy's quantile where it is a normal float,
    and below the smallest normal float where it is not."""
    ours = np.asarray(Gamma(shape=a, rate=1.0).quantile(p))
    theirs = gammaincinv(a, p)
    normal = theirs >= TINY
    return (bool(np.all(np.abs(ours - theirs)[normal] <= rel * theirs[normal]))
            and bool(np.all(ours[~normal] < TINY)))


def tail_probabilities():
    """1e-300 up to 1 - 1e-15: both tails by decade, and the middle."""
    lower = 10.0 ** -np.linspace(0.3, 300.0, 120)
    upper = 1.0 - 10.0 ** -np.linspace(1.0, 15.0, 40)
    return np.concatenate([lower, np.linspace(0.01, 0.99, 41), upper,
                           [1e-300, 0.5, 1.0 - 1e-15]])


class TestGammaAccuracy:
    """The numpy incomplete gamma against scipy's, within the bounds stated
    above, and against closed forms that do not use scipy."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(math.log(0.05), math.log(100.0)).map(math.exp),
           st.one_of(st.floats(0.0, 300.0).map(lambda e: 10.0 ** -e).filter(lambda p: p < 1.0),
                     st.floats(1.0, 15.0).map(lambda e: 1.0 - 10.0 ** -e),
                     st.floats(1e-300, 1.0 - 1e-15)))
    def test_property(self, a, p):
        assert gamma_quantile_within(a, np.array([p]), GAMMA_PPF_REL)
        x = gammaincinv(a, p)
        if x > 0.0:
            neighbours = np.array([np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)])
            assert gamma_cdf_within(a, neighbours, GAMMA_CDF_REL)
            assert close(Gamma(shape=a, rate=1.0).pdf(neighbours),
                         ss.gamma(a).pdf(neighbours), GAMMA_PDF_REL)

    @pytest.mark.parametrize("a", GAMMA_CORNERS + GAMMA_LARGE)
    def test_corners(self, a):
        cdf_rel = GAMMA_LARGE_REL if a in GAMMA_LARGE else GAMMA_CDF_REL
        ppf_rel = GAMMA_LARGE_REL if a in GAMMA_LARGE else GAMMA_PPF_REL
        pdf_rel = GAMMA_LARGE_REL if a in GAMMA_LARGE else GAMMA_PDF_REL
        p = tail_probabilities()
        assert gamma_quantile_within(a, p, ppf_rel)
        x = gammaincinv(a, p)
        x = np.concatenate([x[x > 0.0], gammainccinv(a, 10.0 ** -np.linspace(16.0, 300.0, 60))])
        assert gamma_cdf_within(a, x, cdf_rel)
        assert close(Gamma(shape=a, rate=1.0).pdf(x), ss.gamma(a).pdf(x), pdf_rel)

    @pytest.mark.parametrize("a", GAMMA_CORNERS + GAMMA_LARGE)
    def test_branch_point(self, a):
        # the series serves x < a + 1 and the Laguerre rule the rest
        x = np.array([np.nextafter(a + 1.0, 0.0), a + 1.0, np.nextafter(a + 1.0, np.inf)])
        rel = GAMMA_LARGE_REL if a in GAMMA_LARGE else GAMMA_CDF_REL
        assert gamma_cdf_within(a, x, rel)

    @pytest.mark.parametrize("a", GAMMA_CORNERS)
    def test_cdf_below_one_wherever_scipy_is(self, a):
        # 1 - q rounds below 1 for q above 2^-54, so F must too
        x = gammainccinv(a, np.geomspace(5e-17, 1e-14, 200))
        ours = Gamma(shape=a, rate=1.0).cdf(x)
        assert np.all(ours[gammainc(a, x) < 1.0] < 1.0)
        assert np.count_nonzero(gammainc(a, x) < 1.0) > 100

    def test_exponential_shape_without_scipy(self):
        # P(1, x) = 1 - e^-x
        x = np.geomspace(1e-300, 700.0, 2000)
        assert gamma_cdf_within(1.0, x, GAMMA_CDF_REL,
                                lambda x: (-np.expm1(-x), np.exp(-x)))

    def test_half_shape_without_scipy(self):
        # P(1/2, x) = erf(sqrt(x))
        x = np.geomspace(1e-300, 700.0, 2000)
        roots = np.sqrt(x).tolist()
        assert gamma_cdf_within(0.5, x, GAMMA_CDF_REL, lambda x: (
            np.array([math.erf(r) for r in roots]), np.array([math.erfc(r) for r in roots])))

    @pytest.mark.parametrize("a", sorted({a for a, *_ in GAMMA_HALF_SHAPE_PQ}))
    def test_half_shape_against_40_digits(self, a):
        # scipy's gammaincc is off by up to 9.7e-14 relative here, too
        # close to the bound to check against
        x, p, q = (np.array(c) for c in zip(*(row[1:] for row in GAMMA_HALF_SHAPE_PQ
                                              if row[0] == a)))
        assert gamma_cdf_within(a, x, GAMMA_CDF_REL, lambda _: (p, q))

    @pytest.mark.parametrize("a, p, x", GAMMA_TINY_P_QUANTILES)
    def test_tiny_p_at_large_shapes(self, a, p, x):
        # P underflows between the first guess and x; both paths step on
        # log P, which stays finite
        model = Gamma(shape=a, rate=1.0)
        one = model.quantile(p)
        assert one == model.quantile(np.array([p]))[0]
        assert abs(one - x) <= GAMMA_PPF_REL * x
        if p > 1e-320:  # scipy's is 4.6e-7 off there
            assert gamma_quantile_within(a, np.array([p]), GAMMA_PPF_REL)

    @pytest.mark.parametrize("a", (0.3, 1.5, 3.25, 5.0, 30.0, 300.0))
    def test_a_value_does_not_depend_on_its_batch(self, a):
        # a quadrature request's values must be those of each point alone,
        # whichever of the series and the Laguerre rule serves it
        model = Gamma(shape=a, rate=1.0)
        x = np.geomspace(1e-3, 20.0 * a + 50.0, 997)
        whole = model.cdf(x)
        for size in (1, 2, 3, 7, 15, 60):
            for start in range(0, x.size - size, 89):
                part = slice(start, start + size)
                assert model.cdf(x[part]).tolist() == whole[part].tolist()

    def test_draws_keep_temporaries_bounded(self):
        model = Gamma(shape=3.25, rate=1.0)
        gen = np.random.default_rng(3)
        tracemalloc.start()
        try:
            draws = model.draw(gen, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert draws.shape == (200_000,) and np.all(draws > 0.0)
        assert peak < 20e6


class TestStandardNormal:
    """The lognormal's normal cdf and quantile against scipy.special."""

    def test_cdf_deep_tail(self):
        z = np.array([-37.0, -36.5, -20.0, -8.0, -1.0, 0.0, 1.0, 8.0])
        assert close(_ndtr(z), ndtr(z), NDTR_REL)

    def test_cdf_branch_edges(self):
        # scipy's ndtr switches between erf and erfc at |z| = 1
        edge = np.array([1.0, -1.0])
        z = np.concatenate([np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2 * edge)])
        assert close(_ndtr(z), ndtr(z), NDTR_REL)

    def test_quantile_range(self):
        gen = np.random.default_rng(11)
        low = np.logspace(-300, np.log10(0.5), 1200)
        high = 1.0 - np.logspace(-53 * np.log10(2.0), np.log10(0.5), 600)
        p = np.concatenate([low, high, gen.random(2000), [1e-300, 0.5, 1.0 - 2.0**-53]])
        assert p.min() >= 1e-300 and p.max() <= 1.0 - 2.0**-53
        assert close(_ndtri(p), ndtri(p), NDTRI_REL)

    def test_quantile_is_normal_dist_bit_for_bit(self):
        # AS241's branches meet at |p - 0.5| = 0.425 and at r = 5, where
        # min(p, 1 - p) = exp(-25)
        edges = np.array([0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)])
        gen = np.random.default_rng(17)
        p = np.concatenate([gen.random(100_000), np.exp(-690.0 * gen.random(10_000)),
                            1.0 - np.exp(-36.0 * gen.random(10_000)),
                            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                            [1e-300, 0.5, 1.0 - 2.0**-53]])
        inv_cdf = NormalDist().inv_cdf
        expected = np.array([inv_cdf(x) for x in p.tolist()])
        assert np.array_equal(_ndtri(p), expected)
        # a lone value takes one branch; it is computed the same way
        for x, want in zip(p[-15:], expected[-15:]):
            assert _ndtri(np.array([x]))[0] == want

    def test_one_value_in_python_floats_keeps_the_bits(self):
        # a 0-d lognormal quantile, as the window's end, runs AS241 in Python
        # floats (test_one_quantile_per_p pins it to the array quantile)
        edges = np.array([0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)])
        gen = np.random.default_rng(23)
        p = np.concatenate([gen.random(3000), np.exp(-690.0 * gen.random(500)),
                            1.0 - np.exp(-36.0 * gen.random(500)),
                            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                            [1e-300, 0.5, 1.0 - 2.0**-53, 1.0 - 1e-15]]).tolist()
        inv_cdf = NormalDist().inv_cdf
        assert [_ndtri_one(x) for x in p] == [inv_cdf(x) for x in p]


ONE_QUANTILE_MODELS = [
    Exponential(rate=0.7),
    Uniform(0.5, 3.5),
    LogNormal(log_mean=0.3, log_sd=0.7),
    *(Gamma(shape=a, rate=1.3) for a in GAMMA_CORNERS),
    ShiftedScaled(LogNormal(log_mean=0.3, log_sd=0.7), loc=0.5, scale=2.0),
    ShiftedScaled(Gamma(shape=0.5, rate=1.3), loc=0.5, scale=2.0),
    ShiftedScaled(Gamma(shape=30.0, rate=1.3), loc=0.5, scale=2.0),
]


@pytest.mark.parametrize("model", ONE_QUANTILE_MODELS, ids=lambda m: m.label())
def test_one_quantile_per_p(model):
    # a 0-d quantile (the window's end), a one-point array and a mixed
    # batch give the same bits, in both tails, the middle and at the window
    gen = np.random.default_rng(29)
    p = np.concatenate([10.0 ** -np.linspace(0.3, 300.0, 50),
                        1.0 - 10.0 ** -np.linspace(1.0, 15.0, 30), gen.random(50),
                        [TAIL_MASS, 1.0 - TAIL_MASS, 0.5]])
    batch = model.quantile(np.concatenate([gen.random(40), p, gen.random(40)]))[40:-40]
    ones = [float(model.quantile(q)) for q in p.tolist()]
    assert ones == [float(model.quantile(np.array([q]))[0]) for q in p.tolist()]
    assert ones == batch.tolist()


SHAPE_MODELS = [
    Exponential(rate=1.3),
    Uniform(0.5, 3.0),
    Uniform(0.0, 2.0),
    LogNormal(log_mean=0.2, log_sd=0.5),
    Gamma(shape=2.0, rate=1.5),
    Gamma(shape=0.5, rate=1.0),
    ShiftedScaled(LogNormal(log_mean=0.0, log_sd=0.5), loc=-1.0, scale=2.0),
    ShiftedScaled(Gamma(shape=0.5, rate=1.0), loc=0.5, scale=2.0),
    ShiftedScaled(Exponential(rate=1.0), loc=0.5, scale=1.5),
]
SHAPE_T = np.array([-1.0, -0.0, 0.0, 1e-300, 0.3, 0.5, 1.7, 2.0, 3.0, 40.0, np.inf, np.nan])
SHAPE_P = np.array([0.0, 1e-300, 0.3, 0.5, 0.97, 1.0, -0.1, 1.1, np.nan])
# methods that end in np.where give a 0-d array for a 0-d input, the
# others a numpy float; a shifted and scaled cdf is its base's
ZERO_D_ARRAYS = {("exponential", "pdf"), ("exponential", "cdf"), ("uniform", "pdf")}


def zero_d_type(model, method):
    if isinstance(model, ShiftedScaled) and method == "cdf":
        return zero_d_type(model.base, method)
    return np.ndarray if (model.family, method) in ZERO_D_ARRAYS else np.float64


@pytest.mark.parametrize("model", SHAPE_MODELS, ids=lambda m: m.label())
@pytest.mark.parametrize("method, points", [("pdf", SHAPE_T), ("cdf", SHAPE_T),
                                            ("quantile", SHAPE_P)])
def test_shapes_match_one_dimensional_calls(model, method, points):
    # 2-d, empty and 0-d inputs give, value for value, what a 1-d call
    # gives, in the shapes and types they have always had
    call = getattr(model, method)
    with np.errstate(all="ignore"):  # inf - inf, log of 0 and of p > 1
        flat = call(points)
        assert type(flat) is np.ndarray and flat.shape == points.shape
        square = points[:8].reshape(2, 4)
        assert identical(call(square), flat[:8].reshape(2, 4))
        assert identical(call(square.T), flat[:8].reshape(2, 4).T)
        for empty in (np.array([]), np.zeros((0, 3)), []):
            got = call(empty)
            assert type(got) is np.ndarray and got.dtype == float
            assert got.shape == np.shape(empty)
        for k, point in enumerate(points.tolist()):
            for value in (point, np.float64(point), np.array(point)):
                got = call(value)
                assert type(got) is zero_d_type(model, method)
                assert identical(got, flat[k])


@pytest.mark.parametrize("model", SHAPE_MODELS, ids=lambda m: m.label())
def test_cdf_below_the_support_is_positive_zero(model):
    lo = model.support()[0]
    t = np.array([lo - 1.0, -0.0, -5e-324]) if lo == 0.0 else np.array([lo - 1.0])
    assert identical(model.cdf(t), np.zeros(t.size))


@pytest.mark.parametrize("model", [
    Exponential(rate=0.7),
    LogNormal(log_mean=0.3, log_sd=0.45),
    Gamma(shape=2.5, rate=1.2),
    Gamma(shape=1.0, rate=0.8),
    Gamma(shape=0.6, rate=2.0),
    ShiftedScaled(LogNormal(log_mean=0.0, log_sd=0.5), loc=-1.0, scale=2.0),
], ids=lambda m: m.label())
@given(t=st.lists(st.floats(1e-6, 80.0), min_size=1, max_size=64),
       p=st.lists(st.floats(1e-12, 1.0 - 1e-12), min_size=1, max_size=64))
@settings(max_examples=40, deadline=None)
def test_inside_arrays_take_the_edge_paths_values(model, t, p):
    # a 1-d array inside the support skips the edge handling; with one
    # point outside appended, the same points take it, with the same bits
    t = np.array(t) + model.support()[0]
    outside = model.support()[0] - 1.0
    assert identical(model.pdf(t), model.pdf(np.append(t, outside))[:-1])
    assert identical(model.cdf(t), model.cdf(np.append(t, outside))[:-1])
    p = np.array(p)
    with np.errstate(invalid="ignore"):  # the exponential's formula at p = 1.5
        assert identical(model.quantile(p), model.quantile(np.append(p, 1.5))[:-1])
