import math

import pytest

from cotv.distributions import Exponential, Gamma, LogNormal, Uniform, build_dt_instance
from cotv.errors import NonFiniteError
from cotv.eu import _eu_reports
from cotv.non_eu import DtContext, RduContext, _dt_reports, _rdu_reports
from cotv.preferences import PowerUtility, PowerWeighting, QuadraticUtility
from cotv.reports import ValuationReport

FIELDS = dict(framework="eu", method="exact", phi=2.0, mu=3.0, sigma=1.0,
              cv=1.0 / 3.0, premium=0.25, vot_at_mu=0.7, vot=0.9, cotv=0.175,
              rho=0.1, eta=0.8, rho_upper_bound=None)


def report(**overrides):
    return ValuationReport(**dict(FIELDS, **overrides))


class TestDerivedFields:
    def test_cot_is_vot_times_mu(self):
        built = report(vot=0.3, mu=7.0)
        assert repr(built.cot) == repr(0.3 * 7.0)

    def test_congestion_multiplier_is_one_plus_rho(self):
        assert report(rho=0.1).congestion_multiplier == 0.1 + 1.0
        assert report(rho=0.0).congestion_multiplier == 1.0

    def test_congestion_multiplier_is_none_for_negative_rho(self):
        assert report(rho=-0.2).congestion_multiplier is None

    def test_derived_fields_are_read_only(self):
        built = report()
        with pytest.raises(AttributeError):
            built.cot = 1.0


class TestFiniteness:
    @pytest.mark.parametrize("name", ["mu", "cv", "premium", "rho", "eta"])
    def test_nan_field_raises_at_construction(self, name):
        with pytest.raises(NonFiniteError, match=f"'{name}'"):
            report(**{name: math.nan})

    def test_first_bad_field_in_numeric_order_is_named(self):
        # vot comes before cot, cotv and rho in the numeric surface
        with pytest.raises(NonFiniteError, match="'vot'"):
            report(vot=math.inf, cotv=math.nan, rho=math.nan)

    def test_overflowing_cot_is_rejected(self):
        with pytest.raises(NonFiniteError, match="'cot'"):
            report(vot=1e200, mu=1e200)

    def test_none_fields_are_allowed(self):
        assert report(cv=None, eta=None).rho_upper_bound is None


PHI_MODELS = [Exponential(0.8), Uniform(1.0, 4.0), LogNormal(1.0, 0.5), Gamma(2.0, 1.0),
              build_dt_instance(3.0, [-1.0, -0.5, 0.5, 1.0])]
PHI_UTILITIES = [QuadraticUtility(a=-0.5, b=-0.2), PowerUtility(exponent=1.5)]
BOTH = ("exact", "second_order")


def _phi_builders(model):
    w = PowerWeighting(2.0)
    yield lambda phi: _dt_reports(model, DtContext(w), phi, BOTH, None)
    for u in PHI_UTILITIES:
        yield lambda phi, u=u: _eu_reports(u, model, phi, BOTH, None)
        yield lambda phi, u=u: _rdu_reports(model, RduContext(u, w), phi, BOTH, None)


@pytest.mark.parametrize("model", PHI_MODELS, ids=lambda model: model.family)
def test_phi_scales_money_fields_and_leaves_the_rest(model):
    """The premium, rho and eta do not depend on phi, and VOT, COT and
    COTV scale as 1/phi, in every framework under both methods.

    The premium never meets phi, so it is equal.  Elsewhere phi enters
    through at most four roundings of relative size 2^-53 per side: the
    division by phi (of the VOT integrand or basis value, or of the
    utility shortfall), the sum of a VOT integrand, which is non-negative,
    the product with mu, and a ratio's division; this test's own division
    by 2.5 is one more.  2^-49 is twice their total.  The tanh-sinh stop
    rule is relative at these magnitudes, so phi leaves the levels alone.
    """
    for build in _phi_builders(model):
        one, other = build(1.0), build(2.5)
        for method in BOTH:
            r1, r2 = one[method], other[method]
            assert r2.premium == r1.premium
            for name in ("rho", "eta"):
                if getattr(r1, name) is not None:
                    assert getattr(r2, name) == pytest.approx(getattr(r1, name),
                                                              rel=2**-49, abs=0)
            for name in ("vot", "cot", "cotv", "vot_at_mu"):
                assert getattr(r2, name) == pytest.approx(getattr(r1, name) / 2.5,
                                                          rel=2**-49, abs=0)
