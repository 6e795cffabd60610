import math

import pytest

from cotv.errors import NonFiniteError
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
