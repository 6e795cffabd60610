"""Contracts of the package's record classes.

The records are plain classes and ``NamedTuple``s rather than
dataclasses, so these pins stand in for what the decorator generated and
callers rely on: a report's ``repr`` lists every field in declaration
order (bit-parity tests compare reports by it), the preference records
compare by value, each ``to_dict`` keeps its key order, and a report
still rejects non-finite fields when it is built.
"""

import math

import pytest

from cotv.distributions import Exponential, moments
from cotv.errors import NonFiniteError
from cotv.preferences import (
    MomentPreference,
    PowerUtility,
    RiskAttitude,
    classify_moment_preference,
    classify_risk_attitude,
    risk_coefficients,
)
from cotv.reports import ValuationReport

FIELDS = dict(framework="eu", method="exact", phi=2.0, mu=3.0, sigma=1.0,
              cv=0.5, premium=0.25, vot_at_mu=0.7, vot=0.9, cotv=0.175,
              rho=0.1, eta=0.8, rho_upper_bound=None)


def test_report_repr_names_every_field_in_order():
    report = ValuationReport(**FIELDS, diagnostics={"model": "exponential(rate=1)"})
    assert repr(report) == (
        "ValuationReport(framework='eu', method='exact', phi=2.0, mu=3.0, "
        "sigma=1.0, cv=0.5, premium=0.25, vot_at_mu=0.7, vot=0.9, "
        "cotv=0.175, rho=0.1, eta=0.8, rho_upper_bound=None, "
        "diagnostics={'model': 'exponential(rate=1)'})")


def test_report_takes_its_fields_positionally_in_order():
    positional = ValuationReport(*FIELDS.values())
    assert repr(positional) == repr(ValuationReport(**FIELDS))
    assert positional.diagnostics == {}


def test_report_diagnostics_default_is_not_shared():
    first, second = ValuationReport(**FIELDS), ValuationReport(**FIELDS)
    assert first.diagnostics == {} and first.diagnostics is not second.diagnostics


@pytest.mark.parametrize("name, value", [("mu", math.nan), ("premium", math.inf),
                                         ("rho_upper_bound", -math.inf)])
def test_report_construction_raises_non_finite_error(name, value):
    with pytest.raises(NonFiniteError, match=f"'{name}'"):
        ValuationReport(**dict(FIELDS, **{name: value}))


def test_preference_records_compare_by_value():
    profile = risk_coefficients(PowerUtility(exponent=1.5), 1.0)
    preference = classify_moment_preference(profile)
    assert preference == MomentPreference(preference.mean_vs_variance,
                                          preference.variance_vs_skewness)
    assert preference != MomentPreference("other", preference.variance_vs_skewness)

    attitude = classify_risk_attitude(PowerUtility(exponent=1.5))
    assert attitude == classify_risk_attitude(PowerUtility(exponent=1.5))
    assert attitude == RiskAttitude(attitude.risk_averse, attitude.prudent)
    assert attitude != RiskAttitude(not attitude.risk_averse, attitude.prudent)


def test_to_dict_key_order():
    profile = risk_coefficients(PowerUtility(exponent=1.5), 1.0)
    assert list(moments(Exponential(1.0)).to_dict()) == [
        "mu", "variance", "skewness", "cv", "m2_dual_mean", "m2_dual_var"]
    assert list(profile.to_dict()) == [
        "at_time", "abs_risk_aversion", "rel_risk_aversion", "abs_prudence",
        "rel_prudence", "risk_averse", "prudent", "d3_sign"]
    assert list(classify_moment_preference(profile).to_dict()) == [
        "mean_vs_variance", "variance_vs_skewness"]
