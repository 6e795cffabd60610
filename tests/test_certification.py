"""Closed-form certification of utilities and weightings.

Each built-in family certifies itself without a grid: a utility by u' at
the ends of its interval, a weighting by its gamma.  These tests hold the
verdict and message of every construction to the grid rule it replaced
(``oracles.grid_verdict``), pin the inverse-S threshold, and guard that
parsing the benchmark's report corpus evaluates no grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cotv.config import parse_config
from cotv.errors import MonotonicityError, ValidationError
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
    classify_risk_attitude,
)

from oracles import (
    INVERSE_S_ARGMIN_P,
    INVERSE_S_GAMMA_STAR,
    bench_inputs,
    grid_verdict,
    inverse_s_slope,
    verdict,
)

STRICT = "weighting must be strictly increasing on (0, 1)"
# the least double at which the grid accepted an inverse-S weighting: from
# here up to the double below INVERSE_S_GAMMA_STAR it accepted slopes that
# are negative between its points, and only these gammas change verdict
INVERSE_S_GRID_EDGE = 0.27920280405501235
# where a grid verdict turns: the threshold and the grid's edge below it;
# the bound below which certification reads no slope; a power slope
# gamma 0.001^(gamma - 1) that underflows to 0 at p = 0.001 (inverse-S
# about 1 lower), and inverse-S w' that is 0/0 at p = 1/2, where
# 0.5^gamma underflows
EDGES = (INVERSE_S_GAMMA_STAR, INVERSE_S_GRID_EDGE, 50.0, 107.86908177959327,
         108.86908177959327, 1075.0)


def _gammas() -> np.ndarray:
    near = [edge + np.arange(-100, 101) * np.spacing(edge) for edge in EDGES]
    around = [edge * (1.0 + np.linspace(-1e-3, 1e-3, 201)) for edge in EDGES]
    return np.concatenate([np.geomspace(1e-300, 1e300, 2001), [np.inf],
                           np.linspace(INVERSE_S_GAMMA_STAR, 50.0, 1001), *near, *around])


@pytest.mark.parametrize("cls", [PowerWeighting, InverseSWeighting],
                         ids=lambda cls: cls.family)
def test_weighting_verdicts_match_the_grid(cls):
    moved = []
    for gamma in map(float, _gammas()):
        got, grid = verdict(cls, gamma), grid_verdict(cls, gamma)
        if got != grid:
            moved.append((gamma, grid, got))
    if cls is PowerWeighting:
        assert moved == []
        return
    # only the band below the threshold moves, from accepted to rejected
    assert moved
    for gamma, grid, got in moved:
        assert INVERSE_S_GRID_EDGE <= gamma < INVERSE_S_GAMMA_STAR
        assert grid is None and got == (ValidationError, f"inverse_s: {STRICT}")


def test_large_gamma_verdicts():
    # the rejections past the bound, as the grid gave them
    assert verdict(PowerWeighting, 108.0) is None
    for cls, gamma in ((PowerWeighting, 109.0), (PowerWeighting, 1e300),
                       (InverseSWeighting, 500.0), (InverseSWeighting, 1074.0)):
        assert verdict(cls, gamma) == (ValidationError, f"{cls.family}: {STRICT}")
    for cls, gamma in ((PowerWeighting, np.inf), (InverseSWeighting, 1100.0),
                       (InverseSWeighting, 1e10), (InverseSWeighting, 1e300)):
        assert verdict(cls, gamma) == (
            ValidationError, f"{cls.family}: derivative not finite on (0, 1)")


def _sign(gamma: float, p: float) -> float:
    """(g-1) p^g + g q^g + p q^(g-1), which has the sign of w'(p)."""
    q = 1.0 - p
    return (gamma - 1.0) * p**gamma + gamma * q**gamma + p * q ** (gamma - 1.0)


def test_threshold_is_the_least_double_accepted():
    InverseSWeighting(INVERSE_S_GAMMA_STAR)
    InverseSWeighting(np.nextafter(INVERSE_S_GAMMA_STAR, 1.0))
    with pytest.raises(ValidationError, match="strictly increasing"):
        InverseSWeighting(np.nextafter(INVERSE_S_GAMMA_STAR, 0.0))
    # 5e-8 either side of the threshold, f at its least point is about
    # -+1.1e-7, which double precision resolves
    assert _sign(0.2792042, INVERSE_S_ARGMIN_P) < 0 < _sign(0.2792043, INVERSE_S_ARGMIN_P)


def test_band_gamma_is_rejected_where_its_slope_is_negative():
    # the grid accepted 0.279203: its points 0.09676 and 0.10180 straddle
    # the negative slope near p = 0.0976
    assert grid_verdict(InverseSWeighting, 0.279203) is None
    slope = float(inverse_s_slope(0.279203, INVERSE_S_ARGMIN_P))
    assert -3e-6 < slope < -2e-6
    with pytest.raises(ValidationError, match="strictly increasing"):
        InverseSWeighting(0.279203)


def test_identity_needs_no_check():
    assert verdict(IdentityWeighting) is None is grid_verdict(IdentityWeighting)


FAMILIES = ("quadratic", "pure_quadratic", "power", "constant_prudence", "affine")
MAGNITUDES = st.one_of(st.floats(1e-300, 1e300), st.sampled_from([1e-300, 1.0, 1e300]))


@st.composite
def intervals(draw, lowest: float):
    """(lo, hi) with lo >= ``lowest``: lo = 0, 1e-300 and hi = 1e300
    among them, and hi - lo finite."""
    lo = draw(st.one_of(st.sampled_from([0.0, 1e-300, 0.1, 1.0]),
                        st.floats(-1e3, 1e3)).filter(lambda lo: lo >= lowest))
    hi = draw(st.one_of(st.just(1e300), st.floats(1e-3, 1e6).map(lambda width: lo + width),
                        st.floats(1e-3, 1e300).filter(lambda hi: hi > lo)))
    return lo, hi


@st.composite
def utilities(draw, family: str):
    """``(class, kwargs)`` of a utility whose parameters pass its family's
    checks, on an interval the family allows."""
    if family in ("quadratic", "pure_quadratic"):
        kwargs = {"a": -draw(MAGNITUDES), "c": draw(st.floats(-1e100, 1e100))}
        if family == "quadratic":
            kwargs["b"] = -draw(st.one_of(st.just(0.0), MAGNITUDES))
        cls, lowest = (QuadraticUtility if family == "quadratic"
                       else PureQuadraticUtility), -1e3
    elif family == "affine":
        cls, lowest = AffineUtility, -1e3
        kwargs = {"slope": draw(MAGNITUDES), "intercept": draw(st.floats(-1e100, 1e100))}
    elif family == "power":
        cls, lowest = PowerUtility, 0.0
        kwargs = {"exponent": draw(st.one_of(st.floats(1.0, 1e3, exclude_min=True),
                                             st.sampled_from([1.5, 3.0, 1e300])))}
    else:
        cls, lowest = ConstantPrudenceUtility, 1e-300
        kwargs = {"prudence": draw(st.one_of(st.floats(-5.0, 10.0),
                                             st.sampled_from([1.0, 2.0, 3.0]))),
                  "curvature": draw(MAGNITUDES), "slope_at_one": -draw(MAGNITUDES)}
    kwargs["interval"] = draw(intervals(lowest))
    return cls, kwargs


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_utility_verdicts_match_the_grid(family, data):
    cls, kwargs = data.draw(utilities(family))
    assert verdict(cls, **kwargs) == grid_verdict(cls, **kwargs)


def test_utility_verdicts_include_both_failures():
    # a slope that climbs above 0 at lo, and one that overflows at hi
    assert verdict(ConstantPrudenceUtility, 3.0, interval=(0.1, 10.0)) == (
        MonotonicityError, "constant_prudence: utility is not non-increasing on [0.1, 10]")
    assert verdict(PowerUtility, 3.0, interval=(0.0, 1e300)) == (
        ValidationError, "power: derivative not finite on the working interval")
    assert verdict(PowerUtility, 1.5, interval=(0.0, 1e300)) is None


def test_interval_whose_width_overflows_is_judged_by_its_slopes():
    # linspace's inner points are NaN once hi - lo overflows, and the grid
    # called that a slope that is not finite; u' at the ends decides now
    interval = (-1e308, 1e308)
    assert grid_verdict(AffineUtility, interval=interval) == (
        ValidationError, "affine: derivative not finite on the working interval")
    assert verdict(AffineUtility, interval=interval) is None
    assert verdict(QuadraticUtility, -1e-300, interval=interval) == (
        MonotonicityError, "quadratic: utility is not non-increasing on [-1e+308, 1e+308]")


class _Counted:
    """Counts the calls of one method, which it still runs."""

    def __init__(self, monkeypatch, owner, name: str):
        self.calls = 0
        method = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)


def test_parsing_report_mix_reads_no_grid(monkeypatch):
    grid = _Counted(monkeypatch, UtilityFunction, "grid")
    slopes = [_Counted(monkeypatch, cls, "dw")
              for cls in (IdentityWeighting, PowerWeighting, InverseSWeighting)]
    inputs = bench_inputs()
    configs = [item["config"] for seed in (1, 2, 3) for item in inputs.report_corpus(seed)]
    for raw in configs:
        parse_config(raw)
    assert grid.calls == 0
    assert [counter.calls for counter in slopes] == [0, 0, 0]
    # the counters see a grid where one is read
    classify_risk_attitude(PowerUtility(1.5))
    PowerWeighting(60.0)
    assert grid.calls == 1
    assert [counter.calls for counter in slopes] == [0, 1, 0]


def test_subclass_without_a_certificate_keeps_the_grid(monkeypatch):
    class Reciprocal(UtilityFunction):
        family = "reciprocal"

        def du(self, t):
            return -1.0 / np.asarray(t, dtype=float)

    grid = _Counted(monkeypatch, UtilityFunction, "grid")
    assert verdict(Reciprocal, (1.0, 2.0)) is None
    assert verdict(Reciprocal, (0.0, 1.0)) == (
        ValidationError, "reciprocal: derivative not finite on the working interval")
    assert grid.calls == 2
