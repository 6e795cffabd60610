"""The construction of a discrete model, pinned bit for bit.

``DiscreteModel`` compresses its tied outcomes and accumulates their mass;
``build_dt_instance`` assembles a banded instance around t0.  Both must
give the bits of the numpy formulas below, which every rendered number of
a discrete report was computed from: ``np.unique`` with the mass that
``np.add.at`` sums, ``np.cumsum``, and ``probabilities @ outcomes``.  A
summation in another order (``np.add.reduceat``, ``math.fsum``) moves the
last bit of a tied draw, and fails here.  So must a band's moments and
weight increments.  The constructors' errors, with their messages, are
pinned as well.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cotv.distributions import _SQUARED, DiscreteModel, build_dt_instance
from cotv.errors import CollapsedBandError, MassError, ValidationError, ZeroMeanError
from cotv.non_eu import _band_weights
from cotv.preferences import IdentityWeighting, InverseSWeighting, PowerWeighting

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
WEIGHTINGS = (None, _SQUARED, PowerWeighting(gamma=0.5), InverseSWeighting(gamma=0.7))
NAN = float("nan")


def _time(t):
    return np.asarray(t, dtype=float)


def _square(t):
    t = np.asarray(t, dtype=float)
    return t * t


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class Reference:
    """A discrete law as numpy formed it, from its outcomes and
    probabilities."""

    def __init__(self, outcomes, probabilities):
        self.outcomes = np.asarray(outcomes, dtype=float)
        self.probabilities = np.clip(np.asarray(probabilities, dtype=float), 0.0, None)
        self.values, index = np.unique(self.outcomes, return_inverse=True)
        self.mass = np.zeros_like(self.values)
        np.add.at(self.mass, index, self.probabilities)
        self.cum = np.cumsum(self.mass)

    def mean(self):
        return float(self.probabilities @ self.outcomes)

    def variance(self):
        return float(self.probabilities @ (self.outcomes - self.mean()) ** 2)

    def cdf(self, t):
        cum = np.concatenate(([0.0], self.cum))
        return cum[np.searchsorted(self.values, np.asarray(t, dtype=float), side="right")]

    def quantile(self, p):
        idx = np.searchsorted(self.cum, np.asarray(p, dtype=float), side="left")
        return self.values[np.clip(idx, 0, self.values.size - 1)]

    def sum(self, g, w):
        if w is None:
            weights, points = self.probabilities, self.outcomes
        else:
            cum = np.concatenate(([0.0], self.cum))
            if w is not _SQUARED:
                cum = np.clip(cum, 0.0, 1.0)
            weights, points = np.diff(np.asarray(w.w(cum), dtype=float)), self.values
        return float(weights @ np.asarray(g(points), dtype=float))


def assert_same_law(model: DiscreteModel, ref: Reference) -> None:
    """Every compressed array, moment, cdf, quantile and sum of ``model``
    has the bits of ``ref``'s."""
    assert _bits(model.outcomes) == _bits(ref.outcomes)
    assert _bits(model.probabilities) == _bits(ref.probabilities)
    assert _bits(model._values) == _bits(ref.values)
    assert _bits(model._mass) == _bits(ref.mass)
    assert _bits(model._cum) == _bits(np.concatenate(([0.0], ref.cum)))
    for _ in range(2):  # a second read gives what the first gave
        assert _bits(model.mean()) == _bits(ref.mean())
        assert _bits(model.variance()) == _bits(ref.variance())
    values = ref.values
    times = np.concatenate((values, 0.5 * (values[1:] + values[:-1]),
                            [values[0] - 1.0, values[-1] + 1.0]))
    assert _bits(model.cdf(times)) == _bits(ref.cdf(times))
    levels = np.concatenate((ref.cum, np.linspace(0.0, 1.0, 23), [1e-300, 1.0 - 1e-16]))
    assert _bits(model.quantile(levels)) == _bits(ref.quantile(levels))
    mu = ref.mean()
    for g in (_time, _square, lambda t: (np.asarray(t) - mu) ** 2):
        for w in WEIGHTINGS:
            assert _bits(model._sum(g, w)) == _bits(ref.sum(g, w))


@st.composite
def tied_laws(draw, max_size=40):
    """1 to ``max_size`` ascending outcomes picked with repetition from
    fewer distinct values, and probabilities that sum to 1 within rounding,
    some of them 0."""
    n = draw(st.integers(1, max_size))
    distinct = sorted(set(draw(st.lists(st.floats(0.0, 1e3), min_size=1,
                                        max_size=max(1, n // 2)))))
    picks = sorted(draw(st.lists(st.integers(0, len(distinct) - 1),
                                 min_size=n, max_size=n)))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                            min_size=n, max_size=n))
    total = sum(weights)
    if total == 0.0:
        weights, total = [1.0] * n, float(n)
    probabilities = [w / total for w in weights]
    return [distinct[i] for i in picks], probabilities


@given(tied_laws())
@SETTINGS
@example(([1.0, 1.0, 1.0, 2.0], [0.1, 0.2, 0.3, 0.4]))
@example(([3.0] * 12, [1.0 / 12] * 12))
def test_construction_keeps_numpys_bits(law):
    outcomes, probabilities = law
    assert_same_law(DiscreteModel(outcomes, probabilities), Reference(outcomes, probabilities))


@pytest.mark.parametrize("outcomes, probabilities", [
    ([1.0, NAN], [0.5, 0.5]),
    ([2.0, NAN, 1.0], [0.25, 0.5, 0.25]),  # NaN hides the order, which unique sorts
    ([NAN, 1.0, NAN, 1.0], [0.125, 0.25, 0.375, 0.25]),
    ([1.0, 2.0], [1.0 + 1e-15, -1e-15]),  # a negative within rounding is clipped
    ([-1.0, 1.0, 1.0], [0.5, 0.25, 0.25]),  # a raw model may lie below 0
    ([0.0, 0.0, 1e-300, 1e150], [0.25, 0.25, 0.25, 0.25]),
])
def test_edge_laws_keep_numpys_bits(outcomes, probabilities):
    model = DiscreteModel(outcomes, probabilities)
    ref = Reference(outcomes, probabilities)
    assert _bits(model._values) == _bits(ref.values)
    assert _bits(model._mass) == _bits(ref.mass)
    assert _bits(model._cum[1:]) == _bits(ref.cum)
    assert _bits(model.mean()) == _bits(ref.mean())
    assert _bits(model.variance()) == _bits(ref.variance())
    times = np.array([-2.0, 0.0, 1.0, 1.5, 3.0, NAN])
    assert _bits(model.cdf(times)) == _bits(ref.cdf(times))
    levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0, NAN])
    assert _bits(model.quantile(levels)) == _bits(ref.quantile(levels))


def reference_band(t0, xi, p0, psi, t_min, t_max):
    """The outcomes and probabilities a banded instance was assembled from,
    with t0 + xi formed by numpy."""
    xi = np.asarray(xi, dtype=float)
    band = t0 + xi
    lo_mass, hi_mass = p0 - psi, 1.0 - p0 - psi
    outcomes = ([float(band[0]) if t_min is None else t_min] if lo_mass > 1e-15 else [])
    probs = [lo_mass] if lo_mass > 1e-15 else []
    outcomes += band.tolist()
    probs += [2.0 * psi / xi.size] * xi.size
    if hi_mass > 1e-15:
        outcomes.append(float(band[-1]) if t_max is None else t_max)
        probs.append(hi_mass)
    return outcomes, probs


@st.composite
def bands(draw):
    """A zero-mean xi of 2 to 12 states with ties, a t0 that keeps them
    apart, and an anchor with flanks at the band's ends, apart from it, or
    none."""
    half = draw(st.integers(1, 6))
    # steps 0.01 apart, which t0 <= 100 keeps apart
    pool = draw(st.lists(st.integers(1, 500).map(lambda k: k / 100), min_size=1,
                         max_size=3))
    steps = sorted(draw(st.lists(st.sampled_from(pool), min_size=half, max_size=half)))
    middle = [0.0] * draw(st.integers(0, 12 - 2 * half))
    xi = [-s for s in reversed(steps)] + middle + steps
    t0 = draw(st.floats(6.0, 100.0))
    p0, psi = draw(st.sampled_from([(0.5, 0.5), (0.5, 0.3), (0.4, 0.3), (0.35, 0.2),
                                    (0.3, 0.3), (0.7, 0.3)]))
    flanks = draw(st.sampled_from(["ends", "apart"]))
    t_min = t_max = None
    if flanks == "apart":
        t_min = t0 - 5.0 - draw(st.floats(0.0, 1.0))
        t_max = t0 + 5.0 + draw(st.floats(0.0, 10.0))
    return t0, xi, p0, psi, t_min, t_max


@given(bands())
@SETTINGS
@example((10.0, [-1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0], 0.5, 0.3, 4.0, 20.0))
def test_banded_instance_keeps_numpys_bits(band):
    t0, xi, p0, psi, t_min, t_max = band
    instance = build_dt_instance(t0, xi, p0, psi, t_min, t_max)
    assert_same_law(instance, Reference(*reference_band(*band)))
    meta = instance.dt_meta
    assert meta.xi == tuple(xi) and meta.t0 == t0
    # the band moments, once per instance, with the formulas' bits
    x = np.asarray(xi, dtype=float)
    i = np.arange(1, x.size + 1)
    scale = 4.0 * psi**2 / x.size**2
    expected = (float(np.mean(x**2)), float(scale * np.sum(x * 2 * i)),
                float(scale * np.sum(x**2 * 2 * i)))
    assert _bits(instance._perturbation_moments) == _bits(expected)
    assert instance._perturbation_moments is instance._perturbation_moments
    # the band's weight increments and their total
    for w in WEIGHTINGS[1:] + (IdentityWeighting(),):
        grid = p0 - psi + (2.0 * psi / x.size) * np.arange(0, x.size + 1)
        increments = np.diff(np.asarray(w.w(np.clip(grid, 0.0, 1.0)), dtype=float))
        total = float(w.w(p0 + psi) - w.w(p0 - psi))
        got = _band_weights(meta, w)
        assert _bits(got[0]) == _bits(increments) and _bits(got[1]) == _bits(total)
        assert _bits(got[2]) == _bits(x)


# 9 probabilities, and a 9-state xi, whose numpy sum and mean differ from a
# left-to-right sum: the messages print numpy's
P9 = [0.06834680858140837, 0.1600090359990642, 0.09675309862245011,
      0.14084334881487043, 0.09748629893956577, 0.11707718462717286,
      0.0582675742627292, 0.11657060355908261, 0.1446460465966564]
XI9 = [-2.415, -2.184, -1.698, -1.194, -0.383, 0.043, 0.76, 2.273, 2.793]


@pytest.mark.parametrize("args, error, message", [
    (([2.0, 1.0], [0.5, 0.5]), ValidationError, "outcomes must be sorted ascending"),
    (([2.0, 1.0], [1.5, -0.5]), ValidationError, "outcomes must be sorted ascending"),
    (([1.0, 2.0], [1.0 + 2e-15, -2e-15]), MassError, "probabilities must be non-negative"),
    (([1.0, 2.0], [0.5, 0.5 + 2e-12]), MassError,
     "probabilities sum to 1.000000000002, not 1"),
    (([1.0, 2.0], [0.5, 0.5 - 2e-12]), MassError,
     "probabilities sum to 0.999999999998, not 1"),
    ((list(range(9)), P9), MassError, "probabilities sum to 1.000000000003, not 1"),
    (([[1.0, 2.0]], [[0.5, 0.5]]), ValidationError,
     "outcomes and probabilities must be 1-d and aligned"),
    (([1.0, 2.0], [1.0]), ValidationError,
     "outcomes and probabilities must be 1-d and aligned"),
    ((1.0, 1.0), ValidationError, "outcomes and probabilities must be 1-d and aligned"),
    (([], []), ValidationError, "at least one outcome is required"),
])
def test_discrete_model_errors(args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        DiscreteModel(*args)
    assert type(caught.value) is error


@pytest.mark.parametrize("kwargs, error, message", [
    ({"t0": 10.0, "xi": [1.0, -1.0]}, ValidationError, "xi must be sorted ascending"),
    ({"t0": 10.0, "xi": [2.0, -1.0, -1.0]}, ValidationError, "xi must be sorted ascending"),
    ({"t0": 10.0, "xi": [[-1.0, 1.0]]}, ValidationError,
     "xi must be a non-empty 1-d sequence"),
    ({"t0": 10.0, "xi": []}, ValidationError, "xi must be a non-empty 1-d sequence"),
    ({"t0": 10.0, "xi": [-1.0, 2.0]}, ZeroMeanError, "xi must be zero-mean, got mean 0.5"),
    ({"t0": 10.0, "xi": XI9}, ZeroMeanError,
     "xi must be zero-mean, got mean -0.22277777777777766"),
    ({"t0": 1e17, "xi": [-1.0, 0.0, 1.0]}, CollapsedBandError,
     "t0 + xi rounds distinct perturbations to one outcome at t0=1e+17"),
    ({"t0": 10**17, "xi": [-1.0, 0.0, 1.0]}, CollapsedBandError,
     "t0 + xi rounds distinct perturbations to one outcome at t0=100000000000000000"),
    ({"t0": 10.0, "xi": [-1.0, 1.0], "t_min": 9.5}, ValidationError,
     "t_min/t_max must bracket the perturbed band"),
    ({"t0": 10.0, "xi": [-1.0, 1.0], "t_max": 10.5}, ValidationError,
     "t_min/t_max must bracket the perturbed band"),
    ({"t0": 0.5, "xi": [-1.0, 1.0]}, ValidationError, "service times carry no mass below zero"),
    ({"t0": 5.0, "xi": [-1.0, 1.0], "psi": 0.3, "t_min": -1.0}, ValidationError,
     "service times carry no mass below zero"),
    ({"t0": 10.0, "xi": [-1.0, 1.0], "p0": 1.0}, MassError,
     "p0 must lie strictly inside (0, 1)"),
    ({"t0": 10.0, "xi": [-1.0, 1.0], "psi": 0.6}, MassError,
     "psi must satisfy 0 < psi <= min(p0, 1 - p0)"),
])
def test_build_dt_instance_errors(kwargs, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        build_dt_instance(**kwargs)
    assert type(caught.value) is error


@pytest.mark.parametrize("kwargs, outcomes", [
    # a NaN hides a non-zero mean, as numpy's comparisons with NaN are false
    ({"t0": 10.0, "xi": [NAN, 0.0]}, [NAN, 10.0]),
    # integer inputs, and flanks apart from the band
    ({"t0": 10, "xi": [-1.0, 1.0], "t_min": 8, "t_max": 12, "psi": 0.25},
     [8.0, 9.0, 11.0, 12.0]),
])
def test_build_dt_instance_passes(kwargs, outcomes):
    instance = build_dt_instance(**kwargs)
    assert _bits(instance.outcomes) == _bits(outcomes)
