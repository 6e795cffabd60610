"""EU's moment basis in closed form.

Under expected utility a quadratic, pure-quadratic or affine utility reads
E[t] and E[t^2] from a continuous model's closed mean and variance:
E[t] = mean() and E[t^2] = variance() + mean^2.  Each pair is compared
with the tanh-sinh integrals it replaces, within 1e-13 relative, and with
the exact moments, in rational arithmetic (the lognormal's exponentials
to 50 digits), within 1e-15 relative.  The draws cover report-mix's
ranges of every continuous family, the gamma up to its largest shape 5,
and shifted and scaled views.  ``tests/reference_integrals.json`` holds
no unweighted integral, so the exact moments stand in for its 40-digit
references here.  Where variance + mean^2 overflows though both parts
are finite, a report raises ``NonFiniteError`` naming E[t^2].
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cotv.distributions import Exponential, Gamma, LogNormal, ShiftedScaled, Uniform
from cotv.errors import NonFiniteError
from cotv.eu import EconomicContext, _moments, cotv, evaluate
from cotv.preferences import AffineUtility, QuadraticUtility

# report-mix's ranges of its continuous families
BASES = st.one_of(
    st.builds(Exponential, st.floats(0.2, 3.0)),
    st.floats(0.0, 5.0).flatmap(
        lambda lo: st.builds(Uniform, st.just(lo), st.floats(0.5, 10.0).map(lambda w: lo + w))),
    st.builds(LogNormal, st.floats(0.0, 2.0), st.floats(0.25, 0.6)),
    st.builds(Gamma, st.floats(1.5, 5.0), st.floats(0.3, 3.0)),
)
MODELS = st.one_of(BASES, st.builds(ShiftedScaled, BASES, st.floats(0.0, 10.0),
                                    st.floats(0.25, 4.0)))
NARROW = Uniform(1e6, 1e6 + 1.0)
LARGEST_SHAPE = Gamma(5.0, 0.3)


def exact_moments(model) -> tuple[Fraction, Fraction]:
    """E[t] and E[t^2] of ``model``'s parameters, as exact fractions."""
    if isinstance(model, Exponential):
        rate = Fraction(model.rate)
        return 1 / rate, 2 / rate**2
    if isinstance(model, Uniform):
        lo, hi = Fraction(model.lo), Fraction(model.hi)
        return (lo + hi) / 2, (lo * lo + lo * hi + hi * hi) / 3
    if isinstance(model, Gamma):
        shape, rate = Fraction(model.shape), Fraction(model.rate)
        return shape / rate, shape * (shape + 1) / rate**2
    if isinstance(model, LogNormal):
        m, s = Decimal(model.log_mean), Decimal(model.log_sd)
        with localcontext() as context:
            context.prec = 50
            return Fraction((m + s * s / 2).exp()), Fraction((2 * m + 2 * s * s).exp())
    base_t, base_t2 = exact_moments(model.base)
    loc, scale = Fraction(model.loc), Fraction(model.scale)
    return loc + scale * base_t, loc * loc + 2 * loc * scale * base_t + scale**2 * base_t2


def relative(value: float, reference) -> float:
    return float(abs(Fraction(value) - Fraction(reference)) / abs(Fraction(reference)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model=MODELS)
@example(model=NARROW)
@example(model=LARGEST_SHAPE)
@example(model=ShiftedScaled(LARGEST_SHAPE, 1.0, 2.0))
def test_closed_pair_matches_tanh_sinh_and_the_exact_moments(model):
    mean_t, mean_t2 = _moments(model, None, True, None)
    integrated = (model.expect(lambda t: np.asarray(t, dtype=float)),
                  model.expect(lambda t: np.asarray(t, dtype=float) ** 2))
    for closed, quadrature, exact in zip((mean_t, mean_t2), integrated,
                                         exact_moments(model)):
        assert relative(closed, quadrature) <= 1e-13
        assert relative(closed, exact) <= 1e-15


def test_affine_reads_the_mean_alone():
    assert _moments(NARROW, None, False, None) == (NARROW.mean(), None)


def test_closed_pair_records_no_quadrature():
    info, memo = {}, {}
    _moments(LARGEST_SHAPE, None, True, None, info, memo)
    assert info == {} and memo == {}


# both parts of E[t^2] are finite floats, their sum is not
OVERFLOWING = [Uniform(1e160, 1.0000001e160), ShiftedScaled(Exponential(1.0), loc=2e154)]


@pytest.mark.parametrize("model", OVERFLOWING, ids=lambda model: model.family)
def test_overflowing_second_moment_names_it(model):
    u = QuadraticUtility(a=-1.0, interval=(0.0, 1e300))
    exact = EconomicContext(1.0, "exact")
    for run in (lambda: evaluate(u, model, exact), lambda: cotv(u, model, exact)):
        with pytest.raises(NonFiniteError, match=r"^E\[t\^2\] of .* overflows"):
            run()
    # an affine utility never squares t
    assert evaluate(AffineUtility(1.0, interval=(0.0, 1e300)), model, exact).premium == 0.0
