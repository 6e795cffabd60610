"""A report's integrals run in lockstep over one window and share the
nodes of each round: every term must come out as it does alone.

Each term of a shared call is compared, value, ``info`` and error, with a
lone :func:`cotv.numerics.integrate` of its integrand written out as
g(t) w'(F(t)) f(t), and with the one-panel-per-call oracle.  The error
cases pin the order in which a report meets its failures and what a
divergent integral costs the terms after it.
"""

from pathlib import Path

import numpy as np
import pytest

from cotv import numerics
from cotv.cli import render_envelope, run_scenario
from cotv.config import parse_config
from cotv.distributions import (
    Exponential,
    Gamma,
    LogNormal,
    ServiceTimeModel,
    ShiftedScaled,
    Uniform,
)
from cotv.errors import CotvError, NonConvergenceError, NonFiniteError
from cotv.eu import EconomicContext, evaluate
from cotv.preferences import InverseSWeighting, PowerWeighting, PureQuadraticUtility

from oracles import sequential_integrate

MODELS = {
    "exponential": Exponential(1.3),
    "uniform": Uniform(0.5, 2.0),
    "lognormal": LogNormal(1.0, 0.5),
    "gamma": Gamma(2.5, 1.5),
    "shifted_scaled": ShiftedScaled(LogNormal(0.0, 0.4), loc=1.0, scale=2.0),
}
WEIGHTINGS = {
    "none": None,
    "squared": PowerWeighting(2.0),
    "inverse_s": InverseSWeighting(1.3),
    "power": PowerWeighting(1.5),
}
INTEGRANDS = {
    "t": lambda t: np.asarray(t, dtype=float),
    "square": lambda t: (t - 1.7) ** 2,
    "decay": lambda t: -np.exp(-0.4 * np.asarray(t, dtype=float)),
}


def lone_integrand(model, g, w):
    """The integrand as one integral evaluates it alone."""
    if w is None:
        return lambda t: np.asarray(g(t)) * model.pdf(t)
    return lambda t: np.asarray(g(t)) * w.dw(model.cdf(t)) * model.pdf(t)


def outcome(integrate, f, lo, hi):
    info = {}
    try:
        return integrate(f, lo, hi, None, info), info
    except (NonFiniteError, NonConvergenceError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_each_term_equals_its_lone_integral(model):
    terms = [(g, w) for w in WEIGHTINGS.values() for g in INTEGRANDS.values()]
    infos = [{} for _ in terms]
    (lo, hi), values = model._expects(terms, None, infos)
    assert (lo, hi) == model.integration_interval()[:2]
    for (g, w), value, info in zip(terms, values, infos):
        f = lone_integrand(model, g, w)
        alone = outcome(numerics.integrate, f, lo, hi)
        assert (value, {k: info[k] for k in ("panels", "max_depth")}) == alone
        assert alone == outcome(sequential_integrate, f, lo, hi)
        assert info["integration_interval"] == [lo, hi]


def test_terms_refine_apart():
    # the terms bisect different panels, so the rounds take unions
    model = MODELS["lognormal"]
    terms = [(g, w) for w in WEIGHTINGS.values() for g in INTEGRANDS.values()]
    infos = [{} for _ in terms]
    list(model._expects(terms, None, infos)[1])
    assert len({info["panels"] for info in infos}) > 1


def test_one_term_is_distorted_expect():
    model, w = MODELS["gamma"], WEIGHTINGS["inverse_s"]
    g = INTEGRANDS["decay"]
    info = {}
    value = model.distorted_expect(g, w, None, info)
    lo, hi, truncated = model.integration_interval()
    alone = {}
    assert value == numerics.integrate(lone_integrand(model, g, w), lo, hi, None, alone)
    assert info == {"integration_interval": [lo, hi], "truncated": truncated, **alone}


def bad_after(threshold):
    """An integrand that is NaN from ``threshold`` on."""
    return lambda t: np.where(np.asarray(t) < threshold, 1.0, np.nan)


def test_non_finite_term_raises_its_own_error_when_read():
    model = MODELS["uniform"]
    lo, hi = model.integration_interval()[:2]
    bad = bad_after(1.9)
    terms = [(INTEGRANDS["decay"], None), (bad, None), (INTEGRANDS["t"], None)]
    values = model._expects(terms)[1]
    assert next(values) == numerics.integrate(
        lone_integrand(model, INTEGRANDS["decay"], None), lo, hi)
    with pytest.raises(NonFiniteError) as shared:
        next(values)
    alone = outcome(numerics.integrate, lone_integrand(model, bad, None), lo, hi)
    assert alone == (NonFiniteError, str(shared.value))
    assert alone == outcome(sequential_integrate, lone_integrand(model, bad, None), lo, hi)


def test_terms_after_a_failed_one_are_dropped():
    calls = 0

    def later(t):
        nonlocal calls
        calls += 1
        return np.exp(-np.asarray(t, dtype=float))

    values = MODELS["uniform"]._expects([(bad_after(0.0), None), (later, None)])[1]
    with pytest.raises(NonFiniteError, match=r"on \[0.5, 2\]"):
        next(values)
    assert calls == 1  # the round the two terms shared


def test_raising_integrand_is_charged_to_its_term():
    # the union of a round raises; each term is then evaluated alone
    model = MODELS["uniform"]
    lo, hi = model.integration_interval()[:2]

    def raises(t):
        if np.any(np.asarray(t) > 1.99):
            raise ArithmeticError("deep node")
        return np.asarray(t, dtype=float)

    terms = [(INTEGRANDS["square"], None), (raises, None), (INTEGRANDS["t"], None)]
    values = model._expects(terms)[1]
    assert next(values) == numerics.integrate(
        lone_integrand(model, INTEGRANDS["square"], None), lo, hi)
    with pytest.raises(ArithmeticError, match="deep node"):
        next(values)
    with pytest.raises(ArithmeticError, match="deep node"):
        numerics.integrate(lone_integrand(model, raises, None), lo, hi)


def test_premium_root_failure_comes_before_a_failing_vot():
    # E[u] converges, the premium root meets u = NaN at the window's end,
    # and VOT's integrand is NaN everywhere
    u = PureQuadraticUtility(-1.0)
    quadratic = u.u
    u.u = lambda t: np.where(np.asarray(t) < 0.9995, quadratic(t), np.nan)
    u.du = lambda t: np.full(np.shape(t), np.nan)
    model = Uniform(0.0, 1.0)
    with pytest.raises(NonFiniteError) as report:
        evaluate(u, model, EconomicContext(method="exact"))
    assert str(report.value) == "function returned non-finite value at a bracket end"
    with pytest.raises(NonFiniteError, match="integrand returned non-finite"):
        model.expect(lambda t: -np.asarray(u.du(t), dtype=float))


REGION_F = {"framework": "eu",
            "distribution": {"family": "uniform", "params": {"lo": 0.0, "hi": 1.0}},
            "preference": {"family": "constant_prudence", "params": {"prudence": 3.0}},
            "method": "exact"}


def test_divergent_integral_delays_later_terms_by_at_most_the_shared_rounds(
        monkeypatch):
    # E[u] diverges at 0 and runs to the panel cap, lowered here to keep
    # the test fast; VOT after it advances in the shared rounds only
    monkeypatch.setattr(numerics, "_MAX_PANELS", 20_001)
    scenario = parse_config(REGION_F)
    model, u = scenario.model, scenario.utility
    calls = {"pdf": 0, "u": 0, "du": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(self, t):
            calls[name] += 1
            return original(self, t)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((type(model), "pdf"), (type(u), "u"), (type(u), "du")):
        counting(owner, name)
    lo, hi = model.integration_interval()[:2]
    alone = outcome(numerics.integrate, lone_integrand(model, u.u, None), lo, hi)
    assert alone == (NonConvergenceError, "quadrature panel budget exhausted")
    lone = calls["pdf"]
    assert calls == {"pdf": lone, "u": lone, "du": 0}
    calls.update(pdf=0, u=0)
    with pytest.raises(NonConvergenceError) as shared:
        run_scenario(scenario)
    assert (type(shared.value), str(shared.value)) == alone
    # one u (E[u]) call per round, as alone; VOT's integrand only in the
    # rounds every term shares, plus u'(mu) once for VOT at the mean
    assert calls["pdf"] == calls["u"] == lone
    assert 1 < calls["du"] <= numerics._SHARED_ROUNDS + 1


def each_alone(self, terms, tol=None, infos=None):
    """``_expects`` with each term integrated by its own ``integrate``."""
    lo, hi, truncated = self.integration_interval()

    def values():
        for (g, w), info in zip(terms, infos or [None] * len(terms)):
            if info is not None:
                info.update(integration_interval=[lo, hi], truncated=truncated)
            yield numerics.integrate(lone_integrand(self, g, w), lo, hi, tol, info)
    return (lo, hi), values()


def render_corpus(configs) -> list[str]:
    texts = []
    for raw in configs:
        for method in ("exact", "second_order", "both"):
            try:
                texts.append(render_envelope(run_scenario(parse_config(
                    dict(raw, method=method)))))
            except CotvError as exc:
                texts.append(f"{type(exc).__name__}: {exc}")
    return texts


def test_report_corpus_renders_as_with_one_integral_per_term(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    from inputs import report_corpus

    configs = [item["config"] for item in report_corpus(1)]
    shared = render_corpus(configs)
    monkeypatch.setattr(ServiceTimeModel, "_expects", each_alone)
    assert render_corpus(configs) == shared
