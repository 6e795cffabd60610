"""A report's integrals share one call: the terms read the same tanh-sinh
nodes of p in (0, 1), and every term must come out as it does alone.

Each term of a shared call is compared, value, ``info`` and error, with
the one-term call of :meth:`~cotv.distributions.ServiceTimeModel.
distorted_expect`, and its value with the adaptive Gauss integral of
g(t) w'(F(t)) f(t) on the model's window.  The error cases pin the order
in which a report meets its failures and what a divergent integral costs
the terms after it.
"""

import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cotv import numerics
from cotv.cli import render_csv, render_envelope, run_scenario, sweep_rows
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
from cotv.numerics import DEFAULT_TOLERANCE, Tolerance
from cotv.preferences import InverseSWeighting, PowerWeighting, PureQuadraticUtility

from oracles import window

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
ALL_TERMS = [(g, w) for w in WEIGHTINGS.values() for g in INTEGRANDS.values()]


def lone_integrand(model, g, w):
    """The integrand in t, g(t) w'(F(t)) f(t), for the adaptive route."""
    if w is None:
        return lambda t: np.asarray(g(t)) * model.pdf(t)
    return lambda t: np.asarray(g(t)) * w.dw(model.cdf(t)) * model.pdf(t)


def outcome(run):
    """The value and info of ``run(info)``, or its error class and message."""
    info = {}
    try:
        return run(info), info
    except (NonFiniteError, NonConvergenceError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_each_term_equals_its_lone_integral(model):
    infos = [{} for _ in ALL_TERMS]
    values = model._expects(ALL_TERMS, None, infos)
    lo, hi = window(model)
    for (g, w), value, info in zip(ALL_TERMS, values, infos):
        alone = outcome(lambda info: model.distorted_expect(g, w, None, info))
        assert (value, info) == alone
        assert set(info) == {"levels", "nodes", "error"}
        # the window the adaptive route integrates on leaves out 1e-15 of
        # probability, far below the budget
        gauss = numerics.integrate(lone_integrand(model, g, w), lo, hi)
        assert abs(value - gauss) <= DEFAULT_TOLERANCE.scale(gauss)


def test_terms_refine_apart():
    # at a 1e-12 budget E_w[t^2] under power weighting needs a finer level
    # than E_w[t]: each term stops where its own levels agree
    model, w = Uniform(4.6, 7.3), PowerWeighting(1.2)
    tight = Tolerance(abs_tol=1e-14, rel_tol=1e-12)
    terms = [(INTEGRANDS["t"], w), (lambda t: t * t, w)]
    infos = [{} for _ in terms]
    list(model._expects(terms, tight, infos))
    assert [info["levels"] for info in infos] == [3, 4]


def test_one_term_is_distorted_expect():
    model, w = MODELS["gamma"], WEIGHTINGS["inverse_s"]
    g = INTEGRANDS["decay"]
    info, alone = {}, {}
    value = model.distorted_expect(g, w, None, info)
    assert value == next(model._expects([(g, w)], None, [alone]))
    assert info == alone and info["nodes"] == (12 << info["levels"]) + 1
    assert info["error"] <= DEFAULT_TOLERANCE.scale(value)


def bad_after(threshold):
    """An integrand that is NaN from ``threshold`` on."""
    return lambda t: np.where(np.asarray(t) < threshold, 1.0, np.nan)


def test_non_finite_term_raises_its_own_error_when_read():
    model = MODELS["uniform"]
    bad = bad_after(1.9)
    terms = [(INTEGRANDS["decay"], None), (bad, None), (INTEGRANDS["t"], None)]
    values = model._expects(terms)
    assert next(values) == model.expect(INTEGRANDS["decay"])
    with pytest.raises(NonFiniteError) as shared:
        next(values)
    alone = outcome(lambda info: model.distorted_expect(bad, None, None, info))
    assert alone == (NonFiniteError, str(shared.value))
    assert str(shared.value).startswith("integrand returned non-finite values on [1.9")


def test_terms_after_a_failed_one_are_dropped():
    calls = 0

    def later(t):
        nonlocal calls
        calls += 1
        return np.exp(-np.asarray(t, dtype=float))

    values = MODELS["uniform"]._expects([(bad_after(0.0), None), (later, None)])
    with pytest.raises(NonFiniteError, match=r"on \[0.5, 2\]"):
        next(values)
    assert calls == 0


def test_raising_integrand_is_charged_to_its_term():
    # the integrand raises on the nodes near the top of the support only
    model = MODELS["uniform"]
    lo, hi = window(model)

    def raises(t):
        if np.any(np.asarray(t) > 1.99):
            raise ArithmeticError("deep node")
        return np.asarray(t, dtype=float)

    terms = [(INTEGRANDS["square"], None), (raises, None), (INTEGRANDS["t"], None)]
    values = model._expects(terms)
    assert next(values) == model.expect(INTEGRANDS["square"])
    with pytest.raises(ArithmeticError, match="deep node"):
        next(values)
    with pytest.raises(ArithmeticError, match="deep node"):
        model.expect(raises)
    with pytest.raises(ArithmeticError, match="deep node"):
        numerics.integrate(lone_integrand(model, raises, None), lo, hi)


def test_premium_root_failure_comes_before_a_failing_vot():
    # E[u] converges, the premium root meets u = NaN at the bracket's end,
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


# the divergence of the ledger's region f, u ~ -c/t near 0 on uniform(0, 1),
# with a slope and an interval that certify u decreasing at the mean 0.5
DIVERGENT = {"framework": "eu",
             "distribution": {"family": "uniform", "params": {"lo": 0.0, "hi": 1.0}},
             "preference": {"family": "constant_prudence",
                            "params": {"prudence": 3.0, "slope_at_one": -100.0},
                            "interval": [0.1, 1000.0]},
             "method": "exact"}


def test_divergent_integral_stops_the_terms_after_it(monkeypatch):
    # E[u] diverges at 0: its levels never agree, and after the finest,
    # h = 1/128, it raises; VOT after it is never evaluated
    scenario = parse_config(DIVERGENT)
    model, u = scenario.model, scenario.utility
    calls = {"_level_times": 0, "u": 0, "du": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((type(model), "_level_times"), (type(u), "u"), (type(u), "du")):
        counting(owner, name)
    alone = outcome(lambda info: model.expect(u.u))
    assert alone[0] is NonConvergenceError
    # one quantile pass and one u call per level, 3 to 7
    assert calls == {"_level_times": 5, "u": 5, "du": 0}
    calls.update(_level_times=0, u=0)
    with pytest.raises(NonConvergenceError) as shared:
        run_scenario(scenario)
    assert (type(shared.value), str(shared.value)) == alone
    # u at the nodes as alone, and u'(mu) once for VOT at the mean
    assert calls == {"_level_times": 5, "u": 5, "du": 1}


def traced_peak_mb(run) -> float:
    """Peak of the memory ``run()`` allocates, in MB, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        run()
    except CotvError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak / 1e6


def test_divergent_report_keeps_a_bounded_share():
    # every level to the finest holds 1,537 node times in all
    scenario = parse_config(DIVERGENT)
    assert traced_peak_mb(lambda: run_scenario(scenario)) < 2.0


def test_one_term_keeps_nothing():
    # the divergent E[u] alone, to the finest level, with the node levels
    # built beforehand: its node times and integrand values take 12 KB each
    scenario = parse_config(DIVERGENT)
    model, u = scenario.model, scenario.utility
    for level in range(3, 8):
        numerics._tanh_sinh_level(level)
    assert traced_peak_mb(lambda: model.expect(u.u)) < 0.05


EXPECTS = ServiceTimeModel._expects


def each_alone(self, terms, tol=None, infos=None):
    """``_expects`` with each term integrated by its own call."""
    infos = infos or [None] * len(terms)
    return (next(EXPECTS(self, [term], tol, [info]))
            for term, info in zip(terms, infos))


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


def render_inputs(configs, reproducers, grids) -> tuple:
    with warnings.catch_warnings():
        # the reproducers hit singular weightings on purpose
        warnings.simplefilter("ignore", RuntimeWarning)
        failures = render_corpus(reproducers)
    return (render_corpus(configs), failures,
            [render_csv(*sweep_rows(parse_config(raw))) for raw in grids])


def test_benchmark_inputs_render_as_with_one_integral_per_term(monkeypatch):
    bench = Path(__file__).parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    from inputs import report_corpus, sweep_grids

    ledger = json.loads((bench / "ledger.json").read_text())["regions"]
    inputs = ([item["config"] for item in report_corpus(1)],
              [region["config"] for region in ledger if region["fast"]],
              sweep_grids(1))
    shared = render_inputs(*inputs)
    monkeypatch.setattr(ServiceTimeModel, "_expects", each_alone)
    assert render_inputs(*inputs) == shared
