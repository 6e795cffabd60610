"""Kernel calls per exact report and object builds per scenario.

Root searches are counted on the code objects of the functions through
``sys.setprofile``, so the count does not depend on how a module binds
them; integrals are counted as the calls of ``numerics._adaptive``.
Each exact report computes E_w[u] once: EU takes E[u] and VOT (2
integrals), and RDU adds the distorted mean (3 integrals); the premium is
one root solve on a bracket inside the integration window, with no
bracket search, which evaluates u at the mean once and takes at most 10
iterations on the benchmark's report corpus and sweep grids.  An EU
second-order report takes each of u', u'' and u''' at the mean once.
Every family reads its dual moments from a closed form or an exact sum,
so no report and no ``moments()`` call integrates one, and a DT
second-order report integrates nothing.  A ``method: "both"`` scenario
computes the inputs its two reports share once: RDU second order reuses
the distorted mean of the exact report (3 integrals in all, not 4), and
DT and EU second order integrate nothing (1 and 2).
Each integral requests the window
and its halves, then the quarters of every panel it bisects.  A report's
integrals share one window and run one after another, and a request an
earlier integral made is not evaluated again: here pdf is evaluated once
per request of the longest integral.  ``parse_config`` builds a
scenario's model, utility and weighting once, and every report of the
scenario uses those objects.  A sweep parses each grid point once but
builds each distinct block (equal canonical JSON) once per sweep; a block
that fails raises the error a parse of its point alone raises.
"""

import copy
import sys

import numpy as np
import pytest

from cotv import config, distributions, eu, non_eu, numerics
from cotv.cli import run_scenario, sweep_rows
from cotv.config import parse_config
from cotv.distributions import ServiceTimeModel
from cotv.errors import ConfigError
from cotv.non_eu import RduContext, rdu_ratio

from oracles import bench_inputs

EU_EXACT = {"framework": "eu",
            "distribution": {"family": "exponential", "params": {"rate": 1.0}},
            "preference": {"family": "pure_quadratic", "params": {"a": -1.0}},
            "method": "exact"}
RDU_EXACT = {"framework": "rdu",
             "distribution": {"family": "lognormal",
                              "params": {"log_mean": 1.0, "log_sd": 0.5}},
             "preference": {"family": "power", "params": {"exponent": 1.5}},
             "weighting": {"family": "inverse_s", "params": {"gamma": 0.8}},
             "method": "exact"}
# the gamma twins of the lognormal scenarios: its dual moments are closed
# forms too, so its reports make the lognormal's integrals
GAMMA = {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}}
RDU_GAMMA = dict(RDU_EXACT, distribution=GAMMA)


def count_calls(functions, run) -> dict:
    """Calls of each function, by name, while ``run()`` executes."""
    codes = {fn.__code__: fn.__name__ for fn in functions}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts


def kernel_records(run, monkeypatch) -> tuple[list, list]:
    """(requests, panels) of each integral ``run()`` computes, and the pdf
    evaluations of each shared call.

    An integral is one call of ``numerics._adaptive``; its requests are
    the calls of the panel estimate it is handed.  A shared call is one
    :meth:`~cotv.distributions.ServiceTimeModel._expects` call of a
    continuous model, and its pdf evaluations are the calls of its model's
    ``pdf`` until the next shared call.
    """
    integrals, pdf_calls, counted_classes = [], [], set()
    adaptive, expects = numerics._adaptive, ServiceTimeModel._expects

    def counted_adaptive(estimate, lo, hi, tol, info):
        info = {} if info is None else info
        requests = 0

        def counted(ends):
            nonlocal requests
            requests += 1
            return estimate(ends)

        value = adaptive(counted, lo, hi, tol, info)
        integrals.append((requests, info["panels"]))
        return value

    def counted_pdf(pdf):
        def counted(self, t):
            pdf_calls[-1] += 1
            return pdf(self, t)
        return counted

    def counted_expects(self, *args):
        cls = type(self)
        if cls not in counted_classes:
            counted_classes.add(cls)
            monkeypatch.setattr(cls, "pdf", counted_pdf(cls.pdf))
        pdf_calls.append(0)
        return expects(self, *args)

    for module in (numerics, distributions):
        monkeypatch.setattr(module, "_adaptive", counted_adaptive)
    monkeypatch.setattr(ServiceTimeModel, "_expects", counted_expects)
    run()
    return integrals, pdf_calls


def kernel_calls(run, monkeypatch) -> dict:
    roots = (numerics.find_root, numerics.expand_bracket)
    records = []
    counts = count_calls(roots, lambda: records.extend(kernel_records(run, monkeypatch)[0]))
    return {"integrals": len(records), **counts}


def report(raw: dict):
    scenario = parse_config(raw)
    return lambda: run_scenario(scenario)


@pytest.mark.parametrize("raw, expected", [
    (EU_EXACT, {"integrals": 2, "find_root": 1, "expand_bracket": 0}),
    (RDU_EXACT, {"integrals": 3, "find_root": 1, "expand_bracket": 0}),
    (RDU_GAMMA, {"integrals": 3, "find_root": 1, "expand_bracket": 0}),
], ids=["eu", "rdu", "rdu-gamma"])
def test_exact_report_kernel_calls(raw, expected, monkeypatch):
    assert kernel_calls(report(raw), monkeypatch) == expected


@pytest.mark.parametrize("raw", [RDU_EXACT, RDU_GAMMA], ids=["lognormal", "gamma"])
def test_rdu_ratio_kernel_calls(raw, monkeypatch):
    # the distorted mean alone; no premium root
    scenario = parse_config(raw)
    ctx = RduContext(u=scenario.utility, w=scenario.weighting)
    counts = kernel_calls(lambda: rdu_ratio(scenario.model, ctx, 1.0), monkeypatch)
    assert counts == {"integrals": 1, "find_root": 0, "expand_bracket": 0}


def both(raw: dict) -> dict:
    return dict(raw, method="both")


def test_second_order_report_takes_each_derivative_at_the_mean_once():
    scenario = parse_config(dict(RDU_EXACT, framework="eu", method="second_order",
                                 weighting=None))
    cls = type(scenario.utility)
    counts = count_calls((cls.du, cls.d2u, cls.d3u), lambda: run_scenario(scenario))
    assert counts == {"du": 1, "d2u": 1, "d3u": 1}


def premium_roots(run, monkeypatch) -> tuple[list, list]:
    """The iterations of each premium root ``run()`` solves, and how many
    times each root on an integration window evaluates u at the mean."""
    iterations, at_mean = [], []
    find_root, solve = numerics.find_root, eu._solve_premium

    def counted_root(g, lo, hi, tol=None, info=None):
        info = {} if info is None else info
        root = find_root(g, lo, hi, tol, info)
        iterations.append(info.get("iterations", 0))
        return root

    class Counted:
        def __init__(self, u, mu):
            self.inner, self.mu, self.calls = u, mu, 0

        def u(self, t):
            self.calls += t == self.mu
            return self.inner.u(t)

    def counted_solve(u, mu, *args):
        counted = Counted(u, mu)
        try:
            return solve(counted, mu, *args)
        finally:
            at_mean.append(counted.calls)

    for module in (eu, non_eu):
        monkeypatch.setattr(module, "find_root", counted_root)
    monkeypatch.setattr(eu, "_solve_premium", counted_solve)
    run()
    return iterations, at_mean


# Brent's method solves every premium of these inputs in at most 10
# iterations (bisection with secant steps took up to 33), and the gap at 0,
# which picks the bracket and is one of its ends, is evaluated once.
@pytest.mark.parametrize("workload, roots, on_window", [
    ("report_corpus", 225, 210),
    ("sweep_grids", 1024, 1024),
])
def test_premium_roots_take_few_iterations(workload, roots, on_window, monkeypatch):
    # a report corpus item holds its scenario under "config"
    configs = [item.get("config", item) for item in getattr(bench_inputs(), workload)(1)]

    def run():
        for raw in configs:
            scenario = parse_config(raw)
            if "sweep" in raw:
                sweep_rows(scenario)
            else:
                run_scenario(scenario)

    iterations, at_mean = premium_roots(run, monkeypatch)
    assert len(iterations) == roots and max(iterations) <= 10
    assert len(at_mean) == on_window and set(at_mean) == {1}


DT_EXPONENTIAL = {"framework": "dt",
                  "distribution": {"family": "exponential", "params": {"rate": 1.0}},
                  "preference": {"family": "affine", "params": {"slope": 1.0}},
                  "weighting": {"family": "inverse_s", "params": {"gamma": 0.8}}}
DT_GAMMA = dict(DT_EXPONENTIAL, distribution=GAMMA)


@pytest.mark.parametrize("raw, expected", [
    (both(EU_EXACT), {"integrals": 2, "find_root": 1, "expand_bracket": 0}),
    (both(DT_EXPONENTIAL), {"integrals": 1, "find_root": 0, "expand_bracket": 0}),
    (both(DT_GAMMA), {"integrals": 1, "find_root": 0, "expand_bracket": 0}),
    (both(RDU_EXACT), {"integrals": 3, "find_root": 1, "expand_bracket": 0}),
    (both(RDU_GAMMA), {"integrals": 3, "find_root": 1, "expand_bracket": 0}),
], ids=["eu", "dt", "dt-gamma", "rdu", "rdu-gamma"])
def test_both_report_kernel_calls(raw, expected, monkeypatch):
    assert kernel_calls(report(raw), monkeypatch) == expected


# A point mass takes the general route: its exact sums give E_w[u] = u(mu),
# so the premium gap at 0 is exactly 0 and is the root.  EU and RDU read the
# zero gap once (u at the mean) and call no root finder, and DT's exact
# premium is E_w[t] - mu.
@pytest.mark.parametrize("raw, at_mean", [
    (EU_EXACT, [1]),
    (DT_EXPONENTIAL, []),
    (RDU_EXACT, [1]),
], ids=["eu", "dt", "rdu"])
def test_point_mass_exact_report_integrates_and_solves_nothing(raw, at_mean,
                                                                monkeypatch):
    run = report(dict(raw, distribution={"family": "degenerate",
                                         "params": {"value": 2.5}}, method="exact"))
    assert kernel_calls(run, monkeypatch) == {"integrals": 0, "find_root": 0,
                                              "expand_bracket": 0}
    assert premium_roots(run, monkeypatch) == ([], at_mean)


@pytest.mark.parametrize("distribution", [
    {"family": "exponential", "params": {"rate": 1.0}},
    {"family": "uniform", "params": {"lo": 1.0, "hi": 4.0}},
    {"family": "lognormal", "params": {"log_mean": 1.0, "log_sd": 0.5}},
    GAMMA,
], ids=lambda distribution: distribution["family"])
def test_dt_second_order_on_closed_dual_moments_integrates_nothing(distribution,
                                                                  monkeypatch):
    raw = dict(DT_EXPONENTIAL, distribution=distribution, method="second_order")
    records, pdf_calls = kernel_records(report(raw), monkeypatch)
    assert records == [] and pdf_calls == []


@pytest.mark.parametrize("model", [
    distributions.Exponential(1.0),
    distributions.Uniform(1.0, 4.0),
    distributions.LogNormal(1.0, 0.5),
    distributions.Gamma(2.0, 1.0),
    distributions.Gamma(0.3, 1.0),
    distributions.Gamma(0.05, 1.0),
    distributions.ShiftedScaled(distributions.Gamma(2.0, 1.0), 1.0, 2.0),
    distributions.DiscreteModel([1.0, 2.0, 5.0], [0.2, 0.5, 0.3]),
    distributions.Degenerate(3.0),
], ids=lambda model: model.label())
def test_moments_integrate_nothing(model, monkeypatch):
    # a d(F^2) integral on a gamma below shape 0.5 ran to the panel cap
    records, _ = kernel_records(lambda: distributions.moments(model), monkeypatch)
    assert records == []


# (run, integrals, pdf evaluations per shared call): terms that refine the
# same panel share its request, and each integral here refines a subset of
# the panels of the longest, so a report evaluates pdf once per request of
# its longest integral.
INTEGRALS = {
    "eu": (report(EU_EXACT), 2, [2]),
    "rdu": (report(RDU_EXACT), 3, [8]),
    "rdu-both": (report(both(RDU_EXACT)), 3, [8]),
    "rdu-gamma": (report(RDU_GAMMA), 3, [15]),
    "dt-both": (report(both(DT_EXPONENTIAL)), 1, [22]),
    "dt-both-gamma": (report(both(DT_GAMMA)), 1, [11]),
}


@pytest.mark.parametrize("run, integrals, pdf_calls", INTEGRALS.values(), ids=INTEGRALS)
def test_one_pdf_evaluation_per_shared_request(run, integrals, pdf_calls, monkeypatch):
    records, shared = kernel_records(run, monkeypatch)
    assert len(records) == integrals
    requests = [calls for calls, _ in records]
    for calls, panels in records:
        assert calls == 1 + (panels - 3) // 4
    assert shared == pdf_calls == [max(requests)]


def test_lone_integrate_calls_its_integrand_once_per_request(monkeypatch):
    calls = 0

    def f(t):
        nonlocal calls
        calls += 1
        return np.exp(-t)

    records, shared = kernel_records(lambda: numerics.integrate(f, 0.0, 10.0), monkeypatch)
    assert records == [(1, 3)] and shared == [] and calls == 1


BUILDERS = (config.build_model, config.build_utility, config.build_weighting)
EXPONENTIAL = {"family": "exponential", "params": {"rate": 1.0}}
RDU_BOTH = {"framework": "rdu", "distribution": EXPONENTIAL,
            "preference": {"family": "pure_quadratic", "params": {"a": -1.0}},
            "weighting": {"family": "inverse_s", "params": {"gamma": 0.8}},
            "method": "both"}
EU_SWEEP = {"framework": "eu", "distribution": EXPONENTIAL,
            "preference": {"family": "pure_quadratic", "params": {"a": -1.0}},
            "method": "both",
            "sweep": {"axes": {"distribution.params.rate": [0.5, 2.0],
                               "economics.phi": [1.0, 2.5]}}}


def test_report_builds_each_object_once():
    counts = count_calls(BUILDERS, lambda: run_scenario(parse_config(RDU_BOTH)))
    assert counts == {"build_model": 1, "build_utility": 1, "build_weighting": 1}


QUADRATIC = {"family": "quadratic", "params": {"a": -1.0, "b": 0.0}}
PREFERENCE_SWEEP = {"framework": "eu", "distribution": EXPONENTIAL,
                    "preference": QUADRATIC, "method": "both",
                    "sweep": {"axes": {"preference.params.a": [-1.0, -2.0, -1.0],
                                       "preference.params.b": [-0.5, 0.0],
                                       "economics.phi": [1.0, 2.5]}}}


@pytest.mark.parametrize("raw, expected", [
    (EU_SWEEP, {"build_model": 2, "build_utility": 1, "build_weighting": 0}),
    (PREFERENCE_SWEEP, {"build_model": 1, "build_utility": 4,
                        "build_weighting": 0}),
], ids=["eu", "preference"])
def test_sweep_builds_each_distinct_block_once(raw, expected):
    scenario = parse_config(raw)
    counts = count_calls(BUILDERS, lambda: sweep_rows(scenario))
    assert counts == expected


# an increasing utility, and a value that is no JSON number (nor a number
# to the config schema)
@pytest.mark.parametrize("block, key, good, bad", [
    ("preference", "b", -0.5, 0.5),
    ("distribution", "rate", 1.0, np.int64(2)),
], ids=["increasing", "not-json"])
def test_sweep_block_error_equals_its_point_parse(block, key, good, bad):
    raw = dict(EU_SWEEP, preference=QUADRATIC,
               sweep={"axes": {f"{block}.params.{key}": [good, bad]}})
    point = copy.deepcopy({name: value for name, value in raw.items()
                           if name != "sweep"})
    point[block]["params"][key] = bad
    with pytest.raises(ConfigError) as alone:
        parse_config(point)
    with pytest.raises(ConfigError) as swept:
        sweep_rows(parse_config(raw))
    assert (swept.value.path, swept.value.message) == \
        (alone.value.path, alone.value.message)
