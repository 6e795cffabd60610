"""Kernel calls per exact report and object builds per scenario.

Root searches are counted on the code objects of the functions through
``sys.setprofile``, so the count does not depend on how a module binds
them; integrals are counted as the terms read, the calls of
``numerics._tanh_sinh``.
Each exact report computes E_w[u] once: with a power or constant-prudence
utility EU takes E[u] and VOT (2 integrals), and RDU adds the distorted
mean (3 integrals); a polynomial utility reads E_w[u] and VOT from its
moment basis, E_w[t] and E_w[t^2] (2 integrals in EU and in RDU, whose
distorted mean is E_w[t]), or E_w[t] alone when it is affine (1).  The
premium evaluates u at the mean once.  A polynomial utility's premium is
the root of a quadratic, written down in closed form, so it calls no root
finder; any other is one root solve.  A band's RDU premium is solved by
the same function, at the anchor t0 and from the band's average utility.
Below 0 its bracket starts at the bottom of the support (of the band);
above 0 it is [0, mu], whose upper end doubles while the gap there keeps
the sign of the gap at 0.  It takes at most 10 iterations on the
benchmark's report corpus and sweep grids.  An EU second-order report
takes each of u', u'' and u''' at the mean once.
Every family reads its dual moments from a closed form or an exact sum,
so no report and no ``moments()`` call integrates one, and a DT
second-order report integrates nothing.  A ``method: "both"`` scenario
computes the inputs its two reports share once: RDU second order reuses
the distorted mean of the exact report (3 integrals in all, not 4), and
DT and EU second order integrate nothing (1 and 2).
Each integral sums the tanh-sinh nodes of p in (0, 1), level after level,
and calls its integrand once per level it reaches.  A report's integrals
share one call, which reads the quantile once per level for all of them:
one quantile pass per shared call on every report here, whose terms all
stop at the base level, h = 1/8.  ``parse_config`` builds a
scenario's model, utility and weighting once, and every report of the
scenario uses those objects.  A sweep parses each grid point once but
builds each distinct block (equal canonical JSON) once per sweep, and
writes that JSON once per block dict, which every point with the same
values of the block's axes shares; a block that fails raises the error a
parse of its point alone raises.  It also
integrates each basis term once per model and weighting of the call, so
a sweep over a utility coefficient integrates 2 per distinct model.
"""

import copy
import json
import re
import sys

import numpy as np
import pytest

from cotv import config, distributions, eu, non_eu, numerics
from cotv.cli import run_scenario, sweep_rows
from cotv.config import parse_config
from cotv.distributions import ServiceTimeModel
from cotv.errors import ConfigError, NonConvergenceError
from cotv.non_eu import RduContext, rdu_ratio
from cotv.numerics import Tolerance

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


def model_classes(cls=ServiceTimeModel):
    yield cls
    for sub in cls.__subclasses__():
        yield from model_classes(sub)


def kernel_records(run, monkeypatch) -> tuple[list, list]:
    """(level calls, levels) of each integral ``run()`` computes, and the
    quantile passes of each shared call.

    An integral is one call of ``numerics._tanh_sinh``, one term read; its
    level calls are the calls of the node values it is handed, and its
    levels the finest it reached (3 is h = 1/8).  A shared call is one
    :meth:`~cotv.distributions.ServiceTimeModel._expects` call of a
    continuous model, and its quantile passes are the outermost calls of
    a model's ``_level_times`` (a shifted and scaled model calls its
    base's) until the next shared call.
    """
    integrals, passes = [], []
    tanh_sinh, expects = numerics._tanh_sinh, ServiceTimeModel._expects
    depth = 0

    def counted_tanh_sinh(values, tol, info=None):
        info = {} if info is None else info
        calls = 0

        def counted(level):
            nonlocal calls
            calls += 1
            return values(level)

        value = tanh_sinh(counted, tol, info)
        integrals.append((calls, info["levels"]))
        return value

    def counted_times(times):
        def counted(self, level):
            nonlocal depth
            passes[-1] += depth == 0
            depth += 1
            try:
                return times(self, level)
            finally:
                depth -= 1
        return counted

    def counted_expects(self, *args):
        passes.append(0)
        return expects(self, *args)

    for module in (numerics, distributions):
        monkeypatch.setattr(module, "_tanh_sinh", counted_tanh_sinh)
    for cls in set(model_classes()):
        if "_level_times" in vars(cls):
            monkeypatch.setattr(cls, "_level_times",
                                counted_times(vars(cls)["_level_times"]))
    monkeypatch.setattr(ServiceTimeModel, "_expects", counted_expects)
    run()
    return integrals, passes


def kernel_calls(run, monkeypatch) -> dict:
    roots = (numerics.find_root, numerics.expand_bracket)
    records = []
    counts = count_calls(roots, lambda: records.extend(kernel_records(run, monkeypatch)[0]))
    return {"integrals": len(records), **counts}


def report(raw: dict):
    scenario = parse_config(raw)
    return lambda: run_scenario(scenario)


PURE_QUADRATIC = {"family": "pure_quadratic", "params": {"a": -1.0}}
AFFINE = {"family": "affine", "params": {"slope": 1.0}}
BAND = {"family": "discrete", "dt": {"t0": 3.0, "xi": [-1.0, -0.5, 0.5, 1.0]}}


@pytest.mark.parametrize("raw, expected", [
    (EU_EXACT, {"integrals": 2, "find_root": 0, "expand_bracket": 0}),
    (dict(EU_EXACT, preference=AFFINE),
     {"integrals": 1, "find_root": 0, "expand_bracket": 0}),
    (RDU_EXACT, {"integrals": 3, "find_root": 1, "expand_bracket": 0}),
    (RDU_GAMMA, {"integrals": 3, "find_root": 1, "expand_bracket": 0}),
    (dict(RDU_EXACT, preference=PURE_QUADRATIC),
     {"integrals": 2, "find_root": 0, "expand_bracket": 0}),
    (dict(RDU_EXACT, preference=AFFINE),
     {"integrals": 1, "find_root": 0, "expand_bracket": 0}),
    (dict(RDU_EXACT, distribution=BAND),
     {"integrals": 0, "find_root": 1, "expand_bracket": 0}),
    (dict(RDU_EXACT, distribution=BAND, preference=PURE_QUADRATIC),
     {"integrals": 0, "find_root": 0, "expand_bracket": 0}),
], ids=["eu", "eu-affine", "rdu", "rdu-gamma", "rdu-pure_quadratic", "rdu-affine",
        "rdu-band", "rdu-band-pure_quadratic"])
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
    """The iterations of each premium root ``run()`` searches for, and how
    many times each premium solved from E_w[u] evaluates u at the mean."""
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

        def __getattr__(self, name):
            return getattr(self.inner, name)

        def u(self, t):
            self.calls += t == self.mu
            return self.inner.u(t)

    def counted_solve(u, mu, *args):
        counted = Counted(u, mu)
        try:
            return solve(counted, mu, *args)
        finally:
            at_mean.append(counted.calls)

    monkeypatch.setattr(eu, "find_root", counted_root)
    for module in (eu, non_eu):
        monkeypatch.setattr(module, "_solve_premium", counted_solve)
    run()
    return iterations, at_mean


def bench_pass(workload: str):
    """A seed-1 pass over the benchmark's report corpus or sweep grids."""
    # a report corpus item holds its scenario under "config"
    configs = [item.get("config", item) for item in getattr(bench_inputs(), workload)(1)]

    def run():
        for raw in configs:
            scenario = parse_config(raw)
            if "sweep" in raw:
                sweep_rows(scenario)
            else:
                run_scenario(scenario)

    return run


# Every exact premium, an RDU band's too, is solved by eu._solve_premium.
# Only the power and constant-prudence premiums search for a root: 105 of
# the report corpus's 225, and none of the sweep grids' 1024, whose
# utilities are all quadratic.  Brent's method solves each in at most 10
# iterations (bisection with secant steps took up to 33), and the gap at 0,
# which picks the bracket and is one of its ends, is evaluated once.
@pytest.mark.parametrize("workload, roots, on_window", [
    ("report_corpus", 105, 225),
    ("sweep_grids", 0, 1024),
])
def test_premium_roots_take_few_iterations(workload, roots, on_window, monkeypatch):
    iterations, at_mean = premium_roots(bench_pass(workload), monkeypatch)
    assert len(iterations) == roots and all(count <= 10 for count in iterations)
    assert len(at_mean) == on_window and set(at_mean) == {1}


DT_EXPONENTIAL = {"framework": "dt",
                  "distribution": {"family": "exponential", "params": {"rate": 1.0}},
                  "preference": {"family": "affine", "params": {"slope": 1.0}},
                  "weighting": {"family": "inverse_s", "params": {"gamma": 0.8}}}
DT_GAMMA = dict(DT_EXPONENTIAL, distribution=GAMMA)


@pytest.mark.parametrize("raw, expected", [
    (both(EU_EXACT), {"integrals": 2, "find_root": 0, "expand_bracket": 0}),
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
    records, passes = kernel_records(report(raw), monkeypatch)
    assert records == [] and passes == []


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


# (run, integrals): every term of a report reads the nodes of one shared
# call, which makes one quantile pass per level its terms reach; each term
# calls its integrand once per level, and here all stop at h = 1/8.
INTEGRALS = {
    "eu": (report(EU_EXACT), 2),
    "rdu": (report(RDU_EXACT), 3),
    "rdu-both": (report(both(RDU_EXACT)), 3),
    "rdu-gamma": (report(RDU_GAMMA), 3),
    "dt-both": (report(both(DT_EXPONENTIAL)), 1),
    "dt-both-gamma": (report(both(DT_GAMMA)), 1),
}


@pytest.mark.parametrize("run, integrals", INTEGRALS.values(), ids=INTEGRALS)
def test_one_quantile_pass_per_shared_call(run, integrals, monkeypatch):
    records, shared = kernel_records(run, monkeypatch)
    assert records == [(1, 3)] * integrals
    assert shared == [1]


def test_a_finer_level_is_one_more_pass_for_every_term(monkeypatch):
    # power weighting's w'(p) ~ p^0.2 on a uniform model: at a 1e-12
    # budget E_w[t^2] needs h = 1/16 and E_w[t] does not; each term calls
    # its integrand once per level it reaches, and the finer level is one
    # more quantile pass, made once for the call
    model, w = distributions.Uniform(4.6, 7.3), distributions.PowerWeighting(1.2)
    terms = [(lambda t: t * t, w), (lambda t: t, w), (lambda t: t * t, w)]
    tight = numerics.Tolerance(abs_tol=1e-14, rel_tol=1e-12)
    records, shared = kernel_records(lambda: list(model._expects(terms, tight)),
                                     monkeypatch)
    assert records == [(2, 4), (1, 3), (2, 4)] and shared == [2]


def counting(f):
    """``f`` wrapped to record the number of nodes of each call."""
    sizes = []

    def counted(t):
        sizes.append(np.size(t))
        return f(t)
    return counted, sizes


def test_integrate_calls_its_integrand_once_per_panel():
    # the adaptive Gauss route of the public integrate, which no report
    # takes: one call on the 15 nodes of each panel, so a count of its
    # calls is a count of its panels; on [0, 10] the window's halves
    # already agree, on [0, 100] it bisects to depth 2
    counted, sizes = counting(lambda t: np.exp(-t))
    info = {}
    numerics.integrate(counted, 0.0, 100.0, Tolerance(rel_tol=1e-12), info)
    assert info == {"panels": 11, "max_depth": 2}
    assert len(sizes) == info["panels"] and set(sizes) == {15}


def test_integrate_stopped_at_its_depth_cap_called_once_per_panel():
    # it raises after the window and 6 bisections, 13 panels, traced by hand
    counted, sizes = counting(lambda t: np.sign(t - 1.0 / 3.0))
    with pytest.raises(NonConvergenceError, match=re.escape(
            "quadrature did not converge on [0.25, 0.375] at depth 4")):
        numerics.integrate(counted, 0.0, 1.0,
                           Tolerance(abs_tol=1e-14, rel_tol=0.0, max_iter=4))
    assert len(sizes) == 13 and set(sizes) == {15}


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


# a grid as a config file gives it: json.loads makes each number literal
# its own float, so the duplicate values of a are distinct objects, and
# the two rate-2 models are JSON-equal dicts that are not the same dict
LOADED_SWEEP = json.loads("""{
    "framework": "eu", "distribution": {"family": "exponential", "params": {"rate": 1.0}},
    "preference": {"family": "quadratic", "params": {"a": -1.0, "b": 0.0}},
    "method": "both",
    "sweep": {"axes": {
        "distribution": [{"family": "exponential", "params": {"rate": 2.0}},
                         {"family": "uniform", "params": {"lo": 1.0, "hi": 3.0}},
                         {"family": "exponential", "params": {"rate": 2.0}}],
        "preference.params.a": [-1.0, -2.0, -1.0],
        "economics.phi": [1.0, 2.5]}}}""")


def test_loaded_sweep_repeats_values_as_distinct_objects():
    axes = LOADED_SWEEP["sweep"]["axes"]
    models, a = axes["distribution"], axes["preference.params.a"]
    assert models[0] == models[2] and models[0] is not models[2]
    assert a[0] == a[2] and a[0] is not a[2]


@pytest.mark.parametrize("raw, expected", [
    (EU_SWEEP, {"build_model": 2, "build_utility": 1, "build_weighting": 0}),
    (PREFERENCE_SWEEP, {"build_model": 1, "build_utility": 4,
                        "build_weighting": 0}),
    (LOADED_SWEEP, {"build_model": 2, "build_utility": 2, "build_weighting": 0}),
], ids=["eu", "preference", "loaded"])
def test_sweep_builds_each_distinct_block_once(raw, expected):
    scenario = parse_config(raw)
    counts = count_calls(BUILDERS, lambda: sweep_rows(scenario))
    assert counts == expected


def test_sweep_writes_each_block_key_once():
    # 8 models x 4 values of b: one key per distinct block, not two per point
    grid = parse_config(bench_inputs().sweep_grids(1)[0])
    assert count_calls([json.dumps], lambda: sweep_rows(grid)) == {"dumps": 12}


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


def integrals(run, monkeypatch) -> int:
    return len(kernel_records(run, monkeypatch)[0])


def test_sweep_over_a_utility_coefficient_integrates_twice_per_model(monkeypatch):
    # 8 models x 4 values of b: E[t] and E[t^2] once per model, and a
    # second call keeps no memo of the first
    grid = parse_config(bench_inputs().sweep_grids(1)[0])
    assert integrals(lambda: sweep_rows(grid), monkeypatch) == 16
    assert integrals(lambda: sweep_rows(grid), monkeypatch) == 16


@pytest.mark.parametrize("variant, expected", [
    ("rdu", 2 * 3),  # 3 weightings x E_w[t], E_w[t^2]
    ("dt", 3),       # E_w[t] per weighting
])
def test_weighted_sweep_integrates_once_per_weighting(variant, expected, monkeypatch):
    raw = {"framework": variant, "distribution": EXPONENTIAL,
           "preference": {"family": "quadratic", "params": {"a": -1.0, "b": 0.0}},
           "weighting": {"family": "power", "params": {"gamma": 2.0}},
           "method": "both",
           "sweep": {"axes": {"preference.params.b": [-1.0, -0.5, 0.0],
                              "weighting.params.gamma": [1.5, 2.0, 3.0]}}}
    assert integrals(lambda: sweep_rows(parse_config(raw)), monkeypatch) == expected


@pytest.mark.parametrize("workload, expected", [
    ("report_corpus", 435),
    ("sweep_grids", 512),
])
def test_benchmark_pass_integrals(workload, expected, monkeypatch):
    assert integrals(bench_pass(workload), monkeypatch) == expected


@pytest.mark.parametrize("workload, calls", [
    ("report_corpus", 225),
    ("sweep_grids", 256),
])
def test_benchmark_pass_makes_one_quantile_pass_per_call(workload, calls, monkeypatch):
    # every integral of both passes stops at h = 1/8, its integrand called
    # once
    records, passes = kernel_records(bench_pass(workload), monkeypatch)
    assert passes == [1] * calls
    assert set(records) == {(1, 3)}
