"""Kernel calls per exact report and object builds per scenario.

The calls are counted on the code objects of the functions through
``sys.setprofile``, so the count does not depend on how a module binds
them.  Each exact report computes E_w[u] once: EU takes E[u] and VOT
(2 integrals), RDU adds the two dual moments and the distorted mean
(5 integrals); the premium is one root solve on a bracket inside the
integration window, with no bracket search.  A ``method: "both"``
scenario computes the inputs its two reports share once: RDU second order
reuses the dual moments and the distorted mean of the exact report (5
integrals in all, not 8), DT reuses the dual moment (2, not 3), and EU
second order integrates nothing (2).  Each integral calls its
integrand once for the window and its halves, then once for every panel
it bisects; those calls are counted by wrapping the integrand that
``distributions`` hands to the kernel.  ``parse_config`` builds a
scenario's model, utility and weighting once, and every report of the
scenario uses those objects.  A sweep parses each grid point once but
builds each distinct block (equal canonical JSON) once per sweep; a block
that fails raises the error a parse of its point alone raises.
"""

import copy
import sys

import numpy as np
import pytest

from cotv import config, distributions, numerics
from cotv.cli import run_scenario, sweep_rows
from cotv.config import parse_config
from cotv.errors import ConfigError

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


def kernel_calls(raw: dict) -> dict:
    scenario = parse_config(raw)
    kernel = (numerics.integrate, numerics.find_root, numerics.expand_bracket)
    return count_calls(kernel, lambda: run_scenario(scenario))


@pytest.mark.parametrize("raw, expected", [
    (EU_EXACT, {"integrate": 2, "find_root": 1, "expand_bracket": 0}),
    (RDU_EXACT, {"integrate": 5, "find_root": 1, "expand_bracket": 0}),
], ids=["eu", "rdu"])
def test_exact_report_kernel_calls(raw, expected):
    assert kernel_calls(raw) == expected


def both(raw: dict) -> dict:
    return dict(raw, method="both")


DT_EXPONENTIAL = {"framework": "dt",
                  "distribution": {"family": "exponential", "params": {"rate": 1.0}},
                  "preference": {"family": "affine", "params": {"slope": 1.0}},
                  "weighting": {"family": "inverse_s", "params": {"gamma": 0.8}}}


@pytest.mark.parametrize("raw, expected", [
    (both(EU_EXACT), {"integrate": 2, "find_root": 1, "expand_bracket": 0}),
    (both(DT_EXPONENTIAL), {"integrate": 2, "find_root": 0, "expand_bracket": 0}),
    (both(RDU_EXACT), {"integrate": 5, "find_root": 1, "expand_bracket": 0}),
], ids=["eu", "dt", "rdu"])
def test_both_report_kernel_calls(raw, expected):
    assert kernel_calls(raw) == expected


def integral_calls(run, monkeypatch) -> list[tuple[int, int]]:
    """(integrand calls, panels) of each integral ``run()`` computes."""
    records = []

    def integrate(f, lo, hi, tol=None, info=None):
        calls = 0

        def counted(t):
            nonlocal calls
            calls += 1
            return f(t)

        info = {} if info is None else info
        value = numerics.integrate(counted, lo, hi, tol, info)
        records.append((calls, info["panels"]))
        return value

    monkeypatch.setattr(distributions, "integrate", integrate)
    run()
    return records


INTEGRALS = {
    "exp": (lambda: distributions.integrate(lambda t: np.exp(-t), 0.0, 10.0), 1),
    "eu": (lambda: run_scenario(parse_config(EU_EXACT)), 2),
    "rdu": (lambda: run_scenario(parse_config(RDU_EXACT)), 5),
}


@pytest.mark.parametrize("run, integrals", INTEGRALS.values(), ids=INTEGRALS)
def test_one_integrand_call_per_bisection(run, integrals, monkeypatch):
    records = integral_calls(run, monkeypatch)
    assert len(records) == integrals
    for calls, panels in records:
        assert calls == 1 + (panels - 3) // 4


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
