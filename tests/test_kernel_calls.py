"""Quadrature and root-finding calls per exact report.

The calls are counted on the code objects of ``numerics.integrate`` and
``numerics.find_root`` through ``sys.setprofile``, so the count does not
depend on how a module binds the functions.  Each exact report computes
E_w[u] once: EU takes E[u] and VOT (2 integrals), RDU adds the two dual
moments and the distorted mean (5 integrals); the premium is one root
solve.
"""

import sys

import pytest

from cotv import numerics
from cotv.cli import run_scenario
from cotv.config import parse_config

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


def kernel_calls(raw: dict) -> dict:
    codes = {numerics.integrate.__code__: "integrate",
             numerics.find_root.__code__: "find_root"}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    config = parse_config(raw)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_scenario(config)
    finally:
        sys.setprofile(previous)
    return counts


@pytest.mark.parametrize("raw, expected", [
    (EU_EXACT, {"integrate": 2, "find_root": 1}),
    (RDU_EXACT, {"integrate": 5, "find_root": 1}),
], ids=["eu", "rdu"])
def test_exact_report_kernel_calls(raw, expected):
    assert kernel_calls(raw) == expected
