"""Start-up guards: no code path of the package loads scipy, and none
loads ``dataclasses``.

``import cotv`` and scenarios on every family, gamma included, load no
module of scipy; the lognormal's normal cdf comes from ``math`` and its
quantile is numpy arithmetic, so no scenario imports ``statistics``
either.  Nor does any load ``numpy.polynomial`` (a few ms of each cold
process): the quadrature's Gauss-Legendre rule is a table in
``cotv.numerics``.  Each check runs in a fresh interpreter, because the
test process itself has scipy loaded (scipy is the tests' oracle, in the
``test`` extra, and not a runtime dependency).  The records are plain
classes and ``NamedTuple``s: decorating a dataclass runs several ``exec``
calls, a fixed cost of every cold ``cotv`` process.  Nor does import
build the tanh-sinh nodes or the lognormal's normal quantiles at them:
each level of both is built on its first use, so a run that integrates
nothing pays nothing for them, and one that reaches only the base level
builds only that.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

PROBE = """
import json, sys
import cotv, cotv.cli
from cotv.config import parse_config
from cotv.cli import dualmoments_payload, run_scenario

COMMANDS = {"value": run_scenario, "dualmoments": dualmoments_payload}

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "statistics")
                  or m.startswith("numpy.polynomial"))

seen = {"import": loaded()}
for name, raw in json.loads(sys.argv[1]).items():
    command = COMMANDS[raw.pop("command", "value")]
    command(parse_config(raw))
    seen[name] = loaded()
print(json.dumps(seen))
"""


def scenario(distribution, framework="eu"):
    raw = {"framework": framework, "distribution": distribution,
           "preference": {"family": "power", "params": {"exponent": 1.5}},
           "method": "both"}
    if framework == "dt":
        raw["preference"] = {"family": "affine", "params": {}}
    if framework != "eu":
        raw["weighting"] = {"family": "inverse_s", "params": {"gamma": 0.7},
                            "psi": 0.3}
    return raw


def run_fresh(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", code, *args],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def loaded_after(scenarios):
    return run_fresh(PROBE, json.dumps(scenarios))


def test_numpy_only_families_load_no_scipy():
    seen = loaded_after({
        "exponential": scenario({"family": "exponential", "params": {"rate": 1.0}}),
        "uniform": scenario({"family": "uniform", "params": {"lo": 1.0, "hi": 3.0}}),
        "discrete": scenario({"family": "discrete", "outcomes": [1.0, 2.0, 4.0],
                              "probabilities": [0.2, 0.5, 0.3]}),
        "banded": scenario({"family": "discrete",
                            "dt": {"t0": 2.0, "xi": [-1.0, 1.0], "p0": 0.5,
                                   "psi": 0.3}}, framework="dt"),
    })
    assert seen == {name: [] for name in
                    ("import", "exponential", "uniform", "discrete", "banded")}


def test_lognormal_loads_no_scipy():
    lognormal = {"family": "lognormal", "params": {"log_mean": 1.0, "log_sd": 0.5}}
    seen = loaded_after({framework: scenario(lognormal, framework)
                         for framework in ("eu", "dt", "rdu")})
    assert seen == {name: [] for name in ("import", "eu", "dt", "rdu")}


def test_gamma_loads_no_scipy():
    gamma = {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}}
    scenarios = {framework: scenario(gamma, framework)
                 for framework in ("eu", "dt", "rdu")}
    scenarios["dualmoments"] = dict(scenario(gamma), command="dualmoments")
    seen = loaded_after(scenarios)
    assert seen == {name: [] for name in ("import", "eu", "dt", "rdu", "dualmoments")}


def _imported(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_scipy_and_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    sources = sorted((ROOT / "src" / "cotv").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not [name for name in _imported(tree)
                    if name.split(".")[0] == "scipy"], path.name
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(requirements):
        return [re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])


DATACLASSES_PROBE = """
import json, sys
import cotv.cli
from cotv.cli import run_scenario
from cotv.config import parse_config

seen = {"import": "dataclasses" in sys.modules}
for name, raw in json.loads(sys.argv[1]).items():
    run_scenario(parse_config(raw))
    seen[name] = "dataclasses" in sys.modules
print(json.dumps(seen))
"""


def test_no_module_imports_dataclasses():
    sources = sorted((ROOT / "src" / "cotv").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert "dataclasses" not in list(_imported(tree)), path.name


def test_value_runs_load_no_dataclasses():
    gamma = {"family": "gamma", "params": {"shape": 2.0, "rate": 1.0}}
    scenarios = {framework: scenario(gamma, framework)
                 for framework in ("eu", "dt", "rdu")}
    scenarios["banded"] = scenario({"family": "discrete",
                                    "dt": {"t0": 2.0, "xi": [-1.0, 1.0],
                                           "p0": 0.5, "psi": 0.3}}, framework="dt")
    seen = run_fresh(DATACLASSES_PROBE, json.dumps(scenarios))
    assert seen == {name: False for name in ("import", "eu", "dt", "rdu", "banded")}


TABLES_PROBE = """
import json, sys
import cotv.cli
from cotv import distributions, numerics
from cotv.cli import run_scenario
from cotv.config import parse_config

def built():
    return [sorted(numerics._LEVELS), sorted(distributions._NORMAL_LEVELS)]

seen = {"import": built()}
for name, raw in json.loads(sys.argv[1]).items():
    run_scenario(parse_config(raw))
    seen[name] = built()
print(json.dumps(seen))
"""


def test_quadrature_tables_are_built_on_first_use():
    # a banded instance and a DT second-order report integrate nothing; an
    # RDU second-order report integrates the distorted mean, on the base
    # level (h = 1/8), so a lognormal one builds that level's table
    lognormal = {"family": "lognormal", "params": {"log_mean": 1.0, "log_sd": 0.5}}
    banded = scenario({"family": "discrete",
                       "dt": {"t0": 2.0, "xi": [-1.0, 1.0], "p0": 0.5, "psi": 0.3}},
                      framework="dt")
    scenarios = {"banded": banded,
                 "dt": dict(scenario(lognormal, "dt"), method="second_order"),
                 "rdu": dict(scenario(lognormal, "rdu"), method="second_order")}
    seen = run_fresh(TABLES_PROBE, json.dumps(scenarios))
    assert seen == {"import": [[], []], "banded": [[], []], "dt": [[], []],
                    "rdu": [[3], [3]]}
