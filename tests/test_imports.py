"""Start-up guard: which parts of scipy a process loads.

``import cotv`` and every family but gamma load no module of scipy at
all; the lognormal's normal cdf comes from ``math`` and its quantile is
numpy arithmetic, so no scenario imports ``statistics`` either.  Gamma
loads ``scipy.special`` on first use and nothing of scipy beyond what
``import scipy.special`` itself loads.  Each check runs in a fresh
interpreter, because the test process itself has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import json, sys
import cotv, cotv.cli
from cotv.config import parse_config
from cotv.cli import run_scenario

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "statistics"))

seen = {"import": loaded()}
for name, raw in json.loads(sys.argv[1]).items():
    run_scenario(parse_config(raw))
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


def test_gamma_loads_scipy_special_only():
    special = run_fresh("import json, sys, scipy.special\n"
                        "print(json.dumps(sorted(m for m in sys.modules"
                        " if m.split('.')[0] == 'scipy')))")
    seen = loaded_after({"gamma": scenario({"family": "gamma",
                                            "params": {"shape": 2.0, "rate": 1.0}})})
    assert seen["import"] == []
    assert "scipy.special" in seen["gamma"]
    assert set(seen["gamma"]) <= set(special)
